"""Command line behavior: target parsing, output shapes, exit codes."""

import json
import re
import time

import pytest

from atomlab import claims, cli, families
from atomlab.engine import MAX_BOARD_CELLS
from atomlab.monideal import MonIdeal, build_a, build_c, product
from atomlab.natset import NatSet, sumset
from cli_child import run_cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# -- target parsing -------------------------------------------------------------

# one digit past the interpreter's limit on the digits int() reads
_LONG = "9" * 4301


def test_parse_target_forms():
    assert cli.parse_target("{0, 1, 2}") == ("set", NatSet([0, 1, 2]))
    assert cli.parse_target("{3,5}") == ("set", NatSet([3, 5]))
    assert cli.parse_target("a_2") == ("ideal", build_a(2))
    assert cli.parse_target("c4") == ("ideal", build_c(4))
    assert cli.parse_target("<X^2, X Y, Y^2>") == ("ideal", build_a(2))
    assert cli.parse_target("X^3 Y") == ("ideal", MonIdeal([(3, 1)]))
    kind, ideal = cli.parse_target("I_B --minimal 2")
    assert kind == "ideal" and not ideal.is_unit
    kind, set = cli.parse_target("C --seq 1,3,9,22")
    assert kind == "set" and set.min == 0 and set.max == 35
    kind, tb = cli.parse_target("tilde_b --minimal 3 --r 3")
    assert kind == "ideal" and (6, 6) in tb.gens


@pytest.mark.parametrize("text", [
    "", "{}", "{1, -2}", "a_0", "b_3 --minimal 2", "tilde_b --minimal 3",
    "I_B", "I_B --minimal 3 --seq 1,3,7", "A --seq 1,3,8", "<X^-2>",
    "frob_9", "{0,1", "{{0,1}", "{0,1}}", "{0,,1}",
    "C --minimal \u0663", "C --minimal +3", "B --seq 1,3,9,2_2",
    "tilde_b --minimal 3 --r \uff13", "C --seq 1,3,,9,22",
    "A --minimal 2 --minimal 3", "C --seq 1,3,8 --seq 1,3,7",
    "tilde_b --minimal 3 --r 3 --r 4",
    # numbers of more digits than int() reads
    pytest.param("C --minimal " + _LONG, id="C --minimal <4301 digits>"),
    pytest.param("C --seq 1,3," + _LONG, id="C --seq 1,3,<4301 digits>"),
    pytest.param("tilde_b --minimal 3 --r " + _LONG,
                 id="tilde_b --minimal 3 --r <4301 digits>"),
    pytest.param("a_" + _LONG, id="a_<4301 digits>"),
    # a seed family whose largest element is past the set limit: C and
    # I_C of minimal n = 10 reach 78,731, and this tilde_b 88,570
    "C --minimal 10", "I_C --minimal 10", "tilde_b --minimal 11 --r 11",
])
def test_parse_target_rejects(text):
    # a usage error, which the command line reports with exit code 1
    with pytest.raises(cli._UsageError):
        cli.parse_target(text)


@pytest.mark.parametrize("target, kind", [
    ("{0, 1_0}", "set"), ("{0, +2, \u0663}", "set"), ("{0, \uff12}", "set"),
    ("<X^\u0663, Y>", "monomial")])
def test_literal_numbers_are_ascii_digits(capsys, target, kind):
    # int() alone would read 1_0, +2 and the Arabic-Indic and fullwidth
    # digits
    code, out, err = run(capsys, "atom", target)
    assert code == 1 and not out
    assert err.startswith(f"error: cannot parse {kind}")


@pytest.mark.parametrize("target, kind", [
    ("<X\u3000Y^2, X^3>", "monomial"), ("{0,\u20032}", "set"),
    ("<X^2,\xa0Y^3>", "monomial")])
def test_literal_separators_are_ascii_whitespace(capsys, target, kind):
    # str.strip() and \s alone would read the ideographic, em and
    # no-break spaces as separators
    code, out, err = run(capsys, "atom", target)
    assert code == 1 and not out
    assert err.startswith(f"error: cannot parse {kind}")


def test_ascii_literals_parse(capsys):
    for target in ("{0,2,7}", "<X^2, Y^3>", "{ 0,\t2 , 7 }", "<X^2,\tY^3>",
                   "<X^2 *\tY^2, X^3, Y^3>"):
        code, out, _ = run(capsys, "atom", target)
        assert code == 0 and last_json(out)["atom"] is True


@pytest.mark.parametrize("target", [
    "<X, Y^2> --r 3", "{0,1} --minimal 2", "c_4 --minimal 2"])
def test_literals_take_no_options(capsys, target):
    code, out, err = run(capsys, "atom", target)
    assert code == 1 and not out
    assert err == f"error: {target.split(' --')[0]} takes no options\n"


# -- atom / lengths -------------------------------------------------------------


def test_atom_examples(capsys):
    code, out, _ = run(capsys, "atom", "{0, 1, 2}")
    assert code == 0
    payload = last_json(out)
    assert payload["atom"] is False
    assert payload["witness"] == [[0, 1], [0, 1]]

    code, out, _ = run(capsys, "atom", "c_4")
    assert code == 0 and last_json(out) == {"atom": True, "witness": None}

    code, out, _ = run(capsys, "atom", "I_B --minimal 2")
    assert code == 0 and last_json(out)["atom"] is True

    code, out, _ = run(capsys, "atom", "{2, 5}")
    assert code == 0
    payload = last_json(out)
    assert payload["atom"] is False
    assert payload["witness"] == [[1], [1, 4]]


def test_atom_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "atom", "I_B --minimal 3",
                       "--budget-nodes", "3")
    assert code == 2
    payload = last_json(out)
    assert payload["atom"] == "inconclusive"
    assert payload["budget"]["nodes"] > 3


def test_lengths_examples(capsys):
    code, out, _ = run(capsys, "lengths", "a_5")
    assert code == 0
    assert last_json(out) == {"lengths": [2, 3, 4, 5], "delta": [1],
                              "rho": "5/2"}

    code, out, _ = run(capsys, "lengths", "C --minimal 3")
    assert code == 0
    assert last_json(out) == {"lengths": [2, 4], "delta": [2], "rho": "2"}

    code, out, _ = run(capsys, "lengths", "b_3")
    assert code == 0
    assert last_json(out) == {"lengths": [1], "delta": [], "rho": "1"}

    code, out, _ = run(capsys, "lengths", "{2, 5}")
    assert code == 0
    assert last_json(out) == {"lengths": [3], "delta": [], "rho": "1"}

    code, out, _ = run(capsys, "lengths", "{0,1,2}")
    assert code == 0
    assert last_json(out) == {"lengths": [2], "delta": [], "rho": "1"}


# ([0,1199] u {2500}) + {0,6000}: its divisor search runs about 1,200
# levels deep, past the interpreter's recursion limit
DEEP = NatSet(list(range(1200)) + [2500] + list(range(6000, 7200)) + [8500])


def test_deep_search_atom_answers(capsys):
    code, out, _ = run(capsys, "atom", str(DEEP))
    assert code == 0
    payload = last_json(out)
    assert payload["atom"] is False
    b, c = (NatSet(side) for side in payload["witness"])
    assert sumset(b, c) == DEEP


# explicit ids on the cases that would get positional ones, so that
# removing a case renames none of the others
@pytest.mark.parametrize("budget", [("--budget-seconds", "1"),
                                    ("--budget-nodes", "1500")],
                         ids=["budget0", "budget1"])
def test_deep_search_lengths_stop_on_budget(capsys, budget):
    code, out, err = run(capsys, "lengths", str(DEEP), *budget)
    assert code == 2 and "Traceback" not in err
    assert last_json(out)["lengths"] == "inconclusive"


def test_tall_board_atom_stops_on_time_within_memory():
    # each colon mask of this 16.0M-cell board takes about 2 MB; a frame
    # keeps none past itself, so the time budget ends the search before a
    # 400 MB address space runs out
    code, out, err = run_cli("atom", "<X^400, X Y^200, Y^20000>",
                             "--budget-seconds", "2", max_bytes=400 << 20)
    assert code == 2 and "Traceback" not in err
    assert last_json(out)["atom"] == "inconclusive"


def test_lengths_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "lengths", "I_C --minimal 3",
                       "--budget-nodes", "1000")
    assert code == 2
    assert last_json(out)["lengths"] == "inconclusive"


def test_lengths_time_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "lengths", "a_1000", "--budget-seconds", "0.5")
    assert code == 2
    got = last_json(out)
    assert got["lengths"] == "inconclusive"
    assert got["budget"]["elapsed"] >= 0.5


def test_lengths_time_budget_stops_on_time_on_long_layers(capsys):
    # a_20 has 23,713 small divisors, 21,877 of them atoms, and takes
    # 252,909 nodes; every divisor and every product of the pass ticks, so
    # wherever the limit falls the clock is read soon after it
    code, out, _ = run(capsys, "lengths", "a_20", "--budget-seconds", "0.2")
    assert code == 2
    got = last_json(out)
    assert got["lengths"] == "inconclusive"
    assert 0.2 <= got["budget"]["elapsed"] < 0.4


def test_time_budget_covers_board_set_up(capsys):
    # a 66.7M-cell board, under MAX_BOARD_CELLS, is built in linear time
    # before the first node, so the limit is read soon after it
    start = time.monotonic()
    code, out, _ = run(capsys, "atom", "<X^2800, X^1400 Y^5000, Y^11900>",
                       "--budget-seconds", "0.1")
    assert time.monotonic() - start < 0.7
    assert code == 2 and last_json(out)["atom"] == "inconclusive"


@pytest.mark.parametrize("target, top", [
    ("a_16", 16), ("{" + ",".join(map(str, range(25))) + "}", 24)])
def test_long_lengths_conclusive_under_default_budget(capsys, target, top):
    # products that cannot complete in sorted order are never formed
    code, out, _ = run(capsys, "lengths", target)
    assert code == 0
    assert last_json(out)["lengths"] == list(range(2, top + 1))


def test_monoid_flag_is_gone(capsys):
    # the monoid follows from the target; there is no flag to name it
    code, out, err = run(capsys, "atom", "--monoid", "mon", "c_4")
    assert code == 1 and not out and err.startswith("error: ")


@pytest.mark.parametrize("command", ["atom", "lengths"])
def test_search_limit_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "{0, 70000}")
    assert code == 1 and not out
    assert err.startswith("error: ") and "65536" in err


@pytest.mark.parametrize("target", [
    "a_99999999999999999999", "a_30000000", "c_30000000"])
def test_family_index_past_the_set_limit_is_a_usage_error(capsys, target):
    # a_k, b_k and c_k are phi of a 0-set of max k: past the set limit
    # the index is refused before the ideal is built
    code, out, err = run(capsys, "atom", target)
    assert code == 1 and not out
    assert err.startswith("error: ") and "65536" in err
    assert "Traceback" not in err


def test_family_size_is_read_from_the_sequence():
    # the largest element of each seed family, from its sequence alone,
    # is that of the family built; C of minimal n = 9, max 26,243, is the
    # largest C that builds
    for n in range(2, 10):
        seq = families.minimal_sequence(n)
        for head in ("A", "B", "C", "I_B", "I_C"):
            kind, e = cli.parse_target(f"{head} --minimal {n}")
            top = e.max if kind == "set" else e.max_x
            assert cli._family_top(head, seq, None) == top
        for r in range(3, min(n, 7) + 1):
            _kind, e = cli.parse_target(f"tilde_b --minimal {n} --r {r}")
            assert cli._family_top("tilde_b", seq, r) == e.max_x


@pytest.mark.parametrize("argv", [
    # a family built before it is sized
    ("atom", "C --minimal 24"), ("atom", "I_C --minimal 24"),
    ("atom", "I_B --minimal 24"), ("lengths", "A --minimal 26"),
    ("atom", "tilde_b --minimal 30 --r 30"),
    # a minimal sequence built in full before it is bounded
    ("atom", "C --minimal 20000"),
    # numbers past the interpreter's digit limit
    pytest.param(("atom", "C --minimal " + _LONG), id="minimal-digits"),
    pytest.param(("atom", "C --seq 1,3," + _LONG), id="seq-digits"),
    pytest.param(("atom", "tilde_b --minimal 3 --r " + _LONG), id="r-digits"),
    pytest.param(("atom", "a_" + _LONG), id="index-digits")],
    ids=" ".join)
def test_oversized_targets_are_usage_errors_in_a_capped_child(argv):
    # each is refused before it is built, so none may end in a
    # MemoryError or ValueError traceback under a 1 GB address space, or
    # run past the timeout
    code, out, err = run_cli(*argv, timeout=20)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_full_monoid_split_needs_no_search(capsys):
    # {1, 70000} = {1} + {0, 69999} without a search, but its lengths need
    # a search of {0, 69999}, which is past the set limit
    code, out, _ = run(capsys, "atom", "{1, 70000}")
    assert code == 0
    assert last_json(out) == {"atom": False, "witness": [[1], [0, 69999]]}
    code, out, err = run(capsys, "lengths", "{1, 70000}")
    assert code == 1 and not out
    assert err.startswith("error: ") and "65536" in err


@pytest.mark.parametrize("command", ["atom", "lengths"])
def test_board_limit_is_a_usage_error(capsys, command):
    # the board of this ideal would need about 2 * 10**22 cells
    code, out, err = run(capsys, command, "<X^99999999999, Y^99999999999>")
    assert code == 1 and not out
    assert err.startswith("error: ") and str(MAX_BOARD_CELLS) in err


@pytest.mark.parametrize("target, limit", [
    ("<X^99999999999, X Y^99999999999>", str(MAX_BOARD_CELLS)),
    ("{100000, 300000}", "65536")])
def test_prime_part_shifted_and_core_refused_where_searched(capsys, target,
                                                            limit):
    # the prime part (X, or {1}^100000) splits off without a search, but
    # the lengths of the core need a search past the limit
    code, out, _ = run(capsys, "atom", target)
    assert code == 0
    got = last_json(out)
    kind, e = cli.parse_target(target)
    if kind == "ideal":
        a, b = (MonIdeal(map(tuple, w["gens"])) for w in got["witness"])
        assert product(a, b) == e
    else:
        a, b = map(NatSet, got["witness"])
        assert sumset(a, b) == e
    assert got["atom"] is False
    code, out, err = run(capsys, "lengths", target)
    assert code == 1 and not out
    assert err.startswith("error: ") and limit in err


def test_table_output(capsys):
    code, out, _ = run(capsys, "lengths", "b_3", "--table")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["lengths"] == "[1]"
    assert lines["rho"] == "1"


# -- verify ----------------------------------------------------------------------


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    ids = last_json(out)["claims"]
    assert len(ids) == 13
    assert "atoms-monomial" in ids and "lengths-monomial-stretch" in ids
    assert "lengths-a-ladder" in ids and "phi-transport" in ids


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "--only", "product-identities")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["claim-id"] == "product-identities"
    assert lines[0]["status"] == "pass"
    assert lines[-1] == {"suite": "all", "pass": 1, "fail": 0,
                         "inconclusive": 0}


def test_verify_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "verify", "--only", "lengths-monomial-stretch",
                       "--budget-nodes", "1000")
    assert code == 2
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["status"] == "inconclusive"
    assert lines[0]["witness"]["budget"]["nodes"] > 1000


def test_verify_reports_nodes(capsys):
    # every claim counts its search nodes, a pass as well as a stop; the
    # count itself is pinned in test_engine.py
    code, out, _ = run(capsys, "verify", "--only", "lengths-monomial-stretch")
    assert code == 0
    line = json.loads(out.strip().splitlines()[0])
    claim, = (c for c in claims.registry()
              if c.claim_id == "lengths-monomial-stretch")
    assert (line["status"], line["nodes"]) == \
        ("pass", claims.run_claim(claim).nodes)


@pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-seconds"])
def test_verify_zero_budget_means_no_cap(capsys, flag):
    code, out, _ = run(capsys, "verify", "--only", "lengths-monomial",
                       flag, "0")
    assert code == 0
    assert last_json(out) == {"suite": "all", "pass": 1, "fail": 0,
                              "inconclusive": 0}


@pytest.mark.parametrize("argv", [
    ["atom", "c_4"],
    ["lengths", "c_4"],
    ["verify", "--only", "lengths-monomial"],
    ["verify", "--list"],
], ids=["argv0", "argv1", "argv2", "argv3"])
@pytest.mark.parametrize("budget", [["--budget-nodes", "-1"],
                                    ["--budget-seconds", "-0.5"]],
                         ids=["budget0", "budget1"])
def test_negative_budget_is_a_usage_error(capsys, argv, budget):
    code, out, err = run(capsys, *argv, *budget)
    assert code == 1 and not out
    assert err.startswith("error: ") and "budget must be >= 0" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--only", "no-such-claim")
    assert code == 1 and "no-such-claim" in err


@pytest.mark.parametrize("fmt", [[], ["--table"]], ids=["fmt0", "fmt1"])
def test_verify_empty_selection_is_a_usage_error(capsys, fmt):
    # the stretch claim is not in the core suite, so nothing is selected
    code, out, err = run(capsys, "verify", "--suite", "core", "--only",
                         "lengths-monomial-stretch", *fmt)
    assert code == 1 and not out
    assert err.startswith("error: ") and "no claim" in err


def test_verify_table_smoke(capsys):
    code, out, _ = run(capsys, "verify", "--only", "atoms-monomial",
                       "--table")
    assert code == 0
    claim, status, elapsed, *rest = out.splitlines()[0].split()
    assert (claim, status, rest) == ("atoms-monomial", "pass",
                                     ["ms", "316", "nodes"])
    # milliseconds with one decimal, so no claim reads 0.00s
    assert re.fullmatch(r"[0-9]+\.[0-9]", elapsed)


@pytest.mark.parametrize("argv", [
    ["atom"],
    ["lengths", "Z --minimal 2"],
    ["lengths", "A --seq 1,3,8"],
    ["verify", "--suite", "bogus"],
    # exact claims took the place of the sampling study
    ["experiment", "phi-transport"],
    ["experiment", "atom-density"],
    ["experiment"],
], ids=[f"argv{i}" for i in range(7)])
def test_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
