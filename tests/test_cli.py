"""Command line behavior: target parsing, output shapes, exit codes."""

import json

import pytest

from atomlab import cli
from atomlab.engine import MAX_BOARD_CELLS
from atomlab.monideal import MonIdeal, build_a, build_c
from atomlab.natset import NatSet, sumset


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# -- target parsing -------------------------------------------------------------


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
    "frob_9",
])
def test_parse_target_rejects(text):
    with pytest.raises(Exception):
        cli.parse_target(text)


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


@pytest.mark.parametrize("budget", [("--budget-seconds", "1"),
                                    ("--budget-nodes", "1500")])
def test_deep_search_lengths_stop_on_budget(capsys, budget):
    code, out, err = run(capsys, "lengths", str(DEEP), *budget)
    assert code == 2 and "Traceback" not in err
    assert last_json(out)["lengths"] == "inconclusive"


def test_lengths_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "lengths", "I_C --minimal 3",
                       "--budget-nodes", "2000")
    assert code == 2
    assert last_json(out)["lengths"] == "inconclusive"


def test_lengths_time_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "lengths", "a_1000", "--budget-seconds", "0.5")
    assert code == 2
    got = last_json(out)
    assert got["lengths"] == "inconclusive"
    assert got["budget"]["elapsed"] >= 0.5


def test_lengths_time_budget_stops_on_time_on_long_layers(capsys):
    # a_20 has 21,877 small atoms and takes 383,226 nodes; every atom test
    # and every layer product ticks, so wherever the limit falls the clock
    # is read soon after it
    code, out, _ = run(capsys, "lengths", "a_20", "--budget-seconds", "0.5")
    assert code == 2
    got = last_json(out)
    assert got["lengths"] == "inconclusive"
    assert 0.5 <= got["budget"]["elapsed"] < 0.7


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


@pytest.mark.parametrize("command", ["atom", "lengths"])
def test_principal_part_limit_is_a_usage_error(capsys, command):
    # the gcd-free core is one cell, but X^9999999 Y^9999999 has 10**14
    # monomial divisors, each a shift the search would list
    code, out, err = run(capsys, command, "<X^9999999 Y^9999999>")
    assert code == 1 and not out
    assert err.startswith("error: ") and str(MAX_BOARD_CELLS) in err
    assert str(10**14) in err


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
    assert len(ids) == 11
    assert "atoms-monomial" in ids and "lengths-monomial-stretch" in ids


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
                       "--budget-nodes", "2000")
    assert code == 2
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["status"] == "inconclusive"
    assert lines[0]["witness"]["budget"]["nodes"] > 2000


def test_verify_reports_nodes(capsys):
    # every claim counts its search nodes, a pass as well as a stop
    code, out, _ = run(capsys, "verify", "--only", "lengths-monomial-stretch")
    assert code == 0
    line = json.loads(out.strip().splitlines()[0])
    assert (line["status"], line["nodes"]) == ("pass", 3945)


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
    ["experiment", "atom-density", "--samples", "5"],
])
@pytest.mark.parametrize("budget", [["--budget-nodes", "-1"],
                                    ["--budget-seconds", "-0.5"]])
def test_negative_budget_is_a_usage_error(capsys, argv, budget):
    code, out, err = run(capsys, *argv, *budget)
    assert code == 1 and not out
    assert err.startswith("error: ") and "budget must be >= 0" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--only", "no-such-claim")
    assert code == 1 and "no-such-claim" in err


@pytest.mark.parametrize("fmt", [[], ["--table"]])
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
    assert "atoms-monomial" in out and "pass" in out and " nodes" in out


# -- experiments -----------------------------------------------------------------


def test_experiment_atom_density_deterministic(capsys):
    argv = ("experiment", "atom-density", "--max", "9", "--samples", "40",
            "--seed", "11")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    first = last_json(out)
    assert first["samples"] == 40 and first["atoms"] == 21
    code, out, _ = run(capsys, *argv)
    assert code == 0 and last_json(out) == first


def test_experiment_atom_density_rejects_bad_args(capsys):
    code, _, err = run(capsys, "experiment", "atom-density",
                       "--samples", "0")
    assert code == 1 and err
    code, _, err = run(capsys, "experiment", "atom-density",
                       "--max", "70000")
    assert code == 1 and err


def test_experiment_phi_transport(capsys):
    code, out, _ = run(capsys, "experiment", "phi-transport", "--max", "6")
    assert code == 0
    payload = last_json(out)
    assert payload["counterexamples"] == []
    assert payload["checked"] == 1 << 6


@pytest.mark.parametrize("argv", [
    ["atom"],
    ["lengths", "Z --minimal 2"],
    ["lengths", "A --seq 1,3,8"],
    ["verify", "--suite", "bogus"],
])
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err
