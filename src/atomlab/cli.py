"""Command-line front end.

Subcommands: `atom` and `lengths` answer questions about one target element,
`verify` runs the registered claim suites, and `experiment` runs the sampling
study.  Output is line-delimited JSON by default, a plain table with
--table.  Exit codes: 0 conclusive/pass, 1 usage or parse error, 2
inconclusive (a search budget ran out), 3 verification failure.

Targets are set literals like "{0,1,2}", ideal literals like
"<X^2, X Y, Y^2>", or family names:

    a_5  b_3  c_7                     ideal families (also "a5", "b3", "c4")
    I_B --minimal 2                   ideal built from a seed sequence
    I_C --seq 1,3,9,22
    tilde_b --minimal 3 --r 3
    A --minimal 2   B --seq 1,3,7   C --minimal 3     set-level families

Seed sequences come either from --minimal n (the smallest valid sequence
for that n) or from an explicit --seq a1,a2,...,a{n+1}.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from fractions import Fraction

from . import claims, engine, families, monideal, natset, oracle
from .engine import (Budget, SearchBudgetExceeded, monomial_engine,
                     sumset_engine)
from .monideal import UNIT, MonIdeal
from .natset import NatSet

__all__ = ["entry", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- target mini-language ----------------------------------------------------

_IDEAL_FAMILY = re.compile(r"([abc])_?([0-9]+)\Z")


def _number(digits: str, what: str) -> int:
    # int() refuses a string past the interpreter's digit limit
    try:
        return int(digits)
    except ValueError:
        raise _UsageError(f"{what} has {len(digits)} digits, too many to "
                          f"read") from None


def _parse_target_opts(tokens: list[str]) -> dict:
    opts: dict = {}
    i = 0
    while i < len(tokens):
        flag = tokens[i]
        if flag not in ("--minimal", "--seq", "--r"):
            raise _UsageError(f"unexpected token {flag!r} in target")
        if flag[2:] in opts:
            raise _UsageError(f"{flag} given twice")
        if i + 1 >= len(tokens):
            raise _UsageError(f"{flag} needs a value")
        value = tokens[i + 1]
        parts = value.split(",") if flag == "--seq" else [value]
        # ASCII digits, as in a literal: int() alone also reads signs,
        # underscores and other scripts' digits
        if not all(natset._DIGITS.fullmatch(p) for p in parts):
            raise _UsageError(f"bad value {value!r} for {flag}")
        nums = [_number(p, flag) for p in parts]
        opts[flag[2:]] = nums if flag == "--seq" else nums[0]
        i += 2
    return opts


def _resolve_sequence(opts: dict) -> families.SumSequence:
    has_minimal = "minimal" in opts
    has_seq = "seq" in opts
    if has_minimal == has_seq:
        raise _UsageError("give exactly one of --minimal n or --seq a1,a2,...")
    try:
        if has_minimal:
            return families.minimal_sequence(opts["minimal"])
        return families.SumSequence(tuple(opts["seq"]))
    except (ValueError, OverflowError) as exc:
        raise _UsageError(str(exc)) from None


def _parse_literal(parse, tokens: list[str]):
    """Parse the tokens of a set or ideal literal, which takes no options."""
    for i, token in enumerate(tokens):
        if token.startswith("--"):
            raise _UsageError(f"{' '.join(tokens[:i])} takes no options")
    try:
        return parse(" ".join(tokens))
    except (ValueError, TypeError, OverflowError) as exc:
        raise _UsageError(str(exc)) from None


def _family_top(head: str, seq: families.SumSequence, r) -> int:
    """The largest element of a seed family, an exponent for an ideal,
    from its sequence alone, so that a family past the search limit is
    refused before it is built.

    max A = a_1 + ... + a_{n-1}; B and I_B add a_{n+1}; C and I_C are
    a_1 + ... + a_{n+1}; tilde_b is a_1 + a_3 + ... + a_r, or 0 for an r
    that build_tilde_b refuses itself.
    """
    vals, n = seq.values, seq.n
    if head == "tilde_b":
        return vals[0] + sum(vals[2:r]) if 3 <= r <= n else 0
    if head in ("C", "I_C"):
        return sum(vals)
    top = sum(vals[:n - 1])
    return top if head == "A" else top + vals[n]


def parse_target(text: str):
    """Parse a target string into ("set", NatSet) or ("ideal", MonIdeal)."""
    try:
        tokens = shlex.split(text)
    except ValueError as exc:
        raise _UsageError(f"cannot tokenize target: {exc}") from None
    if not tokens:
        raise _UsageError("empty target")
    head, rest = tokens[0], tokens[1:]
    if head.startswith("{"):
        return "set", _parse_literal(NatSet.from_text, tokens)
    if head.startswith("<") or "X" in head or "Y" in head:
        return "ideal", _parse_literal(MonIdeal.from_text, tokens)
    opts = _parse_target_opts(rest)
    match = _IDEAL_FAMILY.fullmatch(head)
    if match:
        if opts:
            raise _UsageError(f"{head} takes no options")
        kind, index = match.group(1), _number(match.group(2),
                                              "the family index")
        # a_k, b_k and c_k are phi of a 0-set of max k
        if index > natset.SEARCH_LIMIT:
            raise _UsageError(f"{head}: the family index must be at most "
                              f"{natset.SEARCH_LIMIT}")
        builder = {"a": monideal.build_a, "b": monideal.build_b,
                   "c": monideal.build_c}[kind]
        try:
            return "ideal", builder(index)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if head in ("I_B", "I_C", "tilde_b", "A", "B", "C"):
        if head == "tilde_b":
            if "r" not in opts:
                raise _UsageError("tilde_b needs --r k")
            r = opts.pop("r")
        elif "r" in opts:
            raise _UsageError(f"{head} does not take --r")
        seq = _resolve_sequence(opts)
        top = _family_top(head, seq, r if head == "tilde_b" else None)
        if top > natset.SEARCH_LIMIT:
            raise _UsageError(f"{head}: the largest element of the family "
                              f"must be at most {natset.SEARCH_LIMIT}, got "
                              f"{top}")
        try:
            if head == "I_B":
                return "ideal", monideal.build_i_b(seq)
            if head == "I_C":
                return "ideal", monideal.build_i_c(seq)
            if head == "tilde_b":
                return "ideal", monideal.build_tilde_b(seq, r)
            builder = {"A": families.build_A, "B": families.build_B,
                       "C": families.build_C}[head]
            return "set", builder(seq)
        except (ValueError, IndexError) as exc:
            raise _UsageError(str(exc)) from None
    raise _UsageError(f"cannot parse target {head!r}")


# -- output helpers ----------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v if isinstance(v, str) else json.dumps(v)}")


def _budget_from(args) -> Budget:
    try:
        return engine.make_budget(args.budget_nodes, args.budget_seconds)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _budget_payload(exc: SearchBudgetExceeded) -> dict:
    return {"nodes": exc.nodes, "elapsed": round(exc.elapsed, 3)}


def _rho_text(value) -> str:
    return str(value) if isinstance(value, Fraction) else "inf"


# -- subcommands -------------------------------------------------------------


# the identities of the two monoids: no atom, and no split to search for
_IDENTITIES = (UNIT, NatSet([0]))


def _query(args, answer) -> int:
    """Print answer(target, engine) for the target.

    The engine is a monomial engine for an ideal, a sumset engine for a
    set, in the full monoid of finite nonempty subsets of N.  A budget that
    runs out prints "inconclusive" under the subcommand's key (exit 2); a
    target past the search's size limits raises ValueError, a usage error.
    """
    kind, target = parse_target(args.target)
    make_engine = monomial_engine if kind == "ideal" else sumset_engine
    eng = make_engine(_budget_from(args))
    try:
        payload = answer(target, eng)
    except SearchBudgetExceeded as exc:
        _emit({args.command: "inconclusive",
               "budget": _budget_payload(exc)}, args.fmt)
        return 2
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(payload, args.fmt)
    return 0


def _atom_answer(target, eng) -> dict:
    if target in _IDENTITIES:
        return {"atom": False, "witness": None}
    pair = eng.find_split(target)
    return {"atom": pair is None,
            "witness": None if pair is None else [p.to_json() for p in pair]}


def _lengths_answer(target, eng) -> dict:
    got = eng.lengths(target)
    return {"lengths": list(got), "delta": list(natset.delta_set(got)),
            "rho": _rho_text(natset.elasticity(got))}


def _cmd_atom(args) -> int:
    return _query(args, _atom_answer)


def _cmd_lengths(args) -> int:
    return _query(args, _lengths_answer)


def _print_verify_table(results) -> None:
    width = max(len(r.claim_id) for r in results)
    for r in results:
        print(f"{r.claim_id:<{width}}  {r.status:<12}  {r.elapsed:8.2f}s"
              f"  {r.nodes:>9} nodes")
        if r.witness is not None:
            print(f"{'':<{width}}  witness: {json.dumps(r.witness)}")


def _cmd_verify(args) -> int:
    _budget_from(args)  # refuse a negative limit before anything runs
    if args.list:
        ids = claims.claim_ids()
        if args.fmt == "json":
            print(json.dumps({"claims": ids}))
        else:
            for claim_id in ids:
                print(claim_id)
        return 0
    try:
        results = claims.run_suite(suite=args.suite, only=args.only or None,
                                   budget_nodes=args.budget_nodes,
                                   budget_seconds=args.budget_seconds)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in results:
        counts[r.status] += 1
    if args.fmt == "json":
        for r in results:
            print(json.dumps(r.to_json()))
        print(json.dumps({"suite": args.suite or "all", **counts}))
    else:
        _print_verify_table(results)
        print(f"pass {counts['pass']}  fail {counts['fail']}  "
              f"inconclusive {counts['inconclusive']}")
    if counts["fail"]:
        return 3
    if counts["inconclusive"]:
        return 2
    return 0


def _cmd_experiment(args) -> int:
    # atom-density, the one study
    budget = _budget_from(args)
    sum_eng = sumset_engine(budget)
    if args.samples < 1:
        raise _UsageError("atom-density needs --samples >= 1")
    if not 1 <= args.max <= natset.SEARCH_LIMIT:
        raise _UsageError(
            f"atom-density needs 1 <= --max <= {natset.SEARCH_LIMIT}")
    atoms = 0
    try:
        for a in oracle.sample_zero_sets(args.samples, args.max, args.seed):
            # a sample costs a node, also one that no search ticks
            budget.tick()
            if sum_eng.is_atom(a):
                atoms += 1
    except SearchBudgetExceeded as exc:
        _emit({"experiment": "atom-density", "status": "inconclusive",
               "budget": _budget_payload(exc)}, args.fmt)
        return 2
    _emit({"experiment": "atom-density", "max": args.max,
           "samples": args.samples, "seed": args.seed, "atoms": atoms,
           "fraction": atoms / args.samples}, args.fmt)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sub) -> None:
    nodes = engine.DEFAULT_BUDGET_NODES
    sub.add_argument("--budget-nodes", type=int, default=nodes, metavar="N",
                     help=f"abort searches after N explored candidates "
                          f"(default {nodes}; 0 means no cap)")
    sub.add_argument("--budget-seconds", type=float, default=None,
                     metavar="S",
                     help="abort searches after S seconds (0 means no cap)")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const",
                     const="json", help="line-delimited JSON (default)")
    fmt.add_argument("--table", dest="fmt", action="store_const",
                     const="table", help="human-readable text")
    sub.set_defaults(fmt="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="atomlab",
                     description="Factorization queries in the reduced "
                                 "sumset monoid and the monoid of nonzero "
                                 "monomial ideals of K[X,Y].")
    subs = parser.add_subparsers(dest="command", required=True)

    atom = subs.add_parser("atom", help="decide whether a target is an atom",
                           description=__doc__,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    atom.add_argument("target", help='e.g. "c_4", "{0,1,2}", '
                                     '"I_B --minimal 2"')
    _add_common(atom)
    atom.set_defaults(func=_cmd_atom)

    lengths = subs.add_parser("lengths",
                              help="set of factorization lengths of a target",
                              description=__doc__,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
    lengths.add_argument("target", help='e.g. "a_5", "C --minimal 3"')
    _add_common(lengths)
    lengths.set_defaults(func=_cmd_lengths)

    verify = subs.add_parser("verify", help="run the registered claim suites")
    verify.add_argument("--suite", choices=("core", "stretch"), default=None,
                        help="restrict to one suite (default: all claims)")
    verify.add_argument("--only", action="append", metavar="CLAIM-ID",
                        help="run only this claim (repeatable)")
    verify.add_argument("--list", action="store_true",
                        help="list claim ids and exit")
    _add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    exp = subs.add_parser("experiment", help="a sampling study")
    exp.add_argument("name", choices=("atom-density",))
    exp.add_argument("--max", type=int, default=14, metavar="M",
                     help="sets live inside [0,M] (default 14)")
    exp.add_argument("--samples", type=int, default=500, metavar="K",
                     help="sample size for atom-density (default 500)")
    exp.add_argument("--seed", type=int, default=7,
                     help="RNG seed (default 7)")
    _add_common(exp)
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
