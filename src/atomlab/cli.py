"""Command-line front end.

Subcommands: `atom` and `lengths` answer questions about one target element,
`verify` runs the registered claim suites, and `experiment` runs the sampling
studies.  Output is line-delimited JSON by default, a plain table with
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
from typing import Optional

from . import claims, engine, families, monideal, natset, oracle
from .engine import (Budget, SearchBudgetExceeded, monomial_engine,
                     sumset_engine)
from .monideal import UNIT, MonIdeal
from .natset import NatSet

__all__ = ["entry", "main"]


class _UsageError(Exception):
    pass


# Direct queries get a finite default budget so an oversized target answers
# "inconclusive" instead of running unattended; verify defers to per-claim
# defaults.  engine.make_budget reads the flags: 0 lifts a cap, on verify
# the claim's default too, and a negative value is a usage error.
_DEFAULT_NODES = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- target mini-language ----------------------------------------------------

_IDEAL_FAMILY = re.compile(r"([abc])_?([0-9]+)\Z")


def _parse_target_opts(tokens: list[str]) -> dict:
    opts: dict = {}
    i = 0
    while i < len(tokens):
        flag = tokens[i]
        if flag not in ("--minimal", "--seq", "--r"):
            raise _UsageError(f"unexpected token {flag!r} in target")
        if i + 1 >= len(tokens):
            raise _UsageError(f"{flag} needs a value")
        value = tokens[i + 1]
        try:
            if flag == "--seq":
                opts["seq"] = [int(p) for p in value.split(",") if p.strip()]
            else:
                opts[flag[2:]] = int(value)
        except ValueError:
            raise _UsageError(f"bad value {value!r} for {flag}") from None
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
        try:
            return "set", NatSet.from_text(" ".join(tokens))
        except (ValueError, TypeError, OverflowError) as exc:
            raise _UsageError(str(exc)) from None
    if head.startswith("<") or "X" in head or "Y" in head:
        try:
            return "ideal", MonIdeal.from_text(" ".join(tokens))
        except (ValueError, TypeError, OverflowError) as exc:
            raise _UsageError(str(exc)) from None
    opts = _parse_target_opts(rest)
    match = _IDEAL_FAMILY.fullmatch(head)
    if match:
        if opts:
            raise _UsageError(f"{head} takes no options")
        kind, index = match.group(1), int(match.group(2))
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


def _query(args, question: str, answer) -> int:
    """Print answer(target, search) for the target, search being question.

    The engine's method of that name answers: a monomial engine for an
    ideal, a sumset engine for a set, in the full monoid of finite nonempty
    subsets of N.  A budget that runs out prints "inconclusive" under the
    subcommand's key (exit 2); a target past the search's size limits
    raises ValueError, a usage error.
    """
    kind, target = parse_target(args.target)
    make_engine = monomial_engine if kind == "ideal" else sumset_engine
    search = getattr(make_engine(_budget_from(args)), question)
    try:
        payload = answer(target, search)
    except SearchBudgetExceeded as exc:
        _emit({args.command: "inconclusive",
               "budget": _budget_payload(exc)}, args.fmt)
        return 2
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(payload, args.fmt)
    return 0


def _atom_answer(target, find_split) -> dict:
    if target in _IDENTITIES:
        return {"atom": False, "witness": None}
    pair = find_split(target)
    return {"atom": pair is None,
            "witness": None if pair is None else [p.to_json() for p in pair]}


def _lengths_answer(target, lengths) -> dict:
    got = lengths(target)
    return {"lengths": list(got), "delta": list(natset.delta_set(got)),
            "rho": _rho_text(natset.elasticity(got))}


def _cmd_atom(args) -> int:
    return _query(args, "find_split", _atom_answer)


def _cmd_lengths(args) -> int:
    return _query(args, "lengths", _lengths_answer)


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
    budget = _budget_from(args)
    sum_eng = sumset_engine(budget)
    if args.name == "atom-density":
        if args.samples < 1:
            raise _UsageError("atom-density needs --samples >= 1")
        if not 1 <= args.max <= natset.SEARCH_LIMIT:
            raise _UsageError(
                f"atom-density needs 1 <= --max <= {natset.SEARCH_LIMIT}")
        atoms = 0
        try:
            for a in oracle.sample_zero_sets(args.samples, args.max,
                                             args.seed):
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
    # phi-transport: compare atomicity on the two sides of the set-to-ideal
    # map, exhaustively over 0-containing subsets of [0,max].
    if args.max < 1 or args.max > 16:
        raise _UsageError("phi-transport needs 1 <= --max <= 16")
    mon_eng = monomial_engine(budget)
    found = []
    checked = 0
    try:
        for mask in range(1 << args.max):
            a = NatSet([0] + [i + 1 for i in range(args.max)
                              if mask >> i & 1])
            checked += 1
            set_atom = sum_eng.is_atom(a)
            ideal_atom = mon_eng.is_atom(monideal.phi(a))
            if set_atom != ideal_atom:
                found.append({"set": a.to_json(), "set_atom": set_atom,
                              "ideal_atom": ideal_atom})
    except SearchBudgetExceeded as exc:
        _emit({"experiment": "phi-transport", "status": "inconclusive",
               "checked": checked, "budget": _budget_payload(exc)}, args.fmt)
        return 2
    _emit({"experiment": "phi-transport", "max": args.max,
           "checked": checked, "counterexamples": found}, args.fmt)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sub, default_nodes: Optional[int] = None) -> None:
    if default_nodes is None:
        default_text = "each claim's own budget; 0 lifts that too"
    else:
        default_text = f"{default_nodes}; 0 means no cap"
    nodes_help = f"abort searches after N explored candidates " \
                 f"(default {default_text})"
    sub.add_argument("--budget-nodes", type=int, default=default_nodes,
                     metavar="N", help=nodes_help)
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
    _add_common(atom, default_nodes=_DEFAULT_NODES)
    atom.set_defaults(func=_cmd_atom)

    lengths = subs.add_parser("lengths",
                              help="set of factorization lengths of a target",
                              description=__doc__,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
    lengths.add_argument("target", help='e.g. "a_5", "C --minimal 3"')
    _add_common(lengths, default_nodes=_DEFAULT_NODES)
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

    exp = subs.add_parser("experiment", help="sampling studies")
    exp.add_argument("name", choices=("atom-density", "phi-transport"))
    exp.add_argument("--max", type=int, default=14, metavar="M",
                     help="sets live inside [0,M] (default 14)")
    exp.add_argument("--samples", type=int, default=500, metavar="K",
                     help="sample size for atom-density (default 500)")
    exp.add_argument("--seed", type=int, default=7,
                     help="RNG seed (default 7)")
    _add_common(exp, default_nodes=_DEFAULT_NODES)
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
