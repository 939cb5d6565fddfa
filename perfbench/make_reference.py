"""Regenerate perfbench/reference.json, the recorded answers.

    python3 perfbench/make_reference.py

Answers come from the engine of the current checkout and are cross-checked
against the brute-force oracle (atomlab.oracle) for every set inside
[0,10]; the script stops with an error if any of them disagree.  Run it
only on a commit whose answers are trusted: the benchmark treats the file
as ground truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from atomlab import engine, monideal, oracle  # noqa: E402
from atomlab.natset import NatSet  # noqa: E402

import workload  # noqa: E402

ORACLE_MAX = 10


def atom_transport(split_map: dict) -> dict:
    sum_eng, mon_eng = engine.sumset_engine(), engine.monomial_engine()
    bits = 0
    count = 0
    for mask in range(1 << workload.AtomTransport.MAX):
        a = NatSet([0] + [i + 1 for i in range(workload.AtomTransport.MAX)
                          if mask >> i & 1])
        atom = sum_eng.is_atom(a)
        if mon_eng.is_atom(monideal.phi(a)) != atom:
            raise SystemExit(f"{a}: the two monoids disagree")
        if a.max <= ORACLE_MAX:
            want = a.max > 0 and a.elements not in split_map
            if atom != want:
                raise SystemExit(f"{a}: engine says atom={atom}, "
                                 f"oracle says {want}")
        bits |= atom << mask
        count += atom
    return {"max": workload.AtomTransport.MAX, "atoms": count,
            "atoms_hex": format(bits, "x")}


def sumset_lengths(split_map: dict) -> dict:
    targets = workload.SumsetLengths(0, {"reference": {"lengths": {}}})
    cache: dict = {}
    lengths = {}
    for a in sorted(targets.targets):
        got = list(engine.sumset_engine(
            engine.Budget(max_nodes=1_000_000)).lengths(a))
        if a.max <= ORACLE_MAX:
            want = sorted(oracle.naive_lengths(a.elements, split_map, cache))
            if got != want:
                raise SystemExit(f"{a}: engine lengths {got}, oracle {want}")
        lengths[",".join(map(str, a.elements))] = got
    return {"lengths": lengths}


def main() -> None:
    split_map = oracle.naive_sumset_split_map(ORACLE_MAX)
    ref = {"atom-transport": atom_transport(split_map),
           "sumset-lengths": sumset_lengths(split_map)}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"atoms {ref['atom-transport']['atoms']}, "
          f"{len(ref['sumset-lengths']['lengths'])} length sets")


if __name__ == "__main__":
    main()
