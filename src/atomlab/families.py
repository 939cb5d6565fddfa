"""Seed sequences and the named subset-sum set families built from them.

A seed sequence (a_1, ..., a_{n+1}) must satisfy the closing identity
a_{n+1} = a_1 + ... + a_{n-1} + 2 a_n and the rapid-growth condition
a_{i+1} > 2 (a_1 + ... + a_i) for i in [1, n-1].  Rapid growth makes all
subset sums over [1, n] distinct, and the closing identity wires the last
value into the collision pattern the B family is built around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .natset import MAX_ELEMENT, NatSet

__all__ = [
    "SumSequence",
    "subset_sum",
    "minimal_sequence",
    "build_A",
    "build_B",
    "build_C",
    "build_delta_odd",
    "build_delta_even",
]


@dataclass(frozen=True)
class SumSequence:
    """Validated seed sequence (a_1, ..., a_{n+1}), n >= 2."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 3:
            raise ValueError("a seed sequence needs at least 3 terms (n >= 2)")
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"sequence terms must be positive integers, got {v!r}")
        if vals[-1] > MAX_ELEMENT:
            raise OverflowError("sequence term exceeds the machine-width bound")
        n = len(vals) - 1
        for i in range(1, n):
            if vals[i] <= 2 * sum(vals[:i]):
                raise ValueError(
                    f"growth condition fails at position {i + 1}: "
                    f"{vals[i]} <= 2*{sum(vals[:i])}")
        want = sum(vals[: n - 1]) + 2 * vals[n - 1]
        if vals[n] != want:
            raise ValueError(
                f"closing identity fails: last term is {vals[n]}, expected {want}")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def term(self, i: int) -> int:
        """a_i with 1-based index."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"index {i} outside [1, {len(self.values)}]")
        return self.values[i - 1]

    def to_json(self) -> list[int]:
        return list(self.values)


def subset_sum(seq: SumSequence, indices: Iterable[int]) -> int:
    """Sum of a_i over a set of 1-based indices; the empty sum is 0."""
    idx = sorted(set(indices))
    if idx and not (1 <= idx[0] and idx[-1] <= len(seq.values)):
        raise IndexError(f"indices {idx} outside [1, {len(seq.values)}]")
    return sum(seq.values[i - 1] for i in idx)


def minimal_sequence(n: int) -> SumSequence:
    """Smallest valid seed sequence for a given n >= 2.

    Greedy: a_1 = 1, each next term is one past twice the running sum, and
    the last term is fixed by the closing identity.
    """
    if n < 2:
        raise ValueError("minimal_sequence requires n >= 2")
    vals = [1]
    for _ in range(1, n):
        vals.append(2 * sum(vals) + 1)
    vals.append(sum(vals[: n - 1]) + 2 * vals[n - 1])
    if vals[-1] > MAX_ELEMENT:
        raise OverflowError("minimal sequence exceeds the machine-width bound")
    return SumSequence(tuple(vals))


def _sums_over(values: Iterable[int]) -> set[int]:
    acc = {0}
    for v in values:
        acc |= {s + v for s in acc}
    return acc


def build_A(seq: SumSequence) -> NatSet:
    """All subset sums of a_1, ..., a_{n-1}."""
    return NatSet(_sums_over(seq.values[: seq.n - 1]))


def build_B(seq: SumSequence) -> NatSet:
    """Subset sums of the head, the full head sum, and the head shifted by a_{n+1}.

    Contains exactly 2^n + 1 elements; anything else means the seed sequence
    violated its invariants, so the count is checked here.
    """
    n = seq.n
    a = build_A(seq).elements
    mid = sum(seq.values[:n])
    elems = set(a) | {mid} | {x + seq.values[n] for x in a}
    out = NatSet(elems)
    if len(out) != 2**n + 1:
        raise ValueError(f"family B degenerated: {len(out)} != 2^{n}+1 elements")
    return out


def build_C(seq: SumSequence) -> NatSet:
    """All subset sums of the full sequence; 2^{n+1} of them, checked."""
    out = NatSet(_sums_over(seq.values))
    if len(out) != 2 ** (seq.n + 1):
        raise ValueError(
            f"family C degenerated: {len(out)} != 2^{seq.n + 1} elements")
    return out


def build_delta_odd(i: int) -> NatSet:
    """Odd numbers 1, 3, ..., 2i+1, for i >= 1."""
    if i < 1:
        raise ValueError("build_delta_odd requires i >= 1")
    return NatSet(range(1, 2 * i + 2, 2))


def build_delta_even(i: int) -> NatSet:
    """{1} plus the even numbers 2, 4, ..., 2i, for i >= 1.

    The matching staircase ideal is only an atom of the ambient ideal
    monoid from i >= 3 on; smaller i still build fine.
    """
    if i < 1:
        raise ValueError("build_delta_even requires i >= 1")
    return NatSet([1] + list(range(2, 2 * i + 1, 2)))
