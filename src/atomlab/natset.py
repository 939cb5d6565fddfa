"""Finite subsets of N under setwise addition.

The monoid of finite nonempty subsets of the naturals with
A + B = {a + b : a in A, b in B}, and its reduced flavor consisting of the
sets that contain 0.  Factor searches are organised around the colon set
{c : B + c subset of A}, which is the unique maximal candidate cofactor of B
inside A: B divides A exactly when B + set_colon(A, B) = A.  This module
holds the set arithmetic and the search size limit.  The searches hold a
set as a bitmask: the mask, and the divisor and cofactor searches built on
the colon set, are in atomlab.engine, next to SumsetMonoid, which answers
atom and length queries in the full monoid by splitting a set into min(A)
copies of the prime atom {1} and a 0-set.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Optional

__all__ = [
    "MAX_ELEMENT",
    "NatSet",
    "sumset",
    "is_sum_free",
    "set_colon",
    "delta_set",
    "elasticity",
    "iter_sum_free",
]

# Machine-width guard: sums past this bound abort loudly instead of growing.
MAX_ELEMENT = 2**63 - 1

# Factor searches index dense bitmasks by element value, so the sets they
# accept must have a modest maximum.  Plain arithmetic has no such limit.
SEARCH_LIMIT = 1 << 16

# A number in a set literal: ASCII digits only, as in an ideal literal, and
# its separators ASCII whitespace, where str.strip() takes any space.
_DIGITS = re.compile("[0-9]+")
_SPACE = " \t\n\r\v\f"


class NatSet:
    """Canonical finite nonempty subset of N.

    Elements are stored as a strictly increasing tuple, so structural
    equality is set equality; instances are immutable, hashable and sort by
    their element tuples.
    """

    __slots__ = ("elements",)

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]) -> None:
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("a NatSet must be nonempty")
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"set elements must be integers, got {e!r}")
        if elems[0] < 0:
            raise ValueError(f"set elements must be nonnegative, got {elems[0]}")
        if elems[-1] > MAX_ELEMENT:
            raise OverflowError(
                f"element {elems[-1]} exceeds the machine-width bound")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _from_sorted(cls, elems: tuple[int, ...]) -> "NatSet":
        """Wrap a nonempty strictly increasing tuple of naturals, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "elements", elems)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("NatSet is immutable")

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def shifted(self, k: int) -> "NatSet":
        """Translate every element by k (the result must stay in N).

        A shift keeps the elements sorted, so only the ends are checked.
        """
        elems = self.elements
        if elems[0] + k < 0:
            raise ValueError(
                f"set elements must be nonnegative, got {elems[0] + k}")
        if elems[-1] + k > MAX_ELEMENT:
            raise OverflowError(
                f"element {elems[-1] + k} exceeds the machine-width bound")
        return NatSet._from_sorted(tuple([e + k for e in elems]))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __eq__(self, other) -> bool:
        return isinstance(other, NatSet) and self.elements == other.elements

    def __lt__(self, other) -> bool:
        if not isinstance(other, NatSet):
            return NotImplemented
        return self.elements < other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"NatSet({list(self.elements)})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    def to_json(self) -> list[int]:
        return list(self.elements)

    def to_text(self) -> str:
        return ",".join(map(str, self.elements))

    @classmethod
    def from_text(cls, text: str) -> "NatSet":
        """Parse "{0, 2, 7}", or the to_text form "0,2,7" without braces."""
        body = text.strip(_SPACE)
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        parts = [p.strip(_SPACE) for p in body.split(",")]
        # int() also reads signs, underscores and non-ASCII digits
        if not all(_DIGITS.fullmatch(p) for p in parts):
            raise ValueError(f"cannot parse set from {text!r}")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse set from {text!r}: {exc}") from None


def sumset(a: NatSet, b: NatSet) -> NatSet:
    """Setwise sum {x + y : x in a, y in b}."""
    if a.max + b.max > MAX_ELEMENT:
        raise OverflowError("sumset would exceed the machine-width bound")
    return NatSet._from_sorted(tuple(sorted(
        {x + y for x in a.elements for y in b.elements})))


def is_sum_free(a: NatSet) -> bool:
    """True when no x, y, z in a (repetition allowed) satisfy x + y = z."""
    elems = a.elements
    present = set(elems)
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if x + y > elems[-1]:
                break
            if x + y in present:
                return False
    return True


def set_colon(a: NatSet, b: NatSet) -> Optional[NatSet]:
    """Maximal set C with b + C a subset of a; None when no c qualifies."""
    top = a.max - b.max
    if top < 0:
        return None
    present = set(a.elements)
    # c + min(b) lies in a, so the candidates are a - min(b), ascending
    low, rest = b.elements[0], b.elements[1:]
    cs = []
    for x in a.elements:
        c = x - low
        if c > top:
            break
        if c < 0:
            continue
        for y in rest:
            if c + y not in present:
                break
        else:
            cs.append(c)
    return NatSet._from_sorted(tuple(cs)) if cs else None


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first: the elements of a bitmask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Length-set statistics.


def delta_set(length_set: Iterable[int]) -> tuple[int, ...]:
    """Distinct gaps between consecutive members of a set of lengths."""
    ls = sorted(set(length_set))
    return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))


def elasticity(length_set: Iterable[int]):
    """max/min of a set of lengths; 1 for {0} by convention."""
    ls = sorted(set(length_set))
    if not ls:
        raise ValueError("elasticity of an empty length set is undefined")
    if ls == [0]:
        return Fraction(1)
    if ls[0] == 0:
        return inf
    return Fraction(ls[-1], ls[0])


def iter_sum_free(limit: int) -> Iterator[NatSet]:
    """All nonempty sum-free subsets of [1, limit], in mask order."""
    if limit < 1:
        return
    for mask in range(2, 2 << limit, 2):
        # bit e of mask is element e: x + A meets A exactly when some
        # x + y lies in A
        if not any(mask << x & mask for x in _bits(mask)):
            yield NatSet._from_sorted(tuple(_bits(mask)))
