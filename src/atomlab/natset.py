"""Finite subsets of N under setwise addition.

The monoid of finite nonempty subsets of the naturals with
A + B = {a + b : a in A, b in B}, and its reduced flavor consisting of the
sets that contain 0.  Factor searches are organised around the colon set
{c : B + c subset of A}, which is the unique maximal candidate cofactor of B
inside A: B divides A exactly when B + set_colon(A, B) = A.  The divisor
stream built on it feeds atomlab.engine, which answers atom and length
queries in both the reduced and the full monoid.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import inf
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "MAX_ELEMENT",
    "NatSet",
    "sumset",
    "is_sum_free",
    "set_colon",
    "reduce_shift",
    "delta_set",
    "elasticity",
    "iter_sum_free",
]

# Machine-width guard: sums past this bound abort loudly instead of growing.
MAX_ELEMENT = 2**63 - 1

# Factor searches index dense bitmasks by element value, so the sets they
# accept must have a modest maximum.  Plain arithmetic has no such limit.
SEARCH_LIMIT = 1 << 16

Tick = Callable[[], None]


@functools.total_ordering
class NatSet:
    """Canonical finite nonempty subset of N.

    Elements are stored as a strictly increasing tuple, so structural
    equality is set equality; instances are immutable, hashable and ordered
    by their element tuples.
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
        """Translate every element by k (the result must stay in N)."""
        return NatSet(e + k for e in self.elements)

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

    def __add__(self, other) -> "NatSet":
        if not isinstance(other, NatSet):
            return NotImplemented
        return sumset(self, other)

    def __repr__(self) -> str:
        return f"NatSet({list(self.elements)})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    def to_json(self) -> list[int]:
        return list(self.elements)

    @classmethod
    def from_json(cls, data) -> "NatSet":
        if not isinstance(data, list):
            raise ValueError("set JSON form is an array of integers")
        return cls(data)

    def to_text(self) -> str:
        return ",".join(map(str, self.elements))

    @classmethod
    def from_text(cls, text: str) -> "NatSet":
        body = text.strip().lstrip("{").rstrip("}")
        parts = [p for p in (s.strip() for s in body.split(",")) if p]
        if not parts:
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


def reduce_shift(a: NatSet) -> tuple[int, NatSet]:
    """Split a as (shift, zero-based set) with a = {shift} + zero-based set."""
    return a.min, a.shifted(-a.min)


# ---------------------------------------------------------------------------
# Reduced-monoid divisor stream.
#
# Everything below works on dense bitmasks (bit e set <=> element e present).
# A sumset is an OR of shifted masks, and the colon set of B in A is the AND
# of A >> b over b in B, truncated to [0, max(A) - max(B)].


def _mask_of(a: NatSet) -> int:
    if a.max > SEARCH_LIMIT:
        raise ValueError(
            f"factor search supports max element <= {SEARCH_LIMIT}, got {a.max}")
    m = 0
    for e in a.elements:
        m |= 1 << e
    return m


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_sumset(bmask: int, cmask: int) -> int:
    acc = 0
    for b in _bits(bmask):
        acc |= cmask << b
    return acc


def _reduced_divisor_masks(amask: int, tick: Tick) -> Iterator[int]:
    """Yield the mask of every proper divisor B of A with max(B) <= max(A)/2.

    A proper divisor is a set B containing 0, distinct from {0}, such that
    B + C = A for some C containing 0 with C != {0}.  Some side of any split
    has max at most max(A)/2, so these are the small sides of all splits.

    Enumeration is grouped by max(B) ascending.  Within a group, subsets grow
    depth-first in increasing element order under two sound prunes: every
    element of B must remain summable against the forced maximal cofactor
    element, and every already-scanned element of A must stay coverable by
    B + colon, since the true cofactor only shrinks as B grows.
    """
    m = amask.bit_length() - 1
    if m <= 0:
        return
    limit = m // 2

    def grow(bmask: int, colmask: int, free: list[int], idx: int
             ) -> Iterator[int]:
        tick()
        if _mask_sumset(bmask, colmask) == amask:
            yield bmask
        for i in range(idx, len(free)):
            x = free[i]
            b2 = bmask | (1 << x)
            col2 = colmask & (amask >> x)
            if not col2 & 1:
                continue
            need = amask & ((2 << x) - 1)
            cov = 0
            for b in _bits(b2):
                cov |= col2 << b
                if need & ~cov == 0:
                    break
            if need & ~cov:
                continue
            yield from grow(b2, col2, free, i + 1)

    for mb in _bits(amask):
        if mb == 0:
            continue
        if mb > limit:
            break
        mc = m - mb
        if not (amask >> mc) & 1:
            continue
        # b + mc must land in A for every b in B (mc is the cofactor maximum)
        fmask = amask & (amask >> mc) & ((2 << mb) - 1)
        if not fmask & 1 or not (fmask >> mb) & 1:
            continue
        col0 = amask & (amask >> mb) & ((2 << mc) - 1)
        free = [x for x in _bits(fmask) if 0 < x < mb]
        yield from grow((1 << mb) | 1, col0, free, 0)


def _cofactor_masks(amask: int, pmask: int, tick: Tick) -> Iterator[int]:
    """Yield every mask R containing 0 with P + R = A, once.

    max(R) = max(A) - max(P), and R lies in the colon set of P in A.  The
    elements between 0 and max(R) join R in increasing order; x + P only
    reaches elements from x on, so an element of A that R + P misses below
    the next candidate kills the branch.
    """
    top = amask.bit_length() - pmask.bit_length()
    if top < 0:
        return
    col = (2 << top) - 1
    for b in _bits(pmask):
        col &= amask >> b
    if not col & 1 or not (col >> top) & 1:
        return
    free = [x for x in _bits(col) if 0 < x < top]
    lows = [1 << x for x in free] + [1 << amask.bit_length()]
    stack = [(1 | 1 << top, pmask | pmask << top, 0)]
    while stack:
        rmask, reach, idx = stack.pop()
        tick()
        miss = amask & ~reach
        if not miss:
            yield rmask
        elif miss & -miss < lows[idx]:
            continue
        for i in range(len(free) - 1, idx - 1, -1):
            x = free[i]
            stack.append((rmask | 1 << x, reach | pmask << x, i + 1))


def _mask_to_set(mask: int) -> NatSet:
    return NatSet._from_sorted(tuple(_bits(mask)))


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
    for mask in range(1, 1 << limit):
        cand = NatSet(i + 1 for i in _bits(mask))
        if is_sum_free(cand):
            yield cand
