"""Exact arithmetic of monomial ideals in two variables.

An ideal is represented by its unique minimal generating set: an antichain of
exponent pairs (x, y) under componentwise order, kept sorted by x strictly
descending.  Read by increasing y, that list is a staircase: row y of the
ideal starts at the column of the last generator at or below it.  Products
minimize the pairwise sums of generators; intersections and colons merge
staircases row by row.  Every operation is integer arithmetic on exponent
pairs, so all of them are exact.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable

from . import families
from .natset import _SPACE, MAX_ELEMENT, NatSet

__all__ = [
    "MonIdeal",
    "UNIT",
    "product",
    "colon",
    "generator_gcd",
    "shifted",
    "phi",
    "build_a",
    "build_b",
    "build_c",
    "build_i_b",
    "build_i_c",
    "build_tilde_b",
]

Pair = tuple[int, int]


def _minimal_pairs(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    """Minimal elements of the pairs, sorted by x descending.

    Sort-and-sweep: in (x, y) order every pair that could dominate p comes
    before p, so p is minimal exactly when its y is below every y seen so
    far (duplicates tie and are dropped).  O(k log k) for k pairs.
    """
    keep = []
    low = None
    for p in sorted(pairs):
        if low is None or p[1] < low:
            keep.append(p)
            low = p[1]
    keep.reverse()
    return tuple(keep)


class MonIdeal:
    """A nonzero monomial ideal in canonical minimal-generator form."""

    __slots__ = ("gens",)

    gens: tuple[Pair, ...]

    def __init__(self, gens: Iterable[Pair]) -> None:
        cleaned = []
        for g in gens:
            x, y = g
            if not isinstance(x, int) or not isinstance(y, int) \
                    or isinstance(x, bool) or isinstance(y, bool):
                raise TypeError(f"exponents must be integers, got {g!r}")
            if x < 0 or y < 0:
                raise ValueError(f"exponents must be nonnegative, got {g!r}")
            if x > MAX_ELEMENT or y > MAX_ELEMENT:
                raise OverflowError("exponent exceeds the machine-width bound")
            cleaned.append((x, y))
        if not cleaned:
            raise ValueError("an ideal needs at least one generator")
        object.__setattr__(self, "gens", _minimal_pairs(cleaned))

    @classmethod
    def _from_antichain(cls, gens: tuple[Pair, ...]) -> "MonIdeal":
        """Wrap generators already in canonical antichain order, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "gens", gens)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MonIdeal is immutable")

    @property
    def mdeg(self) -> int:
        """Least total degree of a member; 0 exactly for the unit ideal."""
        return min([x + y for x, y in self.gens])

    @property
    def max_x(self) -> int:
        return self.gens[0][0]

    @property
    def max_y(self) -> int:
        return self.gens[-1][1]

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0, 0),)

    def __contains__(self, monomial: Pair) -> bool:
        x, y = monomial
        return any(u <= x and v <= y for u, v in self.gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonIdeal) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        return f"MonIdeal({list(self.gens)})"

    def __str__(self) -> str:
        return "<" + self.to_text() + ">"

    def to_json(self) -> dict:
        return {"gens": [list(g) for g in self.gens]}

    def to_text(self) -> str:
        return ", ".join(_monomial_text(g) for g in self.gens)

    @classmethod
    def from_text(cls, text: str) -> "MonIdeal":
        body = text.strip(_SPACE)
        if body.startswith("<") and body.endswith(">"):
            body = body[1:-1]
        parts = [p.strip(_SPACE) for p in body.split(",")]
        if not any(parts):
            raise ValueError(f"cannot parse ideal from {text!r}")
        return cls(_parse_monomial(p) for p in parts)


def _monomial_text(g: Pair) -> str:
    x, y = g
    if x == 0 and y == 0:
        return "1"
    parts = []
    if x:
        parts.append("X" if x == 1 else f"X^{x}")
    if y:
        parts.append("Y" if y == 1 else f"Y^{y}")
    return " ".join(parts)


_MONOMIAL_RE = re.compile(
    r"^(?:(?P<one>1)|(?:X(?:\^(?P<x>[0-9]+))?)?[ \t]*\*?[ \t]*(?:Y(?:\^(?P<y>[0-9]+))?)?)$")


def _parse_monomial(token: str) -> Pair:
    t = token.strip(_SPACE)
    m = _MONOMIAL_RE.match(t)
    if not m or not t:
        raise ValueError(f"cannot parse monomial {token!r}")
    if m.group("one"):
        return (0, 0)
    has_x = "X" in t
    has_y = "Y" in t
    if not has_x and not has_y:
        raise ValueError(f"cannot parse monomial {token!r}")
    x = int(m.group("x")) if m.group("x") else (1 if has_x else 0)
    y = int(m.group("y")) if m.group("y") else (1 if has_y else 0)
    return (x, y)


UNIT = MonIdeal([(0, 0)])


def product(a: MonIdeal, b: MonIdeal) -> MonIdeal:
    if a.max_x + b.max_x > MAX_ELEMENT or a.max_y + b.max_y > MAX_ELEMENT:
        raise OverflowError("product would exceed the machine-width bound")
    return MonIdeal._from_antichain(_minimal_pairs(
        [(u + p, v + q) for u, v in a.gens for p, q in b.gens]))


def _colon_monomial(gens: tuple[Pair, ...], c: int, g: int
                    ) -> tuple[Pair, ...]:
    """Generators of (ideal : X^c Y^g): every generator moved down-left.

    Clipping at 0 makes x nonincreasing and y nondecreasing; equal y occur
    only at y = 0, where the later pair dominates, and the first pair with
    x = 0 dominates all after it.  O(len(gens)).
    """
    out = []
    for u, v in gens:
        x = u - c if u > c else 0
        y = v - g if v > g else 0
        if out and out[-1][1] == y:
            out[-1] = (x, y)
        else:
            out.append((x, y))
        if not x:
            break
    return tuple(out)


def _meet(a: tuple[Pair, ...], b: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """Generators of the intersection of two staircases, O(len(a) + len(b)).

    Row y of an intersection starts at the larger of the two row starts.
    Row starts only change at generator rows, so one pass over the
    generators of both, by increasing y, keeps the rows where the larger
    start drops.
    """
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    fa = fb = last = None
    while i < na or j < nb:
        ya = a[i][1] if i < na else None
        yb = b[j][1] if j < nb else None
        if yb is None or (ya is not None and ya <= yb):
            fa = a[i][0]
            i += 1
            y = ya
            if ya == yb:
                fb = b[j][0]
                j += 1
        else:
            fb = b[j][0]
            j += 1
            y = yb
        if fa is None or fb is None:
            continue
        x = fa if fa > fb else fb
        if last is None or x < last:
            out.append((x, y))
            last = x
            if not x:
                break
    return tuple(out)


def colon(a: MonIdeal, b: MonIdeal) -> MonIdeal:
    """(a : b), the largest ideal whose product with b lands inside a.

    The intersection of the colons by the generators of b: a fold of
    len(b) staircase merges, O(len(b) * (len(a) + len(b))) in all.
    """
    return MonIdeal._from_antichain(functools.reduce(
        _meet, [_colon_monomial(a.gens, c, g) for c, g in b.gens]))


def generator_gcd(ideal: MonIdeal) -> Pair:
    """Componentwise minimum over the generators (their monomial gcd).

    Generators run x descending, so y ascending: the minima sit at the ends.
    """
    return (ideal.gens[-1][0], ideal.gens[0][1])


def shifted(ideal: MonIdeal, dx: int, dy: int) -> MonIdeal:
    """Multiply (or, for negative shifts, divide) by the monomial X^dx Y^dy.

    A shift keeps the generator order, so only the smallest and largest
    exponents need checking.
    """
    gens = tuple([(x + dx, y + dy) for x, y in ideal.gens])
    if gens[-1][0] < 0 or gens[0][1] < 0:
        raise ValueError(f"shift by ({dx}, {dy}) leaves a negative exponent")
    if gens[0][0] > MAX_ELEMENT or gens[-1][1] > MAX_ELEMENT:
        raise OverflowError("exponent exceeds the machine-width bound")
    return MonIdeal._from_antichain(gens)


def phi(a: NatSet) -> MonIdeal:
    """Embed a 0-containing set as the ideal with generators (max-e, e).

    Monoid homomorphism from the reduced sumset monoid into monomial ideals;
    it is injective and preserves products.  Sorted elements give the
    generators by x descending, an antichain, and NatSet has checked their
    range, so no check runs.
    """
    if a.min != 0:
        raise ValueError("phi expects a set containing 0")
    top = a.max
    return MonIdeal._from_antichain(tuple([(top - e, e) for e in a.elements]))


# ---------------------------------------------------------------------------
# Named ideal families.


def build_a(k: int) -> MonIdeal:
    """k-th power of the maximal ideal <X, Y>: all degree-k monomials."""
    if k < 1:
        raise ValueError("build_a requires k >= 1")
    return MonIdeal((k - j, j) for j in range(k + 1))


def build_b(i: int) -> MonIdeal:
    """Two pure powers <X^i, Y^i>."""
    if i < 1:
        raise ValueError("build_b requires i >= 1")
    return MonIdeal([(i, 0), (0, i)])


def build_c(k: int) -> MonIdeal:
    """Staircase ideal over {0} plus the odd/even gap family of top degree k.

    Accepts odd k >= 3 and even k >= 4 (even k below 6 builds, but is only
    interesting as an ambient-monoid atom from k = 6 on).
    """
    if k % 2 == 1:
        i = (k - 1) // 2
        if i < 1:
            raise ValueError("odd staircase needs k >= 3")
        base = families.build_delta_odd(i)
    else:
        i = k // 2
        if i < 2:
            raise ValueError("even staircase needs k >= 4")
        base = families.build_delta_even(i)
    return phi(NatSet((0,) + base.elements))


def build_i_b(seq: families.SumSequence) -> MonIdeal:
    """Image of the B family under the set-to-ideal embedding."""
    return phi(families.build_B(seq))


def build_i_c(seq: families.SumSequence) -> MonIdeal:
    """Image of the C family under the set-to-ideal embedding."""
    return phi(families.build_C(seq))


def build_tilde_b(seq: families.SumSequence, r: int) -> MonIdeal:
    """Product of the pure-power ideals at a_1, a_3, ..., a_r plus one extra
    generator X^(a_3+...+a_r - a_2) Y^(a_3 - a_2).

    Defined for 3 <= r <= n.  The extra generator is a proper new minimal
    generator; minimization would silently drop it otherwise, so the gain is
    checked.
    """
    if seq.n < 3:
        raise ValueError("build_tilde_b requires a sequence with n >= 3")
    if not 3 <= r <= seq.n:
        raise ValueError(f"build_tilde_b requires 3 <= r <= {seq.n}, got {r}")
    factors = [build_b(seq.term(1))] + [build_b(seq.term(i))
                                        for i in range(3, r + 1)]
    prod = functools.reduce(product, factors)
    tail = sum(seq.term(i) for i in range(3, r + 1))
    extra = (tail - seq.term(2), seq.term(3) - seq.term(2))
    out = MonIdeal(prod.gens + (extra,))
    if extra not in out.gens:
        raise ValueError("extra generator unexpectedly redundant")
    return out
