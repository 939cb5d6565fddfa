"""Exact graded pieces of homogeneous bivariate ideals over Q.

A homogeneous polynomial of degree t is a coefficient vector indexed by
Y-exponent: coeffs[i] multiplies X^(t-i) Y^i.  A graded ideal is a list of
homogeneous generators; its degree-t piece is the row space spanned by all
monomial shifts of generators of degree at most t, held in reduced row
echelon form so that span equality is literal row equality.

For ideals generated in degrees <= D, the degree-(t+1) piece is the span of
X and Y times the degree-t piece once t >= D, so comparing pieces up to D
decides ideal equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .monideal import MonIdeal

__all__ = [
    "HomPoly",
    "GradedIdeal",
    "graded_piece",
    "product",
    "equals",
    "from_mon_ideal",
    "min_piece_product_check",
]

Row = tuple[Fraction, ...]


def _coefficient(value):
    """An exact rational: an int when it is integral, else a Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"coefficients must be exact rationals, got {value!r}")
    return value.numerator if value.denominator == 1 else value


class HomPoly:
    """Homogeneous polynomial: degree plus a dense row of exact rationals."""

    __slots__ = ("degree", "coeffs")

    degree: int
    coeffs: tuple[int | Fraction, ...]

    def __init__(self, degree: int, coeffs: Iterable) -> None:
        cs = tuple([_coefficient(c) for c in coeffs])
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(cs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        if not any(cs):
            raise ValueError("the zero polynomial is not a valid generator")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomPoly) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.degree, self.coeffs))

    def __mul__(self, other) -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        deg = self.degree + other.degree
        out = [0] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return HomPoly(deg, out)

    def __repr__(self) -> str:
        return f"HomPoly({self.degree}, {[str(c) for c in self.coeffs]})"

    def to_json(self) -> dict:
        return {"deg": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_monomial(cls, x: int, y: int) -> "HomPoly":
        coeffs = [0] * (x + y + 1)
        coeffs[y] = 1
        return cls(x + y, coeffs)


class GradedIdeal:
    """Homogeneous ideal given by a tuple of homogeneous generators."""

    __slots__ = ("gens",)

    gens: tuple[HomPoly, ...]

    def __init__(self, gens: Iterable[HomPoly]) -> None:
        gs = tuple(gens)
        if not gs:
            raise ValueError("an ideal needs at least one generator")
        for g in gs:
            if not isinstance(g, HomPoly):
                raise TypeError(f"generators must be HomPoly, got {g!r}")
        object.__setattr__(self, "gens", gs)

    def __setattr__(self, name, value):
        raise AttributeError("GradedIdeal is immutable")

    @property
    def max_gen_degree(self) -> int:
        return max(g.degree for g in self.gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedIdeal) and equals(self, other)

    def __repr__(self) -> str:
        return f"GradedIdeal({list(self.gens)!r})"

    def to_json(self) -> dict:
        return {"gens": [g.to_json() for g in self.gens]}


def _rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Row, ...]:
    """Reduced row echelon form with unit pivots; canonical for the span.

    Elimination runs on integer rows: each row times the common denominator
    of its entries.  Row operations cross-multiply and then divide by the
    gcd of the row, and each row is divided by its pivot once, at the end.
    """
    out: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        den = lcm(*[c.denominator for c in row])
        r = [c.numerator * (den // c.denominator) for c in row]
        for prow, pcol in zip(out, pivots):
            f = r[pcol]
            if f:
                pv = prow[pcol]
                r = [pv * v - f * w for v, w in zip(r, prow)]
        lead = next((k for k, v in enumerate(r) if v), None)
        if lead is None:
            continue
        g = gcd(*r)
        out.append([v // g for v in r] if g > 1 else r)
        pivots.append(lead)
    # back-substitute so every pivot column is cleared above as well
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    out = [out[i] for i in order]
    pivots = [pivots[i] for i in order]
    for i in range(len(out) - 1, -1, -1):
        pcol = pivots[i]
        pv = out[i][pcol]
        for j in range(i):
            f = out[j][pcol]
            if f:
                r = [pv * v - f * w for v, w in zip(out[j], out[i])]
                g = gcd(*r)
                out[j] = [v // g for v in r] if g > 1 else r
    return tuple(tuple([Fraction(v, r[p]) for v in r])
                 for r, p in zip(out, pivots))


def graded_piece(ideal: GradedIdeal, t: int) -> tuple[Row, ...]:
    """Canonical basis (RREF rows) of the degree-t piece of the ideal."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    rows = []
    for g in ideal.gens:
        pad = t - g.degree
        for j in range(pad + 1):
            rows.append([0] * j + list(g.coeffs) + [0] * (pad - j))
    return _rref(rows)


def product(a: GradedIdeal, b: GradedIdeal) -> GradedIdeal:
    return GradedIdeal(f * g for f in a.gens for g in b.gens)


def equals(a: GradedIdeal, b: GradedIdeal) -> bool:
    """Ideal equality via graded pieces up to the largest generator degree."""
    top = max(a.max_gen_degree, b.max_gen_degree)
    return all(graded_piece(a, t) == graded_piece(b, t) for t in range(top + 1))


def from_mon_ideal(ideal: MonIdeal) -> GradedIdeal:
    return GradedIdeal(HomPoly.from_monomial(x, y) for x, y in ideal.gens)


def min_piece_product_check(a: MonIdeal, b: MonIdeal) -> bool:
    """Bottom graded piece of a product equals the product of bottom pieces.

    With d, e the least degrees of a and b, compares the degree-(d+e) piece
    of a*b against the span of pairwise products of degree-d and degree-e
    basis elements.
    """
    ga, gb = from_mon_ideal(a), from_mon_ideal(b)
    d, e = a.mdeg, b.mdeg
    lhs = graded_piece(product(ga, gb), d + e)
    rows = []
    for f in graded_piece(ga, d):
        pf = HomPoly(d, f)
        for g in graded_piece(gb, e):
            rows.append((pf * HomPoly(e, g)).coeffs)
    return lhs == _rref(rows)
