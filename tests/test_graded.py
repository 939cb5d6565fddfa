"""Graded pieces of homogeneous ideals with exact rational arithmetic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from atomlab import graded
from atomlab.graded import (GradedIdeal, HomPoly, equals, from_mon_ideal,
                            graded_piece, min_piece_product_check, product)
from atomlab.monideal import MonIdeal, build_a, build_b, build_c


ideals = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  min_size=1, max_size=4).map(MonIdeal)


def staircase_dim(e, t):
    """Count of degree-t monomials inside a monomial ideal."""
    return sum(1 for y in range(t + 1) if (t - y, y) in e)


def test_hompoly_construction():
    p = HomPoly(2, [0, 1, 1])  # X Y + Y^2
    assert p.degree == 2 and p.coeffs == (0, 1, 1)
    assert HomPoly.from_monomial(2, 1).coeffs == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        HomPoly(2, [0, 0, 0])  # the zero polynomial
    with pytest.raises(ValueError):
        HomPoly(2, [1, 2])  # wrong coefficient count
    with pytest.raises(ValueError):
        HomPoly(-1, [])
    with pytest.raises(AttributeError):
        p.degree = 3


def test_hompoly_product():
    # (X + Y)(X - Y) = X^2 - Y^2
    assert HomPoly(1, [1, 1]) * HomPoly(1, [1, -1]) == HomPoly(2, [1, 0, -1])
    # rational coefficients survive exactly
    half = HomPoly(1, [Fraction(1, 2), 0])
    assert (half * half).coeffs == (Fraction(1, 4), 0, 0)


def test_piece_dims_small():
    e = GradedIdeal([HomPoly.from_monomial(2, 0), HomPoly(2, [0, 1, 1])])
    assert len(graded_piece(e, 0)) == 0
    assert len(graded_piece(e, 1)) == 0
    assert len(graded_piece(e, 2)) == 2
    # all of degree 3: X^3, X^2 Y, X(XY+Y^2), ...
    assert len(graded_piece(e, 3)) == 4
    assert len(graded_piece(e, 4)) == 5


@given(ideals, st.integers(0, 9))
def test_monomial_piece_dims_match_staircase(e, t):
    assert len(graded_piece(from_mon_ideal(e), t)) == staircase_dim(e, t)


@given(ideals, st.integers(0, 6))
def test_next_piece_induction(e, t):
    g = from_mon_ideal(e)
    start = max(t, g.max_gen_degree)
    # from the largest generator degree on, the next piece is the span of
    # X and Y times this one, which is why graded.equals stops there
    rows = []
    for r in graded_piece(g, start):
        rows.append(r + (Fraction(0),))   # multiply by X
        rows.append((Fraction(0),) + r)   # multiply by Y
    assert graded._rref(rows) == graded_piece(g, start + 1)


def reference_rref(rows):
    """Plain Gauss-Jordan over Fraction: per column, move a pivot row up,
    scale it to a unit pivot and clear the column in every other row."""
    mat = [[Fraction(v) for v in r] for r in rows]
    top = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = mat[top][col]
        mat[top] = [v / inv for v in mat[top]]
        for i, r in enumerate(mat):
            if i != top and r[col]:
                f = r[col]
                mat[i] = [v - f * w for v, w in zip(r, mat[top])]
        top += 1
    return tuple(tuple(r) for r in mat[:top])


rationals = st.one_of(st.just(Fraction(0)),
                      st.sampled_from([Fraction(1, 2), Fraction(-3, 4)]),
                      st.fractions(-4, 4, max_denominator=6))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    return draw(st.lists(st.one_of(row, st.just([Fraction(0)] * ncols)),
                         max_size=7))


hom_polys = st.integers(0, 4).flatmap(
    lambda d: st.lists(rationals, min_size=d + 1, max_size=d + 1)
    .filter(any).map(lambda cs: HomPoly(d, cs)))


@given(matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    got = graded._rref(rows)
    assert got == reference_rref(rows)
    assert all(type(v) is Fraction for r in got for v in r)


@given(st.lists(hom_polys, min_size=1, max_size=3), st.integers(0, 6))
def test_graded_piece_matches_fraction_gauss_jordan(gens, t):
    rows = []
    for g in gens:
        for j in range(t - g.degree + 1):
            rows.append([Fraction(0)] * j + list(g.coeffs)
                        + [Fraction(0)] * (t - g.degree - j))
    assert graded_piece(GradedIdeal(gens), t) == reference_rref(rows)


def test_equals_sees_through_generator_choice():
    a = GradedIdeal([HomPoly(1, [1, 0]), HomPoly(1, [0, 1])])
    b = GradedIdeal([HomPoly(1, [1, 1]), HomPoly(1, [1, -1])])
    assert equals(a, b)
    c = GradedIdeal([HomPoly(1, [1, 0])])
    assert not equals(a, c)


def test_c4_splits_rationally():
    plus = GradedIdeal([HomPoly.from_monomial(2, 0), HomPoly(2, [0, 1, 1])])
    minus = GradedIdeal([HomPoly.from_monomial(2, 0), HomPoly(2, [0, 1, -1])])
    assert equals(product(plus, minus), from_mon_ideal(build_c(4)))
    # but not as the square of either factor
    assert not equals(product(plus, plus), from_mon_ideal(build_c(4)))


def test_min_piece_product_check_known_pairs():
    assert min_piece_product_check(build_b(2), build_b(3))
    assert min_piece_product_check(build_c(4), build_a(1))
    assert min_piece_product_check(build_a(2), build_a(3))


@given(ideals, ideals)
def test_min_piece_product_check_random(a, b):
    assert min_piece_product_check(a, b)


def test_from_mon_ideal_generators():
    g = from_mon_ideal(MonIdeal([(2, 0), (0, 1)]))
    assert {(p.degree, p.coeffs) for p in g.gens} \
        == {(2, (1, 0, 0)), (1, (0, 1))}


def test_graded_ideal_json_round_trip():
    e = GradedIdeal([HomPoly(2, [Fraction(1, 3), 0, -1])])
    data = json.loads(json.dumps(e.to_json()))
    assert equals(GradedIdeal(HomPoly(g["deg"], g["coeffs"])
                              for g in data["gens"]), e)
