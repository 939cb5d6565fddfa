"""Graded pieces of homogeneous ideals with exact rational arithmetic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from atomlab import graded
from atomlab.graded import (GradedIdeal, HomPoly, equals, from_mon_ideal,
                            graded_piece, min_piece_product_check,
                            next_piece_from, piece_dim, product)
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
    assert piece_dim(e, 0) == 0
    assert piece_dim(e, 1) == 0
    assert piece_dim(e, 2) == 2
    assert piece_dim(e, 3) == 4  # all of degree 3: X^3, X^2 Y, X(XY+Y^2), ...
    assert piece_dim(e, 4) == 5


@given(ideals, st.integers(0, 9))
def test_monomial_piece_dims_match_staircase(e, t):
    assert piece_dim(from_mon_ideal(e), t) == staircase_dim(e, t)


@given(ideals, st.integers(0, 6))
def test_next_piece_induction(e, t):
    g = from_mon_ideal(e)
    start = max(t, g.max_gen_degree)
    piece = graded_piece(g, start)
    stepped = next_piece_from(piece, start)
    assert stepped == graded_piece(g, start + 1)


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
