"""Monomial ideal arithmetic against brute-force membership oracles."""

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from atomlab import monideal
from atomlab.monideal import (MonIdeal, UNIT, build_a, build_b, build_c,
                              build_i_b, build_i_c, build_tilde_b, colon,
                              generator_gcd, phi, product, shifted)
from atomlab.families import minimal_sequence
from atomlab.natset import NatSet, sumset


ideals = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  min_size=1, max_size=5).map(MonIdeal)
zero_sets = st.sets(st.integers(0, 9), max_size=6).map(
    lambda s: NatSet(s | {0}))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=16))
def test_minimal_pairs_matches_quadratic_definition(pairs):
    # small coordinates force duplicates and pairs sharing an x or a y
    keep = {p for p in pairs
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                       for q in pairs)}
    want = tuple(sorted(keep, key=lambda p: (-p[0], p[1])))
    assert monideal._minimal_pairs(pairs) == want


def members_in_box(e, bx, by):
    return {(x, y) for x in range(bx + 1) for y in range(by + 1)
            if (x, y) in e}


def ideal_from_members(points):
    return MonIdeal(points)


# -- oracles first: product, colon, intersection -----------------------------


@given(ideals, ideals)
def test_product_matches_membership_oracle(a, b):
    bx = a.max_x + b.max_x
    by = a.max_y + b.max_y
    want = {(x, y) for x in range(bx + 1) for y in range(by + 1)
            if any(ga[0] + gb[0] <= x and ga[1] + gb[1] <= y
                   for ga in a.gens for gb in b.gens)}
    assert product(a, b) == ideal_from_members(want)


@given(ideals, ideals)
def test_colon_matches_membership_oracle(a, b):
    bx, by = a.max_x + 1, a.max_y + 1
    want = {(x, y) for x in range(bx + 1) for y in range(by + 1)
            if all((x + gx, y + gy) in a for gx, gy in b.gens)}
    assert colon(a, b) == ideal_from_members(want)


@given(ideals, ideals)
def test_intersect_matches_membership_oracle(a, b):
    bx = max(a.max_x, b.max_x)
    by = max(a.max_y, b.max_y)
    want = members_in_box(a, bx, by) & members_in_box(b, bx, by)
    assert MonIdeal._from_antichain(monideal._meet(a.gens, b.gens)) \
        == ideal_from_members(want)


def _minimal(pairs):
    keep = {p for p in pairs
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                       for q in pairs)}
    return tuple(sorted(keep, key=lambda p: (-p[0], p[1])))


# ideals in box 8: the unit, any antichain, and ideals with a generator gcd
box8_ideals = st.one_of(
    st.just(UNIT),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
             min_size=1, max_size=6).map(MonIdeal),
    st.builds(shifted,
              st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       min_size=1, max_size=4).map(MonIdeal),
              st.integers(0, 3), st.integers(0, 3)))


@given(box8_ideals, box8_ideals)
@settings(max_examples=300)
def test_merge_kernels_match_quadratic_definitions(a, b):
    # the pairwise definitions the staircase merges replace: an intersection
    # is every componentwise maximum of two generators, minimized, and a
    # colon intersects the colons by each generator of b
    def meet(p, q):
        return _minimal([(max(u, x), max(v, y)) for u, v in p for x, y in q])

    by_gen = [_minimal([(max(u - c, 0), max(v - g, 0)) for u, v in a.gens])
              for c, g in b.gens]
    assert monideal._meet(a.gens, b.gens) == meet(a.gens, b.gens)
    assert colon(a, b).gens == functools.reduce(meet, by_gen)


def test_colon_of_wide_ideal():
    # a merge per generator of <X, Y>, not a million pairwise maxima
    assert colon(build_a(1000), build_a(1)) == build_a(999)


@given(ideals, ideals)
def test_colon_recovers_cofactors(a, b):
    p = product(a, b)
    col = colon(p, a)
    assert all(g in col for g in b.gens)
    assert product(a, col) == p


# -- canonical form and basic protocol ----------------------------------------


def test_minimal_generators_canonical_order():
    e = MonIdeal([(0, 2), (2, 0), (1, 1), (2, 1), (3, 3)])
    assert e.gens == ((2, 0), (1, 1), (0, 2))
    assert e.max_x == 2 and e.max_y == 2 and e.mdeg == 2


def test_rejects_bad_generators():
    with pytest.raises(ValueError):
        MonIdeal([])
    with pytest.raises(ValueError):
        MonIdeal([(-1, 0)])
    with pytest.raises(TypeError):
        MonIdeal([(0.5, 1)])
    with pytest.raises(TypeError):
        MonIdeal([(True, 1)])
    with pytest.raises(OverflowError):
        MonIdeal([(1 << 63, 0)])
    with pytest.raises(AttributeError):
        UNIT.gens = ()


def test_membership_is_domination():
    e = MonIdeal([(2, 0), (0, 2)])
    assert (2, 0) in e
    assert (5, 1) in e
    assert (1, 1) not in e
    assert (1, 5) in e and (1, 1) not in e


def test_unit_behavior():
    assert UNIT.is_unit and UNIT.mdeg == 0
    assert not build_b(2).is_unit
    e = build_c(5)
    assert product(UNIT, e) == e
    assert MonIdeal([(0, 0), (3, 1)]) == UNIT


@given(ideals)
def test_text_and_json_round_trip(e):
    data = json.loads(json.dumps(e.to_json()))
    assert MonIdeal(map(tuple, data["gens"])) == e
    assert MonIdeal.from_text(e.to_text()) == e
    assert MonIdeal.from_text(str(e)) == e


def test_text_forms():
    e = MonIdeal([(2, 0), (1, 1), (0, 2)])
    assert str(e) == "<X^2, X Y, Y^2>"
    assert MonIdeal.from_text("< X^2 , X Y , Y^2 >") == e
    assert MonIdeal.from_text("1") == UNIT
    with pytest.raises(ValueError):
        MonIdeal.from_text("<X^-2>")
    with pytest.raises(ValueError):
        MonIdeal.from_text("")


# -- degree bookkeeping --------------------------------------------------------


@given(ideals, ideals)
def test_mdeg_and_gcd_additive_under_product(a, b):
    p = product(a, b)
    assert p.mdeg == a.mdeg + b.mdeg
    ga, gb, gp = generator_gcd(a), generator_gcd(b), generator_gcd(p)
    assert gp == (ga[0] + gb[0], ga[1] + gb[1])


def test_mdeg_additivity_bulk():
    rng = random.Random(3)
    for _ in range(1000):
        a = MonIdeal([(rng.randrange(8), rng.randrange(8))
                      for _ in range(rng.randrange(1, 5))])
        b = MonIdeal([(rng.randrange(8), rng.randrange(8))
                      for _ in range(rng.randrange(1, 5))])
        assert product(a, b).mdeg == a.mdeg + b.mdeg


def test_shifted():
    e = MonIdeal([(2, 1), (1, 3)])
    up = shifted(e, 2, 3)
    assert up.gens == ((4, 4), (3, 6))
    assert shifted(up, -2, -3) == e
    with pytest.raises(ValueError):
        shifted(e, -2, 0)  # (1,3) would go negative


# -- the set-to-ideal embedding ------------------------------------------------


def test_phi_examples():
    assert phi(NatSet([0])) == UNIT
    assert phi(NatSet([0, 1, 2])) == build_a(2)
    assert phi(NatSet([0, 3])) == build_b(3)
    assert phi(NatSet([0, 1, 2, 4])) == build_c(4)
    with pytest.raises(ValueError):
        phi(NatSet([1, 2]))


def test_phi_matches_checked_constructor():
    # phi wraps its generators unchecked; the checked constructor must agree
    for mask in range(1 << 12):
        a = NatSet([0] + [i + 1 for i in range(12) if mask >> i & 1])
        img = phi(a)
        assert img.gens == MonIdeal((a.max - e, e) for e in a.elements).gens
        assert type(img.gens) is tuple


@given(zero_sets, zero_sets)
def test_phi_is_a_monoid_homomorphism(a, b):
    assert phi(sumset(a, b)) == product(phi(a), phi(b))


@given(zero_sets)
def test_phi_images_decode(a):
    img = phi(a)
    assert all(x + y == a.max for x, y in img.gens)
    assert NatSet(y for _, y in img.gens) == a


# -- named families -------------------------------------------------------------


def test_builder_generators_frozen():
    assert build_a(3).gens == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert build_b(4).gens == ((4, 0), (0, 4))
    assert build_c(3).gens == ((3, 0), (2, 1), (0, 3))
    assert build_c(4).gens == ((4, 0), (3, 1), (2, 2), (0, 4))
    assert build_c(5).gens == ((5, 0), (4, 1), (2, 3), (0, 5))
    assert build_c(6).gens == ((6, 0), (5, 1), (4, 2), (2, 4), (0, 6))
    for k in (0, 1, 2):
        with pytest.raises(ValueError):
            build_c(k)
    with pytest.raises(ValueError):
        build_a(0)
    with pytest.raises(ValueError):
        build_b(0)


def test_tilde_b_generators():
    seq = minimal_sequence(3)
    tb = build_tilde_b(seq, 3)
    base = product(build_b(1), build_b(9))
    assert tb.gens == tuple(sorted(base.gens + ((6, 6),),
                                   key=lambda g: (-g[0], g[1])))
    with pytest.raises(ValueError):
        build_tilde_b(seq, 2)
    with pytest.raises(ValueError):
        build_tilde_b(seq, 4)
    with pytest.raises(ValueError):
        build_tilde_b(minimal_sequence(2), 3)


def test_image_families_match_embedding():
    seq = minimal_sequence(2)
    from atomlab.families import build_B, build_C
    assert build_i_b(seq) == phi(build_B(seq))
    assert build_i_c(seq) == phi(build_C(seq))


def test_power_identity():
    assert build_a(5) == product(build_a(1), build_c(4))
    assert product(build_a(1), build_a(2)) == product(build_a(1), build_b(2))
    assert build_a(2) != build_b(2)
