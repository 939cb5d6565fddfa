"""Factor search engine: budgets, determinism, and oracle agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from atomlab import engine, natset, oracle
from atomlab.engine import (MAX_BOARD_CELLS, Budget, MonomialMonoid,
                            SearchBudgetExceeded, SumsetMonoid, board_cells,
                            monomial_engine, sumset_engine)
from atomlab.families import minimal_sequence
from atomlab.monideal import (MonIdeal, build_a, build_b, build_c, build_i_b,
                              build_i_c, colon, generator_gcd, phi, product,
                              shifted)
from atomlab.natset import NatSet


small_ideals = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=1, max_size=4).map(MonIdeal)
zero_sets = st.sets(st.integers(0, 8), max_size=6).map(
    lambda s: NatSet(s | {0}))
wide_zero_sets = st.sets(st.integers(1, 14), max_size=8).map(
    lambda s: NatSet(s | {0}))


# -- candidate streams are exact divisor enumerations -------------------------


@given(small_ideals)
@settings(max_examples=80)
def test_monomial_stream_yields_only_divisors(e):
    m = MonomialMonoid()
    for cand in m.candidate_divisors(e):
        cof = colon(e, cand)
        assert product(cand, cof) == e
        assert 1 <= cand.mdeg <= e.mdeg - 1


@given(zero_sets)
@settings(max_examples=80)
def test_sumset_stream_yields_only_divisors(a):
    m = SumsetMonoid()
    for cand in m.candidate_divisors(a):
        cof = natset.set_colon(a, cand)
        assert cof is not None and natset.sumset(cand, cof) == a


@given(wide_zero_sets)
@settings(max_examples=60, deadline=None)
def test_monomial_stream_on_phi_matches_sumset(a):
    # phi(A) has exponents up to 14: multi-point frames and wide boards
    e = phi(a)
    mon, sums = monomial_engine(), sumset_engine()
    divisors = mon.divisors(e)
    for d in divisors:
        assert product(d, colon(e, d)) == e
    found = set(divisors)
    for b in sums.divisors(a):
        assert phi(b) in found
    assert mon.is_atom(e) == sums.is_atom(a)


def test_monomial_stream_is_pinned():
    # exact counts pin the order of the stream and of its ticks
    e = build_i_c(minimal_sequence(3))
    budget = Budget(max_nodes=20000)
    got = []
    with pytest.raises(SearchBudgetExceeded):
        for d in MonomialMonoid().candidate_divisors(e, budget):
            got.append(d)
    assert len(got) == 13643 and budget.nodes == 20001
    assert got[-1].gens == ((22, 0), (21, 9), (19, 10), (18, 12), (16, 14),
                            (15, 17), (13, 19), (11, 20), (10, 21), (0, 22))
    for a in got[:200]:
        assert product(a, colon(e, a)) == e


@given(small_ideals)
@settings(max_examples=80)
def test_board_colon_masks_match_membership(e):
    u, v = generator_gcd(e)
    core = shifted(e, -u, -v)
    if core.is_unit:
        return
    board = engine._Board(core)
    px, py, w = board.px, board.py, board.stride
    for c in range(px + 1):
        for g in range(py + 1):
            want = sum(1 << (y * w + x) for y in range(py + 1)
                       for x in range(px + 1)
                       if (min(x + c, px), min(y + g, py)) in core)
            assert board.colon_mask(c, g) == want


def test_board_limit():
    huge = MonIdeal([(99999999999, 0), (0, 99999999999)])
    assert board_cells(huge) > MAX_BOARD_CELLS
    with pytest.raises(ValueError):
        next(MonomialMonoid().candidate_divisors(huge))
    # only the gcd-free core is searched, so a monomial factor is free
    assert board_cells(shifted(build_a(1), 10**10, 10**10)) == 2 * 3
    assert board_cells(build_a(1000)) == 1001 * 2001 <= MAX_BOARD_CELLS


def test_sumset_stream_requires_zero():
    with pytest.raises(ValueError):
        list(SumsetMonoid().candidate_divisors(NatSet([1, 2])))


# -- budgets ------------------------------------------------------------------


def test_budget_nodes_exhaustion():
    eng = monomial_engine(Budget(max_nodes=3))
    with pytest.raises(SearchBudgetExceeded) as info:
        eng.is_atom(build_i_b(minimal_sequence(3)))
    assert info.value.nodes == 4
    assert info.value.elapsed >= 0.0

    eng = sumset_engine(Budget(max_nodes=10))
    with pytest.raises(SearchBudgetExceeded):
        eng.divisors(NatSet(range(21)))


def test_budget_seconds_exhaustion():
    eng = monomial_engine(Budget(max_seconds=0.0))
    with pytest.raises(SearchBudgetExceeded):
        # needs enough nodes to reach a clock check
        eng.divisors(build_i_c(minimal_sequence(3)))


def test_budget_none_means_unbounded():
    eng = sumset_engine()
    assert eng.lengths(NatSet(range(9))) == (2, 3, 4, 5, 6, 7, 8)


# -- basic queries --------------------------------------------------------------


def test_atom_and_split_basics():
    eng = monomial_engine()
    assert eng.is_atom(build_c(4))
    assert not eng.is_atom(build_a(2))
    assert not eng.is_atom(MonIdeal([(0, 0)]))  # the unit is not an atom
    a1 = build_a(1)
    assert eng.split(build_a(2)) == [(a1, a1)]
    assert eng.split(build_c(4)) == []
    pair = eng.find_split(build_a(4))
    assert pair is not None and product(*pair) == build_a(4)
    with pytest.raises(ValueError):
        eng.find_split(MonIdeal([(0, 0)]))
    with pytest.raises(ValueError):
        eng.split(MonIdeal([(0, 0)]))


def test_identity_lengths():
    assert monomial_engine().lengths(MonIdeal([(0, 0)])) == (0,)
    assert sumset_engine().lengths(NatSet([0])) == (0,)


def test_lengths_examples():
    eng = monomial_engine()
    for k in range(2, 7):
        assert eng.lengths(build_a(k)) == tuple(range(2, k + 1))
    assert eng.lengths(build_b(3)) == (1,)
    assert eng.lengths(build_i_c(minimal_sequence(2))) == (2, 3)
    seng = sumset_engine()
    assert seng.lengths(NatSet([0, 1])) == (1,)
    assert seng.lengths(NatSet([0, 1, 2])) == (2,)


def test_divisors_sorted_and_memoized():
    eng = sumset_engine()
    a = NatSet(range(7))
    first = eng.divisors(a)
    grades = [d.max for d in first]
    assert grades == sorted(grades)
    assert eng.divisors(a) == first
    again = sumset_engine().divisors(a)
    assert again == first


def test_factorizations_consistent_with_lengths():
    eng = monomial_engine()
    for e in (build_a(2), build_a(4), build_c(4),
              product(build_b(2), build_c(5))):
        facs = eng.factorizations(e)
        assert facs == sorted(facs, key=lambda f: [x.gens for x in f])
        assert {len(f) for f in facs} == set(eng.lengths(e))
        for f in facs:
            out = MonIdeal([(0, 0)])
            for atom in f:
                assert eng.is_atom(atom)
                out = product(out, atom)
            assert out == e


def test_factorizations_grade_guard():
    eng = monomial_engine()
    with pytest.raises(ValueError):
        eng.factorizations(build_b(40), max_grade=39)


@given(small_ideals)
@settings(max_examples=60, deadline=None)
def test_one_in_lengths_iff_atom(e):
    eng = monomial_engine()
    if e.is_unit:
        return
    assert (1 in eng.lengths(e)) == eng.is_atom(e)


# -- agreement with the naive all-pairs oracle ----------------------------------


def test_sumset_engine_matches_oracle_exhaustively():
    split_map = oracle.naive_sumset_split_map(7)
    eng = sumset_engine()
    cache: dict = {}
    for mask in range(1, 1 << 7):
        a = NatSet([0] + [i + 1 for i in range(7) if mask >> i & 1])
        got = {(p.elements, q.elements) for p, q in eng.split(a)}
        assert got == split_map.get(a.elements, set())
        want = tuple(sorted(oracle.naive_lengths(a.elements, split_map,
                                                 cache)))
        assert eng.lengths(a) == want


def test_bounded_split_maps_match_all_pairs():
    # the oracle skips pairs whose product leaves the box; no key inside it
    # may lose a factor pair
    limit = 8
    sets = [NatSet([0] + [i + 1 for i in range(limit) if mask >> i & 1])
            for mask in range(1, 1 << limit)]
    want: dict = {}
    for i, a in enumerate(sets):
        for b in sets[i:]:
            key = natset.sumset(a, b).elements
            if key[-1] <= limit:
                want.setdefault(key, set()).add(
                    tuple(sorted((a.elements, b.elements))))
    got = oracle.naive_sumset_split_map(limit)
    assert got.keys() == want.keys()
    assert got == want

    pool = oracle.box_ideals(3)
    want = {}
    for i, a in enumerate(pool):
        for b in pool[i:]:
            p = product(a, b)
            if p.max_x <= 3 and p.max_y <= 3:
                want.setdefault(p.gens, set()).add(
                    tuple(sorted((a.gens, b.gens))))
    got = oracle.naive_mon_split_map(pool)
    assert got.keys() == want.keys()
    assert got == want


def test_monomial_engine_matches_oracle_exhaustively():
    pool = oracle.box_ideals(3)
    split_map = oracle.naive_mon_split_map(pool)
    eng = monomial_engine()
    cache: dict = {}
    for e in pool:
        got = {(a.gens, b.gens) for a, b in eng.split(e)}
        assert got == split_map.get(e.gens, set())
        want = tuple(sorted(oracle.naive_lengths(e.gens, split_map, cache)))
        assert eng.lengths(e) == want
