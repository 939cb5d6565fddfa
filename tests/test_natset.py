"""Core set arithmetic and factor search in the sumset monoids."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from atomlab import natset
from atomlab.engine import (Budget, SearchBudgetExceeded, SumsetMonoid,
                            sumset_engine)
from atomlab.natset import (NatSet, delta_set, elasticity, is_sum_free,
                            iter_sum_free, set_colon, sumset)


small_zero_sets = st.sets(st.integers(0, 9), min_size=0, max_size=6).map(
    lambda s: NatSet(s | {0}))
small_sets = st.sets(st.integers(0, 12), min_size=1, max_size=7).map(NatSet)


def brute_pairs(a):
    """All unordered 0-set pairs multiplying to a, by raw enumeration."""
    elems = a.elements
    subs = [elems]
    for e in elems[1:]:
        subs += [tuple(x for x in s if x != e) for s in subs]
    zero_subs = sorted(set(s for s in subs if s and s[0] == 0))
    out = set()
    for b in zero_subs:
        for c in zero_subs:
            if b == (0,) or c == (0,):
                continue
            if tuple(sorted({x + y for x in b for y in c})) == elems:
                out.add((b, c) if b <= c else (c, b))
    return out


def test_canonical_form():
    a = NatSet([3, 0, 3, 1])
    assert a.elements == (0, 1, 3)
    assert a == NatSet((1, 0, 3))
    assert str(a) == "{0,1,3}"
    assert len(a) == 3 and 1 in a and 2 not in a
    assert a.min == 0 and a.max == 3


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        NatSet([])
    with pytest.raises(ValueError):
        NatSet([-1, 0])
    with pytest.raises(TypeError):
        NatSet([0, 1.5])
    with pytest.raises(TypeError):
        NatSet([True])
    with pytest.raises(OverflowError):
        NatSet([0, 1 << 63])
    with pytest.raises(AttributeError):
        NatSet([0]).elements = (1,)


def test_shifted_checks_only_its_ends():
    a = NatSet([2, 5, 9])
    assert a.shifted(3) == NatSet([5, 8, 12])
    assert a.shifted(-2) == NatSet([0, 3, 7])
    assert a.shifted(0) == a
    with pytest.raises(ValueError):
        a.shifted(-3)  # 2 - 3 would be negative
    with pytest.raises(OverflowError):
        a.shifted(natset.MAX_ELEMENT - 8)  # 9 + that is past the bound
    assert a.shifted(natset.MAX_ELEMENT - 9).max == natset.MAX_ELEMENT


def test_json_and_text_round_trip():
    a = NatSet([0, 2, 7])
    assert NatSet(json.loads(json.dumps(a.to_json()))) == a
    assert NatSet.from_text(a.to_text()) == a
    assert NatSet.from_text(str(a)) == a


def test_sumset_examples():
    assert sumset(NatSet([0, 1]), NatSet([0, 1])) == NatSet([0, 1, 2])
    assert sumset(NatSet([0]), NatSet([0, 4])) == NatSet([0, 4])
    assert sumset(NatSet([1, 2]), NatSet([3])) == NatSet([4, 5])


@given(small_sets, small_sets)
def test_sumset_properties(a, b):
    p = sumset(a, b)
    assert p.min == a.min + b.min
    assert p.max == a.max + b.max
    assert len(p) >= max(len(a), len(b))
    assert set(p.elements) == {x + y for x in a for y in b}


def test_is_sum_free():
    assert is_sum_free(NatSet([1]))
    assert is_sum_free(NatSet([2, 3]))
    assert not is_sum_free(NatSet([1, 2]))
    assert not is_sum_free(NatSet([0]))  # 0 + 0 = 0
    assert is_sum_free(NatSet([5, 6, 7, 8, 9]))


def test_iter_sum_free_matches_brute_filter():
    got = {s.elements for s in iter_sum_free(6)}
    want = set()
    for mask in range(1, 1 << 6):
        s = tuple(i + 1 for i in range(6) if mask >> i & 1)
        if all(x + y not in s for x in s for y in s):
            want.add(s)
    assert got == want


def test_iter_sum_free_matches_is_sum_free_in_order():
    for limit in range(-1, 13):
        want = [s for mask in range(1, 1 << max(limit, 0))
                for s in [NatSet(i + 1 for i in range(limit) if mask >> i & 1)]
                if is_sum_free(s)]
        assert list(iter_sum_free(limit)) == want
    assert len(want) == 368


@given(small_sets, small_sets)
def test_set_colon_is_maximal_cofactor(a, b):
    c = set_colon(a, b)
    ok = {x for x in range(a.max + 1)
          if all(x + y in a for y in b)}
    if ok:
        assert c is not None and set(c.elements) == ok
    else:
        assert c is None


def test_reduce_shift():
    # {1} is a prime atom: a set is min(A) copies of it plus its 0-set
    m = SumsetMonoid()
    assert m.prime_split(NatSet([3, 5])) == (0, 3, NatSet([0, 2]))
    assert m.prime_split(NatSet([0, 1])) == (0, 0, NatSet([0, 1]))


def test_decompose_reduced_small_cases():
    eng = sumset_engine()
    assert list(SumsetMonoid().candidate_divisors(NatSet([0]), Budget())) == []
    assert eng.split(NatSet([0, 1])) == []
    assert eng.split(NatSet([0, 1, 2])) == [
        (NatSet([0, 1]), NatSet([0, 1]))]


@given(small_zero_sets)
@settings(max_examples=60)
def test_decompose_reduced_matches_brute_force(a):
    pairs = sumset_engine().split(a) if a.max else []
    got = {(b.elements, c.elements) for b, c in pairs}
    assert got == brute_pairs(a)


@given(small_zero_sets)
def test_atom_iff_no_decomposition(a):
    eng = sumset_engine()
    if a.max == 0:
        assert not eng.is_atom(a)
    else:
        assert eng.is_atom(a) == (not eng.split(a))


def test_sum_free_zero_sets_are_atoms():
    eng = sumset_engine()
    for s in iter_sum_free(9):
        assert eng.is_atom(NatSet((0,) + s.elements))


def test_lengths_reduced_examples():
    eng = sumset_engine()
    assert eng.lengths(NatSet([0])) == (0,)
    assert eng.lengths(NatSet([0, 3])) == (1,)
    assert eng.lengths(NatSet([0, 1, 2])) == (2,)
    assert eng.lengths(NatSet(range(6))) == (2, 3, 4, 5)


def test_full_monoid_shift_reduction():
    eng = sumset_engine()
    assert eng.is_atom(NatSet([1]))
    assert not eng.is_atom(NatSet([2]))
    assert not eng.is_atom(NatSet([1, 2]))
    assert eng.is_atom(NatSet([0, 1]))
    assert eng.lengths(NatSet([2, 5])) == (3,)
    assert eng.lengths(NatSet([1])) == (1,)
    assert eng.lengths(NatSet([0])) == (0,)
    assert eng.find_split(NatSet([2, 5])) == (NatSet([1]), NatSet([1, 4]))
    assert eng.find_split(NatSet([1])) is None
    assert eng.find_split(NatSet([0, 1, 2])) == (NatSet([0, 1]),
                                                 NatSet([0, 1]))
    with pytest.raises(ValueError):
        eng.find_split(NatSet([0]))


@given(small_sets)
def test_full_monoid_find_split_witness(a):
    eng = sumset_engine()
    if a == NatSet([0]):
        assert not eng.is_atom(a)
        return
    pair = eng.find_split(a)
    assert eng.is_atom(a) == (pair is None)
    if pair is not None:
        b, c = pair
        assert sumset(b, c) == a and NatSet([0]) not in (b, c)


@given(small_zero_sets, st.integers(0, 4))
def test_full_monoid_lengths_shift_invariant(a, k):
    eng = sumset_engine()
    assert eng.lengths(a.shifted(k)) == tuple(k + l for l in eng.lengths(a))


def test_delta_and_elasticity():
    assert delta_set((2, 3)) == (1,)
    assert delta_set((2, 5, 6)) == (1, 3)
    assert delta_set((4,)) == ()
    assert elasticity((0,)) == 1
    assert elasticity((2, 5)) == natset.Fraction(5, 2)
    assert elasticity((0, 3)) == natset.inf
    with pytest.raises(ValueError):
        elasticity(())


def test_search_limit_refusal():
    big = NatSet([0, natset.SEARCH_LIMIT + 1])
    with pytest.raises(ValueError):
        sumset_engine().split(big)


def test_tick_is_called_and_can_abort():
    budget = Budget(max_nodes=3)
    with pytest.raises(SearchBudgetExceeded):
        sumset_engine(budget).split(NatSet(range(15)))
    assert budget.nodes > 3
