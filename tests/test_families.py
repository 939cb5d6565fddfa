"""Seed sequences and the named set families built from them."""

import copy
import itertools
import json
import pickle
import time

import pytest
from hypothesis import given, strategies as st

from atomlab.families import (SumSequence, build_A, build_B, build_C,
                              build_delta_even, build_delta_odd,
                              minimal_sequence, subset_sum)
from atomlab.natset import MAX_ELEMENT, NatSet


def subsets(items):
    pool = tuple(items)
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def test_minimal_sequences_frozen_values():
    assert minimal_sequence(2).values == (1, 3, 7)
    assert minimal_sequence(3).values == (1, 3, 9, 22)
    assert minimal_sequence(4).values == (1, 3, 9, 27, 67)
    assert minimal_sequence(5).values == (1, 3, 9, 27, 81, 202)


def test_minimal_sequence_stops_at_the_first_term_past_the_bound():
    # n = 39 is the largest that fits; a larger n is refused at the first
    # term past MAX_ELEMENT, before the rest of its terms are built
    assert minimal_sequence(39).values[-1] <= MAX_ELEMENT
    with pytest.raises(OverflowError):
        minimal_sequence(40)
    start = time.monotonic()
    with pytest.raises(OverflowError):
        minimal_sequence(10**6)
    assert time.monotonic() - start < 0.1


def test_sequence_validation():
    SumSequence((1, 3, 7))
    with pytest.raises(ValueError):
        SumSequence((1, 3))  # too short
    with pytest.raises(ValueError):
        SumSequence((0, 3, 7))  # nonpositive term
    with pytest.raises(ValueError):
        SumSequence((1, 2, 5))  # growth condition at position 2
    with pytest.raises(ValueError):
        SumSequence((1, 3, 8))  # closing identity
    # non-minimal but valid: growth 5 > 2*2, closing 2 + 2*5 = 12
    assert SumSequence((2, 5, 12)).n == 2


def test_sequence_accessors():
    seq = minimal_sequence(3)
    assert seq.n == 3
    assert seq.term(1) == 1 and seq.term(4) == 22
    with pytest.raises(IndexError):
        seq.term(0)
    with pytest.raises(IndexError):
        seq.term(5)
    assert SumSequence(tuple(json.loads(json.dumps(seq.to_json())))) == seq


def test_sequence_is_an_immutable_value():
    seq = SumSequence(values=[1, 3, 7])
    assert seq.values == (1, 3, 7)
    assert seq == SumSequence((1, 3, 7)) == minimal_sequence(2)
    assert hash(seq) == hash(SumSequence((1, 3, 7)))
    assert len({seq, SumSequence((1, 3, 7)), SumSequence((2, 5, 12))}) == 2
    assert seq != (1, 3, 7) and (1, 3, 7) != seq
    assert seq != SumSequence((2, 5, 12))
    assert repr(seq) == "SumSequence(values=(1, 3, 7))"
    with pytest.raises(AttributeError):
        seq.values = (2, 5, 12)
    with pytest.raises(AttributeError):
        del seq.values
    with pytest.raises(AttributeError):
        seq.extra = 1
    assert seq.values == (1, 3, 7)
    assert copy.copy(seq) == seq
    assert pickle.loads(pickle.dumps(seq)) == seq


def test_sequence_error_messages():
    with pytest.raises(ValueError, match=r"at least 3 terms \(n >= 2\)"):
        SumSequence((1, 3))
    with pytest.raises(ValueError, match="positive integers, got True"):
        SumSequence((True, 3, 7))
    with pytest.raises(ValueError, match=r"position 2: 2 <= 2\*1"):
        SumSequence((1, 2, 5))
    with pytest.raises(ValueError, match="last term is 8, expected 7"):
        SumSequence((1, 3, 8))
    with pytest.raises(OverflowError, match="machine-width bound"):
        SumSequence((1, 3, MAX_ELEMENT + 1))


def test_subset_sum():
    seq = minimal_sequence(3)
    assert subset_sum(seq, ()) == 0
    assert subset_sum(seq, (1, 3)) == 10
    assert subset_sum(seq, (3, 1, 3)) == 10  # duplicates collapse
    with pytest.raises(IndexError):
        subset_sum(seq, (0, 1))


def test_family_sizes_and_extremes():
    for n in (2, 3, 4):
        seq = minimal_sequence(n)
        a, b, c = build_A(seq), build_B(seq), build_C(seq)
        assert len(a) == 2 ** (n - 1)
        assert len(b) == 2 ** n + 1
        assert len(c) == 2 ** (n + 1)
        assert a.min == b.min == c.min == 0
        assert c.max == sum(seq.values)
        assert set(a) <= set(b) <= set(c)


def test_family_membership_shape():
    seq = minimal_sequence(3)
    vals = seq.values
    assert set(build_A(seq)) == {sum(s) for s in subsets(vals[:2])}
    assert set(build_C(seq)) == {sum(s) for s in subsets(vals)}
    mid = sum(vals[:3])
    shifted = {x + vals[3] for s in subsets(vals[:2]) for x in [sum(s)]}
    assert set(build_B(seq)) == set(build_A(seq)) | {mid} | shifted


@given(st.integers(2, 5))
def test_disjoint_subset_sums_add(n):
    seq = minimal_sequence(n)
    ground = range(1, n)
    for i_set in subsets(ground):
        for j_set in subsets(ground):
            if set(i_set) & set(j_set):
                continue
            union = tuple(sorted(set(i_set) | set(j_set)))
            assert subset_sum(seq, i_set) + subset_sum(seq, j_set) \
                == subset_sum(seq, union)


def test_subset_sums_are_distinct_over_prefix():
    seq = minimal_sequence(5)
    sums = [subset_sum(seq, s) for s in subsets(range(1, 6))]
    assert len(sums) == len(set(sums))


def test_c_family_exceptional_membership():
    # With overlapping supports, a_I + a_J lands in C_n only in the single
    # carry pattern: I u J = [1,n] with n in both.
    n = 3
    seq = minimal_sequence(n)
    c = set(build_C(seq))
    i_set, j_set = (1, 3), (2, 3)
    assert subset_sum(seq, i_set) + subset_sum(seq, j_set) in c
    assert subset_sum(seq, (1, 2)) + subset_sum(seq, (2, 3)) not in c


def test_small_families():
    assert build_delta_odd(3) == NatSet([1, 3, 5, 7])
    assert build_delta_even(3) == NatSet([1, 2, 4, 6])
    with pytest.raises(ValueError):
        build_delta_odd(0)
    with pytest.raises(ValueError):
        build_delta_even(0)
