"""Factor search engine: budgets, determinism, and oracle agreement."""

import inspect
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from atomlab import engine, natset, oracle
from atomlab.engine import (MAX_BOARD_CELLS, Budget, FactorEngine,
                            GradedMonoid, MonomialMonoid, SearchBudgetExceeded,
                            SumsetMonoid, board_cells,
                            check_search_size, make_budget, monomial_engine,
                            sumset_engine)
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


def test_adapters_hold_exactly_the_protocol():
    # the engine calls only what GradedMonoid declares, with these parameters
    def methods(cls):
        return {name: [(p.name, p.kind, p.default) for p in
                       inspect.signature(fn).parameters.values()]
                for name, fn in vars(cls).items()
                if callable(fn) and not name.startswith("_")}

    protocol = methods(GradedMonoid)
    assert set(protocol) == {"product", "colon", "grade", "key",
                             "candidate_divisors", "cofactors", "prime_split"}
    assert methods(SumsetMonoid) == protocol
    assert methods(MonomialMonoid) == protocol


@given(small_ideals)
@settings(max_examples=80)
def test_monomial_stream_yields_only_divisors(e):
    m = MonomialMonoid()
    for cand, grade in m.candidate_divisors(e, Budget()):
        cof = colon(e, cand)
        assert product(cand, cof) == e
        assert 1 <= cand.mdeg == grade <= e.mdeg // 2


@given(zero_sets)
@settings(max_examples=80)
def test_sumset_stream_yields_only_divisors(a):
    m = SumsetMonoid()
    for cand, grade in m.candidate_divisors(a, Budget()):
        assert 1 <= grade == cand.max <= a.max // 2
        cof = natset.set_colon(a, cand)
        assert cof is not None and natset.sumset(cand, cof) == a


@given(wide_zero_sets)
@settings(max_examples=60, deadline=None)
def test_monomial_stream_on_phi_matches_sumset(a):
    # phi(A) has exponents up to 14: multi-point frames and wide boards
    e = phi(a)
    divisors = [d for d, _g in
                MonomialMonoid().candidate_divisors(e, Budget())]
    for d in divisors:
        assert product(d, colon(e, d)) == e
    found = set(divisors)
    for b, _g in SumsetMonoid().candidate_divisors(a, Budget()):
        assert phi(b) in found
    assert monomial_engine().is_atom(e) == sumset_engine().is_atom(a)


def test_monomial_stream_is_pinned():
    # exact counts pin the order of the stream and of its ticks
    e = build_i_c(minimal_sequence(3))
    budget = Budget()
    got = list(MonomialMonoid().candidate_divisors(e, budget))
    assert len(got) == 79 and budget.nodes == 864
    assert got[-1] == (MonIdeal([(13, 0), (12, 1), (10, 3), (9, 4), (4, 9),
                                 (3, 10), (1, 12), (0, 13)]), 13)
    for a, _g in got:
        assert product(a, colon(e, a)) == e
    # the last divisor comes at node 587, before the last frames, which a
    # budget stops
    budget = Budget(max_nodes=700)
    capped = []
    with pytest.raises(SearchBudgetExceeded):
        for pair in MonomialMonoid().candidate_divisors(e, budget):
            capped.append(pair)
    assert capped == got and budget.nodes == 701


def test_sumset_stream_is_pinned():
    # exact counts pin the order of the stream and of its ticks, nodes that
    # the lows test drops included
    a = NatSet([0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15])
    budget = Budget()
    got = list(SumsetMonoid().candidate_divisors(a, budget))
    assert [(d.elements, g) for d, g in got] == [
        ((0, 2), 2), ((0, 1, 3), 3), ((0, 1, 5), 5), ((0, 1, 2, 5), 5),
        ((0, 1, 2, 3, 5), 5), ((0, 1, 3, 5), 5), ((0, 2, 5), 5),
        ((0, 1, 6), 6), ((0, 1, 2, 6), 6), ((0, 1, 2, 3, 6), 6),
        ((0, 1, 3, 6), 6), ((0, 1, 2, 3, 7), 7), ((0, 1, 2, 3, 5, 7), 7),
        ((0, 1, 2, 5, 7), 7), ((0, 1, 3, 5, 7), 7), ((0, 1, 5, 7), 7),
        ((0, 5, 7), 7)]
    assert budget.nodes == 33
    for d, _g in got:
        assert natset.sumset(d, natset.set_colon(a, d)) == a
    # the last node yields the last divisor, so a budget one short stops
    # just before it
    budget = Budget(max_nodes=32)
    capped = []
    with pytest.raises(SearchBudgetExceeded):
        for pair in SumsetMonoid().candidate_divisors(a, budget):
            capped.append(pair)
    assert capped == got[:-1] and budget.nodes == 33


def test_cofactor_search_holds_one_frame_per_level():
    # the first cofactor of [0,1000] by {0,1} lies 998 levels deep; a stack
    # of every pushed sibling traced about 200 MB for it
    whole, part = NatSet(range(1001)), NatSet([0, 1])
    tracemalloc.start()
    try:
        r = next(SumsetMonoid().cofactors(whole, part, Budget()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert natset.sumset(part, r) == whole
    assert peak < 8 * 2**20


def _reference_frame_stream(e, tick):
    """Divisors of a gcd-free e of at most half its grade, with grades, from
    a frame loop that tests every frame.

    A frame that passes the grade test and whose divisors do not all exceed
    half the grade is ticked, and each of its points is tested cell by cell
    with `in`; the DFS is the engine's own.  Divisors above half the grade
    are dropped.
    """
    board = engine._Board(e)
    total, px, py = e.mdeg, board.px, board.py
    cap = total // 2

    def member(x, y):
        return (min(x, px), min(y, py)) in e

    for ax in range(1, px):
        bx = px - ax
        for ay in range(1, py):
            by = py - ay
            if min(ax, ay) + min(bx, by) < total:
                continue
            lo = total - min(bx, by)
            if min(ax, ay) > cap and lo > cap:
                continue
            tick()
            if not member(ax, by) or not member(bx, ay):
                continue
            points = sorted((g, c) for c in range(1, ax)
                            for g in range(max(1, lo - c), ay)
                            if member(c + bx, g) and member(c, g + by))
            # each row's points run from its least column to ax - 1
            rows = sorted({g: min(c for h, c in points if h == g)
                           for g, _c in points}.items())
            assert points == [(g, c) for g, c0 in rows
                              for c in range(c0, ax)]
            for d, g in engine._frame_dfs(board, ax, ay, rows, tick):
                if g <= cap:
                    yield d, g


def _run_stream(stream, budget):
    got = []
    try:
        for d in stream:
            got.append(d)
    except SearchBudgetExceeded:
        pass
    return got, budget.nodes


@pytest.mark.parametrize("e", [phi(NatSet([0, 1, 3, 7, 8, 12, 14])),
                               phi(NatSet([0, 2, 3, 9, 11])),
                               phi(NatSet([0, 4, 5, 6, 10, 13])),
                               build_a(5), build_a(8),
                               build_i_c(minimal_sequence(2))],
                         ids=str)
def test_budget_exhaustion_matches_reference_frame_loop(e):
    # the stream, the node count and the point where a budget stops it match
    # a loop that tests every frame and ticks those it searches
    full = Budget()
    want = list(_reference_frame_stream(e, full.tick))
    budget = Budget()
    got, nodes = _run_stream(MonomialMonoid().candidate_divisors(e, budget),
                             budget)
    assert (got, nodes) == (want, full.nodes)
    for n in sorted({1, 2, 5, 13, 50, 200, 1000, full.nodes - 1, full.nodes}):
        ref = Budget(max_nodes=n)
        ref_got, ref_nodes = _run_stream(
            _reference_frame_stream(e, ref.tick), ref)
        budget = Budget(max_nodes=n)
        got, nodes = _run_stream(
            MonomialMonoid().candidate_divisors(e, budget), budget)
        assert (got, nodes) == (ref_got, ref_nodes)
        assert nodes == min(n + 1, full.nodes)


@given(st.integers(1, 40), st.integers(1, 40), st.data())
@settings(max_examples=200)
def test_frame_ays_match_grade_filter(px, py, data):
    total = data.draw(st.integers(1, min(px, py)))
    cap = data.draw(st.integers(0, total - 1))
    for ax in range(1, px):
        want = [ay for ay in range(1, py)
                if min(ax, ay) + min(px - ax, py - ay) >= total
                and not (min(ax, ay) > cap
                         and total - min(px - ax, py - ay) > cap)]
        # the ax loop of _gcdfree_divisors stops at px - total + cap
        got = (list(engine._frame_ays(px, py, total, cap, ax))
               if ax <= px - total + cap else [])
        assert got == want


def test_phi_atom_node_count_is_pinned():
    # every 0-containing A in [0,10]: one node per frame searched and per
    # DFS node
    budget = Budget()
    eng = monomial_engine(budget)
    atoms = sum(eng.is_atom(phi(NatSet([0] + [i + 1 for i in range(10)
                                              if mask >> i & 1])))
                for mask in range(1 << 10))
    assert (atoms, budget.nodes) == (645, 4143)


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
        next(MonomialMonoid().candidate_divisors(huge, Budget()))
    # only the gcd-free core is searched, so a monomial factor is free
    assert board_cells(shifted(build_a(1), 10**10, 10**10)) == 2 * 3
    assert board_cells(build_a(1000)) == 1001 * 2001 <= MAX_BOARD_CELLS


def test_board_region_matches_membership():
    wide = [build_a(40), phi(NatSet([0, 7, 30, 61])), build_i_c(
        minimal_sequence(3)), MonIdeal([(60, 0), (5, 2), (0, 9)]),
        MonIdeal([(30, 4), (2, 11)])]
    for e in oracle.box_ideals(4) + wide:
        board = engine._Board(e)
        px, py, w = board.px, board.py, board.stride
        cells = {(x, y) for y in range(py + 1) for x in range(px + 1)
                 if (x, y) in e}
        assert board.region == sum(1 << (y * w + x) for x, y in cells)
        assert board.gens == sum(1 << (y * w + x) for x, y in e.gens)
        assert board.starts == [min((x for x in range(px + 1)
                                     if (x, y) in cells), default=px + 1)
                                for y in range(py + 1)]


def test_principal_part_limit_in_library():
    # (u+1)(v+1) shifts of X^u Y^v: refused before any of them is listed
    eng = monomial_engine()
    with pytest.raises(ValueError, match=str(10**14)):
        eng.is_atom(MonIdeal([(9999999, 9999999)]))
    with pytest.raises(ValueError):
        check_search_size(MonIdeal([(8192, 8191)]))
    at_limit = MonIdeal([(8191, 8191)])
    check_search_size(at_limit)
    assert not eng.is_atom(at_limit)


# -- budgets ------------------------------------------------------------------


def test_budget_nodes_exhaustion():
    eng = monomial_engine(Budget(max_nodes=3))
    with pytest.raises(SearchBudgetExceeded) as info:
        eng.is_atom(build_i_b(minimal_sequence(3)))
    assert info.value.nodes == 4
    assert info.value.elapsed >= 0.0

    eng = sumset_engine(Budget(max_nodes=10))
    with pytest.raises(SearchBudgetExceeded):
        eng.split(NatSet(range(21)))


def test_budget_seconds_exhaustion():
    # the clock is read at every node, so a spent time budget stops at node 1
    eng = monomial_engine(Budget(max_seconds=0.0))
    with pytest.raises(SearchBudgetExceeded) as info:
        eng.split(build_i_c(minimal_sequence(3)))
    assert info.value.nodes == 1


def test_budget_rejects_negative_limits():
    for limits in [(-1, None), (None, -0.5), (-5, 2.0), (None, float("nan"))]:
        with pytest.raises(ValueError, match="budget must be >= 0"):
            Budget(*limits)
    # zero is a real cap for a Budget: the first node stops it
    with pytest.raises(SearchBudgetExceeded) as info:
        Budget(max_nodes=0).tick()
    assert info.value.nodes == 1


def test_budget_seconds_bound_time():
    # the clock is read at every node, so the stop comes just past the limit
    eng = monomial_engine(Budget(max_seconds=0.5))
    with pytest.raises(SearchBudgetExceeded) as info:
        eng.lengths(build_a(1000))
    assert 0.5 < info.value.elapsed < 0.7


def test_make_budget_reads_zero_as_no_cap():
    for uncapped in (make_budget(), make_budget(0, 0),
                     make_budget(None, 0.0)):
        assert isinstance(uncapped, Budget)
        assert (uncapped.max_nodes, uncapped.max_seconds) == (None, None)
    capped = make_budget(5, 0)
    assert (capped.max_nodes, capped.max_seconds) == (5, None)
    timed = make_budget(0, 1.5)
    assert (timed.max_nodes, timed.max_seconds) == (None, 1.5)
    with pytest.raises(ValueError):
        make_budget(-1)
    with pytest.raises(ValueError):
        make_budget(None, -0.5)


def _zero_set(mask: int) -> NatSet:
    return NatSet([0] + [i + 1 for i in range(mask.bit_length())
                         if mask >> i & 1])


_budget_targets = st.one_of(
    st.sampled_from(oracle.box_ideals(4)).map(
        lambda e: (monomial_engine, e)),
    st.integers(1, (1 << 10) - 1).map(
        lambda m: (sumset_engine, _zero_set(m))),
    # wide boards: most of their frames fall outside the searched range
    st.integers(1, (1 << 14) - 1).map(
        lambda m: (monomial_engine, phi(_zero_set(m)))))


@given(_budget_targets, st.sampled_from(["is_atom", "split", "lengths"]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_node_budget_answers_or_stops_at_its_cap(target, query, data):
    # a capped search gives the uncapped answer when the cap covers its
    # nodes, and otherwise stops at exactly cap + 1 nodes
    make_engine, e = target
    counter = Budget()
    want = getattr(make_engine(counter), query)(e)
    n = data.draw(st.integers(0, counter.nodes + 1), label="max_nodes")
    budget = Budget(max_nodes=n)
    try:
        got = getattr(make_engine(budget), query)(e)
    except SearchBudgetExceeded as exc:
        assert n < counter.nodes
        assert exc.nodes == budget.nodes == n + 1
    else:
        assert n >= counter.nodes and got == want


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


def test_stretch_lengths_node_count_is_pinned():
    # listing every divisor of I_C(minimal n=3) takes more than 3*10^7
    # nodes; its small divisors, their atoms and the products of those take
    # a fixed count, far inside the stretch claim's default budget
    budget = Budget(max_nodes=1_000_000)
    e = build_i_c(minimal_sequence(3))
    assert monomial_engine(budget).lengths(e) == (2, 3, 4)
    assert budget.nodes == 3893
    eng = monomial_engine()
    for k in range(2, 15):
        assert eng.lengths(build_a(k)) == tuple(range(2, k + 1))


def test_split_sorted_and_memoized():
    # the search behind the splits of an element runs once per engine
    budget = Budget()
    eng = sumset_engine(budget)
    a = NatSet(range(7))
    first = eng.split(a)
    assert first == sorted(first, key=lambda p: (p[0].elements,
                                                 p[1].elements))
    assert all(p.elements <= q.elements for p, q in first)
    assert len(set(first)) == len(first)
    nodes = budget.nodes
    assert eng.split(a) == first and budget.nodes == nodes
    assert sumset_engine().split(a) == first


def test_lengths_match_divisor_box_oracle():
    # every divisor of e contains e and lies in e's generator box, so the
    # oracle over those ideals has all factorizations of e and its divisors
    eng = monomial_engine()
    cases = [(build_a(2), {2}), (build_a(4), {2, 3, 4}), (build_c(4), {1}),
             (product(build_b(2), build_c(5)), {2})]
    for e, want in cases:
        box = map(MonIdeal, oracle.box_antichains(e.max_x, e.max_y))
        pool = [a for a in box
                if not a.is_unit and all(p in a for p in e.gens)]
        split_map = oracle.naive_mon_split_map(pool)
        assert oracle.naive_lengths(e.gens, split_map, {}) == want
        assert {(a.gens, b.gens) for a, b in eng.split(e)} == \
            split_map.get(e.gens, set())
        assert set(eng.lengths(e)) == want


@given(small_ideals)
@settings(max_examples=60, deadline=None)
def test_one_in_lengths_iff_atom(e):
    eng = monomial_engine()
    if e.is_unit:
        return
    assert (1 in eng.lengths(e)) == eng.is_atom(e)


_sets_to_8 = st.sets(st.integers(1, 8)).map(lambda s: NatSet(s | {0}))
_box3 = st.sampled_from(oracle.box_ideals(3))
_length_pairs = st.one_of(
    st.tuples(st.just(SumsetMonoid()), _sets_to_8, _sets_to_8),
    st.tuples(st.just(MonomialMonoid()), _box3, _box3))


@given(_length_pairs)
@settings(max_examples=80, deadline=None)
def test_lengths_add_under_products(pair):
    # oracle-free: factorizations of a and b concatenate to ones of a * b,
    # and every atom has a grade of at least 1.  Sumsets reach [0,16], past
    # the exhaustive oracle pools, where long length sets are pruned most.
    m, a, b = pair
    eng = FactorEngine(m)
    ab = m.product(a, b)
    la, lb, lab = eng.lengths(a), eng.lengths(b), eng.lengths(ab)
    assert {x + y for x in la for y in lb} <= set(lab)
    for e, ls in ((a, la), (b, lb), (ab, lab)):
        assert max(ls) <= m.grade(e)


@pytest.mark.parametrize("monoid, e", [
    (MonomialMonoid, build_a(8)),
    (MonomialMonoid, build_i_c(minimal_sequence(3))),
    (SumsetMonoid, NatSet(range(13)))])
def test_lengths_read_the_clock_between_kernel_calls(monoid, e):
    # a time budget reads the clock at a node, so no loop of lengths may
    # run kernel calls without one: a node forms at most a product q, its
    # colon and the check that q times it is e
    runs = [0]

    class Counting(monoid):
        def product(self, a, b):
            runs[-1] += 1
            return super().product(a, b)

        def colon(self, whole, part):
            runs[-1] += 1
            return super().colon(whole, part)

    class Ticking(Budget):
        def tick(self):
            runs.append(0)
            super().tick()

    FactorEngine(Counting(), Ticking()).lengths(e)
    assert len(runs) > 1 and max(runs) <= 3


# -- agreement with the naive all-pairs oracle ----------------------------------


@pytest.fixture(scope="module")
def box6():
    pool = oracle.box_ideals(6)
    return pool, oracle.naive_mon_split_map(pool)


def _factors(pairs):
    return {f for pair in pairs for f in pair}


def test_streams_yield_each_divisor_once_with_grade(box6):
    # the engine pairs divisors by grade without deduplicating, so each
    # stream must list every divisor of at most half the grade exactly
    # once, with its true grade
    _pool, mon_map = box6
    ideals = oracle.box_ideals(4)
    ideals += [shifted(e, i, j) for e in ideals
               for i, j in ((1, 0), (0, 2), (2, 1))]
    m = MonomialMonoid()
    for e in ideals:
        got = list(m.candidate_divisors(e, Budget()))
        keys = [d.gens for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(mon_map.get(e.gens, ()))
                             if MonIdeal(d).mdeg <= e.mdeg // 2}
        assert all(g == d.mdeg for d, g in got)

    sum_map = oracle.naive_sumset_split_map(10)
    m = SumsetMonoid()
    for mask in range(1 << 10):
        a = NatSet([0] + [i + 1 for i in range(10) if mask >> i & 1])
        got = list(m.candidate_divisors(a, Budget()))
        keys = [d.elements for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(sum_map.get(a.elements, ()))
                             if d[-1] <= a.max // 2}
        assert all(g == d.max for d, g in got)


def test_cofactors_match_oracle(box6):
    # every cofactor of every divisor, each once, on both sides of half the
    # grade: split pairs small divisors with them, and lengths searches them
    # for atoms
    _pool, mon_map = box6
    ideals = oracle.box_ideals(4)
    ideals += [shifted(e, 1, 2) for e in ideals[::7]]
    m = MonomialMonoid()
    for e in ideals:
        pairs = mon_map.get(e.gens, ())
        for d in _factors(pairs):
            got = [r.gens for r in m.cofactors(e, MonIdeal(d), Budget())]
            assert len(got) == len(set(got))
            assert set(got) == {b if a == d else a for a, b in pairs
                                if d in (a, b)}

    sum_map = oracle.naive_sumset_split_map(10)
    m = SumsetMonoid()
    for mask in range(1 << 10):
        a = NatSet([0] + [i + 1 for i in range(10) if mask >> i & 1])
        pairs = sum_map.get(a.elements, ())
        for d in _factors(pairs):
            got = [r.elements for r in m.cofactors(a, NatSet(d), Budget())]
            assert len(got) == len(set(got))
            assert set(got) == {y if x == d else x for x, y in pairs
                                if d in (x, y)}


@pytest.fixture(scope="module")
def full9():
    # the factor pairs of every set in [0,9] but {0}, by raw enumeration:
    # sets listed by mask, so max never decreases, and every pair of them
    # whose sum stays in the box multiplied out, as the oracle does for
    # 0-sets
    sets = [(tuple(x for x in range(10) if mask >> x & 1), mask)
            for mask in range(2, 1 << 10)]
    out: dict = {}
    for i, (a, amask) in enumerate(sets):
        for b, _ in sets[i:]:
            if a[-1] + b[-1] > 9:
                break
            pbits = 0
            for x in b:
                pbits |= amask << x
            key = tuple(x for x in range(pbits.bit_length()) if pbits >> x & 1)
            out.setdefault(key, set()).add((a, b) if a <= b else (b, a))
    return [NatSet(elems) for elems, _ in sets], out


def test_full_monoid_streams_match_brute_force(full9):
    # a set {k} + A0 splits off k copies of the prime {1}: its divisors,
    # cofactors and splits are shifts of its 0-set's, and its small
    # divisors reach up to half its own max, past half that of A0
    sets, pairs_of = full9
    m = SumsetMonoid()
    for a in sets:
        pairs = pairs_of.get(a.elements, set())
        got = list(m.candidate_divisors(a, Budget()))
        keys = [d.elements for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(pairs) if d[-1] <= a.max // 2}
        assert all(1 <= g == d.max for d, g in got)
        if a.min > 3:
            continue
        for d in _factors(pairs):
            got = [r.elements for r in m.cofactors(a, NatSet(d), Budget())]
            assert len(got) == len(set(got))
            assert set(got) == {y if x == d else x for x, y in pairs
                                if d in (x, y)}
        split = [(p.elements, q.elements) for p, q in sumset_engine().split(a)]
        assert split == sorted(pairs)


def test_skipped_frames_and_groups_hold_no_divisor(box6, monkeypatch):
    # a frame or sumset group that the divisor streams enter but do not walk
    # was skipped by the product bound, and must hold no divisor at all
    _pool, mon_map = box6
    sum_map = oracle.naive_sumset_split_map(12)
    frames, roots = [], []
    frame_dfs, walk = engine._frame_dfs, engine._walk

    def record_frame(board, ax, ay, rows, tick):
        frames.append((ax, ay, board.stride))
        return frame_dfs(board, ax, ay, rows, tick)

    def record_walk(target, lows, root, children, tick):
        roots.append(root)
        return walk(target, lows, root, children, tick)

    monkeypatch.setattr(engine, "_frame_dfs", record_frame)
    monkeypatch.setattr(engine, "_walk", record_walk)

    def skipped_frames(e):
        # a frame's walk starts from the shifts of (0, ay) and (ax, 0)
        frames.clear()
        roots.clear()
        list(MonomialMonoid().candidate_divisors(e, Budget()))
        walked = {root[2] for root in roots}
        return {(ax, ay) for ax, ay, w in frames
                if (ay * w, ax) not in walked}

    def frame_of(gens):
        d = MonIdeal(gens)
        return d.max_x, d.max_y

    skipped_box = skipped_phi = skipped_groups = 0
    for e in oracle.box_ideals(5):
        u, v = generator_gcd(e)
        core = shifted(e, -u, -v)
        got = skipped_frames(e)
        assert not got & {frame_of(d)
                          for d in _factors(mon_map.get(core.gens, ()))}
        skipped_box += len(got)
    for mask in range(1 << 12):
        a = NatSet([0] + [i + 1 for i in range(12) if mask >> i & 1])
        pairs = sum_map.get(a.elements, ())
        got = skipped_frames(phi(a))
        assert not got & {(d[-1], d[-1]) for d in _factors(pairs)}
        if a.max <= 6:
            assert not got & {frame_of(d) for d in
                              _factors(mon_map.get(phi(a).gens, ()))}
        skipped_phi += len(got)
        # a group's walk starts from B = {0, mb}, held as a mask
        roots.clear()
        list(SumsetMonoid().candidate_divisors(a, Budget()))
        groups = {mb for mb in a.elements[1:]
                  if 2 * mb <= a.max and a.max - mb in a.elements}
        got = groups - {root[4].bit_length() - 1 for root in roots}
        assert not got & {d[-1] for d in _factors(pairs)}
        skipped_groups += len(got)
    assert skipped_box and skipped_phi and skipped_groups


def test_sumset_engine_matches_oracle_exhaustively():
    split_map = oracle.naive_sumset_split_map(12)
    eng = sumset_engine()
    cache: dict = {}
    for mask in range(1, 1 << 12):
        a = NatSet([0] + [i + 1 for i in range(12) if mask >> i & 1])
        want_pairs = split_map.get(a.elements, set())
        got = {(p.elements, q.elements) for p, q in eng.split(a)}
        assert got == want_pairs
        assert eng.is_atom(a) == (not want_pairs)
        pair = eng.find_split(a)
        assert (pair is None) == (not want_pairs)
        if pair is not None:
            assert tuple(sorted(s.elements for s in pair)) in want_pairs
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


def test_monomial_engine_matches_oracle_exhaustively(box6):
    pool, split_map = box6
    eng = monomial_engine()
    cache: dict = {}
    for e in pool:
        want_pairs = split_map.get(e.gens, set())
        pairs = [(a.gens, b.gens) for a, b in eng.split(e)]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == want_pairs
        assert eng.is_atom(e) == (not want_pairs)
        pair = eng.find_split(e)
        assert (pair is None) == (not want_pairs)
        if pair is not None:
            assert tuple(sorted(d.gens for d in pair)) in want_pairs
        want = tuple(sorted(oracle.naive_lengths(e.gens, split_map, cache)))
        assert eng.lengths(e) == want
