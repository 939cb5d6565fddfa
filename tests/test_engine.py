"""Factor search engine: budgets, determinism, and oracle agreement."""

import functools
import inspect
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from atomlab import engine, natset, oracle
from atomlab.engine import (MAX_BOARD_CELLS, Budget, FactorEngine,
                            GradedMonoid, MonomialMonoid, SearchBudgetExceeded,
                            SumsetMonoid, make_budget, monomial_engine,
                            sumset_engine)
from atomlab.families import build_C, minimal_sequence
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
                             "candidate_divisors", "prime_split", "shifted",
                             "context"}
    assert methods(SumsetMonoid) == protocol
    assert methods(MonomialMonoid) == protocol
    # one prime-part stream, bound in each class body, so that each adapter
    # keeps a candidate_divisors of its own
    assert vars(SumsetMonoid)["candidate_divisors"] \
        is vars(MonomialMonoid)["candidate_divisors"]


def test_views_hold_the_core_view_protocol():
    # both core views define every method of _CoreView with its parameter
    # names, the grade of their target, and the masks whole and unit
    def params(fn):
        return [p.name for p in inspect.signature(fn).parameters.values()]

    protocol = {name: params(fn) for name, fn in vars(engine._CoreView).items()
                if callable(fn) and not name.startswith("_")}
    assert set(protocol) == {"divisors", "product", "colon", "divides",
                             "element", "cofactors"}
    assert set(engine._CoreView.__annotations__) == {"grade", "whole", "unit"}
    for view in (engine._SetMask(NatSet([0, 1, 3])),
                 engine._Board(build_a(2))):
        for name, want in protocol.items():
            assert params(getattr(type(view), name)) == want, (view, name)
        assert all(isinstance(getattr(view, name), int)
                   for name in ("grade", "whole", "unit"))


def _stream(monoid, e, budget):
    # the divisor stream of e, each divisor formed into its element as split
    # and find_split form it, with its grade
    eng = FactorEngine(monoid, budget)
    for divisor in monoid.candidate_divisors(e, budget):
        yield eng._element(divisor), divisor[1]


def _record(view, c):
    # the record that a view's divisor search yields for a divisor c of its
    # target: a set's elements, or an ideal's generator shifts, the pure
    # powers first and then the points by increasing y
    if isinstance(view, engine._SetMask):
        return c.elements
    w = view.stride
    return (c.max_y * w, c.max_x) + tuple(y * w + x for x, y in c.gens[1:-1])


def _cofactors(monoid, whole, part, budget=None):
    # the engine's cofactor rule for one part, lazily: each r with
    # part * r = whole.  part goes in as whole's divisor stream gives it: a
    # head (the identity or the core, shifted) as itself, and otherwise the
    # record of its core on the view of whole's core
    _u, _v, core = monoid.prime_split(whole)
    i, j, c = monoid.prime_split(part)
    if monoid.grade(c) and c != core:
        view = monoid.context(core)
        divisor = _record(view, c), monoid.grade(part), view, i, j
    else:
        divisor = c, monoid.grade(part), None, i, j
    for _a, r in FactorEngine(monoid, budget)._cofactors(whole, [divisor]):
        yield r


@given(small_ideals)
@settings(max_examples=80)
def test_monomial_stream_yields_only_divisors(e):
    m = MonomialMonoid()
    for cand, grade in _stream(m, e, Budget()):
        cof = colon(e, cand)
        assert product(cand, cof) == e
        assert 1 <= cand.mdeg == grade <= e.mdeg // 2


@given(zero_sets)
@settings(max_examples=80)
def test_sumset_stream_yields_only_divisors(a):
    m = SumsetMonoid()
    for cand, grade in _stream(m, a, Budget()):
        assert 1 <= grade == cand.max <= a.max // 2
        cof = natset.set_colon(a, cand)
        assert cof is not None and natset.sumset(cand, cof) == a


@given(wide_zero_sets)
@settings(max_examples=60, deadline=None)
def test_monomial_stream_on_phi_matches_sumset(a):
    # phi(A) has exponents up to 14: multi-point frames and wide boards
    e = phi(a)
    divisors = [d for d, _g in _stream(MonomialMonoid(), e, Budget())]
    for d in divisors:
        assert product(d, colon(e, d)) == e
    found = set(divisors)
    for b, _g in _stream(SumsetMonoid(), a, Budget()):
        assert phi(b) in found
    assert monomial_engine().is_atom(e) == sumset_engine().is_atom(a)


def test_monomial_stream_is_pinned():
    # exact counts pin the order of the stream and of its ticks
    e = build_i_c(minimal_sequence(3))
    budget = Budget()
    got = list(_stream(MonomialMonoid(), e, budget))
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
        for pair in _stream(MonomialMonoid(), e, budget):
            capped.append(pair)
    assert capped == got and budget.nodes == 701


def test_sumset_stream_is_pinned():
    # exact counts pin the order of the stream and of its ticks, nodes that
    # the lows test drops included
    a = NatSet([0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15])
    budget = Budget()
    got = list(_stream(SumsetMonoid(), a, budget))
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
        for pair in _stream(SumsetMonoid(), a, budget):
            capped.append(pair)
    assert capped == got[:-1] and budget.nodes == 33


def test_shifted_streams_are_pinned():
    # the prime part shifts {0} (the unit), the core and the core divisors
    # in that order, each shift by j copies of {1} or by X^i Y^j right
    # after its unshifted divisor; CLI witnesses depend on this order
    a = NatSet([2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17])
    budget = Budget()
    got = list(_stream(SumsetMonoid(), a, budget))
    assert [(d.elements, g) for d, g in got[:10]] == [
        ((1,), 1), ((2,), 2), ((0, 2), 2), ((1, 3), 3), ((2, 4), 4),
        ((0, 1, 3), 3), ((1, 2, 4), 4), ((2, 3, 5), 5), ((0, 1, 5), 5),
        ((1, 2, 6), 6)]
    assert (len(got), budget.nodes) == (54, 89)
    e = shifted(build_a(3), 1, 2)
    budget = Budget()
    got = list(_stream(MonomialMonoid(), e, budget))
    assert [(d.gens, g) for d, g in got[:12]] == [
        (((0, 1),), 1), (((0, 2),), 2), (((1, 0),), 1), (((1, 1),), 2),
        (((1, 2),), 3), (((3, 0), (2, 1), (1, 2), (0, 3)), 3),
        (((1, 0), (0, 1)), 1), (((1, 1), (0, 2)), 2), (((1, 2), (0, 3)), 3),
        (((2, 0), (1, 1)), 2), (((2, 1), (1, 2)), 3), (((2, 0), (0, 2)), 2)]
    assert (len(got), budget.nodes) == (17, 18)


def test_prime_part_cofactors_are_the_shifted_core():
    # a part whose core is the identity cancels: its one cofactor is the
    # core shifted by what is left of the prime part, found with no search
    a = NatSet([0, 1, 3, 4, 9])
    e = shifted(build_c(4), 2, 1)
    for monoid, whole, parts, want in [
            (SumsetMonoid(), a.shifted(3), [NatSet([i]) for i in (1, 2, 3)],
             [a.shifted(2), a.shifted(1), a]),
            (MonomialMonoid(), e, [MonIdeal([s]) for s in
                                   ((1, 0), (0, 1), (2, 1))],
             [shifted(build_c(4), 1, 1), shifted(build_c(4), 2, 0),
              build_c(4)])]:
        for part, core in zip(parts, want):
            budget = Budget()
            assert list(_cofactors(monoid, whole, part, budget)) == [core]
            assert budget.nodes == 0


def test_split_builds_one_view_for_its_cofactors(monkeypatch):
    # split and lengths each build one view of their target's core, in the
    # divisor stream, and its cofactor rule and lengths pass work on the
    # view the records come with; an identity core has no proper divisor
    # and gets none.  Views that the large phase of lengths builds for
    # other elements are not counted
    built = []

    def counted(init):
        def run(self, e):
            built.append(e)
            init(self, e)
        return run

    for cls in (engine._Board, engine._SetMask):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    targets = [(monomial_engine, e) for e in oracle.box_ideals(4)]
    targets += [(sumset_engine, NatSet([0] + [i + 1 for i in range(10)
                                               if mask >> i & 1]))
                for mask in range(1, 1 << 10)]
    identity_cores = 0
    for make, e in targets:
        m = make().monoid
        core = m.prime_split(e)[2]
        want = 1 if m.grade(core) else 0
        identity_cores += not want
        for query in ("split", "lengths"):
            built.clear()
            getattr(make(), query)(e)
            assert sum(view == core for view in built) == want, (query, e)
    assert identity_cores == 24


def test_split_of_a_shifted_atom_searches_no_cofactor():
    # {1} + A for an atom A of 600 elements splits only as A and {1}; the
    # cofactor of {1} is A itself, where a search of A by {0} walked about
    # |A|**2 / 2 nodes
    rng = random.Random(0)
    a = NatSet([0, 1199] + rng.sample(range(1, 1199), 598))
    budget = Budget()
    assert sumset_engine(budget).split(a.shifted(1)) == [(a, NatSet([1]))]
    assert budget.nodes < 3000


def test_cofactor_search_holds_one_frame_per_level():
    # the first cofactor of [0,1000] by {0,1} lies 998 levels deep; a stack
    # of every pushed sibling traced about 200 MB for it
    whole, part = NatSet(range(1001)), NatSet([0, 1])
    tracemalloc.start()
    try:
        r = next(_cofactors(SumsetMonoid(), whole, part))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert natset.sumset(part, r) == whole
    assert peak < 8 * 2**20


def _reference_frames(e, cap, tick):
    """Each frame (ax, ay) of a gcd-free e that a divisor search capped at
    cap enters and that passes the corner test, with its rows (g, c0), from
    a loop that tests every frame.

    A frame that passes the grade test and whose divisors do not all exceed
    the cap is ticked, and each of its points is tested cell by cell with
    `in`.
    """
    px, py = e.max_x, e.max_y
    total = e.mdeg

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
            yield ax, ay, rows


def _reference_frame_stream(e, tick, cap=None):
    """Divisors of a gcd-free e of grade at most cap (by default half its
    grade), with grades, from the frames of _reference_frames.

    A frame passes the product bound when e lies in U * cof, U the ideal of
    the frame and its points and cof = (e : X^ax) & (e : Y^ay), tested
    generator by generator; the walk of a frame that passes is the
    engine's own, built for every such frame, one without point rows
    included, and each of its records is formed into an ideal from its
    shifts (_ideal).  Divisors above the cap are dropped.
    """
    board = engine._Board(e)
    cap = e.mdeg // 2 if cap is None else cap
    colon = board.colon_mask
    for ax, ay, rows in _reference_frames(e, cap, tick):
        cof = colon(ax, 0) & colon(0, ay)
        # each generator of e is a generator of U times a cell of cof
        u_gens = [(ax, 0), (0, ay)] + [(c0, g) for g, c0 in rows]
        if not all(any(x >= c and y >= g
                       and cof >> (y - g) * board.stride + x - c & 1
                       for c, g in u_gens)
                   for x, y in e.gens):
            continue
        for d, g in engine._frame_dfs(board, ax, ay, rows, cof, board.holes,
                                      tick):
            if g <= cap:
                yield _ideal(board, d), g


def _reference_group_stream(a, tick, cap):
    """Divisors B of a 0-set a with max(B) <= cap, as element tuples with
    their max, from a loop that walks every group mb that passes the sum
    test, one without free elements included.

    The group of mb holds the sets {0, mb} + S, S among the free x in
    (0, mb) with x + max(a) - mb in a, whose colon lies in that of
    {0, mb}.  A group whose sum ({0, mb} + free) + colon misses an element
    of a is ticked and skipped; the others are walked by the engine's
    _walk, each node's reach B + colon formed as the OR of the colon
    shifted by each element of B.
    """
    def reach(b, col):
        out = 0
        for x in b:
            out |= col << x
        return out

    elems, top = a.elements, a.max
    whole = sum(1 << x for x in elems)
    for mb in elems[1:]:
        if mb > min(cap, top - 1):
            break
        mc = top - mb
        if mc not in elems:
            continue
        col = sum(1 << c for c in range(mc + 1)
                  if c in elems and c + mb in elems)
        free = [x for x in range(1, mb) if x in elems and x + mc in elems]
        if whole & ~reach([0, mb] + free, col):
            tick()
            continue

        def children(node, free=free, mb=mb):
            _reach, idx, b, col, _mask = node
            for i in range(idx, len(free)):
                x = free[i]
                col2 = col & whole >> x
                b2 = b + (x,)
                yield reach(b2 + (mb,), col2), i + 1, b2, col2, 0

        lows = [1 << x for x in free] + [2 << top]
        for node in engine._walk(whole, lows,
                                 (reach([0, mb], col), 0, (0,), col, 0),
                                 children, tick):
            yield node[2] + (mb,), mb


def _ideal(board, shifts):
    # the ideal of generators y*stride + x on a board
    w = board.stride
    return MonIdeal([(s % w, s // w) for s in shifts])


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
    got, nodes = _run_stream(_stream(MonomialMonoid(), e, budget), budget)
    assert (got, nodes) == (want, full.nodes)
    for n in sorted({1, 2, 5, 13, 50, 200, 1000, full.nodes - 1, full.nodes}):
        ref = Budget(max_nodes=n)
        ref_got, ref_nodes = _run_stream(
            _reference_frame_stream(e, ref.tick), ref)
        budget = Budget(max_nodes=n)
        got, nodes = _run_stream(_stream(MonomialMonoid(), e, budget),
                                 budget)
        assert (got, nodes) == (ref_got, ref_nodes)
        assert nodes == min(n + 1, full.nodes)


gcd_free_ideals = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
    max_size=6).map(MonIdeal).map(
        lambda e: shifted(e, *(-k for k in generator_gcd(e)))).filter(
            lambda e: not e.is_unit)


@given(gcd_free_ideals, st.data())
@settings(max_examples=200)
def test_frame_loop_matches_reference_on_random_ideals(e, data):
    # the stream's frames, rows, product bound and node count match a loop
    # that tests every frame, and so does the board search at any cap below
    # the grade, which a prime part raises past half the core's grade
    full = Budget()
    want = list(_reference_frame_stream(e, full.tick))
    budget = Budget()
    got = list(_stream(MonomialMonoid(), e, budget))
    assert (got, budget.nodes) == (want, full.nodes)
    cap = data.draw(st.integers(0, e.mdeg - 1))
    full = Budget()
    want = list(_reference_frame_stream(e, full.tick, cap))
    budget = Budget()
    board = engine._Board(e)
    got = [(_ideal(board, r), g) for r, g in board.divisors(cap, budget.tick)]
    assert (got, budget.nodes) == (want, full.nodes)


def test_group_loop_matches_reference_on_every_small_set():
    # the sumset stream, its node count and the point where a budget stops
    # it match a loop that walks every group, at half of max(a), at the
    # largest cap and at one more cap below max(a), which varies with a
    for mask in range(1, 1 << 12):
        a = _zero_set(mask)
        view = engine._SetMask(a)
        for cap in sorted({a.max // 2, mask % a.max, a.max - 1}):
            full = Budget()
            want = list(_reference_group_stream(a, full.tick, cap))
            budget = Budget()
            got = list(view.divisors(cap, budget.tick))
            assert (got, budget.nodes) == (want, full.nodes)
        n = full.nodes // 2
        ref = Budget(max_nodes=n)
        want = _run_stream(_reference_group_stream(a, ref.tick, cap), ref)
        budget = Budget(max_nodes=n)
        assert _run_stream(view.divisors(cap, budget.tick), budget) == want


def test_atom_transport_counts_are_pinned():
    # the atom-transport batch on [0,12]: one engine per monoid asks is_atom
    # of every 0-set A and of phi(A); by the bottom-piece lemma both sides
    # find the same atoms
    sums, mons = Budget(), Budget()
    sum_eng, mon_eng = sumset_engine(sums), monomial_engine(mons)
    set_atoms = ideal_atoms = 0
    for mask in range(1 << 12):
        a = _zero_set(mask)
        set_atoms += sum_eng.is_atom(a)
        ideal_atoms += mon_eng.is_atom(phi(a))
    assert (set_atoms, ideal_atoms) == (2751, 2751)
    assert (sums.nodes, mons.nodes) == (5364, 21277)


def test_phi_atom_node_count_is_pinned():
    # every 0-containing A in [0,10]: one node per frame searched and per
    # DFS node
    budget = Budget()
    eng = monomial_engine(budget)
    atoms = sum(eng.is_atom(phi(NatSet([0] + [i + 1 for i in range(10)
                                              if mask >> i & 1])))
                for mask in range(1 << 10))
    assert (atoms, budget.nodes) == (645, 4143)


def test_rejected_frames_build_no_walk(monkeypatch):
    # the product bound rejects a frame before its walk is built, and a
    # frame without point rows is its own walk, whose root is yielded with
    # no walk built: every frame walk that is entered has point rows and
    # starts a walk from its root
    entries, walks, roots = [0], [0], [0]
    frame_dfs, walk = engine._frame_dfs, engine._walk
    divisors = engine._Board.divisors

    def count_frame(board, ax, ay, rows, *args):
        entries[0] += 1
        assert rows
        return frame_dfs(board, ax, ay, rows, *args)

    def count_walk(*args):
        walks[0] += 1
        return walk(*args)

    def count_roots(self, cap, tick):
        # a frame's root record, the shifts of (0, ay) and (ax, 0), that
        # comes with no walk built since the stream's last record
        seen = walks[0]
        for d, g in divisors(self, cap, tick):
            if len(d) == 2 and walks[0] == seen:
                roots[0] += 1
            seen = walks[0]
            yield d, g

    monkeypatch.setattr(engine, "_frame_dfs", count_frame)
    monkeypatch.setattr(engine, "_walk", count_walk)
    monkeypatch.setattr(engine._Board, "divisors", count_roots)
    eng = monomial_engine()
    for mask in range(1 << 10):
        eng.is_atom(phi(NatSet([0] + [i + 1 for i in range(10)
                                      if mask >> i & 1])))
    assert entries == walks
    assert (entries[0], roots[0]) == (118, 288)


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


def test_tall_board_search_stays_within_memory():
    # each colon mask of this 16.0M-cell board takes about 2 MB, so a search
    # that kept the colons of the frames it passed would hold hundreds of
    # them within 300 nodes
    e = MonIdeal([(400, 0), (1, 200), (0, 20000)])
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            monomial_engine(Budget(max_nodes=300)).find_split(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("view, bound, query, nodes, cofactor_nodes", [
    pytest.param(engine._Board, 4, "split", 1322, 221, id="4-split-1322-221"),
    pytest.param(engine._Board, 5, "split", 8479, 2060,
                 id="5-split-8479-2060"),
    # the id keeps the pool total of the per-length layers, so that the
    # re-pin does not rename the case
    pytest.param(engine._Board, 5, "lengths", 2091, 245,
                 id="5-lengths-1933-245"),
    # the nonunit 0-sets of [0, bound] on the set view
    pytest.param(engine._SetMask, 10, "split", 7674, 5864,
                 id="set-10-split-7674-5864"),
    pytest.param(engine._SetMask, 12, "split", 42602, 33466,
                 id="set-12-split-42602-33466"),
    pytest.param(engine._SetMask, 12, "lengths", 18869, 1460,
                 id="set-12-lengths-18869-1460")])
def test_board_cofactor_search_nodes_are_pinned(monkeypatch, view, bound,
                                                query, nodes, cofactor_nodes):
    # one engine per pool; the ticks made inside the view's cofactor
    # searches are counted apart, so a search that gives the same answers
    # but walks more shows here
    cofactors, counted = view.cofactors, [0]

    def counting(self, p, c, grade, tick):
        def counted_tick():
            counted[0] += 1
            tick()
        return cofactors(self, p, c, grade, counted_tick)

    monkeypatch.setattr(view, "cofactors", counting)
    budget = Budget()
    if view is engine._Board:
        eng, pool = monomial_engine(budget), oracle.box_ideals(bound)
    else:
        eng = sumset_engine(budget)
        pool = [NatSet([0] + [i + 1 for i in range(bound) if mask >> i & 1])
                for mask in range(1, 1 << bound)]
    for e in pool:
        getattr(eng, query)(e)
    assert (budget.nodes, counted[0]) == (nodes, cofactor_nodes)


def test_board_limit():
    huge = MonIdeal([(99999999999, 0), (0, 99999999999)])
    with pytest.raises(ValueError, match=str(MAX_BOARD_CELLS)):
        next(MonomialMonoid().candidate_divisors(huge, Budget()))
    # only the gcd-free core is searched, so a monomial factor is free
    assert monomial_engine().lengths(
        shifted(build_a(1), 10**10, 10**10)) == (2 * 10**10 + 1,)


def test_board_refused_where_built():
    # 11,565 rows of 5,803 bits: one row past the limit.  The divisor
    # stream builds the board of every query, and refuses it before any
    # mask is built.
    e = MonIdeal([(2901, 0), (0, 11564)])
    assert 11565 * 5803 > MAX_BOARD_CELLS >= 11564 * 5803
    for search in (lambda: next(MonomialMonoid().candidate_divisors(
                       e, Budget())),
                   lambda: monomial_engine().split(e),
                   lambda: monomial_engine().lengths(e)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_BOARD_CELLS)):
                search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_board_refusal_boundary(monkeypatch):
    # the rule counts (py+1)(2px+1) cells, not the padded rows: a core of
    # exactly the limit is built, and one column or one row more is refused
    limit = 7 * 25
    monkeypatch.setattr(engine, "MAX_BOARD_CELLS", limit)
    board = engine._Board(MonIdeal([(12, 0), (5, 3), (0, 6)]))
    assert (board.py + 1) * board.stride > limit
    for e, cells in [(MonIdeal([(13, 0), (5, 3), (0, 6)]), 7 * 27),
                     (MonIdeal([(12, 0), (5, 3), (0, 7)]), 8 * 25)]:
        with pytest.raises(ValueError) as info:
            engine._Board(e)
        assert str(info.value) == (
            f"factor search supports ideals whose gcd-free core needs at "
            f"most {limit} board cells, got {cells}")


def test_board_region_matches_membership():
    # runs of several rows, empty rows below the lowest generator, and
    # one-column boards (px = 0)
    wide = [build_a(40), phi(NatSet([0, 7, 30, 61])), build_i_c(
        minimal_sequence(3)), MonIdeal([(60, 0), (5, 2), (0, 9)]),
        MonIdeal([(30, 4), (2, 11)]), MonIdeal([(9, 3), (4, 8), (0, 20)]),
        MonIdeal([(0, 7)]), MonIdeal([(6, 5)]),
        MonIdeal([(13, 0), (12, 6), (1, 7), (0, 17)])]
    for e in oracle.box_ideals(4) + wide:
        board = engine._Board(e)
        px, py, w = board.px, board.py, board.stride
        # rows are whole bytes, with room for a shift by px
        assert w % 8 == 0 and w >= 2 * px + 1
        cells = {(x, y) for y in range(py + 1) for x in range(px + 1)
                 if (x, y) in e}
        assert board.rows == sum(1 << y * w for y in range(py + 1))
        assert board.unit == sum(1 << (y * w + x) for y in range(py + 1)
                                 for x in range(px + 1))
        assert board.whole == sum(1 << (y * w + x) for x, y in cells)
        assert board.gens == sum(1 << (y * w + x) for x, y in e.gens)
        assert board.starts == [min((x for x in range(px + 1)
                                     if (x, y) in cells), default=px + 1)
                                for y in range(py + 1)]


def test_near_limit_board_matches_membership():
    # 11,901 rows of 5,601 bits, 66.7M cells: each mask is read once as
    # bytes, and random cells are checked against the generators
    e = MonIdeal([(2800, 0), (1400, 5000), (0, 11900)])
    board = engine._Board(e)
    px, py, w = board.px, board.py, board.stride
    assert (py + 1) * w <= MAX_BOARD_CELLS
    size = ((py + 1) * w + 7) // 8
    region, rows, content = (m.to_bytes(size, "little") for m in (
        board.whole, board.rows, board.unit))

    def bit(data, k):
        return data[k >> 3] >> (k & 7) & 1

    rng = random.Random(15)
    cells = [(rng.randrange(w), rng.randrange(py + 1)) for _ in range(3000)]
    cells += [(x, y) for x, _ in e.gens for y in range(py + 1)
              if y % 997 == 0] + [(x - 1, y) for x, y in e.gens if x]
    for x, y in cells:
        k = y * w + x
        assert bit(region, k) == (x <= px and (x, y) in e)
        assert bit(content, k) == (x <= px)
        assert bit(rows, k) == (x == 0)
    assert board.gens == sum(1 << (y * w + x) for x, y in e.gens)
    assert board.starts == [2800] * 5000 + [1400] * 6900 + [0]


def test_principal_part_is_only_shifted():
    # X^9999999 Y^9999999 has a one-cell core and 10**14 monomial
    # divisors; each shift costs a node, so only the budget bounds them
    e = MonIdeal([(9999999, 9999999)])
    eng = monomial_engine()
    assert not eng.is_atom(e)
    assert product(*eng.find_split(e)) == e
    assert eng.lengths(e) == (19999998,)
    with pytest.raises(SearchBudgetExceeded) as info:
        monomial_engine(Budget(max_nodes=10)).split(e)
    assert info.value.nodes == 11


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


def test_shift_loops_tick():
    # the shifts of {0} and of the unit ideal are found without a search,
    # and each costs a node
    cases = [(sumset_engine, NatSet([100000])),
             (monomial_engine, MonIdeal([(300, 300)]))]
    for make, e in cases:
        with pytest.raises(SearchBudgetExceeded) as info:
            make(Budget(max_nodes=10)).split(e)
        assert info.value.nodes == 11
    # cores too small to search: every node is a shifted divisor
    for monoid, e, shifts in [
            (SumsetMonoid(), NatSet([9]), 4),
            (SumsetMonoid(), NatSet([4, 6]), 4),  # and {0, 2} unshifted
            (MonomialMonoid(), MonIdeal([(4, 5)]), 2 + 3 + 4 + 5)]:
        budget = Budget()
        got = list(monoid.candidate_divisors(e, budget))
        assert budget.nodes == shifts
        assert len(got) == shifts + (e == NatSet([4, 6]))


def test_is_atom_retains_nothing():
    # no query repeats, so a memo of atom answers would only grow
    sets = [NatSet([0] + [i + 1 for i in range(11) if mask >> i & 1])
            for mask in range(1, 1 << 11)]
    for eng, targets in [(sumset_engine(), sets),
                         (monomial_engine(), [phi(a) for a in sets])]:
        assert sum(map(eng.is_atom, targets[:2000])) > 0
        assert not any(v for k, v in vars(eng).items() if k.endswith("memo"))
    # lengths keeps its lengths and its small divisors, but no atom tests:
    # its products sieve the small divisors
    eng = sumset_engine()
    eng.lengths(NatSet(range(6)))
    assert {k for k, v in vars(eng).items() if k.endswith("memo") and v} \
        == {"_small_memo", "_length_memo"}


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
    # is_atom tells the identity apart by its key, in both monoids
    seng = sumset_engine()
    assert seng.is_atom(NatSet([0])) is False
    with pytest.raises(ValueError):
        seng.find_split(NatSet([0]))
    with pytest.raises(ValueError):
        seng.split(NatSet([0]))


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
    assert budget.nodes == 3617


# (make, target, lengths, nodes, the nodes of the per-length layers): each
# case keeps the id it had when it pinned the layers' count, so that a
# re-pin does not rename it
_LADDER = [
    *((monomial_engine, build_a(k), tuple(range(2, k + 1)), n, old)
      for k, n, old in [
          (2, 4, 4), (3, 9, 9), (4, 18, 20), (5, 23, 26), (6, 36, 43),
          (7, 58, 69), (8, 92, 130), (9, 152, 198), (10, 309, 442),
          (11, 425, 586), (12, 1056, 1622), (13, 1341, 1995),
          (14, 3726, 5739)]),
    (monomial_engine, build_i_c(minimal_sequence(2)), (2, 3), 40, 43),
    (sumset_engine, NatSet(range(25)), tuple(range(2, 25)), 73206, 92757),
    (monomial_engine, MonIdeal([(9999999, 9999999)]), (19999998,), 0, 0)]


@pytest.mark.parametrize("make, e, want, nodes", [
    pytest.param(make, e, want, nodes,
                 id=f"{make.__name__}-e{i}-want{i}-{old}")
    for i, (make, e, want, nodes, old) in enumerate(_LADDER)])
def test_lengths_ladder_is_pinned(make, e, want, nodes):
    # the pass forms the same products in the same order, whatever they
    # are made of, so lengths and node counts are fixed (the stretch
    # target is pinned above)
    budget = Budget(max_nodes=1_000_000)
    assert make(budget).lengths(e) == want
    assert budget.nodes == nodes


def test_lengths_runs_no_atom_search_of_a_small_divisor(monkeypatch):
    # the products of the pass sieve the small divisors, so a fresh engine
    # builds only the view of the divisor stream, which the pass runs on;
    # an is_atom search of each small divisor built 2,057 views for a_16
    # and 4,097 for {0,...,24}
    views = [0]

    def counted(init):
        def run(self, e):
            views[0] += 1
            init(self, e)
        return run

    for cls in (engine._Board, engine._SetMask):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    for make, e, top in [(monomial_engine, build_a(16), 16),
                         (sumset_engine, NatSet(range(25)), 24)]:
        views[0] = 0
        assert make().lengths(e) == tuple(range(2, top + 1))
        assert views[0] == 1


def test_lengths_across_phi():
    # the bottom-piece lemma: a factorization of phi(A) into nonunits has
    # bottom pieces phi(B_j) with A = B_1 + ... + B_k, and phi carries
    # atoms to atoms, so L(A) lies in L(phi(A)) with the same maximum.
    # Boards up to 12 x 12; 23 of these sets have a strict inclusion
    seng, meng = sumset_engine(), monomial_engine()
    strict = 0
    for mask in range(1, 1 << 12):
        a = NatSet([0] + [i + 1 for i in range(12) if mask >> i & 1])
        got, img = seng.lengths(a), meng.lengths(phi(a))
        assert set(got) <= set(img) and got[-1] == img[-1]
        strict += got != img
    assert strict == 23


def test_lengths_peak_memory_is_bounded():
    # the pass keeps a mask per product on a_14's board; the MonIdeal
    # products that masks replaced traced a peak of 1,116,756 bytes
    eng = monomial_engine()
    tracemalloc.start()
    try:
        eng.lengths(build_a(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_116_756


def test_split_sorted_and_memoized():
    # sorted, each pair oriented and kept once, the same on every engine
    eng = sumset_engine()
    a = NatSet(range(7))
    first = eng.split(a)
    assert first == sorted(first, key=lambda p: (p[0].elements,
                                                 p[1].elements))
    assert all(p.elements <= q.elements for p, q in first)
    assert len(set(first)) == len(first)
    assert eng.split(a) == first
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
    # colon and the check that q divides e, all on the target's view
    runs = [0]

    def counted(fn):
        def call(*args):
            runs[-1] += 1
            return fn(*args)
        return call

    class Counting(monoid):
        def context(self, e):
            ctx = super().context(e)
            for name in ("product", "colon", "divides"):
                setattr(ctx, name, counted(getattr(ctx, name)))
            return ctx

    class Ticking(Budget):
        def tick(self):
            runs.append(0)
            super().tick()

    FactorEngine(Counting(), Ticking()).lengths(e)
    assert len(runs) > 1 and sum(runs) > 0 and max(runs) <= 3


# -- agreement with the naive all-pairs oracle ----------------------------------


@pytest.fixture(scope="module")
def box6():
    pool = oracle.box_ideals(6)
    return pool, oracle.naive_mon_split_map(pool)


def _factors(pairs):
    return {f for pair in pairs for f in pair}


def _check_records(m, e, got):
    # each record of the stream of e is the one _record gives for the core
    # of its divisor, on the view of e's core
    for (d, _g), (r, _g2, view, _i, _j) in zip(
            got, m.candidate_divisors(e, Budget()), strict=True):
        if view is not None:
            assert r == _record(view, m.prime_split(d)[2])


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
        got = list(_stream(m, e, Budget()))
        keys = [d.gens for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(mon_map.get(e.gens, ()))
                             if MonIdeal(d).mdeg <= e.mdeg // 2}
        assert all(g == d.mdeg for d, g in got)
        _check_records(m, e, got)

    sum_map = oracle.naive_sumset_split_map(10)
    m = SumsetMonoid()
    for mask in range(1 << 10):
        a = NatSet([0] + [i + 1 for i in range(10) if mask >> i & 1])
        got = list(_stream(m, a, Budget()))
        keys = [d.elements for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(sum_map.get(a.elements, ()))
                             if d[-1] <= a.max // 2}
        assert all(g == d.max for d, g in got)
        _check_records(m, a, got)


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
            got = [r.gens for r in _cofactors(m, e, MonIdeal(d))]
            assert len(got) == len(set(got))
            assert set(got) == {b if a == d else a for a, b in pairs
                                if d in (a, b)}

    sum_map = oracle.naive_sumset_split_map(10)
    m = SumsetMonoid()
    for mask in range(1 << 10):
        a = NatSet([0] + [i + 1 for i in range(10) if mask >> i & 1])
        pairs = sum_map.get(a.elements, ())
        for d in _factors(pairs):
            got = [r.elements for r in _cofactors(m, a, NatSet(d))]
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
        got = list(_stream(m, a, Budget()))
        keys = [d.elements for d, _g in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == {d for d in _factors(pairs) if d[-1] <= a.max // 2}
        assert all(1 <= g == d.max for d, g in got)
        if a.min > 3:
            continue
        for d in _factors(pairs):
            got = [r.elements for r in _cofactors(m, a, NatSet(d))]
            assert len(got) == len(set(got))
            assert set(got) == {y if x == d else x for x, y in pairs
                                if d in (x, y)}
        split = [(p.elements, q.elements) for p, q in sumset_engine().split(a)]
        assert split == sorted(pairs)


def test_skipped_frames_and_groups_hold_no_divisor(box6, monkeypatch):
    # a frame or sumset group that the divisor streams enter but neither
    # walk nor yield alone was skipped by the product bound, and must hold
    # no divisor at all; one without points or free elements that passes
    # the bound yields its root record with no walk, and counts as entered
    _pool, mon_map = box6
    sum_map = oracle.naive_sumset_split_map(12)
    roots, walk = [], engine._walk

    def record_walk(target, lows, root, children, tick):
        roots.append(root)
        return walk(target, lows, root, children, tick)

    monkeypatch.setattr(engine, "_walk", record_walk)

    def skipped_frames(e):
        # the frames of the core that pass the corner test, under the cap
        # of the stream of e; a frame's walk starts from the shifts of
        # (0, ay) and (ax, 0)
        u, v = generator_gcd(e)
        core = shifted(e, -u, -v)
        if core.is_unit:
            return set()
        frames = _reference_frames(core, (core.mdeg + u + v) // 2,
                                   lambda: None)
        roots.clear()
        stream = list(MonomialMonoid().candidate_divisors(e, Budget()))
        w = engine._Board(core).stride
        walked = {root[2] for root in roots} | {
            a for a, _g, view, _i, _j in stream
            if view is not None and len(a) == 2}
        return {(ax, ay) for ax, ay, _rows in frames
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
        stream = list(SumsetMonoid().candidate_divisors(a, Budget()))
        groups = {mb for mb in a.elements[1:]
                  if 2 * mb <= a.max and a.max - mb in a.elements}
        got = groups - {root[4].bit_length() - 1 for root in roots} - {
            d[-1] for d, _g, view, _i, _j in stream
            if view is not None and len(d) == 2}
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


_products = st.one_of(
    # sumsets of 2-3 nonunit 0-sets in [0,4], inside [0,12]
    st.lists(st.integers(1, 15).map(_zero_set), min_size=2,
             max_size=3).map(lambda parts: functools.reduce(natset.sumset,
                                                            parts)),
    # products of 2-3 nonunit ideals in box 2, inside box 6, prime atoms
    # and prime parts among them
    st.lists(st.sampled_from(oracle.box_ideals(2)), min_size=2,
             max_size=3).map(lambda parts: functools.reduce(product, parts)))


@pytest.fixture(scope="module")
def sum12():
    return oracle.naive_sumset_split_map(12)


@given(_products)
@settings(max_examples=150, deadline=None)
def test_products_match_oracle(box6, sum12, e):
    # products of a few small parts have long length sets, which the box
    # pools under-sample; every length is at most the grade
    if isinstance(e, NatSet):
        eng, key, split_map = sumset_engine(), e.elements, sum12
    else:
        eng, key = monomial_engine(), e.gens
        split_map = box6[1]
    want = tuple(sorted(oracle.naive_lengths(key, split_map, {})))
    assert eng.is_atom(e) == (not split_map.get(key))
    got = eng.lengths(e)
    assert got == want
    assert got[-1] <= eng.monoid.grade(e)


def test_split_and_lengths_agree_in_either_order(box6):
    # an engine keeps the small divisors of a target as records with the
    # view they belong to, and split and lengths both read them: lengths
    # before split on one engine, and each alone on a fresh engine, give
    # the oracle's answers.  671 of the 922 ideals of box_ideals(5) have a
    # prime part, so the shifted records are read too
    _pool, mon_map = box6
    sets = [NatSet([0] + [i + 1 for i in range(10) if mask >> i & 1])
            for mask in range(1, 1 << 10)]
    for make, split_map, targets, key in [
            (monomial_engine, mon_map, oracle.box_ideals(5),
             lambda d: d.gens),
            (sumset_engine, oracle.naive_sumset_split_map(10), sets,
             lambda d: d.elements)]:
        shared, cache = make(), {}
        for e in targets:
            want = tuple(sorted(oracle.naive_lengths(key(e), split_map,
                                                     cache)))
            pairs = split_map.get(key(e), set())
            assert shared.lengths(e) == want
            assert {(key(a), key(b)) for a, b in shared.split(e)} == pairs
            assert make().lengths(e) == want
            assert {(key(a), key(b)) for a, b in make().split(e)} == pairs


def test_lengths_search_cofactors_on_the_view(box6, monkeypatch):
    # the large phase searches the cofactors of each product of the pass on
    # the target's view, from the mask and colon the pass holds, and never
    # forms the product to call the engine's cofactor rule
    def refuse(self, e, parts):
        raise AssertionError("lengths called the engine's cofactor rule")

    searches = [0]

    def counted(search):
        def run(self, *args):
            searches[0] += 1
            return search(self, *args)
        return run

    monkeypatch.setattr(FactorEngine, "_cofactors", refuse)
    for cls in (engine._Board, engine._SetMask):
        monkeypatch.setattr(cls, "cofactors", counted(cls.cofactors))

    assert sumset_engine().lengths(build_C(minimal_sequence(3))) == (2, 4)
    assert searches[0] > 0

    pool, split_map = box6
    eng, cache, searches[0] = monomial_engine(), {}, 0
    for e in pool:
        assert set(eng.lengths(e)) == \
            oracle.naive_lengths(e.gens, split_map, cache)
    assert searches[0] == 240

    split_map = oracle.naive_sumset_split_map(12)
    eng, cache, searches[0] = sumset_engine(), {}, 0
    for mask in range(1, 1 << 12):
        a = NatSet([0] + [i + 1 for i in range(12) if mask >> i & 1])
        assert set(eng.lengths(a)) == \
            oracle.naive_lengths(a.elements, split_map, cache)
    assert searches[0] == 224
