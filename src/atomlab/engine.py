"""Generic factorization search over graded reduced monoids.

The engine sees a monoid through a small adapter interface: an identity
test, product, colon (maximal cofactor), an additive grade that is zero only
on the identity, a canonical sort key, and a divisor stream that yields
exactly the proper divisors.  A divisor a of e has maximal cofactor
colon(e, a) with a * colon(e, a) = e; full split lists come from matching
the divisor set against itself, which is exhaustive because any cofactor is
itself a divisor.

Budgets bound the number of search nodes and the wall clock.  Exhaustion
raises SearchBudgetExceeded so callers can report "inconclusive" rather than
mistaking a truncated scan for a completed one.  Streams have a fixed order,
so output is deterministic.

The full sumset monoid of all finite nonempty subsets of N reduces to the
engine by a shift: see is_atom and lengths at the end of this module.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Protocol, TypeVar

from . import monideal, natset
from .monideal import MonIdeal, UNIT
from .natset import NatSet

__all__ = [
    "Budget",
    "SearchBudgetExceeded",
    "GradedMonoid",
    "SumsetMonoid",
    "MonomialMonoid",
    "FactorEngine",
    "sumset_engine",
    "monomial_engine",
    "MAX_BOARD_CELLS",
    "board_cells",
    "is_atom",
    "lengths",
]

E = TypeVar("E")


class SearchBudgetExceeded(RuntimeError):
    """A factor search ran out of nodes or time before finishing.

    Distinct from "no factorization exists": whatever was found so far is
    unreliable as a completed answer and is reported as inconclusive.
    """

    def __init__(self, message: str, nodes: int, elapsed: float):
        super().__init__(message)
        self.nodes = nodes
        self.elapsed = elapsed


class Budget:
    """Node and wall-clock bounds shared by all searches of one engine run."""

    _CLOCK_STRIDE = 1024

    def __init__(self, max_nodes: Optional[int] = None,
                 max_seconds: Optional[float] = None):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise SearchBudgetExceeded(
                f"search exceeded {self.max_nodes} nodes",
                self.nodes, self.elapsed)
        if self.max_seconds is not None and self.nodes % self._CLOCK_STRIDE == 0:
            if self.elapsed > self.max_seconds:
                raise SearchBudgetExceeded(
                    f"search exceeded {self.max_seconds} seconds",
                    self.nodes, self.elapsed)


class GradedMonoid(Protocol[E]):
    """What the engine needs from a commutative reduced monoid.

    candidate_divisors must yield exactly the proper divisors of e (each at
    least once), restricted to grade at most grade_cap when one is given.
    """

    def is_identity(self, e: E) -> bool: ...

    def product(self, a: E, b: E) -> E: ...

    def colon(self, whole: E, part: E) -> Optional[E]: ...

    def grade(self, e: E) -> int: ...

    def key(self, e: E): ...

    def candidate_divisors(self, e: E, budget: Optional[Budget] = None,
                           grade_cap: Optional[int] = None) -> Iterator[E]: ...


class SumsetMonoid:
    """Reduced sumset monoid: finite subsets of N containing 0."""

    def is_identity(self, e: NatSet) -> bool:
        return e.elements == (0,)

    def product(self, a: NatSet, b: NatSet) -> NatSet:
        return natset.sumset(a, b)

    def colon(self, whole: NatSet, part: NatSet) -> Optional[NatSet]:
        return natset.set_colon(whole, part)

    def grade(self, e: NatSet) -> int:
        return e.max

    def key(self, e: NatSet):
        return e.elements

    def candidate_divisors(self, e: NatSet, budget: Optional[Budget] = None,
                           grade_cap: Optional[int] = None) -> Iterator[NatSet]:
        if e.min != 0:
            raise ValueError("expected a set containing 0")
        tick = budget.tick if budget is not None else None
        amask = natset._mask_of(e)
        for bmask, _col in natset._reduced_divisor_masks(amask, cap=grade_cap,
                                                         tick=tick):
            yield natset._mask_to_set(bmask)


class MonomialMonoid:
    """Multiplicative monoid of nonzero monomial ideals in two variables."""

    def is_identity(self, e: MonIdeal) -> bool:
        return e.is_unit

    def product(self, a: MonIdeal, b: MonIdeal) -> MonIdeal:
        return monideal.product(a, b)

    def colon(self, whole: MonIdeal, part: MonIdeal) -> Optional[MonIdeal]:
        return monideal.colon(whole, part)

    def grade(self, e: MonIdeal) -> int:
        return e.mdeg

    def key(self, e: MonIdeal):
        return e.gens

    def candidate_divisors(self, e: MonIdeal, budget: Optional[Budget] = None,
                           grade_cap: Optional[int] = None) -> Iterator[MonIdeal]:
        """Stream exactly the proper divisors of e.

        Generators sharing a monomial factor X^u Y^v split off as principal
        prime factors, so divisors are X^i Y^j times a divisor of the
        gcd-free core.  Core divisors come from a pruned staircase search,
        see _gcdfree_divisors.
        """
        total = e.mdeg
        if total == 0:
            return
        tick = budget.tick if budget is not None else (lambda: None)
        u, v = monideal.generator_gcd(e)
        core = monideal.shifted(e, -u, -v) if (u or v) else e

        def emit(a: MonIdeal, i: int, j: int) -> Optional[MonIdeal]:
            cand = monideal.shifted(a, i, j) if (i or j) else a
            g = cand.mdeg
            if 1 <= g <= total - 1 and (grade_cap is None or g <= grade_cap):
                return cand
            return None

        shifts = [(i, j) for i in range(u + 1) for j in range(v + 1)]
        base = [UNIT]
        if core.mdeg > 0:
            base.append(core)
        for a in base:
            for i, j in shifts:
                got = emit(a, i, j)
                if got is not None:
                    yield got
        if core.mdeg == 0:
            return
        for a in _gcdfree_divisors(core, tick, grade_cap):
            for i, j in shifts:
                got = emit(a, i, j)
                if got is not None:
                    yield got


# Boards are dense, so a search refuses ideals whose gcd-free core would need
# more padded cells than this (about 8 MB per mask).
MAX_BOARD_CELLS = 1 << 26


def board_cells(e: MonIdeal) -> int:
    """Padded cells of the board of e's gcd-free core: (py+1) * (2px+1)."""
    u, v = monideal.generator_gcd(e)
    return (e.max_y - v + 1) * (2 * (e.max_x - u) + 1)


class _Board:
    """Bit-board view of a gcd-free ideal inside its generator bounding box.

    Bit y*(2px+1) + x is set when X^x Y^y lies in the ideal, for x <= px and
    y <= py (the pure exponents).  Outside the box membership is decided by
    the pure powers alone, so clipping coordinates to the box is exact.
    Colons by a monomial become precomputed masks and intersections become
    single AND operations, which is what makes the frame DFS cheap.  Rows
    are padded to 2px+1 bits so that shifting a mask by any (sx, sy) with
    sx <= px moves bits past column px into the padding, never into the
    next row.  gens is the mask of the ideal's own generators.
    """

    def __init__(self, e: MonIdeal):
        self.px = px = e.max_x
        self.py = py = e.max_y
        self.stride = w = 2 * px + 1
        if (py + 1) * w > MAX_BOARD_CELLS:
            raise ValueError(f"factor search supports boards of at most "
                             f"{MAX_BOARD_CELLS} cells, got {(py + 1) * w}")
        # a row pattern times `rows` repeats it in every row, without carries
        self.rows = rows = ((1 << (py + 1) * w) - 1) // ((1 << w) - 1)
        self.row = full_row = (1 << (px + 1)) - 1
        self.content = full_row * rows
        region = gens = 0
        for x, y in e.gens:
            gens |= 1 << (y * w + x)
            # columns x..px in every row, then rows below y cleared
            region |= (full_row >> x << x) * rows >> (y * w) << (y * w)
        self.region = region
        self.gens = gens
        self._colon_cache: dict[tuple[int, int], int] = {}

    def member(self, x: int, y: int) -> bool:
        x = min(x, self.px)
        y = min(y, self.py)
        return self.region >> (y * self.stride + x) & 1 == 1

    def colon_mask(self, c: int, g: int) -> int:
        """Membership mask of (ideal : X^c Y^g), clipped to the same box."""
        got = self._colon_cache.get((c, g))
        if got is not None:
            return got
        w, px, py = self.stride, self.px, self.py
        # bits shifted past column 0 land in the padding of the row below
        # and are masked off; clipped cells repeat column px or row py, which
        # the generators (px, 0) and (0, py) fill, so the last c columns and
        # the last g rows are full
        out = (self.region >> (g * w + c)) & self.content
        out |= (self.row >> (px + 1 - c) << (px + 1 - c)) * self.rows
        out |= self.content >> ((py + 1 - g) * w) << ((py + 1 - g) * w)
        self._colon_cache[(c, g)] = out
        return out


def _gcdfree_divisors(e: MonIdeal, tick, cap: Optional[int] = None
                      ) -> Iterator[MonIdeal]:
    """Proper divisors of a gcd-free nonunit ideal, one frame at a time.

    Any factor pair of e carries pure powers X^ax, Y^ay and X^bx, Y^by with
    ax + bx and ay + by matching the pure exponents of e, so the search runs
    over frames (ax, ay).  Within a frame, a factor B is the frame plus an
    antichain of interior generators, and its maximal cofactor is the colon
    by its generators; e equals B * cofactor exactly when every generator
    of e lies in the mask of B * cofactor, the OR of the cofactor mask
    shifted by each generator of B.  The DFS threads that coverage test
    through the antichain enumeration (see _frame_dfs).

    Three sound filters shrink the frame and point sets.  Each generator of
    a factor stays in e after multiplying by the partner's pure powers; the
    grade identity mdeg(e) = mdeg(factor) + mdeg(cofactor) with
    mdeg <= min(pure exponents) forces min(ax, ay) + min(bx, by) >= mdeg(e);
    and every generator degree of the factor is at least
    mdeg(e) - min(bx, by).
    """
    total = e.mdeg
    board = _Board(e)
    px, py = board.px, board.py

    for ax in range(1, px):
        bx = px - ax
        for ay in range(1, py):
            by = py - ay
            tick()
            if min(ax, ay) + min(bx, by) < total:
                continue
            if not board.member(ax, by) or not board.member(bx, ay):
                continue
            lo = total - min(bx, by)
            if cap is not None and min(ax, ay) > cap and lo > cap:
                continue
            points = [(g, c) for c in range(1, ax)
                      for g in range(max(1, lo - c), ay)
                      if board.member(c + bx, g) and board.member(c, g + by)]
            points.sort()
            yield from _frame_dfs(board, ax, ay, points, tick)


def _frame_dfs(board: _Board, ax: int, ay: int, points,
               tick) -> Iterator[MonIdeal]:
    """Preorder DFS over antichains B = frame + points by increasing Y.

    miss = generators of e outside B * cof, cof the mask of (e : B): the OR
    of cof << (sy*stride + sx) over the generators (sx, sy) of B.  Points
    still to come lie at or above the next point's row and only shrink cof,
    so a miss below that row kills the branch; no miss emits B.
    """
    w, gens, bottom = board.stride, board.gens, (0, ay)
    pairs = [(c, g) for g, c in points]
    colons = [board.colon_mask(c, g) for c, g in pairs]
    shifts = [g * w + c for c, g in pairs]
    # bit 0 of the next point's row (row py+1 past the last): misses below die
    lows = [1 << (g * w) for g, _c in points] + [1 << ((board.py + 1) * w)]
    stack = [(((ax, 0),), (ax, ay * w),
              board.colon_mask(ax, 0) & board.colon_mask(0, ay), 0)]
    while stack:
        acc, sh, cof, idx = stack.pop()
        tick()
        reach = 0
        for s in sh:
            reach |= cof << s
        miss = gens & ~reach
        if not miss:
            yield MonIdeal._from_antichain(acc + (bottom,))
        elif miss & -miss < lows[idx]:
            continue
        last_x, last_y = acc[-1]
        for i in range(len(pairs) - 1, idx - 1, -1):
            c, g = pairs[i]
            if g > last_y and c < last_x:
                stack.append((acc + (pairs[i],), sh + (shifts[i],),
                              cof & colons[i], i + 1))


class FactorEngine:
    """Divisor, atom, split, length and factorization queries for one monoid.

    Each engine owns one budget and one memo cache; create a fresh engine to
    search under different budgets.
    """

    def __init__(self, monoid: GradedMonoid, budget: Optional[Budget] = None):
        self.monoid = monoid
        self.budget = budget
        self._divisor_memo: dict = {}
        self._atom_memo: dict = {}
        self._length_memo: dict = {}
        self._factorization_memo: dict = {}

    def divisors(self, e: E) -> list[E]:
        """All proper divisors of e, sorted by (grade, key)."""
        m = self.monoid
        k = m.key(e)
        got = self._divisor_memo.get(k)
        if got is not None:
            return list(got)
        hits = list(m.candidate_divisors(e, self.budget))
        seen = {}
        for a in hits:
            seen.setdefault(m.key(a), a)
        out = sorted(seen.values(), key=lambda a: (m.grade(a), m.key(a)))
        self._divisor_memo[k] = tuple(out)
        return out

    def _first_small_divisor(self, e: E) -> Optional[E]:
        # some side of any split has at most half the grade
        m = self.monoid
        return next(m.candidate_divisors(e, self.budget, m.grade(e) // 2),
                    None)

    def find_split(self, e: E) -> Optional[tuple[E, E]]:
        """Some factorization e = a * b into nonunits, or None for atoms."""
        m = self.monoid
        if m.is_identity(e):
            raise ValueError("the identity is not searched for splits")
        a = self._first_small_divisor(e)
        if a is None:
            return None
        if self.budget is not None:
            self.budget.tick()
        col = m.colon(e, a)
        if col is None or m.key(m.product(a, col)) != m.key(e):
            raise AssertionError("stream produced a non-divisor")
        return a, col

    def is_atom(self, e: E) -> bool:
        m = self.monoid
        if m.is_identity(e):
            return False
        k = m.key(e)
        got = self._atom_memo.get(k)
        if got is not None:
            return got
        res = self._first_small_divisor(e) is None
        self._atom_memo[k] = res
        return res

    def split(self, e: E) -> list[tuple[E, E]]:
        """Every unordered pair (a, b) of nonunits with a * b = e."""
        m = self.monoid
        if m.is_identity(e):
            raise ValueError("the identity is not searched for splits")
        divisors = self.divisors(e)
        total = m.grade(e)
        by_grade: dict[int, list[E]] = {}
        for a in divisors:
            by_grade.setdefault(m.grade(a), []).append(a)
        ekey = m.key(e)
        pairs = []
        for a in divisors:
            ka = m.key(a)
            for b in by_grade.get(total - m.grade(a), ()):
                if m.key(b) < ka:
                    continue
                if m.key(m.product(a, b)) == ekey:
                    pairs.append((a, b))
        pairs.sort(key=lambda p: (m.key(p[0]), m.key(p[1])))
        return pairs

    def lengths(self, e: E) -> tuple[int, ...]:
        """Sorted set of factorization lengths of e (identity gives {0}).

        Recursion peels one atom at a time: any factorization of length l
        is an atom times a cofactor of length l - 1, and every cofactor of
        a dividing atom is itself a divisor, so pairing the atom divisors
        against the grade-complementary divisor bucket is exhaustive.
        """
        m = self.monoid

        def rec(x: E) -> tuple[int, ...]:
            k = m.key(x)
            got = self._length_memo.get(k)
            if got is not None:
                return got
            if m.is_identity(x):
                res: tuple[int, ...] = (0,)
            else:
                divs = self.divisors(x)
                if not divs:
                    res = (1,)
                else:
                    total = m.grade(x)
                    by_grade: dict[int, list[E]] = {}
                    for d in divs:
                        by_grade.setdefault(m.grade(d), []).append(d)
                    acc: set = set()
                    for a in divs:
                        if not self.is_atom(a):
                            continue
                        for b in by_grade.get(total - m.grade(a), ()):
                            if m.key(m.product(a, b)) != k:
                                continue
                            for lb in rec(b):
                                acc.add(1 + lb)
                    res = tuple(sorted(acc))
            self._length_memo[k] = res
            return res

        return rec(e)

    def factorizations(self, e: E, max_grade: int = 64) -> list[tuple]:
        """All factorizations of e into atoms, as sorted tuples of atoms."""
        m = self.monoid
        if m.grade(e) > max_grade:
            raise ValueError(
                f"grade {m.grade(e)} above the factorization bound {max_grade}")

        def rec(x: E) -> tuple[tuple, ...]:
            k = m.key(x)
            got = self._factorization_memo.get(k)
            if got is not None:
                return got
            if m.is_identity(x):
                res: tuple[tuple, ...] = ((),)
            else:
                pairs = self.split(x)
                if not pairs:
                    res = ((x,),)
                else:
                    acc = {}
                    for a, b in pairs:
                        for fa in rec(a):
                            for fb in rec(b):
                                combo = tuple(sorted(fa + fb, key=m.key))
                                acc[tuple(m.key(z) for z in combo)] = combo
                    res = tuple(acc[kk] for kk in sorted(acc))
            self._factorization_memo[k] = res
            return res

        return list(rec(e))


def sumset_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(SumsetMonoid(), budget=budget)


def monomial_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(MonomialMonoid(), budget=budget)


# ---------------------------------------------------------------------------
# Full sumset monoid: every set is min(A) copies of {1} plus its zero-based
# part, and every atom is either {1} or contains 0.


def is_atom(a: NatSet, budget: Optional[Budget] = None) -> bool:
    """Atom test in the full monoid of finite nonempty subsets of N."""
    shift, a0 = natset.reduce_shift(a)
    if shift:
        return shift == 1 and a0.max == 0
    return sumset_engine(budget).is_atom(a0)


def lengths(a: NatSet, budget: Optional[Budget] = None) -> tuple[int, ...]:
    """Factorization lengths in the full monoid of finite nonempty subsets."""
    shift, a0 = natset.reduce_shift(a)
    return tuple(shift + l for l in sumset_engine(budget).lengths(a0))
