"""Generic factorization search over graded reduced monoids.

The engine sees a monoid through a small adapter interface: product, colon
(maximal cofactor), an additive grade that is zero exactly on the identity,
a canonical sort key, a divisor stream that yields each proper divisor of
at most half the grade exactly once, with its grade, a cofactor search that
yields every r with p * r = e for a divisor p, and a split of prime atoms.
A divisor a of e has maximal cofactor colon(e, a) with a * colon(e, a) = e.
The monoids are not cancellative, so a divisor may have many cofactors.

Every question starts from the small divisors of e, those of at most half
its grade.  Some side of every split is one, so split lists pair each with
its cofactors, and lengths multiply the small atoms (FactorEngine.lengths).

Every search counts its nodes into the engine's Budget, which may bound
them and the wall clock.  Exhaustion raises SearchBudgetExceeded so callers
can report "inconclusive" rather than mistaking a truncated scan for a
completed one.  Streams have a fixed order, so output is deterministic.

The full sumset monoid of all finite nonempty subsets of N reduces to the
engine by a shift: see find_split, is_atom and lengths at the end of this
module.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Protocol, TypeVar

from . import monideal, natset
from .monideal import MonIdeal, UNIT
from .natset import NatSet

__all__ = [
    "Budget",
    "make_budget",
    "SearchBudgetExceeded",
    "GradedMonoid",
    "SumsetMonoid",
    "MonomialMonoid",
    "FactorEngine",
    "sumset_engine",
    "monomial_engine",
    "MAX_BOARD_CELLS",
    "board_cells",
    "check_search_size",
    "find_split",
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
    """Node count and bounds shared by all searches of one engine run.

    None leaves a bound off; a negative bound is a ValueError.  A time bound
    reads the clock at every node.
    """

    def __init__(self, max_nodes: Optional[int] = None,
                 max_seconds: Optional[float] = None):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"node budget must be >= 0, got {max_nodes}")
        if max_seconds is not None and not max_seconds >= 0:
            raise ValueError(f"time budget must be >= 0, got {max_seconds}")
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
        if self.max_seconds is not None and self.elapsed > self.max_seconds:
            raise SearchBudgetExceeded(
                f"search exceeded {self.max_seconds} seconds",
                self.nodes, self.elapsed)


def make_budget(max_nodes: Optional[int] = None,
                max_seconds: Optional[float] = None) -> Budget:
    """The Budget for a node and a time limit, where None or 0 means no cap.

    Raises ValueError for a negative limit.
    """
    return Budget(max_nodes or None, max_seconds or None)


class GradedMonoid(Protocol[E]):
    """What the engine needs from a commutative reduced monoid.

    grade is additive and zero exactly on the identity.  candidate_divisors
    must yield each proper divisor of e of grade at most grade(e) // 2
    exactly once, as a pair (divisor, grade).  cofactors must yield each r
    with part * r = whole exactly once, for a proper divisor part of whole.
    prime_split(e) = (n, rest) splits off prime atoms: e is rest times n of
    them, and every factorization of e is one of rest times those n, so the
    lengths of e are those of rest plus n.  Both searches count their nodes
    into the given budget.
    """

    def product(self, a: E, b: E) -> E: ...

    def colon(self, whole: E, part: E) -> Optional[E]: ...

    def grade(self, e: E) -> int: ...

    def key(self, e: E): ...

    def candidate_divisors(self, e: E, budget: Budget
                           ) -> Iterator[tuple[E, int]]: ...

    def cofactors(self, whole: E, part: E, budget: Budget) -> Iterator[E]: ...

    def prime_split(self, e: E) -> tuple[int, E]: ...


class SumsetMonoid:
    """Reduced sumset monoid: finite subsets of N containing 0."""

    def product(self, a: NatSet, b: NatSet) -> NatSet:
        return natset.sumset(a, b)

    def colon(self, whole: NatSet, part: NatSet) -> Optional[NatSet]:
        return natset.set_colon(whole, part)

    def grade(self, e: NatSet) -> int:
        return e.max

    def key(self, e: NatSet):
        return e.elements

    def candidate_divisors(self, e: NatSet, budget: Budget
                           ) -> Iterator[tuple[NatSet, int]]:
        if e.min != 0:
            raise ValueError("expected a set containing 0")
        for bmask in natset._reduced_divisor_masks(natset._mask_of(e),
                                                   budget.tick):
            yield natset._mask_to_set(bmask), bmask.bit_length() - 1

    def prime_split(self, e: NatSet) -> tuple[int, NatSet]:
        return 0, e

    def cofactors(self, whole: NatSet, part: NatSet,
                  budget: Budget) -> Iterator[NatSet]:
        wmask, pmask = natset._mask_of(whole), natset._mask_of(part)
        for rmask in natset._cofactor_masks(wmask, pmask, budget.tick):
            yield natset._mask_to_set(rmask)


class MonomialMonoid:
    """Multiplicative monoid of nonzero monomial ideals in two variables."""

    def product(self, a: MonIdeal, b: MonIdeal) -> MonIdeal:
        return monideal.product(a, b)

    def colon(self, whole: MonIdeal, part: MonIdeal) -> Optional[MonIdeal]:
        return monideal.colon(whole, part)

    def grade(self, e: MonIdeal) -> int:
        return e.mdeg

    def key(self, e: MonIdeal):
        return e.gens

    def candidate_divisors(self, e: MonIdeal, budget: Budget
                           ) -> Iterator[tuple[MonIdeal, int]]:
        """Stream each proper divisor of e of at most half its grade once,
        with its grade.

        Generators sharing a monomial factor X^u Y^v split off as principal
        prime factors, so divisors are X^i Y^j times a divisor of the
        gcd-free core, of grade mdeg + i + j.  Core divisors come from a
        pruned staircase search, see _gcdfree_divisors.  Raises ValueError
        for an ideal beyond the limits of check_search_size.
        """
        total = e.mdeg
        if total == 0:
            return
        check_search_size(e)
        cap = total // 2
        u, v = monideal.generator_gcd(e)
        core = monideal.shifted(e, -u, -v) if (u or v) else e
        core_deg = total - u - v
        stream = [(UNIT, 0)]
        if core_deg:
            stream = itertools.chain(stream, [(core, core_deg)],
                                     _gcdfree_divisors(core, core_deg, budget,
                                                       cap))
        for a, g in stream:
            for i in range(u + 1):
                # the j that keep the grade g + i + j within [1, cap]
                for j in range(max(0, 1 - g - i), min(v, cap - g - i) + 1):
                    yield (monideal.shifted(a, i, j) if (i or j) else a,
                           g + i + j)

    def prime_split(self, e: MonIdeal) -> tuple[int, MonIdeal]:
        """X and Y are prime and cancel, and every other atom is gcd-free.

        So a factorization of e = X^u Y^v * core holds u X's, v Y's and a
        factorization of core.  Raises ValueError for an ideal beyond the
        limits of check_search_size, as every search does.
        """
        check_search_size(e)
        u, v = monideal.generator_gcd(e)
        return (u + v, monideal.shifted(e, -u, -v)) if (u or v) else (0, e)

    def cofactors(self, whole: MonIdeal, part: MonIdeal,
                  budget: Budget) -> Iterator[MonIdeal]:
        """Each r with part * r = whole, once; part must divide whole.

        Generator gcds add, so r is X^(u-i) Y^(v-j) times a cofactor of the
        gcd-free core of part inside that of whole, (u, v) and (i, j) being
        the gcds of whole and part.  Core cofactors come from one frame of
        the staircase search, see _cofactor_dfs.
        """
        u, v = monideal.generator_gcd(whole)
        i, j = monideal.generator_gcd(part)
        core = monideal.shifted(whole, -u, -v) if (u or v) else whole
        pcore = monideal.shifted(part, -i, -j) if (i or j) else part
        if pcore.is_unit or pcore == core:
            rs = [core if pcore.is_unit else UNIT]
        else:
            rs = _cofactor_dfs(_Board(core), pcore, core.mdeg - pcore.mdeg,
                               budget.tick)
        for r in rs:
            yield monideal.shifted(r, u - i, v - j) if (u - i or v - j) else r


# Boards are dense, so a search refuses ideals whose gcd-free core would need
# more padded cells than this (about 8 MB per mask), and ideals whose
# generator gcd has more monomial divisors than this, since
# candidate_divisors lists them all.
MAX_BOARD_CELLS = 1 << 26


def board_cells(e: MonIdeal) -> int:
    """Padded cells of the board of e's gcd-free core: (py+1) * (2px+1)."""
    u, v = monideal.generator_gcd(e)
    return (e.max_y - v + 1) * (2 * (e.max_x - u) + 1)


def check_search_size(e: MonIdeal) -> None:
    """Raise ValueError when a factor search of e would exceed the limits.

    The board of the gcd-free core may have at most MAX_BOARD_CELLS padded
    cells, and the generator gcd X^u Y^v at most MAX_BOARD_CELLS monomial
    divisors.  Both are checked before anything of that size is built.
    """
    cells = board_cells(e)
    if cells > MAX_BOARD_CELLS:
        raise ValueError(
            f"factor search supports ideals whose gcd-free core needs "
            f"at most {MAX_BOARD_CELLS} board cells, got {cells}")
    u, v = monideal.generator_gcd(e)
    shifts = (u + 1) * (v + 1)
    if shifts > MAX_BOARD_CELLS:
        raise ValueError(
            f"factor search supports ideals whose generator gcd X^u Y^v "
            f"has at most {MAX_BOARD_CELLS} monomial divisors, "
            f"got (u+1)(v+1) = {shifts}")


class _Board:
    """Bit-board view of a monomial ideal inside its generator bounding box.

    Bit y*(2px+1) + x is set when X^x Y^y lies in the ideal, for x <= px and
    y <= py (the largest generator exponents).  For a gcd-free ideal these
    are the pure exponents, and outside the box membership is decided by
    the pure powers alone, so clipping coordinates to the box is exact.
    Colons by a monomial become precomputed masks and intersections become
    single AND operations, which is what makes the frame DFS cheap.  Rows
    are padded to 2px+1 bits so that shifting a mask by any (sx, sy) with
    sx <= px moves bits past column px into the padding, never into the
    next row.  gens is the mask of the ideal's own generators, and
    starts[y] the first column of row y in the ideal (px+1 for none).
    """

    def __init__(self, e: MonIdeal):
        self.px = px = e.max_x
        self.py = py = e.max_y
        self.stride = w = 2 * px + 1
        # a row pattern times `rows` repeats it in every row, without carries
        self.rows = rows = ((1 << (py + 1) * w) - 1) // ((1 << w) - 1)
        self.row = full_row = (1 << (px + 1)) - 1
        self.content = full_row * rows
        # rows between two generators (x descending, y ascending) start at
        # the column of the lower one; rows below every generator are empty
        gens = e.gens
        self.starts = starts = [px + 1] * gens[0][1]
        zeros = "0" * px
        ones = "1" * (px + 1) + zeros
        runs = ["0" * (w * len(starts))]
        for (x, y), (_, top) in zip(gens, gens[1:] + ((0, py + 1),)):
            starts += [x] * (top - y)
            # binary digits of the run's rows, column px first
            runs.append((zeros + ones[x:x + px + 1]) * (top - y))
        self.region = region = int("".join(reversed(runs)), 2)
        # generators are the cells whose left and lower neighbours are out
        self.gens = region & ~(region << 1 | region << w)
        self._colon_cache: dict[tuple[int, int], int] = {}

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


def _gcdfree_divisors(e: MonIdeal, total: int, budget: Budget, cap: int
                      ) -> Iterator[tuple[MonIdeal, int]]:
    """Proper divisors of a gcd-free nonunit ideal with their grades.

    total is mdeg(e), and cap a grade bound: frames whose divisors all
    exceed it are not visited, though divisors above it may still be
    yielded from the others.

    Any factor pair of e carries pure powers X^ax, Y^ay and X^bx, Y^by with
    ax + bx = px and ay + by = py, the pure exponents of e, so the search
    runs over frames (ax, ay).  Within a frame, a factor B is the frame plus
    an antichain of interior generators, and its maximal cofactor is the
    colon by its generators; e equals B * cofactor exactly when every
    generator of e lies in the mask of B * cofactor, the OR of the cofactor
    mask shifted by each generator of B.  The DFS threads that coverage test
    through the antichain enumeration (see _frame_dfs).

    Three sound filters shrink the frame and point sets.  The grade identity
    mdeg(e) = mdeg(factor) + mdeg(cofactor) with mdeg <= min(pure exponents)
    forces min(ax, ay) + min(bx, by) >= mdeg(e), so every generator degree
    of the factor is at least lo = mdeg(e) - min(bx, by); with the cap this
    leaves one range of ay for each ax (see _frame_ays).  Each generator of
    a factor stays in e after multiplying by the partner's pure powers, so
    the corners X^ax Y^by and X^bx Y^ay lie in e, and a point (c, g) of a
    frame lies in both (e : X^bx) and (e : Y^by).  Those colons are ideals,
    so row g of their intersection is the columns from max(start[g] - bx,
    start[g + by]) on, start[y] being the first column of row y of e.

    Each visited frame costs one search node, so a budget stops a loop over
    many frames even when none of them holds a point.
    """
    tick = budget.tick
    board = _Board(e)
    px, py, starts = board.px, board.py, board.starts
    # a proper divisor has a grade below total; lo <= cap needs
    # bx >= total - cap
    cap = min(cap, total - 1)
    for ax in range(1, px - total + cap + 1):
        bx = px - ax
        for ay in _frame_ays(px, py, total, cap, ax):
            by = py - ay
            tick()
            if ax < starts[by] or bx < starts[ay]:
                continue
            lo = total - (bx if bx < by else by)
            # points (c, g) with 1 <= c < ax, 1 <= g < ay and c + g >= lo,
            # in (g, c) order
            points = []
            for g in range(1, ay):
                c0 = max(1, lo - g, starts[g] - bx, starts[g + by])
                if c0 < ax:
                    points += [(c, g) for c in range(c0, ax)]
            yield from _frame_dfs(board, ax, ay, points, tick)


def _frame_ays(px: int, py: int, total: int, cap: int, ax: int) -> range:
    """The ay in [1, py) with min(ax, ay) + min(px-ax, py-ay) >= total and
    lo = total - min(px-ax, py-ay) <= cap, for 0 <= cap < total and an ax
    with px - ax >= total - cap (the ax that _gcdfree_divisors visits).

    min(a, b) + min(c, d) = min(a + c, a + d, b + c, b + d), and px and py
    are at least total, so the grade test is ax + py - ay >= total and
    ay + px - ax >= total.  Under it lo <= min(ax, ay), and the cap test
    is py - ay >= total - cap.
    """
    return range(max(1, total - px + ax), py - total + 1 + min(ax, cap))


def _frame_dfs(board: _Board, ax: int, ay: int, points,
               tick) -> Iterator[tuple[MonIdeal, int]]:
    """Preorder DFS over antichains B = frame + points by increasing Y.

    points are (c, g) pairs sorted by (g, c).  miss = generators of e outside
    B * cof, cof the mask of (e : B): the OR of cof << (sy*stride + sx) over
    the generators (sx, sy) of B.  Points still to come lie at or above the
    next point's row and only shrink cof, so a miss below that row kills the
    branch; no miss emits B with its grade, min(ax, ay, c + g over points).
    """
    w, gens, bottom = board.stride, board.gens, (0, ay)
    colons = [board.colon_mask(c, g) for c, g in points]
    shifts = [g * w + c for c, g in points]
    # bit 0 of the next point's row (row py+1 past the last): misses below die
    lows = [1 << (g * w) for _c, g in points] + [1 << ((board.py + 1) * w)]
    stack = [(((ax, 0),), (ax, ay * w),
              board.colon_mask(ax, 0) & board.colon_mask(0, ay), 0,
              min(ax, ay))]
    while stack:
        acc, sh, cof, idx, deg = stack.pop()
        tick()
        reach = 0
        for s in sh:
            reach |= cof << s
        miss = gens & ~reach
        if not miss:
            yield MonIdeal._from_antichain(acc + (bottom,)), deg
        elif miss & -miss < lows[idx]:
            continue
        last_x, last_y = acc[-1]
        for i in range(len(points) - 1, idx - 1, -1):
            c, g = point = points[i]
            if g > last_y and c < last_x:
                stack.append((acc + (point,), sh + (shifts[i],),
                              cof & colons[i], i + 1,
                              deg if deg <= c + g else c + g))


def _cofactor_dfs(board: _Board, p: MonIdeal, grade: int,
                  tick) -> Iterator[MonIdeal]:
    """Every r with p * r equal to the ideal of the board, both gcd-free.

    Pure powers add, so r has the frame (bx, by) = (px - p.max_x,
    py - p.max_y), and every generator of r lies in the mask of (e : p)
    with a degree of at least grade, the grade of r.  The DFS runs over
    antichains r = frame + points by increasing Y, as _frame_dfs does, but
    with p fixed: reach, the mask of p * r, is the OR of p's mask shifted by
    each generator of r, and grows with r.  A point only reaches rows at or
    above its own, so a generator of e missed below the next point's row
    kills the branch; no miss yields r.
    """
    px, py, w = board.px, board.py, board.stride
    bx, by = px - p.max_x, py - p.max_y
    col, pmask = board.content, 0
    for c, g in p.gens:
        col &= board.colon_mask(c, g)
        pmask |= (board.row >> c << c) * board.rows >> g * w << g * w
    if not (col >> bx & 1 and col >> by * w & 1):
        return
    points = []
    for g in range(1, by):
        row = col >> g * w & board.row
        if row:
            c0 = max(1, (row & -row).bit_length() - 1, grade - g)
            points += [(c, g) for c in range(c0, bx)]
    gens, bottom = board.gens, (0, by)
    shifts = [g * w + c for c, g in points]
    lows = [1 << (g * w) for _c, g in points] + [1 << ((py + 1) * w)]
    stack = [(((bx, 0),), pmask << bx | pmask << by * w, 0)]
    while stack:
        acc, reach, idx = stack.pop()
        tick()
        miss = gens & ~reach
        if not miss:
            yield MonIdeal._from_antichain(acc + (bottom,))
        elif miss & -miss < lows[idx]:
            continue
        last_x, last_y = acc[-1]
        for i in range(len(points) - 1, idx - 1, -1):
            c, g = point = points[i]
            if g > last_y and c < last_x:
                stack.append((acc + (point,), reach | pmask << shifts[i],
                              i + 1))


class FactorEngine:
    """Split, atom and length queries for one monoid.

    Each engine owns one budget and one memo cache; create a fresh engine to
    search under different budgets.  Without a budget the engine counts
    into a Budget of its own that sets no limit.
    """

    def __init__(self, monoid: GradedMonoid, budget: Optional[Budget] = None):
        self.monoid = monoid
        self.budget = Budget() if budget is None else budget
        self._small_memo: dict = {}
        self._split_memo: dict = {}
        self._atom_memo: dict = {}
        self._length_memo: dict = {}

    def _small_divisors(self, e: E) -> list[tuple[E, int]]:
        """The proper divisors of e of at most half its grade, with grades.

        Some side of every split, and every atom of a factorization but the
        largest, is among them.  Kept per element, in stream order.
        """
        m = self.monoid
        k = m.key(e)
        got = self._small_memo.get(k)
        if got is None:
            got = list(m.candidate_divisors(e, self.budget))
            self._small_memo[k] = got
        return got

    def _first_small_divisor(self, e: E) -> Optional[E]:
        # some side of any split has at most half the grade
        for a, _g in self.monoid.candidate_divisors(e, self.budget):
            return a
        return None

    def find_split(self, e: E) -> Optional[tuple[E, E]]:
        """Some factorization e = a * b into nonunits, or None for atoms."""
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            raise ValueError("the identity is not searched for splits")
        a = self._first_small_divisor(e)
        if a is None:
            return None
        self.budget.tick()
        col = m.colon(e, a)
        if col is None or m.key(m.product(a, col)) != m.key(e):
            raise AssertionError("stream produced a non-divisor")
        return a, col

    def is_atom(self, e: E) -> bool:
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            return False
        k = m.key(e)
        got = self._atom_memo.get(k)
        if got is not None:
            return got
        res = self._first_small_divisor(e) is None
        self._atom_memo[k] = res
        return res

    def split(self, e: E) -> list[tuple[E, E]]:
        """Every unordered pair (a, b) of nonunits with a * b = e.

        Each pair has key(a) <= key(b), and the list is sorted by key.  The
        side of at most half the grade is a small divisor, and the other
        side runs over its cofactors; when both sides have half the grade,
        each finds the other, and the pair is kept once.
        """
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            raise ValueError("the identity is not searched for splits")
        k = m.key(e)
        pairs = self._split_memo.get(k)
        if pairs is None:
            pairs = []
            for a, g in self._small_divisors(e):
                ka = m.key(a)
                for b in m.cofactors(e, a, self.budget):
                    if m.key(b) >= ka:
                        pairs.append((a, b))
                    elif 2 * g < total:
                        pairs.append((b, a))
            pairs.sort(key=lambda p: (m.key(p[0]), m.key(p[1])))
            self._split_memo[k] = pairs
        return list(pairs)

    def lengths(self, e: E) -> tuple[int, ...]:
        """Sorted set of factorization lengths of e (identity gives {0}).

        Small-side algorithm.  Sort the atoms of a factorization of length
        k >= 2 by grade: each of the first k - 1 has at most half the grade
        of e, and their product divides e with a grade below e's.  So only
        the small atoms, those the divisor stream yields, are multiplied:
        layer j holds the distinct products of j small atoms that divide e
        with a grade below it, and k <= 1 + the deepest layer.  Products
        grow in sorted order: p, of grade gp, extends only by atoms a at or
        after its last factor, and only when gp + 2 * grade(a) <= grade(e)
        or when grade(a) = grade(e) - gp, which closes a length.  Every atom
        after a sorts no smaller, so a product q = p * a with
        0 < grade(e) - grade(q) < grade(a) can never complete; nor can a
        colon or cofactor complete it, since a smaller last atom would sort
        before a.  With the atoms sorted by grade, the allowed a form two
        index ranges, and each product formed costs a node.  k is a length
        exactly when some p of layer k - 1 has an atom r with
        p * r = e.  When r is small too, the product p * r = e turns up
        while the layers are built.  Otherwise r is tried as the maximal
        cofactor colon(e, p) first, and, for a k still open, searched for
        among all cofactors of p.  An element without small divisors is an
        atom, of length 1.  Prime atoms, which every factorization holds,
        are split off first (GradedMonoid.prime_split).
        """
        m = self.monoid
        k = m.key(e)
        got = self._length_memo.get(k)
        if got is None:
            n, rest = m.prime_split(e)
            if n:
                got = tuple(n + length for length in self.lengths(rest))
            else:
                got = self._small_side_lengths(e)
            self._length_memo[k] = got
        return got

    def _small_side_lengths(self, e: E) -> tuple[int, ...]:
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            return (0,)
        half = total // 2
        small = self._small_divisors(e)
        if not small:
            return (1,)
        tick = self.budget.tick
        ekey = m.key(e)
        atoms = sorted(((a, g) for a, g in small if self.is_atom(a)),
                       key=lambda pair: pair[1])
        grades = [g for _a, g in atoms]
        found = set()
        # key -> [product, grade, least index of a last factor, colon(e, p)];
        # a product extends only by atoms at or after its last factor, which
        # still reaches every sorted factorization.  Atoms run by grade, and
        # each product, of one atom or more, costs a node.
        layer = {}
        for i, (a, g) in enumerate(atoms):
            tick()
            layer[m.key(a)] = [a, g, i, m.colon(e, a)]
        layers = []
        while layer:
            layers.append(layer)
            length = len(layers) + 1
            nxt: dict = {}
            for p, gp, first, col in layer.values():
                # the atoms that leave room for one no smaller, then those
                # that close a length; the rest cannot complete
                rest = total - gp
                mid = bisect_right(grades, rest // 2, first)
                lo = bisect_left(grades, rest, mid)
                for i in itertools.chain(range(first, mid), range(
                        lo, bisect_right(grades, rest, lo))):
                    a, ga = atoms[i]
                    g = gp + ga
                    if g == total and length in found:
                        break
                    tick()
                    q = m.product(p, a)
                    kq = m.key(q)
                    if g == total:
                        if kq == ekey:
                            found.add(length)
                    elif kq in nxt:
                        seen = nxt[kq]
                        if seen is not None and i < seen[2]:
                            seen[2] = i
                    else:
                        # colon(e, q) = colon(colon(e, p), a), and q divides
                        # e when q times it is e
                        c = m.colon(col, a)
                        divides = c is not None and m.grade(c) == total - g \
                            and m.key(m.product(q, c)) == ekey
                        nxt[kq] = [q, g, i, c] if divides else None
            layer = {kq: v for kq, v in nxt.items() if v is not None}
        for length, layer in enumerate(layers, 2):
            if length in found:
                continue
            # a small last atom was found above; look for a large one
            ps = [(p, col) for p, gp, _i, col in layer.values()
                  if total - gp > half]
            if any(self.is_atom(col) for _p, col in ps) or any(
                    self.is_atom(r) for p, _col in ps
                    for r in m.cofactors(e, p, self.budget)):
                found.add(length)
        return tuple(sorted(found))


def sumset_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(SumsetMonoid(), budget=budget)


def monomial_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(MonomialMonoid(), budget=budget)


# ---------------------------------------------------------------------------
# Full sumset monoid: every set is min(A) copies of {1} plus its zero-based
# part, and every atom is either {1} or contains 0.


def find_split(a: NatSet, budget: Optional[Budget] = None
               ) -> Optional[tuple[NatSet, NatSet]]:
    """Some split a = b + c into nonunits of the full monoid, or None.

    None means a is an atom.  For min(a) >= 1 no search runs: a = {1} + (a-1),
    and only {1} itself is an atom.  Like FactorEngine.find_split, raises
    ValueError on the identity {0}.
    """
    if a.min:
        rest = a.shifted(-1)
        return None if rest.max == 0 else (NatSet([1]), rest)
    return sumset_engine(budget).find_split(a)


def is_atom(a: NatSet, budget: Optional[Budget] = None) -> bool:
    """Atom test in the full monoid of finite nonempty subsets of N."""
    if a.min:
        return find_split(a) is None
    return sumset_engine(budget).is_atom(a)


def lengths(a: NatSet, budget: Optional[Budget] = None) -> tuple[int, ...]:
    """Factorization lengths in the full monoid of finite nonempty subsets."""
    shift, a0 = natset.reduce_shift(a)
    return tuple(shift + l for l in sumset_engine(budget).lengths(a0))
