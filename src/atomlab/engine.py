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
The four divisor and cofactor searches, over sets and over ideals, run one
walk (_walk): a preorder DFS that holds one lazy child iterator per level,
so no search recurses and a deep one holds only the nodes on its path.

Every search counts its nodes into the engine's Budget, which may bound
them and the wall clock.  Exhaustion raises SearchBudgetExceeded so callers
can report "inconclusive" rather than mistaking a truncated scan for a
completed one.  Streams have a fixed order, so output is deterministic.

Both adapters split off prime atoms inside the adapter, so one engine
answers every question in each monoid: X and Y for ideals, and {1} for
sets, where a set without 0 is min(A) copies of {1} plus its 0-set.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Optional, Protocol, TypeVar

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


def _walk(target: int, lows: list[int], root: tuple, children: Callable,
          tick: Callable) -> Iterator[tuple]:
    """Preorder DFS from root, holding one lazy child iterator per level.

    A node is a tuple (reach, idx, ...): reach is the mask of what the node
    covers, and its descendants only add candidates from index idx on, none
    of which reaches an element below lows[idx].  Each node visited ticks.
    A node whose reach covers target is yielded and then expanded; a node
    that misses an element below lows[idx] is dropped with its subtree,
    since no descendant can cover that element.  children(node) yields the
    children of a node in order, and is advanced one child at a time; a
    node at the last index, past every candidate, has none, and a search
    may give that index to any node it knows to be childless.
    """
    last = len(lows) - 1
    stack = []
    level = iter((root,))
    while True:
        for node in level:
            tick()
            miss = target & ~node[0]
            if not miss:
                yield node
            elif miss & -miss < lows[node[1]]:
                continue
            if node[1] < last:
                stack.append(level)
                level = children(node)
                break
        else:
            if not stack:
                return
            level = stack.pop()


class SumsetMonoid:
    """Sumset monoid of the finite nonempty subsets of N.

    {1} is a prime atom that cancels and every other atom contains 0, so a
    set is min(A) copies of {1} plus its 0-set core, A - min(A).
    """

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
        """Minima add, so the divisors of {u} + core are {i} + B, i in
        [0, u] and B = {0}, the core or a core divisor, of grade
        i + max(B).  The {i} come first, before the core is searched."""
        u, cap = e.min, e.max // 2
        if not u:
            return _sumset_divisors(natset._mask_of(e), cap, budget.tick)
        return ((b.shifted(i) if i else b, g + i)
                for b, g in _core_divisors(e, cap, budget.tick)
                for i in range(max(0, 1 - g), min(u, cap - g) + 1))

    def prime_split(self, e: NatSet) -> tuple[int, NatSet]:
        return e.min, (e.shifted(-e.min) if e.min else e)

    def cofactors(self, whole: NatSet, part: NatSet,
                  budget: Budget) -> Iterator[NatSet]:
        """R is {u - i} plus a cofactor of the core of part inside that of
        whole, u and i being their minima."""
        if not whole.min:
            return _sumset_cofactors(natset._mask_of(whole),
                                     natset._mask_of(part), budget.tick)
        u, core = self.prime_split(whole)
        i, pcore = self.prime_split(part)
        rs = [_ZERO] if pcore == core else self.cofactors(core, pcore, budget)
        return (r.shifted(u - i) for r in rs)


_ZERO = NatSet([0])


def _core_divisors(e: NatSet, cap: int, tick: Callable
                   ) -> Iterator[tuple[NatSet, int]]:
    """{0}, the 0-set core e - min(e) and its divisors of grade at most cap,
    with their grades; the core is formed only when they are reached."""
    yield _ZERO, 0
    core = e.shifted(-e.min)
    if core.max:
        yield core, core.max
        yield from _sumset_divisors(natset._mask_of(core),
                                    min(cap, core.max - 1), tick)


def _sumset_divisors(amask: int, cap: int, tick: Callable
                     ) -> Iterator[tuple[NatSet, int]]:
    """Every proper divisor B of A with max(B) <= cap, with max(B).

    A proper divisor is a set B containing 0, distinct from {0}, such that
    B + C = A for some C containing 0 with C != {0}; cap must lie below
    max(A).  Some side of any split has max at most max(A)/2, so with that
    cap these are the small sides of all splits.  The small divisors of
    {u} + A, u > 0, need the divisors of A up to (u + max(A))/2 instead.
    Sets are bitmasks here (bit e set when e is in the set): a sumset is an
    OR of shifted masks, and the colon set of B in A is the AND of A >> b
    over b in B, truncated to [0, max(A) - max(B)].

    Divisors come grouped by max(B) = mb ascending.  The cofactor maximum is
    mc = max(A) - mb, so every element x of B has x + mc in A.  Within a
    group, B grows from {0, mb} by such x in increasing order, and its
    maximal cofactor col, the colon set of B in A, shrinks: a node's reach
    is B + col, and B divides A exactly when reach is A.  A later x and any
    cofactor element only reach elements from x on, so an element of A
    missed below the next x stays missed (see _walk).  A node's reach
    shifts the side with fewer elements, B or col, since B may grow far
    past its colon.

    Every B of a group lies in {0, mb} and the free x, and its colon in
    that of {0, mb}, so B + col lies in their sum.  A group whose sum
    misses an element of A holds no divisor and is not walked; it costs
    one node, as the root of its walk would.
    """
    m = amask.bit_length() - 1
    mb, free = 0, []

    def children(node):
        # mb and free are those of the group being walked
        _reach, idx, elems, col, bmask = node
        for i in range(idx, len(free)):
            x = free[i]
            col2 = col & amask >> x
            elems2 = elems + (x,)
            bmask2 = bmask | 1 << x
            # B + col2, shifting by each element of the smaller side
            if col2.bit_count() > len(elems2):
                reach = col2 << mb
                for b in elems2:
                    reach |= col2 << b
            else:
                reach = 0
                for c in natset._bits(col2):
                    reach |= bmask2 << c
            yield reach, i + 1, elems2, col2, bmask2

    for mb in natset._bits(amask & (2 << cap) - 2):
        mc = m - mb
        if not amask >> mc & 1:
            continue
        col = amask & amask >> mb & (2 << mc) - 1
        # the x between 0 and mb with x + mc in A
        free = list(natset._bits(amask & amask >> mc & (1 << mb) - 2))
        # ({0, mb} + free) + col, one shift per child of the root
        cover = root = col | col << mb
        for x in free:
            cover |= col << x
        if amask & ~cover:
            tick()
            continue
        lows = [1 << x for x in free] + [2 << m]
        for node in _walk(amask, lows, (root, 0, (0,), col, 1 | 1 << mb),
                          children, tick):
            yield NatSet._from_sorted(node[2] + (mb,)), mb


def _sumset_cofactors(amask: int, pmask: int, tick: Callable
                      ) -> Iterator[NatSet]:
    """Every R containing 0 with P + R = A, once.

    max(R) = max(A) - max(P), and R lies in the colon set of P in A.  The
    elements between 0 and max(R) join R in increasing order, and a node's
    reach P + R only grows; x + P reaches elements from x on, so an element
    of A that R + P misses below the next candidate kills the branch.
    """
    top = amask.bit_length() - pmask.bit_length()
    if top < 0:
        return
    col = (2 << top) - 1
    for b in natset._bits(pmask):
        col &= amask >> b
    if not col & 1 or not col >> top & 1:
        return
    free = list(natset._bits(col & (1 << top) - 2))
    lows = [1 << x for x in free] + [1 << amask.bit_length()]

    def children(node):
        reach, idx, rmask = node
        for i in range(idx, len(free)):
            x = free[i]
            yield reach | pmask << x, i + 1, rmask | 1 << x

    for node in _walk(amask, lows, (pmask | pmask << top, 0, 1 | 1 << top),
                      children, tick):
        yield NatSet._from_sorted(tuple(natset._bits(node[2])))


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

    Four sound filters shrink the frame and point sets.  The grade identity
    mdeg(e) = mdeg(factor) + mdeg(cofactor) with mdeg <= min(pure exponents)
    forces min(ax, ay) + min(bx, by) >= mdeg(e), so every generator degree
    of the factor is at least lo = mdeg(e) - min(bx, by); with the cap this
    leaves one range of ay for each ax (see _frame_ays).  Each generator of
    a factor stays in e after multiplying by the partner's pure powers, so
    the corners X^ax Y^by and X^bx Y^ay lie in e, and a point (c, g) of a
    frame lies in both (e : X^bx) and (e : Y^by).  Those colons are ideals,
    so row g of their intersection is the columns from max(start[g] - bx,
    start[g + by]) on, start[y] being the first column of row y of e.
    Last, a factor B of the frame lies in the ideal U of the frame and its
    points, and its cofactor (e : B) in cof = (e : X^ax) & (e : Y^ay), so
    e = B * (e : B) lies in U * cof; a frame whose U * cof misses a
    generator of e holds no factor, and is not walked (see _frame_dfs).

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
            # row by row
            rows = []
            for g in range(1, ay):
                c0 = max(1, lo - g, starts[g] - bx, starts[g + by])
                if c0 < ax:
                    rows.append((g, c0))
            yield from _frame_dfs(board, ax, ay, rows, tick)


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


def _numbered(rows: list[tuple[int, int]], cmax: int, board: _Board
              ) -> tuple[list[int], list[int], list[int]]:
    """Number the points of rows (g, c0), the (c, g) with c0 <= c < cmax.

    Rows run by increasing g, so the numbers follow (g, c) order, and point
    (c, g) of row k is number firsts[k] + c.  lefts[k] is the least column
    of the rows after row k, so that point has a point above and left of
    it exactly when c > lefts[k].  lows[n] is bit 0 of the row of point n,
    and of row py + 1 for n past the last point, since a point reaches no
    row below its own.
    """
    w = board.stride
    firsts, lows = [], []
    for g, c0 in rows:
        firsts.append(len(lows) - c0)
        lows += [1 << g * w] * (cmax - c0)
    lows.append(1 << (board.py + 1) * w)
    lefts, least = [], cmax
    for _g, c0 in reversed(rows):
        lefts.append(least)
        least = min(least, c0)
    lefts.reverse()
    return firsts, lefts, lows


def _frame_dfs(board: _Board, ax: int, ay: int, rows, tick
               ) -> Iterator[tuple[MonIdeal, int]]:
    """Preorder DFS over antichains B = frame + points by increasing Y.

    The points are those of rows (g, c0), by increasing g: (c, g) with
    c0 <= c < ax (see _numbered).  A child of B adds a point above and left
    of its last generator: one of a later row, left of that generator's
    column.  A node whose last generator has no such point has no children,
    and takes the last number.  A node keeps each generator (sx, sy) of B
    as its shift sy*stride + sx, (0, ay) first and then by decreasing x.
    Its reach is the mask of B * cof, cof the mask of (e : B): the OR of
    cof shifted by each generator.  Points still to come lie at or above
    the next point's row and only shrink cof, so a generator of e missed
    below that row kills the branch (see _walk); reach covering the
    generators of e emits B with its grade, min(ax, ay, c + g over points).

    Before the walk, one product bound: B lies in the ideal U of the frame
    and all its points, and (e : B) in the root's cof, so B * (e : B) lies
    in U * cof.  The points of a row (g, c0) lie in the ideal of its first
    point, so U * cof has the mask of cof shifted by (ax, 0), (0, ay) and
    each (c0, g).  When that mask misses a generator of e, no B of the
    frame divides e, and the frame is not walked.
    """
    w, bottom, colon = board.stride, (0, ay), board.colon_mask
    cof = colon(ax, 0) & colon(0, ay)
    cover = reach = cof << ax | cof << ay * w
    for g, c0 in rows:
        cover |= cof << g * w + c0
    if board.gens & ~cover:
        return
    firsts, lefts, lows = _numbered(rows, ax, board)
    last = len(lows) - 1
    # the colon mask of each point once it is reached (never 0: the last
    # column of the box is in every colon)
    colons = [0] * last

    def children(node):
        _reach, _idx, sh, cof, deg, row = node
        last_x = sh[-1] % w
        for k in range(row + 1, len(rows)):
            g, c0 = rows[k]
            first, left = firsts[k], lefts[k]
            for c in range(c0, last_x):
                cm = colons[first + c]
                if not cm:
                    cm = colons[first + c] = colon(c, g)
                cof2 = cof & cm
                sh2 = sh + (g * w + c,)
                reach = 0
                for s in sh2:
                    reach |= cof2 << s
                yield (reach, first + c + 1 if c > left else last, sh2, cof2,
                       deg if deg <= c + g else c + g, k)

    root = (reach, 0, (ay * w, ax), cof, min(ax, ay), -1)
    for node in _walk(board.gens, lows, root, children, tick):
        yield MonIdeal._from_antichain(
            tuple((s % w, s // w) for s in node[2][1:]) + (bottom,)), node[4]


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
    kills the branch; reach covering the generators of e yields r.
    """
    px, py, w = board.px, board.py, board.stride
    bx, by = px - p.max_x, py - p.max_y
    col, pmask = board.content, 0
    for c, g in p.gens:
        col &= board.colon_mask(c, g)
        pmask |= (board.row >> c << c) * board.rows >> g * w << g * w
    if not (col >> bx & 1 and col >> by * w & 1):
        return
    rows = []
    for g in range(1, by):
        row = col >> g * w & board.row
        if row:
            c0 = max(1, (row & -row).bit_length() - 1, grade - g)
            if c0 < bx:
                rows.append((g, c0))
    bottom = (0, by)
    firsts, lefts, lows = _numbered(rows, bx, board)
    last = len(lows) - 1

    def children(node):
        reach, _idx, acc, row = node
        last_x = acc[-1][0]
        for k in range(row + 1, len(rows)):
            g, c0 = rows[k]
            first, left = firsts[k], lefts[k]
            for c in range(c0, last_x):
                yield (reach | pmask << g * w + c,
                       first + c + 1 if c > left else last,
                       acc + ((c, g),), k)

    root = (pmask << bx | pmask << by * w, 0, ((bx, 0),), -1)
    for node in _walk(board.gens, lows, root, children, tick):
        yield MonIdeal._from_antichain(node[2] + (bottom,))


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

