"""Generic factorization search over graded reduced monoids.

The engine sees a monoid through a small adapter interface: product, colon
(maximal cofactor), an additive grade that is zero exactly on the identity,
a canonical sort key, the identity, a split of prime atoms with the shift
that multiplies them back, and the view of a prime-free core as int masks:
a set's _SetMask or an ideal's _Board.  A divisor a of e has maximal
cofactor colon(e, a) with a * colon(e, a) = e.  The monoids are not
cancellative, so a divisor may have many cofactors.

Every question starts from the small divisors of e, those of at most half
its grade, as records: a set's element tuple, or an ideal's generator
shifts on its board.  Some side of every split is one, so split lists pair
each with its cofactors, and lengths multiplies the small atoms in one
pass in grade order, whose products sieve them (FactorEngine.lengths).
Elements are formed only for answers: the pairs of split, the witness of
find_split, and the colons and cofactors that lengths tests with is_atom.
The divisor and cofactor searches are methods of the views, and each
view runs both on one walk: a set's group walk (_group_dfs) or a board's
frame walk (_frame_dfs), which cuts a partner from a mask as the divisor
grows; a cofactor search holds its partner fixed.  Both walks run on
_walk: a preorder DFS that holds one lazy child iterator per level, so no
search recurses and a deep one holds only the nodes on its path.  A
frame's colon masks go with it, and a board keeps only the colons of the
generator shifts of the records it is given (_Board).

Every search counts its nodes into the engine's Budget, which may bound
them and the wall clock.  Exhaustion raises SearchBudgetExceeded so callers
can report "inconclusive" rather than mistaking a truncated scan for a
completed one.  Streams have a fixed order, so output is deterministic.

X and Y are prime atoms of the ideal monoid, and {1} of the set monoid,
so an element is X^u Y^v times a core (a set is u = 0 and v = min), and
the prime part is handled once, here, for both monoids: the divisor
stream (_candidate_divisors, each adapter's candidate_divisors) searches
only the core, on its view, and yields the records shifted by the prime
part, with that view, which the cofactor rule (FactorEngine._cofactors)
and the lengths pass share, so a query builds one view of its core; and
lengths add u + v.  A view refuses a core too large to lay out where it
is built, and each divisor search applies its own grade cap.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Iterable, Iterator, Optional, Protocol, TypeVar

from . import monideal, natset
from .monideal import MonIdeal, UNIT
from .natset import NatSet

__all__ = [
    "Budget",
    "make_budget",
    "DEFAULT_BUDGET_NODES",
    "SearchBudgetExceeded",
    "GradedMonoid",
    "SumsetMonoid",
    "MonomialMonoid",
    "FactorEngine",
    "sumset_engine",
    "monomial_engine",
    "MAX_BOARD_CELLS",
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


# The node cap of every front end unless told otherwise, so an oversized
# target answers "inconclusive" instead of running unattended.
DEFAULT_BUDGET_NODES = 1_000_000


def make_budget(max_nodes: Optional[int] = None,
                max_seconds: Optional[float] = None) -> Budget:
    """The Budget for a node and a time limit, where None or 0 means no cap.

    Raises ValueError for a negative limit.
    """
    return Budget(max_nodes or None, max_seconds or None)


class GradedMonoid(Protocol[E]):
    """What the engine needs from a commutative reduced monoid.

    grade is additive and zero exactly on the identity, the attribute
    identity.  Prime atoms split off: prime_split(e) = (u, v, core) with
    e = shifted(core, u, v), that is X^u Y^v times core, where
    shifted(a, i, j) multiplies a by X^i Y^j (a set has no X, so u = 0,
    and {1} takes the place of Y).  Every factorization of e is u X's,
    v Y's and one of core, so the lengths of e are those of core plus
    u + v.  context(core) is the view of a prime-free core as int masks
    (_CoreView), which searches the core's divisors and cofactors, and on
    which lengths forms and tests its products.  candidate_divisors is the
    engine's _candidate_divisors, bound in the adapter's class body: it
    yields each proper divisor of e of grade at most grade(e) // 2 exactly
    once, as a record (_candidate_divisors), and counts its nodes into the
    given budget.  colon(whole, part), the maximal cofactor, and product
    form and check the split that find_split reports.
    """

    identity: E

    def product(self, a: E, b: E) -> E: ...

    def colon(self, whole: E, part: E) -> Optional[E]: ...

    def grade(self, e: E) -> int: ...

    def key(self, e: E): ...

    def candidate_divisors(self, e: E, budget: Budget) -> Iterator[tuple]: ...

    def prime_split(self, e: E) -> tuple[int, int, E]: ...

    def shifted(self, a: E, i: int, j: int) -> E: ...

    def context(self, e: E) -> _CoreView: ...


class _CoreView(Protocol):
    """One prime-free target e as int masks: its divisor search, the
    products of the lengths pass (FactorEngine.lengths) and the search for
    the cofactors of one.

    divisors(cap, tick) yields each proper divisor of e of grade at most
    cap once, with its grade, as a record: all that product, colon and
    divides read of it.  A mask determines one divisor p of e, or one
    colon (e : p); 0 is none.  grade is the grade of e, whole the mask of
    e, which is also (e : identity), and unit that of the identity.
    product(p, a) is the mask of p * a, or 0 when p * a cannot divide e.
    colon(c, a) is the mask of (c : a), for a colon c.  For q = p * a and
    c = (e : q), divides(p, a, c) tells whether p * (a * c) = e, that is,
    whether q divides e.
    element(mask) forms the element a mask determines, so the divisor of a
    record a is element(product(unit, a)).
    cofactors(p, c, grade, tick) yields each element r with p * r = e
    once, for a proper divisor p, c = (e : p) and grade = grade(e) -
    grade(p).  Both searches tick once per node.
    """

    grade: int
    whole: int
    unit: int

    def divisors(self, cap: int, tick: Callable) -> Iterator[tuple]: ...

    def product(self, p: int, a) -> int: ...

    def colon(self, c: int, a) -> int: ...

    def divides(self, p: int, a, c: int) -> bool: ...

    def element(self, mask: int): ...

    def cofactors(self, p: int, c: int, grade: int, tick: Callable
                  ) -> Iterator: ...


def _walk(target: int, lows: list[int], root: tuple, children: Callable,
          tick: Callable) -> Iterator[tuple]:
    """Preorder DFS from root, holding one lazy child iterator per level,
    under both walks of the views (_group_dfs, _frame_dfs).

    A node is a tuple (reach, idx, ...): reach is the mask of what the node
    covers, and its descendants only add candidates from index idx on, none
    of which reaches an element below lows[idx].  Each node visited ticks.
    A node whose reach covers target is yielded and then expanded; a node
    that misses an element below lows[idx] is dropped with its subtree,
    since no descendant can cover that element.  children(node) yields the
    children of a node in order, and is advanced one child at a time; a
    node at the last index, past every candidate, has none, and a search
    may give that index to any node it knows to be childless.

    A walk whose root is childless, with no candidates at all, visits the
    root alone: it ticks once and yields the root exactly when its reach
    covers target.  So a search that has already shown the root's reach
    covers target builds no walk for it, and ticks once and yields the
    root itself (_SetMask.divisors, _Board.divisors).
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


def _shifted(stream: Iterable[tuple], view: Optional[_CoreView], u: int,
             v: int, cap: int, tick: Callable) -> Iterator[tuple]:
    """(a, g + i + j, view, i, j), standing for X^i Y^j * a, for each (a, g)
    of stream and each i <= u, j <= v that keep the grade within [1, cap].

    A set is u = 0 with j copies of {1}.  Each shift by i + j > 0 costs a
    node, as a searched divisor does.
    """
    for a, g in stream:
        for i in range(u + 1):
            # the j that keep the grade g + i + j within [1, cap]
            for j in range(max(0, 1 - g - i), min(v, cap - g - i) + 1):
                if i or j:
                    tick()
                yield a, g + i + j, view, i, j


def _candidate_divisors(self: GradedMonoid, e: E, budget: Budget
                        ) -> Iterator[tuple]:
    """Each proper divisor of e of at most half its grade, once: the
    candidate_divisors of both adapters, bound in each class body, so that
    each adapter keeps a stream of its own.

    e is X^u Y^v times its core, and generator gcds add, so the divisors
    of e are X^i Y^j, i <= u and j <= v, times the identity, the core or a
    core divisor, as (a, g, view, i, j), X^i Y^j * a of grade g
    (_shifted): a is a core divisor's record on the core's view, or one of
    the heads, the identity and the core, with view None.  The view is
    built only after the heads have been shifted, so they are yielded
    before a core too large to lay out is refused, and never for an
    identity core.  The stream of a prime-free e is the view's divisor
    search, capped by the grade the view carries, so its grade is read
    once, by the view.
    """
    u, v, core = self.prime_split(e)
    tick = budget.tick
    if not (u or v):
        view = self.context(core)
        for a, g in view.divisors(view.grade // 2, tick):
            yield a, g, view, 0, 0
        return
    total = self.grade(core)
    cap = (total + u + v) // 2
    yield from _shifted([(self.identity, 0)], None, u, v, cap, tick)
    if total:
        yield from _shifted([(core, total)], None, u, v, cap, tick)
        view = self.context(core)
        yield from _shifted(view.divisors(cap, tick), view, u, v, cap, tick)


class SumsetMonoid:
    """Sumset monoid of the finite nonempty subsets of N.

    {1} is a prime atom that cancels and every other atom contains 0, so a
    set is min(A) copies of {1} plus its 0-set core, A - min(A), the only
    part searched (_SetMask).  {1} takes the place of Y, and a set has no
    X.
    """

    identity = NatSet([0])
    candidate_divisors = _candidate_divisors

    def product(self, a: NatSet, b: NatSet) -> NatSet:
        return natset.sumset(a, b)

    def colon(self, whole: NatSet, part: NatSet) -> Optional[NatSet]:
        return natset.set_colon(whole, part)

    def grade(self, e: NatSet) -> int:
        return e.max

    def key(self, e: NatSet):
        return e.elements

    def prime_split(self, e: NatSet) -> tuple[int, int, NatSet]:
        v = e.min
        return 0, v, (e.shifted(-v) if v else e)

    def shifted(self, a: NatSet, i: int, j: int) -> NatSet:
        # i is 0: a set has no X
        return a.shifted(j)

    def context(self, e: NatSet) -> _SetMask:
        return _SetMask(e)


class _SetMask:
    """A 0-set E as a bitmask, bit x set when x is in E (see _CoreView).

    The mask indexes bits by element value, so a set whose max exceeds
    natset.SEARCH_LIMIT is a ValueError, raised before the mask is built.
    A divisor's record is its element tuple.  A product is an OR of
    shifts, and a colon set the AND of right shifts, which stops at
    max(E) - max(q) by itself, since E has no element above max(E).
    """

    unit = 1

    def __init__(self, e: NatSet):
        self.grade = top = e.elements[-1]
        if top > natset.SEARCH_LIMIT:
            raise ValueError(f"factor search supports max element <= "
                             f"{natset.SEARCH_LIMIT}, got {top}")
        whole = 0
        for x in e.elements:
            whole |= 1 << x
        self.whole = whole

    def product(self, p: int, a: tuple[int, ...]) -> int:
        # max(p) + max(a) > max(E)
        if p.bit_length() + a[-1] > self.grade + 1:
            return 0
        q = 0
        for b in a:
            q |= p << b
        return q

    def colon(self, c: int, a: tuple[int, ...]) -> int:
        out = c
        for b in a:
            out &= c >> b
        return out

    def divides(self, p: int, a: tuple[int, ...], c: int) -> bool:
        ac = cover = 0
        for b in a:
            ac |= c << b
        for x in natset._bits(p):
            cover |= ac << x
        return cover == self.whole

    def element(self, mask: int) -> NatSet:
        return NatSet._from_sorted(tuple(natset._bits(mask)))

    def divisors(self, cap: int, tick: Callable
                 ) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every proper divisor B of E with max(B) <= cap, as its element
        tuple, with max(B).

        A proper divisor is a set B containing 0, distinct from {0}, such
        that B + C = E for some C containing 0 with C != {0}, so max(B) <
        max(E) whatever the cap.  Some side of any split has max at most
        max(E)/2, so with that cap these are the small sides of all splits.
        The small divisors of {u} + E, u > 0, need the divisors of E up to
        (u + max(E))/2 instead.

        Divisors come grouped by max(B) = mb ascending, one group walk
        each (_group_dfs).  The cofactor maximum is mc = max(E) - mb, so B
        is {0, mb} and some free x between them with x + mc in E.

        Every B of a group lies in {0, mb} and the free x, and its colon in
        that of {0, mb}, so B + col lies in their sum.  A group whose sum
        misses an element of E holds no divisor and is not walked; it costs
        one node, as the root of its walk would.  A group without free
        elements holds only its root {0, mb}, whose reach is that sum, so
        one that passes costs one node and yields {0, mb} with no walk
        built, as its walk would (see _walk).
        """
        amask, top = self.whole, self.grade
        if cap >= top:
            cap = top - 1
        # the elements of E in [1, cap]
        for mb in natset._bits(amask & ~1 & (1 << cap + 1) - 1):
            mc = top - mb
            if not amask >> mc & 1:
                continue
            col = amask & amask >> mb & (2 << mc) - 1
            # the x between 0 and mb with x + mc in E
            free = list(natset._bits(amask & amask >> mc & (1 << mb) - 2))
            # ({0, mb} + free) + col, one shift per child of the root
            cover = col | col << mb
            for x in free:
                cover |= col << x
            if amask & ~cover:
                tick()
                continue
            if not free:
                # the root alone, whose reach is the cover
                tick()
                yield (0, mb), mb
                continue
            for b in _group_dfs(self, mb, free, col, amask, tick):
                yield b, mb

    def cofactors(self, p: int, c: int, grade: int, tick: Callable
                  ) -> Iterator[NatSet]:
        """Every R containing 0 with P + R = E, once, for the proper 0-set
        divisor P of mask p, with colon set c and grade = max(E) - max(P).

        max(R) = grade, and R lies in c, which holds 0 and grade, so the
        search is the group walk of max grade (_group_dfs) over the
        elements of c between them, with the partner held at P.
        """
        free = list(natset._bits(c & (1 << grade) - 2))
        return map(NatSet._from_sorted,
                   _group_dfs(self, grade, free, p, -1, tick))


def _group_dfs(view: _SetMask, mb: int, free: list[int], col: int, src: int,
               tick: Callable) -> Iterator[tuple[int, ...]]:
    """Preorder DFS over the sets B = {0, mb} + S, S among the free x in
    increasing order, each with a partner: col at the root, cut to
    partner & (src >> x) by each x that joins B.  _SetMask.divisors gives
    the colon set of {0, mb} in E and E, so the partner of B is its colon
    set; _SetMask.cofactors gives a divisor P and -1, so it stays P.

    A node's reach is B + partner, and B is yielded, as its element tuple,
    when that is E.  A later x and any partner element only reach elements
    from x on, so an element of E missed below the next x stays missed
    (see _walk).  An x that leaves the partner unchanged adds one shift to
    its parent's reach; otherwise the reach shifts the side with fewer
    elements, B or the partner, since B may grow far past its colon.
    """
    lows = [1 << x for x in free] + [2 << view.grade]

    def children(node):
        reach, idx, elems, col, bmask = node
        for i in range(idx, len(free)):
            x = free[i]
            col2 = col & src >> x
            elems2 = elems + (x,)
            bmask2 = bmask | 1 << x
            if col2 == col:
                reach2 = reach | col << x
            elif col2.bit_count() > len(elems2):
                reach2 = col2 << mb
                for b in elems2:
                    reach2 |= col2 << b
            else:
                reach2 = 0
                for c in natset._bits(col2):
                    reach2 |= bmask2 << c
            yield reach2, i + 1, elems2, col2, bmask2

    root = (col | col << mb, 0, (0,), col, 1 | 1 << mb)
    for node in _walk(view.whole, lows, root, children, tick):
        yield node[2] + (mb,)


class MonomialMonoid:
    """Multiplicative monoid of nonzero monomial ideals in two variables.

    X and Y are prime atoms that cancel and every other atom is gcd-free,
    so an ideal is X^u Y^v, (u, v) its generator gcd, times its gcd-free
    core, the only part searched (_Board).
    """

    identity = UNIT
    candidate_divisors = _candidate_divisors

    def product(self, a: MonIdeal, b: MonIdeal) -> MonIdeal:
        return monideal.product(a, b)

    def colon(self, whole: MonIdeal, part: MonIdeal) -> Optional[MonIdeal]:
        return monideal.colon(whole, part)

    def grade(self, e: MonIdeal) -> int:
        return e.mdeg

    def key(self, e: MonIdeal):
        return e.gens

    def prime_split(self, e: MonIdeal) -> tuple[int, int, MonIdeal]:
        # nothing is searched, so any size is split
        u, v = monideal.generator_gcd(e)
        return u, v, (monideal.shifted(e, -u, -v) if u or v else e)

    def shifted(self, a: MonIdeal, i: int, j: int) -> MonIdeal:
        return monideal.shifted(a, i, j)

    def context(self, e: MonIdeal) -> _Board:
        return _Board(e)


# Boards are dense, so a board of more cells than this, (py+1)(2px+1) (about
# 8 MB per mask), is refused where it is built, before any mask.
MAX_BOARD_CELLS = 1 << 26


class _Board:
    """Bit-board view of an ideal e in its generator bounding box (_CoreView).

    Bit y*stride + x is set when X^x Y^y lies in the ideal, for x <= px and
    y <= py (the largest generator exponents).  For a gcd-free ideal these
    are the pure exponents, and outside the box membership is decided by
    the pure powers alone, so clipping coordinates to the box is exact.
    Colons by a monomial become precomputed masks and intersections become
    single AND operations, which is what makes the frame DFS cheap.  A row
    is a whole number of bytes, stride = 8 * ceil((2px+1) / 8) >= 2px+1
    bits, so that shifting a mask by any (sx, sy) with sx <= px moves bits
    past column px into the padding, never into the next row.  whole is the
    mask of e, unit that of the whole box, holes that of the cells of the
    box outside e, gens that of the ideal's own generators, starts[y] the
    first column of row y in the ideal (px+1 for none), and grade the grade
    mdeg of e, read in the same loop over the generators.  A board of more
    than MAX_BOARD_CELLS cells, (py+1)(2px+1), is a ValueError, raised
    before any mask is built.

    rows (bit 0 of each row) and holes are set up from byte runs, where
    each run of rows between two generators is one row's bytes repeated,
    and unit and whole are a subtraction and an XOR away, so a board costs
    O(generators) Python steps and time linear in its bits.

    The record of a divisor a of e is the tuple of its generator shifts
    y*stride + x, its pure powers Y^ay and X^ax first, (ay*stride, ax,
    points...), as the frame walk holds it (_frame_dfs).  A product q =
    p * a has the pure powers of p times those of a; when they leave the
    box q cannot divide e, and p holds the cells (px - ax, 0) and
    (0, py - ay) exactly when they do not.  Inside the box, the clipped
    mask of q is the OR of p shifted by each generator of a, and it
    determines q.  A colon J of e contains e, so (J : X^c Y^g) contains
    (e : X^c Y^g), colon_mask(c, g), which holds every cell that X^c Y^g
    moves out of the box; the other cells are those of J shifted down-left
    by (c, g).  So (J : X^c Y^g) is that shift, within the box, joined with
    (e : X^c Y^g).  Generators are the cells of a mask whose left and lower
    neighbours are out of it (_corners).

    colon_mask keeps nothing, and the frame walk (_frame_dfs) forms its
    colons from holes as colon_mask does, each kept for its frame.  colon
    keeps the colon mask of each shift it meets, since the divisors of the
    lengths pass share generators.
    """

    def __init__(self, e: MonIdeal):
        gens = e.gens
        px, low = gens[0]
        py = gens[-1][1]
        self.px, self.py = px, py
        n = py + 1
        if n * (2 * px + 1) > MAX_BOARD_CELLS:
            raise ValueError(
                f"factor search supports ideals whose gcd-free core needs "
                f"at most {MAX_BOARD_CELLS} board cells, "
                f"got {n * (2 * px + 1)}")
        # bytes per row, ceil((2px+1) / 8)
        size = px + 4 >> 2
        self.stride = size << 3
        # the shift of the cell (0, py), the top of column 0
        self.top = py * self.stride
        self.row = row = (1 << px + 1) - 1
        self.rows = rows = int.from_bytes(b"\1".ljust(size, b"\0") * n,
                                          "little")
        self.unit = unit = (rows << px + 1) - rows
        # the rows from one generator (x descending, y ascending) up to the
        # next miss the columns left of its x; rows below every generator
        # miss them all
        self.starts = starts = [px + 1] * low
        runs = [row.to_bytes(size, "little") * low]
        x0, y0 = px, low
        # the least degree of a generator, mdeg(e); the sentinel (0, n) lies
        # above (0, py)
        grade = px + low
        for x, y in gens[1:] + ((0, n),):
            starts += [x0] * (y - y0)
            runs.append(((1 << x0) - 1).to_bytes(size, "little") * (y - y0))
            x0, y0 = x, y
            if x + y < grade:
                grade = x + y
        self.grade = grade
        self.holes = holes = int.from_bytes(b"".join(runs), "little")
        self.whole = whole = unit ^ holes
        self.gens = self._corners(whole)
        self._colons: dict[int, int] = {}

    def colon_mask(self, c: int, g: int) -> int:
        """Membership mask of (ideal : X^c Y^g), clipped to the same box."""
        # a cell is out exactly when the cell c columns right of it and g
        # rows up is a hole; past column px that cell is padding, and past
        # row py above the board, where there are no holes, which is right
        # since the generators (px, 0) and (0, py) fill column px and row py
        return self.unit & ~(self.holes >> g * self.stride + c)

    def product(self, p: int, a: tuple) -> int:
        # the cells (px - ax, 0) and (0, py - ay)
        if not (p >> self.px - a[1] & 1 and p >> self.top - a[0] & 1):
            return 0
        q = 0
        for s in a:
            q |= p << s
        return q & self.unit

    def colon(self, c: int, a: tuple) -> int:
        out, w, kept = self.unit, self.stride, self._colons
        for s in a:
            colon = kept.get(s)
            if colon is None:
                colon = kept[s] = self.colon_mask(s % w, s // w)
            out &= c >> s | colon
        return out

    def divides(self, p: int, a: tuple, c: int) -> bool:
        # a * c is clipped before it is shifted by the generators of p, so
        # that no padding bit wraps into the next row
        ac = cover = 0
        for s in a:
            ac |= c << s
        ac &= self.unit
        for s in natset._bits(self._corners(p)):
            cover |= ac << s
        return not self.gens & ~cover

    def _corners(self, mask: int) -> int:
        return mask & ~(mask << 1 | mask << self.stride)

    def element(self, mask: int) -> MonIdeal:
        w = self.stride
        return MonIdeal._from_antichain(tuple(
            [(s % w, s // w) for s in natset._bits(self._corners(mask))]))

    def divisors(self, cap: int, tick: Callable
                 ) -> Iterator[tuple[tuple, int]]:
        """Proper divisors of the gcd-free e of grade at most cap, as records,
        with their grades (none for the unit).

        Frames whose divisors all exceed the cap are not visited, and the
        divisors above it that the other frames hold are dropped.

        Any factor pair of e carries pure powers X^ax, Y^ay and X^bx, Y^by with
        ax + bx = px and ay + by = py, the pure exponents of e, so the search
        runs over frames (ax, ay).  Within a frame, a factor B is the frame
        plus an antichain of interior generators, and its maximal cofactor is
        the colon by its generators; e equals B * cofactor exactly when every
        generator of e lies in the mask of B * cofactor, the OR of the cofactor
        mask shifted by each generator of B.  The DFS threads that coverage
        test through the antichain enumeration (see _frame_dfs).

        Four sound filters shrink the frame and point sets.  The grade
        identity mdeg(e) = mdeg(factor) + mdeg(cofactor) with mdeg <= min(pure
        exponents) forces min(ax, ay) + min(bx, by) >= mdeg(e), so every
        generator degree of the factor is at least lo = mdeg(e) - min(bx, by),
        and a frame holds a divisor within the cap only when lo <= cap.  px
        and py are at least mdeg(e), and min(a, b) + min(c, d) is the least
        of the four sums, so the two tests leave the ax up to px - mdeg(e) +
        cap and, for each, the ay from max(1, mdeg(e) - bx) to py - mdeg(e) +
        min(ax, cap), one range computed by arithmetic.  Each generator of a
        factor stays in e after multiplying by the partner's pure powers, so
        the corners X^ax Y^by and X^bx Y^ay lie in e, and a point (c, g) of a
        frame lies in both (e : X^bx) and (e : Y^by).  Those colons are
        ideals, so row g of their intersection is the columns from c0 =
        max(starts[g] - bx, starts[g + by]) on; such a point has a degree of
        at least lo already, since no member of e has a degree below mdeg(e).
        Last, the product bound: a factor B of the frame lies in the ideal U
        of the frame and its points, and its cofactor (e : B) in cof =
        (e : X^ax) & (e : Y^ay), so e = B * (e : B) lies in U * cof.  The
        points of a row lie in the ideal of its first point (c0, g), so
        U * cof has the mask of cof shifted by (ax, 0), (0, ay) and each
        (c0, g), joined as the rows are found.  A frame whose mask misses a
        generator of e holds no factor, and its walk (_frame_dfs) is never
        built.  A frame without point rows holds only its root, the frame
        <X^ax, Y^ay>, and its U * cof is the root's reach B * (e : B), so
        one that passes the bound is a divisor, its own walk of one node:
        it yields the record (ay*stride, ax) with grade min(ax, ay), within
        the cap, and no walk is built (see _walk).

        Each visited frame costs one search node, so a budget stops a loop over
        many frames even when none of them holds a point.
        """
        total = self.grade
        px, py, w, starts = self.px, self.py, self.stride, self.starts
        unit, holes, gens = self.unit, self.holes, self.gens
        # a proper divisor has a grade below total
        cap = min(cap, total - 1)
        top = py - total + 1
        for ax in range(1, px - total + cap + 1):
            bx = px - ax
            # ay from max(1, total - bx) to py - total + min(ax, cap)
            for ay in range(total - bx if total - bx > 1 else 1,
                            top + (ax if ax < cap else cap)):
                by = py - ay
                tick()
                if ax < starts[by] or bx < starts[ay]:
                    continue
                # colon_mask(ax, 0) & colon_mask(0, ay), and the mask of
                # U * cof, which each row's first point joins
                cof = unit & ~(holes >> ax | holes >> ay * w)
                cover = cof << ax | cof << ay * w
                # the points (c, g), 1 <= g < ay, row by row: row g of
                # (e : X^bx) & (e : Y^by) from c0 = max(starts[g] - bx,
                # starts[g + by]) >= 1, as g + by < py, up to ax - 1
                rows = []
                for g in range(1, ay):
                    c0 = starts[g] - bx
                    c = starts[g + by]
                    if c > c0:
                        c0 = c
                    if c0 < ax:
                        rows.append((g, c0))
                        cover |= cof << g * w + c0
                if gens & ~cover:
                    continue
                if not rows:
                    # the root alone, whose reach is the cover
                    tick()
                    grade = ax if ax < ay else ay
                    if grade <= cap:
                        yield (ay * w, ax), grade
                    continue
                for d, grade in _frame_dfs(self, ax, ay, rows, cof, holes,
                                           tick):
                    if grade <= cap:
                        yield d, grade

    def cofactors(self, p: int, c: int, grade: int, tick: Callable
                  ) -> Iterator[MonIdeal]:
        """Every r with p * r = e, for a gcd-free proper divisor p of mask
        p, with colon mask c = (e : p) and grade = mdeg(e) - mdeg(p).

        Pure powers add, so r has the frame (bx, by) = (px - p.max_x,
        py - p.max_y): p.max_x is the first cell of p's row 0, and p.max_y
        the row of the first cell of its column 0.  Every generator of r
        lies in c with a degree of at least grade, the grade of r.  The
        search is the frame walk of the divisors (_frame_dfs) with the
        partner held at p, by no holes: every colon is the whole box.
        """
        px, py, w = self.px, self.py, self.stride
        column = p & self.rows
        bx = px + 1 - (p & -p).bit_length()
        by = py - ((column & -column).bit_length() - 1) // w
        rows = []
        for g in range(1, by):
            # c holds e, so every row holds column px
            row = c >> g * w & self.row
            c0 = max(1, (row & -row).bit_length() - 1, grade - g)
            if c0 < bx:
                rows.append((g, c0))
        for r, _g in _frame_dfs(self, bx, by, rows, p, 0, tick):
            yield MonIdeal._from_antichain(
                tuple([(s % w, s // w) for s in r[1:]]) + ((0, by),))


def _frame_dfs(board: _Board, ax: int, ay: int, rows, cof: int, holes: int,
               tick: Callable) -> Iterator[tuple[tuple, int]]:
    """Preorder DFS over antichains B = frame + points by increasing Y, each
    with a partner: cof at the root, cut by each point (c, g) that joins B
    to partner & unit & ~(holes >> g*stride + c), as in colon_mask.
    _Board.divisors gives (e : X^ax) & (e : Y^ay) and e's holes, so the
    partner of B is (e : B); _Board.cofactors gives a divisor p and no
    holes, so the partner stays p.

    The points are those of rows (g, c0), by increasing g: (c, g) with
    c0 <= c < ax, numbered in (g, c) order, so that point (c, g) of row k
    is number firsts[k] + c.  A child of B adds a point above and left of
    its last generator: one of a later row, left of that generator's
    column.  lefts[k] is the least column of the rows after row k, so a
    node whose last generator (c, g) of row k has c <= lefts[k] has no
    children, and takes the last number.  A node keeps each generator
    (sx, sy) of B as its shift sy*stride + sx, (0, ay) first and then by
    decreasing x.  Its reach is the mask of B * partner: the OR of the
    partner shifted by each generator, so a point that leaves the partner
    unchanged adds one shift to its parent's reach.  Points still to come
    lie at or above the next point's row and only shrink the partner, so a
    generator of e missed below that row kills the branch (see _walk;
    lows[n] is bit 0 of the row of point n, and of row py + 1 past the
    last point); reach covering the generators of e emits B's shifts, its
    record (_Board), with its grade, min(ax, ay, c + g over points).

    The walk holds no bound of its own: _Board.divisors builds it only for
    a frame that passes the product bound and has point rows, since a
    frame without them is one node, the root, that the bound has shown to
    divide e, and which _Board.divisors yields itself.  A cofactor search,
    whose rows hold (e : p), would never fail the bound, and builds the
    walk of its one frame with or without rows.  A point's colon is formed
    when the point is first reached and dropped with the frame.
    """
    w, unit = board.stride, board.unit
    firsts, lows, lefts, least = [], [], [], ax
    for g, c0 in rows:
        firsts.append(len(lows) - c0)
        lows += [1 << g * w] * (ax - c0)
    lows.append(1 << (board.py + 1) * w)
    for _g, c0 in reversed(rows):
        lefts.append(least)
        least = min(least, c0)
    lefts.reverse()
    last = len(lows) - 1
    # the colon mask of each point once it is reached (never 0: the last
    # column of the box is in every colon)
    colons = [0] * last

    def children(node):
        reach, _idx, sh, cof, deg, row = node
        last_x = sh[-1] % w
        for k in range(row + 1, len(rows)):
            g, c0 = rows[k]
            first, left = firsts[k], lefts[k]
            for c in range(c0, last_x):
                s = g * w + c
                cm = colons[first + c]
                if not cm:
                    cm = colons[first + c] = unit & ~(holes >> s)
                cof2 = cof & cm
                sh2 = sh + (s,)
                if cof2 == cof:
                    reach2 = reach | cof << s
                else:
                    reach2 = 0
                    for t in sh2:
                        reach2 |= cof2 << t
                yield (reach2, first + c + 1 if c > left else last, sh2,
                       cof2, deg if deg <= c + g else c + g, k)

    root = (cof << ax | cof << ay * w, 0, (ay * w, ax), cof, min(ax, ay),
            -1)
    for node in _walk(board.gens, lows, root, children, tick):
        yield node[2], node[4]


class FactorEngine:
    """Split, atom and length queries for one monoid.

    Each engine owns one budget; create a fresh engine to search under
    different budgets.  Without a budget the engine counts into a Budget of
    its own that sets no limit.  An engine retains, per element, the lengths
    that lengths found and the small divisors that split or lengths
    searched.  lengths tests its small divisors for atoms on its own
    products, and its colons and cofactors with is_atom, each once per
    call, keeping those answers only for the call.  A bare is_atom or
    find_split retains nothing.
    """

    def __init__(self, monoid: GradedMonoid, budget: Optional[Budget] = None):
        self.monoid = monoid
        self.budget = Budget() if budget is None else budget
        self._identity_key = monoid.key(monoid.identity)
        self._small_memo: dict = {}
        self._length_memo: dict = {}

    def _small_divisors(self, e: E) -> list[tuple]:
        """The proper divisors of e of at most half its grade, as records.

        Some side of every split, and every atom of a factorization but the
        largest, is among them.  Kept per element, in stream order, with the
        view of e's core that the stream (_candidate_divisors) built.
        """
        m = self.monoid
        k = m.key(e)
        got = self._small_memo.get(k)
        if got is None:
            got = list(m.candidate_divisors(e, self.budget))
            self._small_memo[k] = got
        return got

    def _element(self, divisor: tuple) -> E:
        # a head of the stream is an element; a record is formed from its mask
        a, _g, view, i, j = divisor
        if view is not None:
            a = view.element(view.product(view.unit, a))
        return self.monoid.shifted(a, i, j) if i or j else a

    def find_split(self, e: E) -> Optional[tuple[E, E]]:
        """Some factorization e = a * b into nonunits, or None for atoms."""
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            raise ValueError("the identity is not searched for splits")
        # some side of any split has at most half the grade
        first = next(m.candidate_divisors(e, self.budget), None)
        if first is None:
            return None
        a = self._element(first)
        self.budget.tick()
        col = m.colon(e, a)
        if col is None or m.key(m.product(a, col)) != m.key(e):
            raise AssertionError("stream produced a non-divisor")
        return a, col

    def is_atom(self, e: E) -> bool:
        """True when e is no identity and no product of two nonunits.

        Nothing is kept (see FactorEngine) and no element is formed.  The
        key is read only when the divisor stream is empty, to tell an atom
        from the identity.
        """
        m = self.monoid
        return next(m.candidate_divisors(e, self.budget), None) is None \
            and m.key(e) != self._identity_key

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
        pairs = []
        for a, b in self._cofactors(e, self._small_divisors(e)):
            if m.key(b) >= m.key(a):
                pairs.append((a, b))
            elif 2 * m.grade(a) < total:
                pairs.append((b, a))
        pairs.sort(key=lambda p: (m.key(p[0]), m.key(p[1])))
        return pairs

    def _cofactors(self, e: E, divisors: Iterable[tuple]
                   ) -> Iterator[tuple[E, E]]:
        """Each (a, r) with a * r = e, for each proper divisor a of e in
        divisors, as e's divisor stream yields it, and each such r once.

        Prime atoms cancel, so for e = X^u Y^v * core and a = X^i Y^j * c,
        r is X^(u-i) Y^(v-j) times a cofactor of c inside core: core itself
        when c is the identity, the identity when c is core, and otherwise
        one that the view of core finds (_CoreView.cofactors), the view that
        c's record comes with.  e is split once, and no view is built.
        """
        m = self.monoid
        u, v, core = m.prime_split(e)
        for divisor in divisors:
            c, g, view, i, j = divisor
            if view is not None:
                rs = view.cofactors(view.product(view.unit, c),
                                    view.colon(view.whole, c),
                                    view.grade - (g - i - j), self.budget.tick)
            elif g == i + j:
                # c is the identity
                rs = [core]
            else:
                rs = [m.identity]
            a = self._element(divisor)
            for r in rs:
                yield a, (m.shifted(r, u - i, v - j) if u - i or v - j
                          else r)

    def lengths(self, e: E) -> tuple[int, ...]:
        """Sorted set of factorization lengths of e (identity gives {0}).

        Prime atoms, which every factorization holds, are split off first
        (GradedMonoid.prime_split), and an element without small divisors,
        of at most half its grade, is an atom, of length 1.  Otherwise one
        pass over the small divisors' records in grade order, on the view
        their stream built, keeps each product of small atoms once: its
        mask, its colon (e : p) and its lengths as bits.  A divisor d costs
        one node, its own product unit * d, and is an atom exactly when
        that mask is no product yet.  A new atom a extends every product p
        formed so far, its own included, in ascending grade, when
        gp + 2 * grade(a) <= grade(e), which leaves room for a and one more
        atom no smaller; each product formed costs a node, and
        colon(e, p * a) is colon(colon(e, p), a).

        Sort a factorization a_1 <= ... <= a_k, k >= 2, by grade and then by
        stream order.  The first k - 1 are small atoms, and each prefix step
        has gp + 2 * grade(a_j+1) <= gp + grade(a_j+1) + grade(a_k) <=
        grade(e), so the pass forms their product with bit k - 1.  Within
        a's pass a product is visited after every product it gains lengths
        from, as grades ascend; atoms earlier than a never see the lengths
        a product gains later, which is exactly the sorted-order rule.
        After the pass, each product p tries as its last atom the small
        atoms of grade grade(e) - gp, until all its lengths are found; then
        the maximal cofactor colon(e, p) of each product with a large rest;
        then, for lengths still open, all cofactors of p, on the same view.
        An element among those colons and cofactors is tested for an atom
        once per call.

        The sieve is exact.  Let d be a small divisor that is not an atom,
        a product of atoms a_1 <= ... <= a_k, k >= 2, sorted as above.  Each
        a_j has a grade below grade(d) and divides e, so it is a small atom,
        classified before d.  Each prefix step has gp + 2 * grade(a_j+1) <=
        grade(d) + grade(a_j+1) <= grade(e), and each prefix divides e, so
        the pass has formed d's mask before it reaches grade(d).  An atom of
        grade at least grade(d) only forms products of larger grade, so it
        cannot hide an atom, and on the view a mask determines its divisor.
        """
        m = self.monoid
        k = m.key(e)
        got = self._length_memo.get(k)
        if got is None:
            u, v, core = m.prime_split(e)
            if u or v:
                got = tuple(u + v + length for length in self.lengths(core))
            else:
                got = self._small_side_lengths(e)
            self._length_memo[k] = got
        return got

    def _small_side_lengths(self, e: E) -> tuple[int, ...]:
        m = self.monoid
        total = m.grade(e)
        if total == 0:
            return (0,)
        small = sorted(self._small_divisors(e), key=lambda pair: pair[1])
        if not small:
            return (1,)
        tick = self.budget.tick
        ctx = small[0][2]
        whole = ctx.whole
        # mask -> [grade, lengths as bits, colon mask], or None for a mask
        # that does not divide e; then the masks and the records of the
        # atoms of each grade
        products, graded, atoms = {}, {}, {}
        for a, g, _view, _i, _j in small:
            tick()
            q = ctx.product(ctx.unit, a)
            if q in products:
                continue
            atoms.setdefault(g, []).append(a)
            products[q] = [g, 2, ctx.colon(whole, a)]
            graded.setdefault(g, []).append(q)
            # the grades that leave room for a and one more atom no smaller
            top = total - 2 * g
            heap = [gp for gp in graded if gp <= top]
            heapq.heapify(heap)
            while heap:
                gp = heapq.heappop(heap)
                gq = gp + g
                for p in graded[gp]:
                    _gp, bits, col = products[p]
                    tick()
                    q = ctx.product(p, a)
                    if q in products:
                        if products[q] is not None:
                            products[q][1] |= bits << 1
                    elif q:
                        # q may divide e (0: it cannot)
                        c = ctx.colon(col, a)
                        if not ctx.divides(p, a, c):
                            products[q] = None
                            continue
                        products[q] = [gq, bits << 1, c]
                        if gq <= top and gq not in graded:
                            heapq.heappush(heap, gq)
                        graded.setdefault(gq, []).append(q)
        found, large = 0, []
        for p, got in products.items():
            if got is None:
                continue
            gp, bits, col = got
            rest, bits = total - gp, bits << 1
            if 2 * rest > total:
                large.append((p, rest, bits, col))
                continue
            for a in atoms.get(rest, ()):
                if not bits & ~found:
                    break
                tick()
                if ctx.product(p, a) == whole:
                    found |= bits
        # a colon or cofactor may come up again, so each element is tested
        # once per call, and the answers go with the call
        tested: dict = {}

        def atom_once(r):
            k = m.key(r)
            got = tested.get(k)
            if got is None:
                got = tested[k] = self.is_atom(r)
            return got

        for _p, _rest, bits, col in large:
            if bits & ~found and atom_once(ctx.element(col)):
                found |= bits
        for p, rest, bits, col in large:
            if bits & ~found and any(map(
                    atom_once, ctx.cofactors(p, col, rest, tick))):
                found |= bits
        return tuple(natset._bits(found))


def sumset_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(SumsetMonoid(), budget=budget)


def monomial_engine(budget: Optional[Budget] = None) -> FactorEngine:
    return FactorEngine(MonomialMonoid(), budget=budget)

