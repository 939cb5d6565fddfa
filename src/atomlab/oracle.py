"""Brute-force reference enumerations for cross-checking the search engine.

Everything here trades speed for obvious correctness: factor pairs come from
multiplying out candidates in a bounding box, with no colon tests and no
search.  Factors of a monomial ideal never leave the generator bounding box
of the product (generator gcd and min-degree are both additive), and factors
of a 0-containing set are subsets of it, so these enumerations are complete
over the boxes they scan.

The split maps multiply only the pairs whose product fits the box.  Grade is
additive: max(A + B) = max A + max B for sets, and the pure exponents max_x
and max_y add under a product of ideals.  A pair whose sum leaves the box
therefore has a product outside it, and every key inside the box keeps all
of its factor pairs.
"""

from __future__ import annotations

import random
from typing import Iterator

from . import monideal
from .monideal import MonIdeal
from .natset import NatSet, _bits

__all__ = [
    "box_antichains",
    "box_ideals",
    "naive_mon_split_map",
    "naive_sumset_split_map",
    "naive_lengths",
    "sample_zero_sets",
]


def box_antichains(bound_x: int, bound_y: int) -> Iterator[tuple]:
    """All nonempty antichains of exponent pairs within the closed box."""
    pts = sorted(((x, y) for x in range(bound_x + 1)
                  for y in range(bound_y + 1)),
                 key=lambda p: (-p[0], p[1]))
    n = len(pts)
    # the points that may follow point i, last first: the stack then pops
    # each antichain's extensions in list order, a depth-first preorder
    after = [[j for j in range(n - 1, i, -1)
              if pts[j][0] < pts[i][0] and pts[j][1] > pts[i][1]]
             for i in range(n)]
    stack = [((pts[i],), i) for i in range(n - 1, -1, -1)]
    while stack:
        acc, i = stack.pop()
        yield acc
        stack.extend([(acc + (pts[j],), j) for j in after[i]])


def box_ideals(bound: int) -> list[MonIdeal]:
    """Every nonunit monomial ideal with generators inside [0,bound]^2."""
    return [MonIdeal(g) for g in box_antichains(bound, bound)
            if g != ((0, 0),)]


def naive_mon_split_map(ideals: list[MonIdeal]) -> dict:
    """Map each product of two listed ideals to its unordered factor pairs.

    Only products inside the box of the list are formed: max_x and max_y
    at most the largest max_x and max_y among the ideals.  Looking up an
    ideal in that box gives all of its factorizations into two listed parts.
    """
    pool = sorted([(a.max_x, a.max_y, a) for a in ideals],
                  key=lambda t: t[0])
    if not pool:
        return {}
    bound_x = pool[-1][0]
    bound_y = max([t[1] for t in pool])
    out: dict = {}
    for i, (ax, ay, a) in enumerate(pool):
        for bx, by, b in pool[i:]:
            if ax + bx > bound_x:
                break  # the pool is listed by max_x
            if ay + by > bound_y:
                continue
            p = monideal.product(a, b)
            out.setdefault(p.gens, set()).add(
                (a.gens, b.gens) if a.gens <= b.gens else (b.gens, a.gens))
    return out


def naive_sumset_split_map(limit: int) -> dict:
    """Factor-pair map over all 0-containing subsets of [0,limit].

    Keys and factors are element tuples; every unordered pair of nonunit
    sets whose sumset lies in [0,limit] is multiplied out, so looking up a
    set A <= [0,limit] gives exactly its factorizations into two parts.
    Sumsets are recomputed here by shifting one factor's bitmask by each
    element of the other, and a sumset's key is looked up by its bitmask.
    """
    # the sets in mask order (bit i for i + 1): the sets with largest
    # element t follow those below t, each grown by t
    found = [((0,), 1)]
    for t in range(1, limit + 1):
        found += [(elems + (t,), bits | 1 << t) for elems, bits in found]
    sets = found[1:]
    keys = {bits: elems for elems, bits in sets}
    out: dict = {}
    for i, (a, abits) in enumerate(sets):
        for b, _ in sets[i:]:
            if a[-1] + b[-1] > limit:
                break  # sets are listed by mask, so max never decreases
            pbits = 0
            for e in b:
                pbits |= abits << e
            out.setdefault(keys[pbits], set()).add(
                (a, b) if a <= b else (b, a))
    return out


def naive_lengths(key, split_map: dict, cache: dict) -> frozenset:
    """Length set by recursing over a naive factor-pair map."""
    return frozenset(_bits(_length_bits(key, split_map, cache)))


def _length_bits(key, split_map: dict, cache: dict) -> int:
    """The length set of key as a bitset: bit k set for length k."""
    got = cache.get(key)
    if got is not None:
        return got
    pairs = split_map.get(key, ())
    if not pairs:
        res = 2
    else:
        res = 0
        for ka, kb in pairs:
            lb = _length_bits(kb, split_map, cache)
            for la in _bits(_length_bits(ka, split_map, cache)):
                res |= lb << la
    cache[key] = res
    return res


def sample_zero_sets(count: int, limit: int, seed: int) -> Iterator[NatSet]:
    """Deterministic sample of 0-containing subsets of [0,limit], drawn one
    at a time.  Bit i of a random limit-bit mask puts i + 1 in the set; the
    mask is read through its binary digits, in time linear in limit."""
    rng = random.Random(seed)
    for _ in range(count):
        digits = format(rng.randrange(1 << limit), "b")[::-1]
        yield NatSet._from_sorted(
            (0,) + tuple([i for i, d in enumerate(digits, 1) if d == "1"]))
