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

import itertools
import random
from typing import Iterator

from . import monideal
from .monideal import MonIdeal
from .natset import NatSet

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

    def rec(start: int, last_y: int, acc: list) -> Iterator[tuple]:
        if acc:
            yield tuple(acc)
        for i in range(start, len(pts)):
            x, y = pts[i]
            if acc and (x >= acc[-1][0] or y <= last_y):
                continue
            acc.append((x, y))
            yield from rec(i + 1, y, acc)
            acc.pop()

    yield from rec(0, -1, [])


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
    bound_x = max(a.max_x for a in ideals)
    bound_y = max(a.max_y for a in ideals)
    out: dict = {}
    for a, b in itertools.combinations_with_replacement(ideals, 2):
        if a.max_x + b.max_x > bound_x or a.max_y + b.max_y > bound_y:
            continue
        p = monideal.product(a, b)
        out.setdefault(p.gens, set()).add(tuple(sorted((a.gens, b.gens))))
    return out


def naive_sumset_split_map(limit: int) -> dict:
    """Factor-pair map over all 0-containing subsets of [0,limit].

    Keys and factors are element tuples; every unordered pair of nonunit
    sets whose sumset lies in [0,limit] is multiplied out, so looking up a
    set A <= [0,limit] gives exactly its factorizations into two parts.
    Sumsets are recomputed here by shifting one factor's bitmask by each
    element of the other.
    """
    sets = []
    for mask in range(1, 1 << limit):
        elems = (0,) + tuple(i + 1 for i in range(limit) if mask >> i & 1)
        bits = 1
        for e in elems:
            bits |= 1 << e
        sets.append((elems, bits))
    keys: dict = {}
    out: dict = {}
    for i, (a, abits) in enumerate(sets):
        for b, _ in sets[i:]:
            if a[-1] + b[-1] > limit:
                break  # sets are listed by mask, so max never decreases
            pbits = 0
            for e in b:
                pbits |= abits << e
            key = keys.get(pbits)
            if key is None:
                key = tuple(x for x in range(pbits.bit_length())
                            if pbits >> x & 1)
                keys[pbits] = key
            out.setdefault(key, set()).add((a, b) if a <= b else (b, a))
    return out


def naive_lengths(key, split_map: dict, cache: dict) -> frozenset:
    """Length set by recursing over a naive factor-pair map."""
    got = cache.get(key)
    if got is not None:
        return got
    pairs = split_map.get(key, ())
    if not pairs:
        res = frozenset({1})
    else:
        acc = set()
        for ka, kb in pairs:
            for la in naive_lengths(ka, split_map, cache):
                for lb in naive_lengths(kb, split_map, cache):
                    acc.add(la + lb)
        res = frozenset(acc)
    cache[key] = res
    return res


def sample_zero_sets(count: int, limit: int, seed: int) -> Iterator[NatSet]:
    """Deterministic sample of 0-containing subsets of [0,limit], drawn one
    at a time.  Bit i of a random limit-bit mask puts i + 1 in the set; the
    mask is read through its binary digits, in time linear in limit."""
    rng = random.Random(seed)
    for _ in range(count):
        digits = format(rng.randrange(1 << limit), "b")[::-1]
        yield NatSet([0] + [i for i, d in enumerate(digits, 1) if d == "1"])
