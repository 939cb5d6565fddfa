"""The oracle's pools come in a fixed order, which seeded claims draw from."""

import random

from atomlab import oracle
from atomlab.natset import NatSet


def recursive_antichains(bound_x, bound_y):
    """Depth-first over the points by x descending, then y ascending."""
    pts = sorted(((x, y) for x in range(bound_x + 1)
                  for y in range(bound_y + 1)),
                 key=lambda p: (-p[0], p[1]))

    def rec(start, acc):
        if acc:
            yield tuple(acc)
        for i in range(start, len(pts)):
            x, y = pts[i]
            if not acc or (x < acc[-1][0] and y > acc[-1][1]):
                yield from rec(i + 1, acc + [(x, y)])

    return list(rec(0, []))


def test_box_antichains_match_the_recursive_order():
    for bx in range(5):
        for by in range(5):
            assert list(oracle.box_antichains(bx, by)) \
                == recursive_antichains(bx, by)
    # 7 x 7 points: one antichain per lattice path, less the empty one
    assert sum(1 for _ in oracle.box_antichains(6, 6)) == 3431


def test_sample_zero_sets_read_each_draw_bit_by_bit():
    for count, limit, seed in ((50, 10, 75), (20, 30, 3), (5, 1, 0)):
        rng = random.Random(seed)
        want = []
        for _ in range(count):
            mask = rng.randrange(1 << limit)
            want.append(NatSet([0] + [i + 1 for i in range(limit)
                                      if mask >> i & 1]))
        assert list(oracle.sample_zero_sets(count, limit, seed)) == want


def test_split_maps_of_nothing_are_empty():
    assert oracle.naive_sumset_split_map(0) == {}
    assert oracle.naive_mon_split_map([]) == {}
