"""Executable registry of the verification claims.

Each claim couples a human-readable statement with a runner that checks it
exhaustively (or over a fixed seeded sample) and reports pass, fail with a
witness, or inconclusive when a search budget runs out.  The registry is the
single source of truth for the `verify` command and the acceptance tests.
"""

from __future__ import annotations

import itertools
import random
import time
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import families, graded, monideal, natset, oracle
from .engine import (DEFAULT_BUDGET_NODES, SearchBudgetExceeded, make_budget,
                     monomial_engine, sumset_engine)
from .families import build_B, build_C, minimal_sequence, subset_sum
from .graded import GradedIdeal, HomPoly, min_piece_product_check
from .monideal import (MonIdeal, build_a, build_b, build_c, build_i_b,
                       build_i_c, build_tilde_b, phi)
from .natset import NatSet

__all__ = [
    "Claim",
    "ClaimResult",
    "claim_ids",
    "registry",
    "run_claim",
    "run_suite",
]

# Fixed seeds keep the sampled claims reproducible run to run.
_GRADED_SEED = 61
_PHI_SEED = 75

_WITNESS_CAP = 5


class Claim(NamedTuple):
    claim_id: str
    suite: str
    statement: str
    runner: Callable[["_Runtime"], Optional[dict]]


class ClaimResult(NamedTuple):
    claim_id: str
    statement: str
    status: str
    elapsed: float
    nodes: int
    witness: Optional[dict]

    def to_json(self) -> dict:
        return {
            "claim-id": self.claim_id,
            "statement": self.statement,
            "status": self.status,
            "elapsed": round(self.elapsed, 3),
            "nodes": self.nodes,
            "witness": self.witness,
        }


class _Runtime:
    """One budget and its two engines for a single claim run."""

    def __init__(self, budget_nodes: Optional[int],
                 budget_seconds: Optional[float]):
        self.budget = make_budget(budget_nodes, budget_seconds)
        self.mon = monomial_engine(self.budget)
        self.sum = sumset_engine(self.budget)


def _verdict(bad: list) -> Optional[dict]:
    if not bad:
        return None
    return {"total": len(bad), "counterexamples": bad[:_WITNESS_CAP]}


def _subsets(items: Iterable[int]):
    pool = tuple(items)
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def _subset_sums(seq: families.SumSequence, items: Iterable[int]) -> list:
    """(subset, its set, its subset sum) for each subset of items."""
    return [(h, set(h), subset_sum(seq, h)) for h in _subsets(items)]


# -- criterion runners -------------------------------------------------------


def _atom_checks(eng, targets: Iterable[tuple]) -> list:
    """A witness for each (label, element) that is no atom: its split."""
    bad = []
    for label, e in targets:
        if not eng.is_atom(e):
            bad.append({"target": label,
                        "split": [p.to_json() for p in eng.find_split(e)]})
    return bad


def _length_checks(eng, targets: Iterable[tuple]) -> list:
    """A witness for each (label, element, wanted lengths) that eng finds
    other lengths for."""
    bad = []
    for label, e, want in targets:
        got = eng.lengths(e)
        if got != tuple(want):
            bad.append({"target": label, "want": list(want),
                        "got": list(got)})
    return bad


def _zero_sets(m: int) -> Iterator[NatSet]:
    """Every nonunit 0-set of [0,m], in mask order (bit i for i + 1): the
    sets with largest element t follow those below t, each grown by t."""
    found = [(0,)]
    for t in range(1, m + 1):
        grown = [elems + (t,) for elems in found]
        for elems in grown:
            yield NatSet._from_sorted(elems)
        found += grown


def _check_atoms_monomial(rt: _Runtime) -> Optional[dict]:
    targets = [(f"b_{i}", build_b(i)) for i in range(1, 9)]
    targets += [(f"<X^{m},Y^{n}>", MonIdeal([(m, 0), (0, n)]))
                for m in range(1, 9) for n in range(1, 9)]
    targets += [(f"c_{k}", build_c(k)) for k in range(3, 8)]
    targets += [(f"I_B(minimal n={n})", build_i_b(minimal_sequence(n)))
                for n in (2, 3)]
    targets += [(f"tilde_b(minimal n={n}, r={r})",
                 build_tilde_b(minimal_sequence(n), r))
                for n, r in ((3, 3), (4, 3), (4, 4))]
    return _verdict(_atom_checks(rt.mon, targets))


def _check_splits_monomial(rt: _Runtime) -> Optional[dict]:
    eng = rt.mon
    bad = []
    for k in range(2, 7):
        e = build_a(k)
        pair = eng.find_split(e)
        if pair is None:
            bad.append({"target": f"a_{k}", "problem": "expected a split"})
        elif monideal.product(*pair) != e:
            bad.append({"target": f"a_{k}", "problem": "witness check",
                        "split": [p.to_json() for p in pair]})
    for j in range(1, 5):
        img = phi(NatSet([0, j, 2 * j]))
        square = monideal.product(build_b(j), build_b(j))
        if img != square:
            bad.append({"target": f"phi({{0,{j},{2 * j}}})",
                        "problem": "expected b_j^2",
                        "got": img.to_json(), "want": square.to_json()})
        elif eng.find_split(img) is None:
            bad.append({"target": f"phi({{0,{j},{2 * j}}})",
                        "problem": "expected a split"})
    sets = [NatSet([0, j, m]) for m in range(2, 10) for j in range(1, m)
            if m != 2 * j]
    bad += _atom_checks(eng, [(f"phi({a})", phi(a)) for a in sets])
    return _verdict(bad)


def _check_lengths_monomial(rt: _Runtime) -> Optional[dict]:
    targets = [(f"a_{k}", build_a(k), range(2, k + 1)) for k in range(2, 7)]
    targets.append(("I_C(minimal n=2)", build_i_c(minimal_sequence(2)),
                    (2, 3)))
    return _verdict(_length_checks(rt.mon, targets))


def _check_lengths_monomial_stretch(rt: _Runtime) -> Optional[dict]:
    return _verdict(_length_checks(rt.mon, [
        ("I_C(minimal n=3)", build_i_c(minimal_sequence(3)), (2, 3, 4))]))


def _check_lengths_a_ladder(rt: _Runtime) -> Optional[dict]:
    return _verdict(_length_checks(rt.mon, [
        (f"a_{k}", build_a(k), range(2, k + 1)) for k in range(7, 21)]))


def _check_lengths_sumset(rt: _Runtime) -> Optional[dict]:
    seqs = [(n, minimal_sequence(n)) for n in (2, 3, 4)]
    return _verdict(
        _length_checks(rt.sum, [(f"C (minimal n={n})", build_C(seq),
                                 (2, n + 1)) for n, seq in seqs])
        + _atom_checks(rt.sum, [(f"B (minimal n={n})", build_B(seq))
                                for n, seq in seqs]))


def _check_product_identities(rt: _Runtime) -> Optional[dict]:
    bad = []

    def expect(label: str, lhs: MonIdeal, rhs: MonIdeal) -> None:
        if lhs != rhs:
            bad.append({"identity": label, "lhs": lhs.to_json(),
                        "rhs": rhs.to_json()})

    def b_product(seq, indices) -> MonIdeal:
        out = monideal.UNIT
        for i in indices:
            out = monideal.product(out, build_b(seq.term(i)))
        return out

    for n in (2, 3, 4):
        seq = minimal_sequence(n)
        ic = build_i_c(seq)
        expect(f"I_C = b_(a_1)...b_(a_{n + 1}), minimal n={n}",
               ic, b_product(seq, range(1, n + 2)))
        expect(f"I_C = b_(a_{n}) * I_B, minimal n={n}",
               ic, monideal.product(build_b(seq.term(n)), build_i_b(seq)))
    for n in (3, 4):
        seq = minimal_sequence(n)
        ic = build_i_c(seq)
        for r in range(3, n + 1):
            tb = build_tilde_b(seq, r)
            head = monideal.product(build_b(seq.term(2)), tb)
            expect(f"b_(a_2) * tilde_b_{r} = b_(a_1)...b_(a_{r}), "
                   f"minimal n={n}", head, b_product(seq, range(1, r + 1)))
            expect(f"I_C = b_(a_2) * tilde_b_{r} * rest, minimal n={n}",
                   ic, monideal.product(head,
                                        b_product(seq, range(r + 1, n + 2))))
    a1, a2, b2 = build_a(1), build_a(2), build_b(2)
    expect("a_1 * a_2 = a_1 * b_2",
           monideal.product(a1, a2), monideal.product(a1, b2))
    if a2 == b2:
        bad.append({"identity": "a_2 != b_2", "problem": "factors coincide"})
    expect("a_5 = a_1 * c_4", build_a(5), monideal.product(a1, build_c(4)))
    return _verdict(bad)


def _check_graded_pieces(rt: _Runtime) -> Optional[dict]:
    bad = []
    x2 = HomPoly.from_monomial(2, 0)
    plus = GradedIdeal([x2, HomPoly(2, [0, 1, 1])])
    minus = GradedIdeal([x2, HomPoly(2, [0, 1, -1])])
    c4 = graded.from_mon_ideal(build_c(4))
    if not graded.equals(graded.product(plus, minus), c4):
        bad.append({"check": "<X^2,XY+Y^2> * <X^2,XY-Y^2> = c_4"})
    pairs = [(build_b(2), build_b(3)), (build_c(4), build_a(1))]
    # the pool of oracle.box_ideals(6), in its order, as generator tuples:
    # an ideal is built only when it is drawn
    rng = random.Random(_GRADED_SEED)
    pool = [g for g in oracle.box_antichains(6, 6) if g != ((0, 0),)]
    pairs.extend((MonIdeal(rng.choice(pool)), MonIdeal(rng.choice(pool)))
                 for _ in range(20))
    for a, b in pairs:
        if not min_piece_product_check(a, b):
            bad.append({"check": "minimal graded piece of the product",
                        "a": a.to_json(), "b": b.to_json()})
    return _verdict(bad)


def _check_seed_sum_membership(rt: _Runtime) -> Optional[dict]:
    bad = []
    # Sums of two subset sums over a prefix land among the prefix subset
    # sums exactly for disjoint index sets.
    for n in range(2, 6):
        seq = minimal_sequence(n)
        for k in range(1, n + 1):
            subsets = _subset_sums(seq, range(1, k + 1))
            sums = {sh for _, _, sh in subsets}
            for i_set, i_bits, si in subsets:
                for j_set, j_bits, sj in subsets:
                    if ((si + sj) in sums) != (not i_bits & j_bits):
                        bad.append({"family": "prefix sums", "n": n, "k": k,
                                    "I": list(i_set), "J": list(j_set)})
    # The same characterization through the sets A_n, B_n and C_n.
    for n in (2, 3, 4):
        seq = minimal_sequence(n)
        set_a = set(families.build_A(seq))
        set_b = set(build_B(seq))
        set_c = set(build_C(seq))
        head = _subset_sums(seq, range(1, n))
        full_prefix = subset_sum(seq, range(1, n + 1))
        last = seq.term(n + 1)
        for i_set, i_bits, si in head:
            for j_set, j_bits, sj in head:
                disjoint = not i_bits & j_bits
                if ((si + sj) in set_a) != disjoint:
                    bad.append({"family": "A", "n": n,
                                "I": list(i_set), "J": list(j_set)})
                for j_full, s_full in ((j_set, sj),
                                       (j_set + (n + 1,), sj + last)):
                    if ((si + s_full) in set_b) != disjoint:
                        bad.append({"family": "B", "n": n,
                                    "I": list(i_set), "J": list(j_full)})
            if ((full_prefix + si) in set_b) != (not i_set):
                bad.append({"family": "B top", "n": n, "I": list(i_set)})
        wide = _subset_sums(seq, range(1, n + 2))
        prefix = set(range(1, n + 1))
        for i_set, i_bits, si in wide:
            for j_set, j_bits, sj in wide:
                meet = i_bits & j_bits
                want = (not meet) or (i_bits | j_bits == prefix
                                      and n in meet)
                if ((si + sj) in set_c) != want:
                    bad.append({"family": "C", "n": n,
                                "I": list(i_set), "J": list(j_set)})
    # Differences of subset sums over {1} u [3,r]: once past a_1 and away
    # from the single exception a_3 - a_1, they clear a_3 entirely.
    for n in (4, 5):
        seq = minimal_sequence(n)
        a1, a3 = seq.term(1), seq.term(3)
        for r in range(4, n + 1):
            ground = (1,) + tuple(range(3, r + 1))
            sums = [subset_sum(seq, s) for s in _subsets(ground)]
            for si in sums:
                for sj in sums:
                    d = sj - si
                    if d > a1 and d != a3 - a1 and d < a3:
                        bad.append({"family": "differences", "n": n, "r": r,
                                    "difference": d})
    return _verdict(bad)


def _check_sum_free_atoms(rt: _Runtime) -> Optional[dict]:
    sets = [NatSet((0,) + s.elements) for s in natset.iter_sum_free(12)]
    return _verdict(_atom_checks(rt.sum, [(str(a), a) for a in sets])
                    + _atom_checks(rt.mon, [(f"phi({a})", phi(a))
                                            for a in sets]))


def _oracle_checks(side: str, eng, targets: Iterable, split_map: dict,
                   key: Callable) -> list:
    """Witnesses where eng's splits or lengths of a target differ from
    the oracle's split map, whose keys and pairs are key() of elements."""
    bad = []
    cache: dict = {}
    for e in targets:
        k = key(e)
        want = split_map.get(k, set())
        got = {(key(a), key(b)) for a, b in eng.split(e)}
        if got != want:
            bad.append({"side": side, "target": e.to_json(),
                        "missed": sorted(want - got),
                        "extra": sorted(got - want)})
            continue
        got = eng.lengths(e)
        bits = oracle._length_bits(k, split_map, cache)
        if sum([1 << n for n in got]) != bits:
            bad.append({"side": side, "target": e.to_json(),
                        "want": list(natset._bits(bits)), "got": list(got)})
    return bad


def _check_oracle_equivalence(rt: _Runtime) -> Optional[dict]:
    pool = oracle.box_ideals(4)
    return _verdict(
        _oracle_checks("sumset", rt.sum, _zero_sets(10),
                       oracle.naive_sumset_split_map(10),
                       attrgetter("elements"))
        + _oracle_checks("ideal", rt.mon, pool,
                         oracle.naive_mon_split_map(pool),
                         attrgetter("gens")))


def _check_phi_homomorphism(rt: _Runtime) -> Optional[dict]:
    bad = []
    sets = list(oracle.sample_zero_sets(1000, 10, _PHI_SEED))
    for a, b in zip(sets[:500], sets[500:]):
        phi_a, phi_b = phi(a), phi(b)
        lhs = phi(natset.sumset(a, b))
        rhs = monideal.product(phi_a, phi_b)
        if lhs != rhs:
            bad.append({"A": a.to_json(), "B": b.to_json(),
                        "phi(A+B)": lhs.to_json(),
                        "phi(A)phi(B)": rhs.to_json()})
        if (phi_a == phi_b) != (a == b):
            bad.append({"A": a.to_json(), "B": b.to_json(),
                        "problem": "injectivity"})
        for s, img in ((a, phi_a), (b, phi_b)):
            # the y exponents, in generator order, are the elements, each
            # with x + y = max
            top = s.max
            if img.gens != tuple([(top - y, y) for y in s.elements]):
                bad.append({"A": s.to_json(), "problem": "image decode",
                            "image": img.to_json()})
    return _verdict(bad)


def _check_phi_transport(rt: _Runtime) -> Optional[dict]:
    """L(A) lies in L(phi(A)), with the same maximum, for every nonunit
    0-set A of [0,14]; so A is an atom exactly when phi(A) is.  The
    inclusion is strict for 55 of these sets, a count the claim pins.

    This is proved, from a lemma of Ge-Kh21 on bottom pieces; the claim
    checks both engines against it.  bottom(I) is the ideal generated by
    the generators of I of least degree, mdeg(I).

    Lemma.  bottom(I*J) = bottom(I)*bottom(J).  Proof: a product of bottom
    generators has degree mdeg(I) + mdeg(J) = mdeg(I*J), the least degree
    in I*J, so it is a minimal generator of I*J, and every generator of
    that degree is such a product.

    A factorization phi(A) = I_1...I_k into nonunits gives A = B_1 + ... +
    B_k into nonunit 0-sets, with bottom(I_j) = phi(B_j).  Proof: let
    m = max(A).  The pure powers of phi(A) are X^m and Y^m.  The exponents
    of the pure powers of the factors add up to m, and so do their degrees
    mdeg(I_j), since mdeg(phi(A)) = m.  Each mdeg(I_j) is at most both pure
    exponents of I_j, so each factor has pure powers X^d and Y^d with
    d = mdeg(I_j) >= 1.  Then bottom(I_j) = phi(B_j) for a nonunit 0-set
    B_j, and as every generator of phi(A) has degree m, the lemma gives
    phi(A) = bottom(phi(A)) = phi(B_1 + ... + B_k).  phi is injective, so
    A = B_1 + ... + B_k.

    So A is an atom exactly when phi(A) is: phi(B + C) = phi(B)*phi(C)
    carries a split of A to one of phi(A), and the case k = 2 carries one
    back.  phi then carries a factorization of A into k atoms to one of
    phi(A) into k atoms, so L(A) lies in L(phi(A)).  A factorization of
    phi(A) into k atoms writes A as a sum of k nonunits, each a sum of at
    least one atom, so k <= max L(A).
    """
    bad, strict = [], 0
    for a in _zero_sets(14):
        got, img = rt.sum.lengths(a), rt.mon.lengths(phi(a))
        if not set(got) <= set(img) or got[-1] != img[-1]:
            bad.append({"target": str(a), "set": list(got),
                        "ideal": list(img)})
        else:
            strict += got != img
    if strict != 55:
        bad.append({"target": "strict inclusions", "want": 55, "got": strict})
    return _verdict(bad)


# -- registry ----------------------------------------------------------------


_CLAIMS: tuple[Claim, ...] = (
    Claim(
        "atoms-monomial", "core",
        "Atoms in the ideal monoid: b_i (i in [1,8]), <X^m,Y^n> (m,n in "
        "[1,8]), c_k (k in [3,7]), I_B for minimal sequences with n in "
        "{2,3}, and tilde_b for (n,r) in {(3,3),(4,3),(4,4)}.",
        _check_atoms_monomial),
    Claim(
        "splits-monomial", "core",
        "a_k splits for k in [2,6] (verified witness); phi({0,j,2j}) "
        "equals b_j^2 and splits for j in [1,4]; phi({0,j,m}) is an atom "
        "for 2 <= m <= 9, 1 <= j < m, m != 2j.",
        _check_splits_monomial),
    Claim(
        "lengths-monomial", "core",
        "Length sets in the ideal monoid: L(a_k) = [2,k] for k in [2,6]; "
        "L(I_C) = {2,3} for the minimal sequence with n=2.",
        _check_lengths_monomial),
    Claim(
        "lengths-sumset", "core",
        "Reduced sumset monoid: L(C) = {2,n+1} and B is an atom, for "
        "minimal sequences with n in {2,3,4}.",
        _check_lengths_sumset),
    Claim(
        "product-identities", "core",
        "I_C = b_(a_1)...b_(a_{n+1}) = b_(a_n)*I_B (minimal n in {2,3,4}); "
        "b_(a_2)*tilde_b_r = b_(a_1)...b_(a_r) and completes to I_C "
        "(minimal n in {3,4}, all r); a_1*a_2 = a_1*b_2; a_5 = a_1*c_4.",
        _check_product_identities),
    Claim(
        "graded-pieces", "core",
        "<X^2,XY+Y^2> * <X^2,XY-Y^2> = c_4 over the rationals, and the "
        "bottom graded piece of a product is spanned by products of bottom "
        "pieces on (b_2,b_3), (c_4,a_1) and 20 seeded pairs with exponents "
        "at most 6.",
        _check_graded_pieces),
    Claim(
        "seed-sum-membership", "core",
        "Exhaustive subset-sum checks over minimal sequences: disjoint "
        "supports characterize membership of a_I + a_J in the prefix sums "
        "(n <= 5) and in A_n, B_n, C_n (n <= 4, with the one C_n "
        "exception), and subset-sum differences above a_1 other than "
        "a_3 - a_1 reach a_3 (n <= 5).",
        _check_seed_sum_membership),
    Claim(
        "sum-free-atoms", "core",
        "For every nonempty sum-free A inside [1,12], {0} u A is an atom "
        "of the reduced sumset monoid and phi({0} u A) is an atom of the "
        "ideal monoid.",
        _check_sum_free_atoms),
    Claim(
        "oracle-equivalence", "core",
        "Engine split and length sets match a brute-force product oracle on "
        "every 0-containing subset of [0,10] and on all 250 nonunit ideals "
        "with generators in [0,4]^2.",
        _check_oracle_equivalence),
    Claim(
        "phi-homomorphism", "core",
        "phi(A+B) = phi(A)*phi(B), phi is injective, and images decode "
        "back to their sets, on 500 seeded pairs of 0-containing subsets "
        "of [0,10].",
        _check_phi_homomorphism),
    Claim(
        "lengths-monomial-stretch", "stretch",
        "L(I_C) = {2,3,4} for the minimal sequence with n=3.  Its divisors "
        "are too many to list, but products of the atoms of at most half "
        "the grade settle it within the 1,000,000-node default budget.",
        _check_lengths_monomial_stretch),
    Claim(
        "lengths-a-ladder", "stretch",
        "L(a_k) = [2,k] for k in [7,20], on one engine.  a_20 alone has "
        "23,713 divisors of at most half the grade; their atoms and "
        "products fit the 1,000,000-node default budget.",
        _check_lengths_a_ladder),
    Claim(
        "phi-transport", "stretch",
        "L(A) lies in L(phi(A)) with the same maximum, so A is an atom "
        "exactly when phi(A) is, for all 16,383 nonunit 0-sets A of "
        "[0,14]; the inclusion is strict for exactly 55 of them.  Both "
        "sides fit the 1,000,000-node default budget.",
        _check_phi_transport),
)


def registry() -> tuple[Claim, ...]:
    return _CLAIMS


def claim_ids() -> list[str]:
    return [c.claim_id for c in _CLAIMS]


def run_claim(claim: Claim,
              budget_nodes: Optional[int] = DEFAULT_BUDGET_NODES,
              budget_seconds: Optional[float] = None) -> ClaimResult:
    """Run one claim under a node and a time limit.

    The limits follow engine.make_budget: None or 0 means no cap, and a
    negative limit raises ValueError before the claim runs.
    """
    rt = _Runtime(budget_nodes, budget_seconds)
    start = time.perf_counter()
    try:
        witness = claim.runner(rt)
        status = "pass" if witness is None else "fail"
    except SearchBudgetExceeded as exc:
        status = "inconclusive"
        witness = {"budget": {"nodes": exc.nodes,
                              "elapsed": round(exc.elapsed, 3)}}
    return ClaimResult(claim.claim_id, claim.statement, status,
                       time.perf_counter() - start, rt.budget.nodes, witness)


def run_suite(suite: Optional[str] = None,
              only: Optional[Iterable[str]] = None,
              budget_nodes: Optional[int] = DEFAULT_BUDGET_NODES,
              budget_seconds: Optional[float] = None) -> list[ClaimResult]:
    """Run the registered claims, filtered by suite and/or claim id.

    Raises KeyError for an unknown claim id, or when the filters select no
    claim.
    """
    wanted = None if only is None else set(only)
    if wanted is not None:
        unknown = wanted - set(claim_ids())
        if unknown:
            raise KeyError(f"unknown claims: {sorted(unknown)}")
    selected = [c for c in _CLAIMS
                if (suite is None or c.suite == suite)
                and (wanted is None or c.claim_id in wanted)]
    if not selected:
        only_ids = None if wanted is None else sorted(wanted)
        raise KeyError(f"no claim matches suite={suite!r} and only={only_ids}")
    return [run_claim(c, budget_nodes, budget_seconds) for c in selected]
