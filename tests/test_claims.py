"""The claim registry's record types, its node counts, and its witnesses.

graded-pieces, seed-sum-membership and phi-homomorphism each compute a
piece of their input once and reuse it.  The tests below pin what they
check (the same seeded pairs) and plant a fault in the function each one
relies on, which must turn the claim to `fail`.  The atom, lengths and
oracle claims share their checkers; planted faults pin the witnesses those
report.
"""

import random

import pytest

from atomlab import claims, engine, natset, oracle
from atomlab.families import subset_sum
from atomlab.monideal import UNIT, MonIdeal, build_a, build_b, build_c, phi
from atomlab.natset import NatSet


def _run(claim_id):
    claim, = (c for c in claims.registry() if c.claim_id == claim_id)
    return claims.run_claim(claim)


def test_claim_keeps_its_fields():
    claim = claims.registry()[0]
    assert (claim.claim_id, claim.suite) == ("atoms-monomial", "core")
    assert claim.statement.startswith("Atoms in the ideal monoid")
    assert callable(claim.runner)
    same = claims.Claim(claim.claim_id, claim.suite, claim.statement,
                        claim.runner)
    assert same == claim and hash(same) == hash(claim)
    with pytest.raises(AttributeError):
        claim.suite = "stretch"


def test_claim_result_to_json():
    result = claims.ClaimResult("graded-pieces", "a statement", "fail",
                                0.12345, 7, {"total": 1})
    assert (result.claim_id, result.statement, result.status, result.elapsed,
            result.nodes, result.witness) == (
        "graded-pieces", "a statement", "fail", 0.12345, 7, {"total": 1})
    assert result.to_json() == {
        "claim-id": "graded-pieces", "statement": "a statement",
        "status": "fail", "elapsed": 0.123, "nodes": 7,
        "witness": {"total": 1}}
    assert result == claims.ClaimResult("graded-pieces", "a statement",
                                        "fail", 0.12345, 7, {"total": 1})
    with pytest.raises(AttributeError):
        result.status = "pass"


def test_graded_pieces_draws_the_seeded_box_ideal_pairs(monkeypatch):
    seen = []

    def record(a, b):
        seen.append((a, b))
        return True

    monkeypatch.setattr(claims, "min_piece_product_check", record)
    assert _run("graded-pieces").status == "pass"
    rng = random.Random(claims._GRADED_SEED)
    pool = oracle.box_ideals(6)
    drawn = [(rng.choice(pool), rng.choice(pool)) for _ in range(20)]
    assert seen == [(build_b(2), build_b(3)), (build_c(4), build_a(1))] \
        + drawn


def test_graded_pieces_fails_on_a_planted_fault(monkeypatch):
    monkeypatch.setattr(claims, "min_piece_product_check", lambda a, b: False)
    result = _run("graded-pieces")
    assert result.status == "fail"
    assert result.witness["total"] == 22


def test_seed_sum_membership_fails_on_a_planted_fault(monkeypatch):
    monkeypatch.setattr(claims, "subset_sum",
                        lambda seq, idx: subset_sum(seq, idx) + 1)
    result = _run("seed-sum-membership")
    assert result.status == "fail"
    families = {bad["family"] for bad in result.witness["counterexamples"]}
    assert "prefix sums" in families


def test_phi_homomorphism_fails_on_a_planted_fault(monkeypatch):
    # every image moved by X: products and decoding both break
    monkeypatch.setattr(claims, "phi", lambda s: MonIdeal(
        [(x + 1, y) for x, y in phi(s).gens]))
    result = _run("phi-homomorphism")
    assert result.status == "fail"
    assert result.witness["total"] == 500 + 1000


def test_core_node_counts_are_pinned():
    # the claims that share a checker make the engine calls they made
    # when each wrote its own loop
    assert [r.nodes for r in claims.run_suite("core")] == [
        316, 133, 122, 558, 0, 0, 0, 1_787, 11_428, 0]


_WANTED_LENGTHS = {
    "lengths-monomial": [(f"a_{k}", list(range(2, k + 1)))
                         for k in range(2, 7)] + [("I_C(minimal n=2)",
                                                   [2, 3])],
    "lengths-sumset": [(f"C (minimal n={n})", [2, n + 1]) for n in (2, 3, 4)],
    "lengths-monomial-stretch": [("I_C(minimal n=3)", [2, 3, 4])],
    "lengths-a-ladder": [(f"a_{k}", list(range(2, k + 1)))
                         for k in range(7, 21)],
}


@pytest.mark.parametrize("claim_id", sorted(_WANTED_LENGTHS))
def test_lengths_claims_report_every_wanted_length(monkeypatch, claim_id):
    monkeypatch.setattr(engine.FactorEngine, "lengths", lambda self, e: (1,))
    result = _run(claim_id)
    wanted = _WANTED_LENGTHS[claim_id]
    assert result.status == "fail"
    assert result.witness == {"total": len(wanted), "counterexamples": [
        {"target": label, "want": want, "got": [1]}
        for label, want in wanted[:claims._WITNESS_CAP]]}


def test_sum_free_atoms_labels_name_the_side(monkeypatch):
    # {0,1,2} = {0,1} + {0,1}, and phi({0,1,2}) = b_1^2
    monkeypatch.setattr(natset, "iter_sum_free",
                        lambda m: iter([NatSet([1, 2])]))
    result = _run("sum-free-atoms")
    assert result.status == "fail"
    b1 = build_b(1).to_json()
    assert result.witness == {"total": 2, "counterexamples": [
        {"target": "{0,1,2}", "split": [[0, 1], [0, 1]]},
        {"target": "phi({0,1,2})", "split": [b1, b1]}]}


def test_oracle_equivalence_fails_on_a_planted_fault(monkeypatch):
    # an empty split map: every set that splits shows its pairs as extra
    monkeypatch.setattr(oracle, "naive_sumset_split_map", lambda m: {})
    result = _run("oracle-equivalence")
    assert result.status == "fail"
    for bad in result.witness["counterexamples"]:
        assert bad["side"] == "sumset" and bad["missed"] == []
        assert bad["extra"] == sorted(bad["extra"]) and bad["extra"]
    eng = engine.sumset_engine()
    assert result.witness["total"] == sum(
        not eng.is_atom(a) for a in claims._zero_sets(10))


def test_oracle_equivalence_reports_lengths_witnesses(monkeypatch):
    # every target gets the lengths of an atom while its splits still agree
    # with the oracle, so each target that splits is a lengths witness, on
    # both sides
    monkeypatch.setattr(engine.FactorEngine, "lengths", lambda self, e: (1,))
    result = _run("oracle-equivalence")
    sets, pool = list(claims._zero_sets(10)), oracle.box_ideals(4)
    sum_map = oracle.naive_sumset_split_map(10)
    mon_map = oracle.naive_mon_split_map(pool)

    def witnesses(side, targets, split_map, key):
        cache: dict = {}
        return [{"side": side, "target": e.to_json(),
                 "want": sorted(oracle.naive_lengths(key(e), split_map,
                                                     cache)),
                 "got": [1]} for e in targets if key(e) in split_map]

    want = (witnesses("sumset", sets, sum_map, lambda a: a.elements)
            + witnesses("ideal", pool, mon_map, lambda e: e.gens))
    assert {bad["side"] for bad in want} == {"sumset", "ideal"}
    assert result.status == "fail"
    assert result.witness == {"total": len(want),
                              "counterexamples": want[:claims._WITNESS_CAP]}
    # the ideal side, which the cap leaves out of the claim's witness
    ideal = claims._oracle_checks("ideal", engine.monomial_engine(), pool,
                                  mon_map, lambda e: e.gens)
    assert ideal == [bad for bad in want if bad["side"] == "ideal"]


def test_phi_transport_fails_on_a_planted_fault(monkeypatch):
    # L(UNIT) = {0} holds no length of a nonunit set, so every set fails
    # and none is a strict inclusion
    monkeypatch.setattr(claims, "phi", lambda s: UNIT)
    result = _run("phi-transport")
    assert result.status == "fail"
    assert result.witness["total"] == 16_383 + 1


def test_phi_transport_pins_its_strict_inclusions(monkeypatch):
    # each phi image answers with the lengths its set just got: every
    # inclusion and maximum holds, and no inclusion is strict
    set_lengths = engine.FactorEngine.lengths
    last = [None]

    def lengths(self, e):
        if not isinstance(e, MonIdeal):
            last[0] = set_lengths(self, e)
        return last[0]

    monkeypatch.setattr(engine.FactorEngine, "lengths", lengths)
    result = _run("phi-transport")
    assert result.status == "fail"
    assert result.witness == {"total": 1, "counterexamples": [
        {"target": "strict inclusions", "want": 55, "got": 0}]}
