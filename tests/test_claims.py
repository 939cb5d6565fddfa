"""The claim registry's record types, and the claims that reuse their work.

graded-pieces, seed-sum-membership and phi-homomorphism each compute a
piece of their input once and reuse it.  The tests below pin what they
check (the same seeded pairs) and plant a fault in the function each one
relies on, which must turn the claim to `fail`.
"""

import random

import pytest

from atomlab import claims, oracle
from atomlab.families import subset_sum
from atomlab.monideal import MonIdeal, build_a, build_b, build_c, phi


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
