"""Acceptance gate: every registered claim must land on its required status.

Each test runs one claim end to end through the verification registry and
prints a single status line, so a bare run of this module reads as a
checklist.  All core claims are exact checks and must pass outright, and so
must the stretch claims under their default node budget: the small-side
length search answers them without listing every divisor.
"""

from atomlab import claims


def _run(number, claim_id):
    claim, = (c for c in claims.registry() if c.claim_id == claim_id)
    result = claims.run_claim(claim)
    print(f"[criterion {number:>2}] {claim_id}: {result.status} "
          f"({result.elapsed:.2f}s)")
    return result


def test_criterion_01_atoms_monomial():
    assert _run(1, "atoms-monomial").status == "pass"


def test_criterion_02_splits_monomial():
    assert _run(2, "splits-monomial").status == "pass"


def test_criterion_03_lengths_monomial():
    assert _run(3, "lengths-monomial").status == "pass"


def test_criterion_04_lengths_sumset():
    assert _run(4, "lengths-sumset").status == "pass"


def test_criterion_05_product_identities():
    assert _run(5, "product-identities").status == "pass"


def test_criterion_06_graded_pieces():
    assert _run(6, "graded-pieces").status == "pass"


def test_criterion_07_seed_sum_membership():
    assert _run(7, "seed-sum-membership").status == "pass"


def test_criterion_08_sum_free_atoms():
    assert _run(8, "sum-free-atoms").status == "pass"


def test_criterion_09_oracle_equivalence():
    assert _run(9, "oracle-equivalence").status == "pass"


def test_criterion_10_phi_homomorphism():
    assert _run(10, "phi-homomorphism").status == "pass"


def test_criterion_stretch_lengths_monomial():
    # listing every divisor would blow far past the default budget; the
    # small atoms and their products do not
    result = _run("S", "lengths-monomial-stretch")
    assert (result.status, result.nodes) == ("pass", 1_620)


def test_criterion_stretch_lengths_a_ladder():
    # L(a_k) = [2,k] up to a_20 on one engine, under the default budget
    result = _run("S", "lengths-a-ladder")
    assert (result.status, result.nodes) == ("pass", 454_115)


def test_criterion_stretch_phi_transport():
    # lengths of both sides of phi for every nonunit 0-set of [0,14], with
    # the inclusion strict for 55 of them
    result = _run("S", "phi-transport")
    assert (result.status, result.nodes) == ("pass", 455_114)


def test_registry_is_complete():
    assert claims.claim_ids() == [
        "atoms-monomial", "splits-monomial", "lengths-monomial",
        "lengths-sumset", "product-identities", "graded-pieces",
        "seed-sum-membership", "sum-free-atoms", "oracle-equivalence",
        "phi-homomorphism", "lengths-monomial-stretch", "lengths-a-ladder",
        "phi-transport",
    ]
