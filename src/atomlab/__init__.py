"""Exact factorization experiments in two reduced monoids.

The package computes atoms, factorizations and sets of lengths in the
finitary power monoid of the naturals (finite nonempty subsets under
sumset, with its reduced part of 0-containing subsets) and in the
multiplicative monoid of nonzero monomial ideals
of a two-variable polynomial ring, linked by the embedding that sends a set
to the ideal generated by the corresponding staircase corners.
"""

from .engine import (
    Budget,
    FactorEngine,
    MonomialMonoid,
    SearchBudgetExceeded,
    SumsetMonoid,
    monomial_engine,
    sumset_engine,
)
from .families import SumSequence, build_A, build_B, build_C, minimal_sequence
from .graded import GradedIdeal, HomPoly, min_piece_product_check
from .monideal import (
    UNIT,
    MonIdeal,
    build_a,
    build_b,
    build_c,
    build_i_b,
    build_i_c,
    build_tilde_b,
    phi,
)
from .natset import (
    NatSet,
    delta_set,
    elasticity,
    is_sum_free,
    iter_sum_free,
    set_colon,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "FactorEngine",
    "GradedIdeal",
    "HomPoly",
    "MonIdeal",
    "MonomialMonoid",
    "NatSet",
    "SearchBudgetExceeded",
    "SumSequence",
    "SumsetMonoid",
    "UNIT",
    "__version__",
    "build_A",
    "build_B",
    "build_C",
    "build_a",
    "build_b",
    "build_c",
    "build_i_b",
    "build_i_c",
    "build_tilde_b",
    "delta_set",
    "elasticity",
    "is_sum_free",
    "iter_sum_free",
    "min_piece_product_check",
    "minimal_sequence",
    "monomial_engine",
    "phi",
    "set_colon",
    "sumset",
    "sumset_engine",
]
