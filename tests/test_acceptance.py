"""Acceptance gate: the ten release criteria, one test each.

Each test prints its criterion line (run pytest with -s or -rA to see them
all), asserts the criterion passed, and enforces its wall-clock budget.
The shared corpus (all presets plus 100 seeded random arrangements of at
most 7 lines) is analyzed once per session, inside the timed window of the
first criterion that touches it.
"""

import pytest

from milnorfiber import validation
from milnorfiber.validation import Corpus, _timed


@pytest.fixture(scope="session")
def corpus():
    return Corpus(seed=validation.DEFAULT_SEED)


def check(number, name, fn, budget):
    result = _timed(number, name, fn)
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds < budget, f"criterion {number} took {result.seconds:.1f}s (budget {budget}s)"
    return result


def test_c01_triangle_exact_homology(corpus):
    check(1, "triangle-exact-homology", lambda: validation.criterion_triangle(corpus), budget=1)


def test_c02_near_pencil_family(corpus):
    check(2, "near-pencil-family", lambda: validation.criterion_nearpencil(corpus), budget=5)


def test_c03_generic_family(corpus):
    check(3, "generic-family", lambda: validation.criterion_generic(corpus), budget=30)


def test_c04_pencil_family(corpus):
    check(4, "pencil-family", lambda: validation.criterion_pencil(corpus), budget=10)


def test_c05_bound_sandwich(corpus):
    check(5, "bound-sandwich", lambda: validation.criterion_sandwich(corpus), budget=300)


def test_c06_pipeline_equivalence(corpus):
    check(
        6,
        "pipeline-equivalence",
        lambda: validation.criterion_pipeline_equivalence(corpus),
        budget=300,
    )


def test_c07_algebraic_identities(corpus):
    check(
        7,
        "algebraic-identities",
        lambda: validation.criterion_identities(corpus),
        budget=60,
    )


def test_c08_synthetic_incidence_bound():
    check(8, "synthetic-incidence-bound", validation.criterion_synthetic_cdo, budget=1)


def test_c09_torsion_consistency(corpus):
    check(
        9,
        "torsion-consistency",
        lambda: validation.criterion_torsion_consistency(corpus),
        budget=60,
    )


def test_c10_single_heavy_point_guard(corpus):
    check(
        10,
        "single-heavy-point-guard",
        lambda: validation.criterion_one_point_guard(corpus),
        budget=60,
    )
