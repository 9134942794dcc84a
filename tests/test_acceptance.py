"""Acceptance battery: one test per criterion, in battery order.

Each test evaluates its criterion exactly (integer and rational
arithmetic throughout, so the stated tolerance is zero everywhere),
prints the criterion's own PASS/FAIL line, and asserts the result and
that line's exact text.  Five criteria share the grid sweep, built once
per session.
"""

import pytest

from osculant.verify import (
    build_sweep,
    criterion_adjunction,
    criterion_census_determinism,
    criterion_construction_kit,
    criterion_contacts,
    criterion_decomposition,
    criterion_dimensions,
    criterion_exceptional_catalog,
    criterion_expression_round_trip,
    criterion_family_generators,
    criterion_minimizer,
    criterion_negative_curve_catalog,
    criterion_nef_agreement,
    criterion_pairing_closed_form,
)


@pytest.fixture(scope="session")
def sweep():
    return build_sweep()


# the verify-paper lines, byte for byte, in battery order
GOLDEN_LINES = (
    'PASS  exceptional-catalog: 7740 classes with alpha^(2) <= 199: 0 with (self, K-degree) != (-1, -1)',
    'PASS  negative-curve-catalog: 9 base entries + C~3 all at -2',
    'PASS  pairing-closed-form: 1000 random (spec, alpha) tuples, d in [1,8]: 0 closed-vs-direct mismatches',
    'PASS  nef-criterion-agreement: 27086 specs (d 2..5, mu <= 3, full eps window), factored reading: 0 disagreements',
    'PASS  family-generators: 1729 nef triples (d 2..8) all nef, 2532 non-nef triples (d 3..8) all refuted with witness + eps-norm failure',
    'PASS  adjunction-consistency: 27086 specs: arithmetic genus upstairs matches 2*g~ + (rho - 2 + gamma^(1))/2 on all; 0 failures',
    'PASS  dimension-formulas: 6344 nef specs: dim formulas (2d-2, d-2) and moduli d-1 all exact; 0 failures',
    'PASS  minimizer-claim: 27086 specs: box minimum always attained on {mu, nat_mu} or a flat_mu; 0 counterexamples',
    'PASS  contact-uniqueness: 6344 nef specs: at most one zero-pairing alpha per index k in {1,2,3}; 0 violations',
    'PASS  construction-kit: 160 kits (d 2..6, 32 mu patterns): D0 = D1 and F_j = G = pullback(Lambda) plus degree/genus identities; 0 failures',
    'PASS  decomposition-uniqueness: per-coordinate exhaustive (d 1..5, values 0..6(2d-1)): exactly one window/parity solution, always nonnegative; 500 random 4-vectors reconstruct; 0 failures',
    'PASS  expression-round-trip: 10000 random classes round-trip; 25/25 malformed strings rejected with positions; 0 failures',
    'PASS  census-determinism: census n <= 6, d <= 3, gamma <= 15 (83 rows): byte-identical CSV for 1, 2, 8 partitions',
)


def check(result, number):
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == GOLDEN_LINES[number - 1]


def test_01_exceptional_catalog():
    check(criterion_exceptional_catalog(), 1)


def test_02_negative_curve_catalog():
    check(criterion_negative_curve_catalog(), 2)


def test_03_pairing_closed_form():
    check(criterion_pairing_closed_form(), 3)


def test_04_nef_criterion_agreement(sweep):
    check(criterion_nef_agreement(sweep), 4)


def test_05_family_generators():
    check(criterion_family_generators(), 5)


def test_06_adjunction_consistency(sweep):
    check(criterion_adjunction(sweep), 6)


def test_07_dimension_formulas(sweep):
    check(criterion_dimensions(sweep), 7)


def test_08_minimizer_claim(sweep):
    check(criterion_minimizer(sweep), 8)


def test_09_contact_uniqueness(sweep):
    check(criterion_contacts(sweep), 9)


def test_10_construction_kit():
    check(criterion_construction_kit(), 10)


def test_11_decomposition_uniqueness():
    check(criterion_decomposition(), 11)


def test_12_expression_round_trip():
    check(criterion_expression_round_trip(), 12)


def test_13_census_determinism():
    check(criterion_census_determinism(), 13)
