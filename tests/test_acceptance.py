"""Acceptance battery: one test per criterion, in battery order.

Each criterion is evaluated exactly (integer and rational arithmetic
throughout, so the stated tolerance is zero everywhere).  The battery
runs once per session through ``run_all``, the function behind
``osculant verify-paper``; each test prints its criterion's PASS/FAIL
line and asserts the result and that line's exact text.  The public
criterion functions are compared with ``run_all``'s block pass in
``tests/test_sweep_blocks.py``.
"""

import pytest

import osculant.verify as verify
from osculant.errors import IdentityFailure
from osculant.verify import run_all


@pytest.fixture(scope="session")
def battery():
    return run_all()


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


def check(battery, number):
    result = battery[number - 1]
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == GOLDEN_LINES[number - 1]


def test_battery_covers_every_criterion(battery):
    assert len(battery) == len(GOLDEN_LINES)


def test_01_exceptional_catalog(battery):
    check(battery, 1)


def test_02_negative_curve_catalog(battery):
    check(battery, 2)


def test_03_pairing_closed_form(battery):
    check(battery, 3)


def test_04_nef_criterion_agreement(battery):
    check(battery, 4)


def test_05_family_generators(battery):
    check(battery, 5)


def test_06_adjunction_consistency(battery):
    check(battery, 6)


def test_07_dimension_formulas(battery):
    check(battery, 7)


def test_08_minimizer_claim(battery):
    check(battery, 8)


def test_09_contact_uniqueness(battery):
    check(battery, 9)


def test_10_construction_kit(battery):
    check(battery, 10)


def test_10_construction_kit_fails_on_a_kit_raise(monkeypatch):
    # the kit's IdentityFailure is the criterion's only failure path
    real_kit = verify.construction_kit

    def kit(d, mu):
        if (d, mu) == (3, (0, 1, 1, 1)):
            raise IdentityFailure("D0 != D1 (doctored)")
        return real_kit(d, mu)

    monkeypatch.setattr(verify, "construction_kit", kit)
    result = verify.criterion_construction_kit()
    assert not result.passed
    assert result.detail.endswith(
        "; 1 failures; first: d=3 mu=(0,1,1,1): D0 != D1 (doctored)")


def test_11_decomposition_uniqueness(battery):
    check(battery, 11)


def test_12_expression_round_trip(battery):
    check(battery, 12)


def test_13_census_determinism(battery):
    check(battery, 13)
