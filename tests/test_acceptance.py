"""Acceptance battery: one test per criterion, in battery order.

Each criterion is evaluated exactly (integer and rational arithmetic
throughout, so the stated tolerance is zero everywhere).  The battery
runs once per session through ``run_all``, the function behind
``osculant verify-paper``; each test prints its criterion's PASS/FAIL
line and asserts the result and that line's exact text.  The public
criterion functions are compared with ``run_all``'s block pass in
``tests/test_sweep_blocks.py``.

The real side criteria always pass, so each failure path is run by a
monkeypatch of a name the criterion calls in ``verify``, and the test
pins the whole failing detail.
"""

import pytest

import osculant.verify as verify
from osculant.catalog import ExceptionalSpec, exceptional_class
from osculant.errors import ExprError, IdentityFailure
from osculant.families import generate_nef_types, generate_non_nef_types
from osculant.lattice import DivisorClass
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


def fails_with(result, key, detail):
    assert (result.key, result.passed, result.detail) == (key, False, detail)


def check(battery, number):
    result = battery[number - 1]
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == GOLDEN_LINES[number - 1]


def test_battery_covers_every_criterion(battery):
    assert len(battery) == len(GOLDEN_LINES)


def test_01_exceptional_catalog(battery):
    check(battery, 1)


def test_01_exceptional_catalog_fails_on_a_bad_class(monkeypatch):
    # a = 1 where alpha = (1,0,0,0) has a = 0: not a (-1)-class
    real = verify.enumerate_exceptional
    monkeypatch.setattr(verify, "enumerate_exceptional", lambda max_sq: [
        *real(max_sq), ExceptionalSpec((1, 0, 0, 0), 1, 0)])
    fails_with(verify.criterion_exceptional_catalog(), "exceptional-catalog",
               "7741 classes with alpha^(2) <= 199: 1 with (self, K-degree) "
               "!= (-1, -1)")


def test_02_negative_curve_catalog(battery):
    check(battery, 2)


def test_02_negative_curve_catalog_fails_on_each_bad_row(monkeypatch):
    # one row short, a wrong self-intersection, a class of K-degree -1,
    # and C~3 missing in char 3
    real = verify.negative_curve_catalog

    def catalog(p=None):
        rows = real(p)[:-1]
        if p is not None:
            return rows
        (name0, qc0, _), (name1, _, self1), *rest = rows
        return [(name0, qc0, -1),
                (name1, exceptional_class((1, 0, 0, 0)), self1), *rest]

    monkeypatch.setattr(verify, "negative_curve_catalog", catalog)
    fails_with(verify.criterion_negative_curve_catalog(),
               "negative-curve-catalog",
               "expected 9 base entries, got 8; C~o: self-intersection -1; "
               "s~0: K-degree -1 != 0; char-3 catalog misses C~3 at "
               "self-intersection -2")


def test_03_pairing_closed_form(battery):
    check(battery, 3)


def test_03_pairing_closed_form_fails_on_a_closed_form_off_by_one(
        monkeypatch):
    real = verify.lambda_dot_exceptional_closed
    monkeypatch.setattr(
        verify, "lambda_dot_exceptional_closed",
        lambda d, gamma, alpha: real(d, gamma, alpha) + (1 if d == 5 else 0))
    fails_with(verify.criterion_pairing_closed_form(), "pairing-closed-form",
               "1000 random (spec, alpha) tuples, d in [1,8]: 53 "
               "closed-vs-direct mismatches; first: (n=199, d=5, "
               "gamma=(14,49,23,21)) alpha=(3,8,0,6) 63 vs 62")


def test_04_nef_criterion_agreement(battery):
    check(battery, 4)


def test_05_family_generators(battery):
    check(battery, 5)


def test_05_family_generators_fails_on_a_non_nef_nef_triple(monkeypatch):
    real = verify.generate_nef_types

    def nef_types(d, k, mu):
        out = real(d, k, mu)
        if (d, k, mu) == (3, 0, (1, 0, 0, 0)):
            out += generate_non_nef_types(3, mu, 1)[:1]
        return out

    monkeypatch.setattr(verify, "generate_nef_types", nef_types)
    fails_with(verify.criterion_family_generators(), "family-generators",
               "1 failures; first: nef family d=3 k=0 gamma=(3,0,0,2) came "
               "out not_nef")


def test_05_family_generators_fails_on_a_nef_non_nef_triple(monkeypatch):
    real = verify.generate_non_nef_types

    def non_nef_types(d, mu, bound):
        if (d, mu) == (4, (0, 1, 1, 1)):
            return generate_nef_types(d, 0, mu)
        return real(d, mu, bound)

    monkeypatch.setattr(verify, "generate_non_nef_types", non_nef_types)
    fails_with(verify.criterion_family_generators(), "family-generators",
               "16 failures; first: non-nef family d=4 gamma=(0,13,13,13): "
               "verdict=nef, witness=None, eps-norm passed=True")


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


def test_11_decomposition_uniqueness_fails_on_a_wrong_mu(monkeypatch):
    real = verify.decompose_type

    def decompose(gamma, d):
        dec = real(gamma, d)
        return dec._replace(mu=(dec.mu[0] + 1, *dec.mu[1:])) if d == 4 \
            else dec

    monkeypatch.setattr(verify, "decompose_type", decompose)
    fails_with(verify.criterion_decomposition(), "decomposition-uniqueness",
               "per-coordinate exhaustive (d 1..5, values 0..6(2d-1)): "
               "exactly one window/parity solution, always nonnegative; 500 "
               "random 4-vectors reconstruct; 109 failures; first: d=4 "
               "gamma=(26,2,16,32): got mu=(5, 0, 2, 4), eps=(-1, 1, 1, 2)")


def test_11_decomposition_uniqueness_fails_on_a_wrong_decompose(
        monkeypatch):
    # the exhaustive half checks the program's _decompose on each
    # (v, v, v, v) against the one window/parity solution
    real = verify._decompose

    def decompose(gamma, d):
        dec = real(gamma, d)
        return dec._replace(mu=(*dec.mu[:3], dec.mu[3] + 1)) if d == 3 \
            else dec

    monkeypatch.setattr(verify, "_decompose", decompose)
    fails_with(verify.criterion_decomposition(), "decomposition-uniqueness",
               "per-coordinate exhaustive (d 1..5, values 0..6(2d-1)): "
               "exactly one window/parity solution, always nonnegative; 500 "
               "random 4-vectors reconstruct; 31 failures; first: d=3, value "
               "0: solution (0, 0), but _decompose gives mu=(0, 0, 0, 1), "
               "eps=(0, 0, 0, 0)")


def test_11_decomposition_uniqueness_fails_on_a_second_solution(
        monkeypatch):
    # an abs that lets every remainder into the window gives some
    # values two window/parity solutions
    monkeypatch.setattr(verify, "abs", lambda x: 0, raising=False)
    fails_with(verify.criterion_decomposition(), "decomposition-uniqueness",
               "per-coordinate exhaustive (d 1..5, values 0..6(2d-1)): "
               "exactly one window/parity solution, always nonnegative; 500 "
               "random 4-vectors reconstruct; 155 failures; first: d=1, value "
               "0: solutions [(-2, 1), (0, 0)]")


def test_12_expression_round_trip(battery):
    check(battery, 12)


def _accept(text):
    return DivisorClass()


def _misplace(text):
    raise ExprError("doctored", position=99)


@pytest.mark.parametrize("doctored,bad_parse,failure", [
    ("", _accept, "malformed '' was accepted"),
    ("+", _misplace, "malformed '+': bad position 99"),
], ids=["accepted", "position"])
def test_12_expression_round_trip_fails_on_a_bad_parse(
        monkeypatch, doctored, bad_parse, failure):
    real = verify.expr.parse
    monkeypatch.setattr(verify.expr, "parse", lambda text: bad_parse(text)
                        if text == doctored else real(text))
    fails_with(verify.criterion_expression_round_trip(),
               "expression-round-trip",
               "10000 random classes round-trip; 24/25 malformed strings "
               f"rejected with positions; 1 failures; first: {failure}")


def test_12_expression_round_trip_fails_on_a_bad_format(monkeypatch):
    # one more s0 on every class with f < 0
    real = verify.expr.format
    monkeypatch.setattr(verify.expr, "format", lambda dclass: real(dclass)
                        + " + s0" if dclass.f < 0 else real(dclass))
    fails_with(verify.criterion_expression_round_trip(),
               "expression-round-trip",
               "10000 random classes round-trip; 25/25 malformed strings "
               "rejected with positions; 4766 failures; first: "
               "DivisorClass(c=588810, f=-5, s=(-7, 8, 7, -2), r=(9, 4, 5, 2))"
               " -> 'e*(588810*Co - 5*So) - 7*s0 + 8*s1 + 7*s2 - 2*s3 + 9*r0 "
               "+ 4*r1 + 5*r2 + 2*r3 + s0' -> DivisorClass(c=588810, f=-5, "
               "s=(-6, 8, 7, -2), r=(9, 4, 5, 2))")


def test_13_census_determinism(battery):
    check(battery, 13)


def test_13_census_determinism_fails_when_a_partition_drops_a_row(
        monkeypatch):
    real = verify.census

    def census(*args, partitions=1):
        rows = real(*args, partitions=partitions)
        return rows[1:] if partitions == 8 else rows

    monkeypatch.setattr(verify, "census", census)
    fails_with(verify.criterion_census_determinism(), "census-determinism",
               "census n <= 6, d <= 3, gamma <= 15 (83 rows): partition "
               "outputs differ")
