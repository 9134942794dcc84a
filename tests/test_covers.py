"""Cover invariants: the parity law, quotient genus, the full report,
factorization, and the degree/genus bounds."""

import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from osculant import (
    CoverInvariants,
    DomainError,
    NegativeGenus,
    NotDivisible,
    RhoEven,
    RhoOutOfRange,
    factorization_relations,
    genus_tilde,
    max_genus_dominated,
    osculating_bound,
    perp_genus_identity,
    validate_cover,
    validate_type,
)
from osculant.errors import DegreeTooSmall


def test_type_parity():
    assert validate_type(4, (3, 2, 2, 2)) == []
    assert validate_type(2, (1, 0, 0, 2)) == []
    violations = validate_type(2, (2, 0, 0, 2))
    assert len(violations) == 1 and "gamma_0" in violations[0]


def test_genus_tilde_values():
    assert genus_tilde(4, 2, 1, 1, (3, 2, 2, 2)) == 0
    # gamma^(2) = 25+12 = 37, right side 18+3-37 < 0
    with pytest.raises(NegativeGenus):
        genus_tilde(4, 2, 1, 1, (5, 2, 2, 2))
    # right side 24+3-21 = 6 is not a multiple of 4
    with pytest.raises(NotDivisible):
        genus_tilde(5, 2, 1, 1, (3, 2, 2, 2))


def test_full_report_passes_on_reference_cover():
    inv = CoverInvariants(n=4, d=2, g=4, g_tilde=0, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    report = validate_cover(inv)
    assert report.ok
    assert report.minimal
    assert report.failed() == []
    ids = [c.id for c in report.checks]
    for expected in ("rho-odd", "rho-range", "m-divides", "type-parity",
                     "genus-le-type-sum", "quotient-genus",
                     "type-norm-bound", "genus-square", "unramified-m",
                     "unramified-genus-square", "max-genus"):
        assert expected in ids


def test_report_json_shape():
    inv = CoverInvariants(n=4, d=2, g=4, g_tilde=0, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    payload = validate_cover(inv).to_dict()
    text = json.dumps(payload)
    assert json.loads(text)["minimal"] is True
    row = payload["checks"][0]
    assert set(row) >= {"id", "pass", "lhs", "rhs"}


def test_report_flags_violations_as_data():
    inv = CoverInvariants(n=4, d=2, g=9, g_tilde=0, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    report = validate_cover(inv)
    assert not report.ok
    failed = {c.id for c in report.failed()}
    assert "genus-le-type-sum" in failed
    assert "max-genus" in failed


def test_informational_row_never_rejects():
    inv = CoverInvariants(n=4, d=2, g=4, g_tilde=0, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    report = validate_cover(inv)
    weak = next(c for c in report.checks if c.id == "genus-square-weak")
    assert weak.informational
    assert weak.to_dict().get("informational") is True


def test_char_p_row_only_when_configured():
    inv = CoverInvariants(n=4, d=2, g=4, g_tilde=0, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    ids = {c.id for c in validate_cover(inv).checks}
    assert "char-p-type-sum" not in ids
    with_p = validate_cover(inv, p=3)
    row = next(c for c in with_p.checks if c.id == "char-p-type-sum")
    assert row.passed and row.lhs == 9 and row.rhs == 9


def test_stored_quotient_genus_is_cross_checked():
    inv = CoverInvariants(n=4, d=2, g=4, g_tilde=1, rho=1, m=1,
                          gamma=(3, 2, 2, 2))
    report = validate_cover(inv)
    row = next(c for c in report.checks if c.id == "quotient-genus")
    assert not row.passed
    assert row.note == "stored g_tilde = 1 disagrees with recomputed value"


@pytest.mark.parametrize("n,gamma,rhs", [(4, (5, 2, 2, 2), -16),
                                         (5, (3, 2, 2, 2), 6)])
def test_quotient_genus_note_names_a_right_side_that_is_no_genus(
        n, gamma, rhs):
    # at m = 1 the right side must be >= 0 and divisible by 4m^2 = 4
    inv = CoverInvariants(n=n, d=2, g=4, g_tilde=0, rho=1, m=1, gamma=gamma)
    row = next(c for c in validate_cover(inv).checks
               if c.id == "quotient-genus")
    assert (row.passed, row.lhs, row.rhs) == (False, 0, rhs)
    assert row.note == (f"right side {rhs} not a genus: must be >= 0 and "
                        f"divisible by 4")


def _genus_rows(inv):
    return [c for c in validate_cover(inv).checks
            if c.id in ("quotient-genus", "type-norm-bound")]


def _written_out(inv):
    """The quotient-genus and type-norm-bound rows, each law spelled out
    on its own."""
    n, d, rho, m, g2 = inv.n, inv.d, inv.rho, inv.m, inv.gamma_sq
    w, mm = 2 * d - 1, 4 * m * m
    num = w * (2 * n - 2 * m) + 4 * m * m - rho * rho - g2
    ok = m >= 1 and num >= 0 and num % mm == 0 and num == mm * inv.g_tilde
    note = ""
    if m >= 1 and (num < 0 or num % mm):
        note = f"right side {num} not a genus: must be >= 0 and divisible by {mm}"
    elif not ok:
        note = f"stored g_tilde = {inv.g_tilde} disagrees with recomputed value"
    bound = 2 * w * (n - m) + 4 * m * m - rho * rho
    return [("quotient-genus", ok, mm * inv.g_tilde, num, note),
            ("type-norm-bound", g2 <= bound, g2, bound, "")]


# m = 0 and even rho included, and numerators of either sign
covers = st.builds(CoverInvariants, n=st.integers(0, 12),
                   d=st.integers(1, 6), g=st.integers(0, 6),
                   g_tilde=st.integers(-1, 3), rho=st.integers(0, 7),
                   m=st.integers(0, 3),
                   gamma=st.tuples(*[st.integers(0, 9)] * 4))


@given(covers)
@settings(max_examples=300, deadline=None)
def test_genus_rows_match_the_laws_written_out(inv):
    assert [(c.id, c.passed, c.lhs, c.rhs, c.note)
            for c in _genus_rows(inv)] == _written_out(inv)


# numerators 0, 12, 6 (not divisible by 4), -16 and -4 at d = 2
@given(covers.filter(lambda inv: inv.m >= 1))
@example(CoverInvariants(4, 2, 0, 0, 1, 1, (3, 2, 2, 2)))
@example(CoverInvariants(6, 2, 0, 0, 1, 1, (3, 2, 2, 2)))
@example(CoverInvariants(5, 2, 0, 0, 1, 1, (3, 2, 2, 2)))
@example(CoverInvariants(4, 2, 0, 0, 1, 1, (5, 2, 2, 2)))
@example(CoverInvariants(2, 2, 0, 0, 1, 1, (3, 2, 0, 0)))
@settings(max_examples=300, deadline=None)
def test_type_norm_bound_fails_where_genus_tilde_is_negative(inv):
    (bound,) = [c for c in _genus_rows(inv) if c.id == "type-norm-bound"]
    args = (inv.n, inv.d, inv.rho, inv.m, inv.gamma)
    try:
        genus_tilde(*args)
    except NegativeGenus as exc:
        assert not bound.passed
        assert str(exc) == (
            f"[genus-nonnegative] gamma^(2) = {bound.lhs} exceeds "
            f"{bound.rhs}; numerator {bound.rhs - bound.lhs} < 0")
    except NotDivisible:
        assert bound.passed
    else:
        assert bound.passed


def test_factorization_errors_name_the_failing_number():
    for args, text in [((5, 7, 2), "m must be odd and >= 1, got 2"),
                       ((4, 7, 3), "m = 3 does not divide 2d-1 = 7"),
                       ((5, 6, 3), "m = 3 does not divide 2g+1 = 13")]:
        with pytest.raises(NotDivisible) as caught:
            factorization_relations(*args)
        assert str(caught.value) == f"[divisibility] {text}", args


def test_factorization():
    assert factorization_relations(5, 7, 3) == (2, 2)
    assert factorization_relations(5, 7, 1) == (5, 7)
    with pytest.raises(NotDivisible):
        factorization_relations(5, 7, 2)
    with pytest.raises(NotDivisible):
        factorization_relations(4, 7, 3)
    with pytest.raises(NotDivisible):
        factorization_relations(5, 6, 3)


def test_osculating_bound():
    assert osculating_bound(4, 4) == 2
    assert osculating_bound(2, 3) == 3
    assert osculating_bound(2, 0) == 1
    with pytest.raises(DegreeTooSmall):
        osculating_bound(1, 3)


def _bound_by_counting(n: int, g: int) -> int:
    """osculating_bound by its definition: count d up from 1."""
    need = g * g + g - 2
    d = 1
    while (2 * d - 1) * (2 * n - 2) < need:
        d += 1
    return d


@given(st.integers(2, 400), st.integers(-300, 300))
@settings(max_examples=300, deadline=None)
def test_osculating_bound_matches_counting(n, g):
    assert osculating_bound(n, g) == _bound_by_counting(n, g)


def test_osculating_bound_is_constant_time():
    # counting would take about g^2 / 4 = 2.5e11 steps here
    start = time.perf_counter()
    d = osculating_bound(2, 10 ** 6)
    assert time.perf_counter() - start < 0.01
    assert (2 * d - 1) * 2 >= 10 ** 12 + 10 ** 6 - 2 > (2 * d - 3) * 2


def test_max_genus_dominated():
    assert max_genus_dominated(4, 1) == 7
    assert max_genus_dominated(3, 5) == 3
    with pytest.raises(RhoEven):
        max_genus_dominated(4, 2)
    with pytest.raises(RhoOutOfRange):
        max_genus_dominated(4, -1)


def test_perp_genus_identity_reference():
    lhs, rhs = perp_genus_identity(4, 2, 1, (3, 2, 2, 2))
    assert lhs == rhs == 4


@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_parity_law_characterization(n, a, b, c, e):
    gamma = (2 * a + (n + 1) % 2, 2 * b + n % 2, 2 * c + n % 2,
             2 * e + n % 2)
    assert validate_type(n, gamma) == []


def test_genus_tilde_requires_positive_m():
    with pytest.raises(DomainError):
        genus_tilde(4, 2, 1, 0, (3, 2, 2, 2))


def test_cover_invariants_reject_non_integer_scalars():
    # a float n used to reach validate_cover, whose quotient-genus row
    # then read rhs 3.0
    with pytest.raises(DomainError) as info:
        validate_cover(CoverInvariants(4.5, 2, 4, 0, 1, 1, (3, 2, 2, 2)))
    assert info.value.constraint == "vec-integer"
    assert "n" in str(info.value)
