"""Nef criterion, both routes: spec validation, type decomposition,
the closed pairing form, the exact minimizer of q, and the derived
reports."""

import ast
import dataclasses
import importlib.util
import pkgutil
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import osculant
import osculant.brute as brute
import osculant.closed as closed
import osculant.nef as nef_impl

from osculant import (
    AnticanonicalDegreeTooSmall,
    CharPExcluded,
    ConstraintViolation,
    Decomposition,
    DomainError,
    InternalCheckFailure,
    LambdaSpec,
    NefReport,
    NotNef,
    ParityViolation,
    RationalImageViolation,
    RhoEven,
    RhoOutOfRange,
    closed_conditions,
    decompose_type,
    generate_nef_types,
    lambda_class,
    lambda_dot_exceptional_closed,
    linear_system_dims,
    moduli_dimension,
    n_for_type,
    nef_check,
    scan_box,
    thresholds,
    validate_type,
    verify_minimizer_claim,
    z_divisor,
)
from osculant.catalog import (ExceptionalSpec, exceptional_class,
                              gamma_perp_class)
from osculant.lattice import QuotientClass
from osculant.brute import _nearest
from osculant.closed import _split
from osculant.nef import _claim_report, _dims, _lambda, _minimizer, _moduli

import minimizer_oracle
from box_oracle import box_scan, class_of
from decompose_oracle import closed_rows, decompose


REF = LambdaSpec(4, 2, (3, 2, 2, 2))


def test_spec_validation():
    with pytest.raises(RhoEven):
        LambdaSpec(4, 2, (3, 2, 2, 2), rho=2)
    with pytest.raises(RhoOutOfRange):
        LambdaSpec(4, 2, (3, 2, 2, 2), rho=5)
    with pytest.raises(ParityViolation):
        LambdaSpec(4, 2, (2, 2, 2, 2))
    with pytest.raises(ParityViolation):
        LambdaSpec(4, 2, (3, 1, 2, 2))
    # right parity, wrong square sum
    with pytest.raises(RationalImageViolation):
        LambdaSpec(4, 2, (3, 2, 2, 4))
    with pytest.raises(DomainError):
        LambdaSpec(0, 2, (3, 2, 2, 2))


def test_spec_rejects_negative_gamma():
    # (3, 2, 2, -2) has the type parity and gamma^(2) = 21 of n = 4,
    # d = 2, so only the sign check stands between it and a Lambda;
    # (2, 2, 2, -2) breaks the parity too, and the sign is checked first,
    # so the spec fails on the same rule as gamma_perp_class
    for gamma, rho in product(((3, 2, 2, -2), (2, 2, 2, -2)), (1, 3)):
        for make in (lambda: LambdaSpec(4, 2, gamma, rho=rho),
                     lambda: gamma_perp_class(4, 2, rho, gamma)):
            with pytest.raises(DomainError) as info:
                make()
            assert info.value.constraint == "gamma-nonnegative"


def test_spec_fields_must_be_integers():
    # n, d and rho follow the coordinate rule: __index__ integers only,
    # never truncated or parsed
    for n, d, rho in ((4.9, 2, 1), (4, 2.2, 1), (4, 2, 1.0), (7.0, 2, 1),
                      ("4", 2, 1), (4, True, 1), (4, 2, True), (True, 1, 1)):
        with pytest.raises(DomainError) as info:
            LambdaSpec(n, d, (3, 2, 2, 2), rho=rho)
        assert info.value.constraint == "vec-integer"
    spec = LambdaSpec(_Index(4), _Index(2), (3, 2, 2, 2), rho=_Index(1))
    assert spec == REF
    assert all(type(x) is int for x in (spec.n, spec.d, spec.rho))


def test_n_for_type():
    assert n_for_type(2, (3, 2, 2, 2)) == 4
    assert n_for_type(3, (5, 4, 4, 4)) == 8
    assert n_for_type(2, (1, 0, 0, 0)) is None       # square sum below 3
    assert n_for_type(2, (3, 2, 2, 0)) is None       # no integral solution


def test_lambda_class_invariants():
    lam = lambda_class(REF)
    assert lam.self_intersection() == 2 * REF.d - 3
    assert lam.genus() == 0


def test_decompose_reference():
    dec = decompose_type((3, 2, 2, 2), 2)
    assert dec.mu == (1, 0, 0, 0)
    assert dec.eps == (0, 1, 1, 1)
    assert dec.nat_mu == (2, 1, 1, 1)
    assert dec.flat_mu_set == ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))
    assert sum(e * e for e in dec.eps) == 3


def test_decompose_degree_three():
    dec = decompose_type((7, 2, 0, 0), 3)
    assert dec.mu == (1, 0, 0, 0)
    assert dec.eps == (1, 1, 0, 0)
    assert dec.nat_mu == (2, 1, 1, 1)
    assert dec.flat_mu_set == ((2, 1, 0, 0),)


def test_decompose_exact_multiple_has_zero_eps():
    assert decompose_type((3, 0, 0, 0), 2).eps == (0, 0, 0, 0)
    assert decompose_type((5, 10, 0, 5), 3).eps == (0, 0, 0, 0)


def test_decompose_rejects_bad_input():
    with pytest.raises(DomainError):
        decompose_type((3, 2, 2, 2), 0)
    with pytest.raises(DomainError):
        decompose_type((3, -2, 2, 2), 2)


def test_closed_pairing_frozen_values():
    assert lambda_dot_exceptional_closed(2, (3, 2, 2, 2), (1, 0, 0, 0)) == 0
    assert lambda_dot_exceptional_closed(2, (3, 2, 2, 2), (0, 1, 0, 0)) == 1
    # d = 1 pins gamma = mu, and the pairing is always -1 there
    assert lambda_dot_exceptional_closed(1, (1, 2, 0, 0), (1, 2, 0, 0)) == -1
    assert lambda_dot_exceptional_closed(3, (7, 2, 0, 0), (1, 0, 0, 0)) \
        == Fraction(-1)


def test_closed_pairing_matches_direct_dot():
    lam = lambda_class(REF)
    for alpha in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (2, 1, 1, 1),
                  (3, 0, 0, 0), (1, 2, 2, 2)):
        direct = Fraction(
            lam.pullback.dot(exceptional_class(alpha).pullback), 2)
        assert lambda_dot_exceptional_closed(2, REF.gamma, alpha) == direct


def test_thresholds():
    assert thresholds(1) == (4, 2)
    assert thresholds(2) == (12, 6)
    assert thresholds(3) == (28, 18)


def test_scan_box_reference():
    scan = scan_box((3, 2, 2, 2), 2)
    assert scan.min_k0 == 12
    assert scan.argmin_k0 == ((0, 1, 1, 1), (1, 0, 0, 0), (2, 1, 1, 1))
    assert scan.min_other == 6
    assert scan.argmin_other == ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))


@given(st.integers(1, 40), st.tuples(*[st.integers(0, 3000)] * 4),
       st.sampled_from([None, 3, 5, 11, 53, 1009, 1000000000039]))
@settings(max_examples=300, deadline=None)
def test_scan_box_matches_box_oracle(d, gamma, p):
    # gamma^(1) > p(2d-1) is excluded, as for a spec, so small p mostly
    # tests that rule here and the enumeration test below covers them
    if p is not None and sum(gamma) > p * (2 * d - 1):
        with pytest.raises(CharPExcluded):
            scan_box(gamma, d, p)
        return
    mu = decompose_type(gamma, d).mu
    assert scan_box(gamma, d, p) == box_scan(gamma, d, mu, p=p)


def _enumerated_scan(gamma, d, p):
    """Minima of q over every exceptional alpha >= 0 with alpha^(1) <= p,
    by listing them all; independent of any box."""
    w = 2 * d - 1
    best = {0: None, 1: None}
    arg = {0: [], 1: []}
    # every alpha in N^4 with alpha^(1) <= p, in lexicographic order
    alphas = (head + (last,) for head in product(range(p + 1), repeat=3)
              for last in range(p + 1 - sum(head)))
    for alpha in alphas:
        cls = class_of(alpha)
        if cls is None:
            continue
        q = sum((g - w * a) ** 2 for g, a in zip(gamma, alpha))
        if best[cls] is None or q < best[cls]:
            best[cls], arg[cls] = q, [alpha]
        elif q == best[cls]:
            arg[cls].append(alpha)
    return (best[0], tuple(sorted(arg[0])), best[1], tuple(sorted(arg[1])))


@st.composite
def budget_types(draw):
    """(d, p, gamma) with p <= 11 and gamma^(1) <= p(2d-1), often within
    2(2d-1) of that bound, where the budget alpha^(1) <= p drops
    minimizers."""
    d = draw(st.integers(1, 40))
    p = draw(st.sampled_from([3, 5, 7, 11]))
    cap = p * (2 * d - 1)
    total = cap - draw(st.one_of(st.integers(0, 2 * (2 * d - 1)),
                                 st.integers(0, cap)))
    weights = draw(st.tuples(*[st.integers(0, 1000)] * 4))
    scale = sum(weights) or 1
    gamma = [total * x // scale for x in weights[:3]]
    return d, p, (*gamma, total - sum(gamma))


@given(budget_types())
@settings(max_examples=150, deadline=None)
def test_scan_box_matches_enumeration(case):
    d, p, gamma = case
    scan = scan_box(gamma, d, p)
    assert (scan.min_k0, scan.argmin_k0, scan.min_other,
            scan.argmin_other) == _enumerated_scan(gamma, d, p)


def test_scan_box_rejects_excluded_and_negative_types():
    # the rule of LambdaSpec.check_char_p: gamma^(1) <= p(2d-1)
    assert scan_box((3, 2, 2, 2), 2, 3) == nef_check(REF, p=3).scan
    with pytest.raises(CharPExcluded):
        scan_box((3, 2, 2, 3), 2, 3)
    with pytest.raises(CharPExcluded):
        scan_box((3, 4, 2, 2), 2, 3)
    with pytest.raises(DomainError) as info:
        scan_box((3, -2, 2, 2), 2)
    assert info.value.constraint == "gamma-nonnegative"
    # p is validated as everywhere else: an odd prime
    for bad in (4, 9, 7.0):
        with pytest.raises(DomainError) as info:
            scan_box((3, 2, 2, 2), 2, bad)
        assert info.value.constraint == "char-p-config"


def test_scan_box_huge_entries_use_pure_path():
    # residuals near 2**31 overflow int64 squares; the scan must not
    big = 1 << 31
    gamma = (big + 1, big, big, big)
    d = 1
    scan = scan_box(gamma, d)
    assert scan.min_k0 == 0 and scan.argmin_k0 == (gamma,)
    assert scan == box_scan(gamma, d, gamma)


# brute._scan reads _nearest's results from a table row for w < 32 and
# gamma_i < 256.  These specs put a 255 or a 256 in each coordinate, at
# the last w in the table (d = 16) and the first past it (d = 17).  Each
# sums to 17w, and at p = 17 the budget drops minimizers of each base.
TABLE_EDGE = {d: [base[k:] + base[:k] for base in bases for k in range(4)]
              for d, bases in ((16, ((255, 224, 48, 0), (256, 224, 47, 0))),
                               (17, ((255, 150, 156, 0), (256, 150, 155, 0))))}


def test_every_table_row_holds_nearest_entries(monkeypatch):
    monkeypatch.setattr(brute, "_ROWS", [None] * 32)
    for w in range(1, 32, 2):
        brute._scan((255, 0, 0, 0), w, None)
        assert brute._ROWS[w] == [_nearest(g, w) for g in range(256)]
    assert [w for w, row in enumerate(brute._ROWS) if row] == list(
        range(1, 32, 2))


@pytest.mark.parametrize("p", [None, 17])
@pytest.mark.parametrize("d", sorted(TABLE_EDGE))
def test_scan_box_matches_box_oracle_at_the_table_bounds(d, p):
    for gamma in TABLE_EDGE[d]:
        mu = decompose_type(gamma, d).mu
        assert scan_box(gamma, d, p) == box_scan(gamma, d, mu, p=p)


def test_the_table_serves_w_below_32_and_gamma_below_256_only(monkeypatch):
    monkeypatch.setattr(brute, "_ROWS", [None] * 32)
    for d, specs in TABLE_EDGE.items():
        for gamma in specs:
            if d == 17 or 256 in gamma:
                brute._scan(gamma, 2 * d - 1, None)
    assert not any(brute._ROWS)
    brute._scan((255, 224, 48, 0), 31, None)
    assert [w for w, row in enumerate(brute._ROWS) if row] == [31]


# brute._scan takes the least code sum of each class first and builds the
# argmins of the codes that reach it only.  The cases below go through
# each branch of that step: one winning code with one minimizer per
# coordinate (a single 4-tuple), one winning code with a tie in some
# coordinate, and several winning codes.  Each must equal the box oracle
# and the enumeration, argmin order included.

def _winning_codes(scan: "brute.BoxScan") -> list[int]:
    """How many parity codes the minimizers of each class come from."""
    return [len({tuple(a & 1 for a in alpha) for alpha in argmins})
            for argmins in (scan.argmin_k0, scan.argmin_other)]


def _past_every_minimizer(gamma, d) -> int:
    """A budget alpha^(1) <= P that no char-0 minimizer exceeds: each
    coordinate's minimizers lie within 1 of gamma_i // (2d-1)."""
    return sum(g // (2 * d - 1) for g in gamma) + 4


def _assert_scan_matches_oracles(gamma, d, p):
    scan = scan_box(gamma, d, p)
    assert scan == box_scan(gamma, d, decompose_type(gamma, d).mu, p=p)
    budget = _past_every_minimizer(gamma, d) if p is None else p
    assert (scan.min_k0, scan.argmin_k0, scan.min_other,
            scan.argmin_other) == _enumerated_scan(gamma, d, budget)
    return scan


# gamma = w*m with every m_i >= 1: each coordinate's other parity ties
# between m_i - 1 and m_i + 1, so several codes reach a class minimum
TIE_MULTIPLES = ((2, 1, 1, 1), (1, 2, 2, 2), (1, 1, 2, 2), (2, 2, 2, 2),
                 (1, 3, 5, 7), (4, 1, 2, 3))


@pytest.mark.parametrize("d", [1, 2, 3, 6])
@pytest.mark.parametrize("m", TIE_MULTIPLES)
def test_scan_of_tied_codes_matches_the_oracles(d, m):
    gamma = tuple((2 * d - 1) * x for x in m)
    scan = _assert_scan_matches_oracles(gamma, d, None)
    assert max(_winning_codes(scan)) >= 2


# At gamma^(1) near p(2d-1) the budget alpha^(1) <= p drops minimizers of
# a tie.  One base per p: p = 5 and 7 are multiples of w again
BUDGET_DROPS = {3: lambda w: (1, w - 1, w - 1, w + 1),
                5: lambda w: (2 * w, w, w, w),
                7: lambda w: (w, 2 * w, 2 * w, 2 * w)}


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("p", sorted(BUDGET_DROPS))
def test_scan_where_the_budget_drops_minimizers_matches_the_oracles(p, d):
    gamma = BUDGET_DROPS[p](2 * d - 1)
    scan = _assert_scan_matches_oracles(gamma, d, p)
    full = scan_box(gamma, d)
    assert (scan.min_k0, scan.min_other) == (full.min_k0, full.min_other)
    assert len(scan.argmins()) < len(full.argmins())
    assert max(_winning_codes(full)) >= 2


@pytest.mark.parametrize("p", [None, 17])
@pytest.mark.parametrize("d", sorted(TABLE_EDGE))
def test_scan_box_matches_enumeration_at_the_table_bounds(d, p):
    for gamma in TABLE_EDGE[d]:
        _assert_scan_matches_oracles(gamma, d, p)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_budget_filters_minimizers_after_the_class_minimum(p, d):
    # one past p(2d-1), a type scan_box refuses, every k = 0 minimizer
    # of q has alpha^(1) > p.  Filtered after the class minimum, as the
    # scan does, that leaves none; filtered before it, as the oracles
    # do, it would report a larger minimum at (1, 0, 0, p-1)
    w = 2 * d - 1
    gamma = (0, 0, 1, p * w)
    with pytest.raises(CharPExcluded):
        scan_box(gamma, d, p)
    with pytest.raises(InternalCheckFailure, match="no minimizer of q"):
        brute._scan(gamma, w, p)
    full = brute._scan(gamma, w, None)
    assert all(sum(a) > p for a in full.argmin_k0)
    cut = _enumerated_scan(gamma, d, p)
    assert cut[0] > full.min_k0 and cut[1] == ((1, 0, 0, p - 1),)


# closed._decompose reads _split's results from its own table row, on the
# bound _scan tests: w < 32 and every gamma_i < 256.  MIXED puts a
# coordinate past 256 beside tabled ones, so the whole spec goes to _split.
MIXED = [(255, 1000, 0, 7), (3, 2, 256, 300), (0, 0, 0, 4096),
         (62, 255, 511, 1)]


def test_every_decompose_row_holds_split_entries(monkeypatch):
    monkeypatch.setattr(closed, "_DEC_ROWS", [None] * 32)
    for w in range(1, 32, 2):
        closed._decompose((255, 0, 0, 0), (w + 1) // 2)
        assert closed._DEC_ROWS[w] == [_split(g, w) for g in range(256)]
    assert [w for w, row in enumerate(closed._DEC_ROWS) if row] == list(
        range(1, 32, 2))


def test_the_decompose_table_serves_w_below_32_and_gamma_below_256_only(
        monkeypatch):
    monkeypatch.setattr(closed, "_DEC_ROWS", [None] * 32)
    for d, specs in TABLE_EDGE.items():
        for gamma in specs + MIXED:
            if d == 17 or max(gamma) > 255:
                closed._decompose(gamma, d)
    assert not any(closed._DEC_ROWS)
    closed._decompose((255, 224, 48, 0), 16)
    assert [w for w, row in enumerate(closed._DEC_ROWS) if row] == [31]


@pytest.mark.parametrize("d", [2, 16, 17])
def test_decompose_type_matches_decompose_oracle_at_the_table_bounds(d):
    for gamma in TABLE_EDGE.get(d, []) + MIXED:
        expected = decompose(gamma, d)
        assert expected is not None
        assert tuple(decompose_type(gamma, d)) == expected, gamma


@pytest.mark.parametrize("entry,message", [
    ((2, 2, 3, 6), "no window decomposition"),   # |r| = 6 > 2d-2 = 4
    ((-1, 2, 0, 4), "no window decomposition"),  # mu negative
    ((0, 0, -1, 0), "nat_mu"),                   # nat_mu negative
])
def test_a_doctored_decompose_row_entry_is_caught(monkeypatch, entry,
                                                  message):
    # d = 3, w = 5: 12 = 5*2 + 2 is (2, 1, 3, 2) in an honest row
    row = [_split(g, 5) for g in range(256)]
    assert row[12] == (2, 1, 3, 2)
    row[12] = entry
    rows = [None] * 32
    rows[5] = row
    monkeypatch.setattr(closed, "_DEC_ROWS", rows)
    with pytest.raises(InternalCheckFailure, match=message):
        closed._decompose((12, 0, 0, 0), 3)
    # past the table bound _split computes the entry, so nothing fails
    assert decompose_type((12, 0, 0, 256), 3) == decompose((12, 0, 0, 256), 3)


def test_nef_check_mode_validation():
    with pytest.raises(DomainError):
        nef_check(REF, mode="fast")


def test_nef_reference_spec():
    report = nef_check(REF, mode="both")
    assert report.is_nef()
    assert report.agreement is True
    assert report.failing_constraint is None
    assert report.witness is None
    assert report.boundary_contacts == (
        (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 1, 1),
        (1, 1, 0, 1), (1, 1, 1, 0), (2, 1, 1, 1))
    assert all(c.passed for c in report.conditions)
    assert [c.id for c in report.conditions] == \
        ["eps-norm", "eps-sum", "eps-pair"]


def test_not_nef_spec():
    spec = LambdaSpec(6, 3, (7, 2, 0, 0))
    report = nef_check(spec, mode="both")
    assert not report.is_nef()
    assert report.agreement is True
    assert report.failing_constraint == "eps-norm"
    assert report.witness == (1, 0, 0, 0)


def test_degree_one_is_never_nef():
    spec = LambdaSpec(2, 1, (1, 2, 0, 0))
    report = nef_check(spec, mode="both")
    assert not report.is_nef()
    assert report.witness == (1, 2, 0, 0)


def test_single_modes():
    closed = nef_check(REF, mode="closed")
    assert closed.is_nef() and closed.agreement is None
    assert closed.boundary_contacts == ()
    brute = nef_check(REF, mode="brute")
    assert brute.is_nef() and brute.conditions == ()


def test_pair_readings_differ_on_synthetic_decomposition():
    # eps would need gamma with a coordinate residue of 4, impossible at
    # d = 3 through decompose_type, so build the record by hand
    dec = Decomposition(mu=(1, 0, 0, 0), eps=(2, 2, 0, 0),
                        nat_mu=(2, 1, 1, 1), flat_mu_set=((2, 1, 0, 0),))
    factored = closed_conditions(dec, 3, pair_reading="factored")
    literal = closed_conditions(dec, 3, pair_reading="literal")
    f_pair = next(c for c in factored if c.id == "eps-pair")
    l_pair = next(c for c in literal if c.id == "eps-pair")
    assert not f_pair.passed and f_pair.lhs == 20 and f_pair.rhs == 16
    assert l_pair.passed and l_pair.lhs == 4
    with pytest.raises(DomainError):
        closed_conditions(dec, 3, pair_reading="loose")
    with pytest.raises(TypeError, match="a Decomposition, got NoneType"):
        closed_conditions(None, 3)


@pytest.mark.parametrize("mode", ["closed", "brute", "both"])
def test_nef_check_rejects_an_unknown_pair_reading_in_every_mode(mode):
    # the brute route reads no eps row, but the reading is still checked
    with pytest.raises(DomainError) as info:
        nef_check(REF, mode=mode, pair_reading="bogus")
    assert info.value.constraint == "pair-reading"


class _Index:
    """An integer-like value that is not an int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_report_carries_the_validated_p():
    for mode in ("closed", "brute", "both"):
        report = nef_check(REF, mode=mode, p=_Index(7))
        assert report.p == 7 and type(report.p) is not _Index
        assert isinstance(report.p, int) and not isinstance(report.p, bool)
        assert nef_check(REF, mode=mode).p is None
    for bad in (7.9, 7.0, "7", True):
        with pytest.raises(DomainError) as info:
            nef_check(REF, p=bad)
        assert info.value.constraint == "char-p-config"


def test_char_p_boundary_and_exclusion():
    REF.check_char_p(3)          # gamma^(1) = 9 = p * w exactly
    with pytest.raises(CharPExcluded):
        LambdaSpec(6, 2, (3, 4, 2, 2)).check_char_p(3)
    # at p = 3 the contact (2,1,1,1) has alpha^(1) = 5 > p and drops out
    report = nef_check(REF, mode="brute", p=3)
    assert report.is_nef()
    assert (2, 1, 1, 1) not in report.boundary_contacts
    assert (1, 0, 0, 0) in report.boundary_contacts


def test_minimizer_claim_reference():
    rep = verify_minimizer_claim(REF)
    assert rep.holds
    assert rep.min_value == 0
    assert rep.counterexamples == ()
    names = {name for name, _, _ in rep.candidates}
    assert "mu" in names and "nat_mu" in names
    assert rep.to_dict()["min_value"] == 0


def test_z_divisor_reference():
    zd = z_divisor(REF)
    assert zd.anomalies == ()
    assert [(c.alpha, c.k) for c in zd.components] == [
        ((1, 0, 1, 1), 1), ((1, 1, 0, 1), 2), ((1, 1, 1, 0), 3)]


def test_z_divisor_components_are_from_alphas_on_random_nef_specs():
    # every triple generate_nef_types emits is nef
    rng = random.Random(42)
    patterns = nef_impl.mu_patterns(7)
    seen = 0
    for _ in range(40):
        d, k = rng.randint(2, 12), rng.randint(0, 3)
        for n, gamma, _eps in generate_nef_types(d, k, rng.choice(patterns)):
            spec = LambdaSpec(n, d, gamma)
            for p in (None, _least_prime_admitting(spec)):
                comps = z_divisor(spec, p).components
                assert comps == tuple(
                    ExceptionalSpec.from_alpha(c.alpha) for c in comps)
                assert all(ExceptionalSpec.from_alpha(c.alpha, p) == c
                           for c in comps)
                seen += len(comps)
    assert seen > 0


def test_z_divisor_requires_nef():
    with pytest.raises(NotNef):
        z_divisor(LambdaSpec(6, 3, (7, 2, 0, 0)))


def test_linear_system_dims():
    assert linear_system_dims(REF) == (2, 0)
    assert linear_system_dims(LambdaSpec(8, 3, (5, 4, 4, 4))) == (4, 1)
    with pytest.raises(AnticanonicalDegreeTooSmall):
        linear_system_dims(LambdaSpec(2, 1, (1, 2, 0, 0)))
    with pytest.raises(NotNef):
        linear_system_dims(LambdaSpec(6, 3, (7, 2, 0, 0)))


def test_moduli_dimension():
    assert moduli_dimension(LambdaSpec(2, 1, (1, 2, 0, 0))) == 0
    assert moduli_dimension(REF) == 1
    assert moduli_dimension(LambdaSpec(8, 3, (5, 4, 4, 4))) == 2
    with pytest.raises(NotNef):
        moduli_dimension(LambdaSpec(6, 3, (7, 2, 0, 0)))


def test_rho_one_analyses_reject_a_ramified_spec():
    ramified = LambdaSpec(4, 2, (3, 2, 2, 2), rho=3)
    calls = [lambda mode=mode: nef_check(ramified, mode=mode)
             for mode in ("closed", "brute", "both")]
    calls += [lambda f=f: f(ramified)
              for f in (verify_minimizer_claim, z_divisor,
                        linear_system_dims, moduli_dimension)]
    for call in calls:
        with pytest.raises(ConstraintViolation) as info:
            call()
        assert info.value.constraint == "unramified-base"
        assert "needs rho = 1, got rho = 3" in str(info.value)
    assert lambda_class(ramified) == _lambda(ramified)


def test_z_divisor_reports_two_contacts_of_one_index_as_an_anomaly(
        monkeypatch):
    real = nef_check(REF, mode="brute")
    two = ((1, 0, 1, 1), (3, 0, 1, 1))   # both have k(alpha) = 1
    monkeypatch.setattr(nef_impl, "nef_check", lambda spec, mode, p: (
        dataclasses.replace(real, boundary_contacts=two)))
    zd = z_divisor(REF)
    assert zd.anomalies == ((1, two),)
    assert [c.alpha for c in zd.components] == list(two)


@st.composite
def valid_specs(draw):
    """A valid rho = 1 spec from free (d, mu <= 60) plus a congruent eps.

    gamma_i = w*mu_i + 2*eps_i shares the parity of mu_i, so the type
    parity law is imposed on mu directly.  eps_0..eps_2 are free and
    eps_3 is drawn from the window values that solve the square-sum
    congruence 4*eps^(2) = 3 mod w; draws with no solution or with
    n < 1 come back as None and are skipped.
    """
    d = draw(st.integers(1, 30))
    w = 2 * d - 1
    t = draw(st.integers(0, 1))
    parities = [1 - t, t, t, t]
    # small mu, or mu up to 60 as in the benchmark's query workload
    mu_max = draw(st.sampled_from([5, 60]))
    mu = tuple(2 * draw(st.integers(0, (mu_max - b) // 2)) + b
               for b in parities)
    lows = [-min(d - 1, (w * m) // 2) for m in mu]
    # the window edges are drawn often: nef needs a large eps^(2)
    eps = [draw(st.integers(lo, d - 1) | st.sampled_from((lo, d - 1)))
           for lo in lows[:3]]
    rest = sum(e * e for e in eps)
    last = [e for e in range(lows[3], d)
            if (4 * (rest + e * e) - 3) % w == 0]
    if not last:
        return None
    eps.append(draw(st.sampled_from(last)))
    gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
    n = n_for_type(d, gamma)
    if n is None or n < 1:
        return None
    return LambdaSpec(n, d, gamma)


@given(valid_specs())
@settings(max_examples=200, deadline=None)
def test_private_lambda_matches_gamma_perp_class(spec):
    if spec is None:
        return
    lam = QuotientClass(gamma_perp_class(spec.n, spec.d, spec.rho, spec.gamma))
    assert _lambda(spec) == lam
    assert lambda_class(spec) == lam


def test_lambda_class_checks_p():
    ramified = LambdaSpec(4, 2, (3, 2, 2, 2), rho=3)
    assert _lambda(ramified) == lambda_class(ramified, 7) == QuotientClass(
        gamma_perp_class(4, 2, 3, (3, 2, 2, 2)))
    with pytest.raises(CharPExcluded):
        lambda_class(LambdaSpec(8, 3, (5, 4, 4, 4)), 3)   # 17 > 3 * 5
    for bad in (4, 9, 7.0, True, "7"):
        with pytest.raises(DomainError) as info:
            lambda_class(REF, bad)
        assert info.value.constraint == "char-p-config"


@given(valid_specs())
@settings(max_examples=200, deadline=None)
def test_decomposition_reconstructs_gamma(spec):
    if spec is None:
        return
    dec = decompose_type(spec.gamma, spec.d)
    w = spec.w
    assert tuple(w * m + 2 * e for m, e in zip(dec.mu, dec.eps)) == spec.gamma
    assert all(abs(e) <= spec.d - 1 for e in dec.eps)
    assert all(m >= 0 for m in dec.mu)


@st.composite
def decompose_cases(draw):
    """(gamma, d): the type of a valid spec, or a raw nonnegative gamma
    at d <= 40."""
    if draw(st.booleans()):
        spec = draw(valid_specs())
        if spec is not None:
            return spec.gamma, spec.d
    d = draw(st.integers(1, 40))
    top = draw(st.sampled_from([2 * d, 6 * (2 * d - 1), 60 * (2 * d - 1)]))
    return draw(st.tuples(*[st.integers(0, top)] * 4)), d


@given(decompose_cases())
@settings(max_examples=300, deadline=None)
def test_decompose_type_matches_reference(case):
    gamma, d = case
    expected = decompose(gamma, d)
    assert expected is not None  # one window solution per coordinate
    dec = decompose_type(gamma, d)
    assert (dec.mu, dec.eps, dec.nat_mu, dec.flat_mu_set) == expected


@st.composite
def closed_cases(draw):
    """(dec, d): a decomposed type, or a record with any eps (outside
    the window too, where the two pair readings can differ)."""
    if draw(st.booleans()):
        gamma, d = draw(decompose_cases())
        return decompose_type(gamma, d), d
    d = draw(st.integers(1, 40))
    eps = draw(st.tuples(*[st.integers(-2 * d, 2 * d)] * 4))
    return Decomposition(mu=(0, 0, 0, 0), eps=eps, nat_mu=(1, 1, 1, 1),
                         flat_mu_set=()), d


@given(closed_cases())
@settings(max_examples=300, deadline=None)
def test_closed_conditions_match_docstring_formulas(case):
    dec, d = case
    for reading in ("factored", "literal"):
        rows = closed_conditions(dec, d, pair_reading=reading)
        assert tuple((c.id, c.passed, c.lhs, c.rhs, c.note)
                     for c in rows) == closed_rows(dec.eps, d, reading)
        assert not any(c.informational for c in rows)


@given(valid_specs(), st.tuples(st.integers(0, 4), st.integers(0, 4),
                                st.integers(0, 4), st.integers(0, 4)))
@settings(max_examples=200, deadline=None)
def test_closed_pairing_is_half_pullback_dot(spec, alpha):
    if spec is None or sum(alpha) % 2 == 0:
        return
    direct = Fraction(
        lambda_class(spec).pullback.dot(exceptional_class(alpha).pullback), 2)
    assert lambda_dot_exceptional_closed(spec.d, spec.gamma, alpha) == direct


def _least_prime_admitting(spec: LambdaSpec) -> int:
    """The least odd prime p with gamma^(1) <= p(2d-1): the char-p budget
    binds hardest there."""
    p = max(3, -(-sum(spec.gamma) // spec.w))
    while p % 2 == 0 or any(p % q == 0 for q in range(3, p, 2)):
        p += 1
    return p


@st.composite
def char_p_cases(draw):
    """(spec, p) from valid_specs, with p None, a fixed prime, or the
    least prime admitting the spec; None for an invalid draw or a spec
    that a fixed p excludes."""
    spec = draw(valid_specs())
    if spec is None:
        return None
    p = draw(st.sampled_from([None, 3, 5, 7, 53, 1000000000039, "least"]))
    if p == "least":
        return spec, _least_prime_admitting(spec)
    try:
        spec.check_char_p(p)
    except CharPExcluded:
        return None
    return spec, p


@given(char_p_cases())
@settings(max_examples=300, deadline=None)
def test_routes_agree_on_random_specs(case):
    if case is None:
        return
    spec, p = case
    assert nef_check(spec, mode="both", p=p).agreement is True


@given(char_p_cases())
@settings(max_examples=400, deadline=None)
def test_minimizer_claim_and_contact_uniqueness_on_random_specs(case):
    if case is None:
        return
    spec, p = case
    assert verify_minimizer_claim(spec, p).holds
    if nef_check(spec, mode="brute", p=p).is_nef():
        assert z_divisor(spec, p).anomalies == ()


def _assert_same_claim(spec, p):
    got = verify_minimizer_claim(spec, p)
    want = minimizer_oracle.verify_minimizer_claim(spec, p)
    assert got == want
    assert repr(got) == repr(want)
    assert got.to_dict() == want.to_dict()
    assert all(type(v) is Fraction for _, _, v in got.candidates)
    assert type(got.min_value) is Fraction


@given(valid_specs())
@settings(max_examples=200, deadline=None)
def test_minimizer_claim_matches_fraction_reference(spec):
    if spec is not None:
        _assert_same_claim(spec, None)


@given(char_p_cases())
@settings(max_examples=200, deadline=None)
def test_minimizer_claim_matches_fraction_reference_in_char_p(case):
    if case is not None:
        _assert_same_claim(*case)


@given(char_p_cases(), st.sampled_from(["factored", "literal"]))
@settings(max_examples=200, deadline=None)
def test_report_fields_match_their_definitions(case, pair_reading):
    """Contacts, witness and failing constraint, from the pairing values
    of every class minimizer and from the closed rows."""
    if case is None:
        return
    spec, p = case
    report = nef_check(spec, mode="both", p=p, pair_reading=pair_reading)
    values = sorted((lambda_dot_exceptional_closed(spec.d, spec.gamma, a), a)
                    for a in report.scan.argmins())
    assert report.boundary_contacts == tuple(a for v, a in values if v == 0)
    assert report.is_nef() == (values[0][0] >= 0)
    assert report.witness == (None if report.is_nef() else values[0][1])
    failed = [c.id for c in report.conditions if not c.passed]
    assert report.failing_constraint == (failed[0] if failed else None)


# ---------------------------------------------------------------------------
# what a report carries, and its reuse


NEF_REPORT_KEYS = ["verdict", "mode", "failing_constraint", "witness",
                   "boundary_contacts", "agreement", "conditions"]


def test_report_dict_and_equality_ignore_carried_values():
    report = nef_check(REF, mode="both")
    assert list(report.to_dict()) == NEF_REPORT_KEYS
    assert report.spec == REF and report.p is None
    assert report.decomposition == decompose_type(REF.gamma, REF.d)
    # a report rebuilt without the carried values is still equal
    bare = NefReport(report.verdict, report.mode, report.failing_constraint,
                     report.witness, report.boundary_contacts,
                     report.agreement, report.conditions)
    assert bare == report and hash(bare) == hash(report)
    assert repr(bare) == repr(report)
    assert nef_check(REF, mode="closed").scan is None


@given(char_p_cases())
@settings(max_examples=80, deadline=None)
def test_report_scan_equals_fresh_scan(case):
    if case is None:
        return
    spec, p = case
    dec = decompose_type(spec.gamma, spec.d)
    for mode in ("brute", "both"):
        report = nef_check(spec, mode=mode, p=p)
        # only the closed route decomposes gamma
        assert report.decomposition == (dec if mode == "both" else None)
        assert report.scan == scan_box(spec.gamma, spec.d, p)
        assert report.lam == lambda_class(spec, p)
        assert _claim_report(spec.w, *_minimizer(report)) == \
            verify_minimizer_claim(spec, p)


def test_report_reuse_gives_same_dimensions():
    # the kernels on a brute or both report give the public results
    for spec in (REF, LambdaSpec(8, 3, (5, 4, 4, 4)),
                 LambdaSpec(2, 1, (1, 2, 0, 0))):
        for mode in ("brute", "both"):
            report = nef_check(spec, mode=mode)
            assert _moduli(report) == moduli_dimension(spec)
            if spec.d > 1:
                assert _dims(report) == linear_system_dims(spec)
    assert _dims(nef_check(LambdaSpec(8, 3, (5, 4, 4, 4)))) == (4, 1)
    assert _dims(nef_check(REF, p=3)) == linear_system_dims(REF, 3) \
        == (2, 0)
    not_nef = LambdaSpec(6, 3, (7, 2, 0, 0))
    report = nef_check(not_nef, mode="both")
    with pytest.raises(NotNef):
        _dims(report)
    assert _moduli(report) is None
    for call in (linear_system_dims, moduli_dimension):
        with pytest.raises(NotNef):
            call(not_nef)


def test_parity_violation_lists_each_coordinate():
    with pytest.raises(ParityViolation) as info:
        LambdaSpec(4, 2, (2, 3, 2, 2))
    rows = validate_type(4, (2, 3, 2, 2))
    assert len(rows) == 2
    assert info.value.args[0] == "; ".join(rows)


# a wrong kind of object is a TypeError naming LambdaSpec, never an
# AttributeError from the first field the analysis reads
@pytest.mark.parametrize("call", [
    nef_check, verify_minimizer_claim, z_divisor, linear_system_dims,
    moduli_dimension, lambda_class], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", [
    gamma_perp_class(4, 2, 1, (3, 2, 2, 2)), (4, 2, (3, 2, 2, 2)), None],
    ids=["DivisorClass", "tuple", "None"])
def test_spec_must_be_a_lambda_spec(call, bad):
    with pytest.raises(TypeError, match="expected a LambdaSpec, got "):
        call(bad)


# likewise a decomposition that is no Decomposition: a TypeError naming
# the type, not an AttributeError
@pytest.mark.parametrize("call,kind", [
    (lambda bad: closed_conditions(bad, 2), "Decomposition")],
    ids=["closed_conditions"])
@pytest.mark.parametrize("bad", [
    5, REF, tuple(decompose_type(REF.gamma, 2)), nef_check(REF).to_dict()],
    ids=["int", "LambdaSpec", "tuple", "dict"])
def test_reports_and_decompositions_are_checked_for_type(call, kind, bad):
    with pytest.raises(TypeError, match=f"expected an? {kind}, got "):
        call(bad)


OSCULANT_MODULES = ["osculant"] + sorted(
    f"osculant.{info.name}"
    for info in pkgutil.iter_modules(osculant.__path__))


@pytest.mark.parametrize("module", OSCULANT_MODULES)
def test_no_assert_statements(module):
    # cross-checks must raise InternalCheckFailure, which python -O keeps
    with open(importlib.util.find_spec(module).origin) as f:
        tree = ast.parse(f.read())
    asserts = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Assert)]
    assert asserts == []
