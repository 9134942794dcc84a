"""The nef layer validates once, at the public entry points, and then
runs on private kernels over plain checked ints.  These tests pin that
split: the catalog guard's integer forms against the lattice, the guard
compiled from them against their dense evaluation, the guard itself
(also under ``python -O``), the vec4 calls a census row makes, and the
rejections each public wrapper keeps.

The guard is compiled from catalog's form tables at import, so a test
that corrupts a table puts the corrupted tables through the same
generator (catalog._compile_guard) and installs the result where
_catalog_guard reads it."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import osculant
import osculant.brute as brute
import osculant.catalog as catalog
import osculant.nef as nef
from osculant import (
    DomainError,
    LambdaSpec,
    NotDivisible,
    decompose_type,
    genus_tilde,
    lambda_dot_exceptional_closed,
    n_for_type,
    negative_curve_catalog,
    nef_check,
    scan_box,
    validate_type,
)
from osculant.errors import InternalCheckFailure
from osculant.brute import _catalog_guard, _lambda

from test_benchmark_bindings import tracer
from test_catalog import _largest_prime_below_bound, _twelve_base_verdict
from test_nef import _least_prime_admitting, valid_specs

REF = LambdaSpec(4, 2, (3, 2, 2, 2))
SRC = Path(osculant.__file__).resolve().parent.parent


def _lattice_pairings(spec, p):
    lam = _lambda(spec)
    return [lam.dot(cls) for _, cls, _ in negative_curve_catalog(p)]


TABLES = {"base_forms": catalog._BASE_FORMS,
          "cp_slope": catalog._CP_SLOPE, "cp_base": catalog._CP_BASE}


def _dense_forms(p, base_forms, cp_slope, cp_base):
    """(name, all seven coefficients) of each row of
    negative_curve_catalog(p) from the tables, C~p's as p*slope + base:
    the reference the compiled guard is checked against."""
    if p is None:
        return base_forms
    form = tuple(p * a + b for a, b in zip(cp_slope, cp_base))
    return (*base_forms, (f"C~{p}", form))


def _form_values(spec, p, tables=TABLES):
    """Each catalog form evaluated at (n, w, rho, gamma): twice the
    pairing of Lambda with its row."""
    at = (spec.n, spec.w, spec.rho, *spec.gamma)
    return [(name, sum(c * x for c, x in zip(form, at)))
            for name, form in _dense_forms(p, **tables)]


def _dense_failure(spec, p, tables):
    """The message of the first row whose dense value is odd or
    negative, parity before sign, as the guard words it; None when every
    row passes."""
    for name, up in _form_values(spec, p, tables):
        if up % 2:
            return (f"upstairs pairing {up} with {name} is odd; Lambda is "
                    f"not a pullback")
        if up < 0:
            return f"valid spec pairs negatively with {name}: {up // 2}"
    return None


def _compiled_failure(spec, p, tables):
    guard = catalog._compile_guard(**tables)
    try:
        guard(spec.n, spec.w, spec.rho, spec.gamma, p)
    except InternalCheckFailure as exc:
        return str(exc)
    return None


def _install(monkeypatch, **tables):
    """Compile the guard from the tables, the real ones where not
    given, and install it for _catalog_guard."""
    monkeypatch.setattr(brute, "_row_guard",
                        catalog._compile_guard(**{**TABLES, **tables}))


@given(valid_specs())
@settings(max_examples=60, deadline=None)
def test_forms_guard_equals_lattice_pairings(spec):
    if spec is None:
        return
    least = _least_prime_admitting(spec)
    for p in (None, least, least + 2 if least == 3 else 1000000000039):
        try:
            spec.check_char_p(p)
        except DomainError:
            continue
        p = catalog.validate_char_p(p)
        values = _form_values(spec, p)
        assert [name for name, _ in values] == \
            [name for name, _, _ in negative_curve_catalog(p)]
        assert [up for _, up in values] == [2 * x for x in
                                            _lattice_pairings(spec, p)]
        _catalog_guard(spec, p)


def _shifted(coeffs, i, by):
    """coeffs with by added to coefficient i."""
    return (*coeffs[:i], coeffs[i] + by, *coeffs[i + 1:])


def _corrupt(row: int, delta: tuple[int, ...]):
    """The base forms with delta added to the coefficients of one row."""
    forms = list(catalog._BASE_FORMS)
    name, coeffs = forms[row]
    forms[row] = name, tuple(c + x for c, x in zip(coeffs, delta))
    return tuple(forms)


@pytest.mark.parametrize("row,delta,message", [
    (5, (0, 0, 0, -4, 0, 0, 0), "pairs negatively with r~0"),
    (0, (0, 1, 0, 0, 0, 0, 0), "with C~o is odd"),
    (2, (0, 0, -2, 0, 0, 0, 0), "pairs negatively with s~1")],
    ids=["negative", "odd", "negative-zero-row"])
def test_corrupted_form_fails_the_guard(monkeypatch, row, delta, message):
    _install(monkeypatch, base_forms=_corrupt(row, delta))
    for mode in ("brute", "both"):
        with pytest.raises(InternalCheckFailure, match=message):
            nef_check(REF, mode=mode)
    # the closed route does not read the catalog
    assert nef_check(REF, mode="closed").is_nef()


def test_corrupted_char_p_row_fails_the_guard(monkeypatch):
    # C~7 pairs to 7w - gamma^(1) = 12 with REF upstairs; a w coefficient
    # 14 less, through the slope (times 7) or the base, gives 12 - 42 < 0
    for name, shift in (("cp_slope", 2), ("cp_base", 2 * 7)):
        with monkeypatch.context() as patch:
            _install(patch, **{name: _shifted(TABLES[name], 1, -shift)})
            with pytest.raises(InternalCheckFailure,
                               match="negatively with C~7"):
                nef_check(REF, p=7)
            assert nef_check(REF).is_nef()


# one corrupted table set per case: the corruptions of the two tests
# above, a pairing both odd and negative (parity is reported), then each
# row of negative_curve_catalog(7) pushed 2 below 0 at REF through its
# rho coefficient (REF's rho is 1), C~7 last
CORRUPTIONS = {
    "negative": {"base_forms": _corrupt(5, (0, 0, 0, -4, 0, 0, 0))},
    "odd": {"base_forms": _corrupt(0, (0, 1, 0, 0, 0, 0, 0))},
    "negative-zero-row": {"base_forms": _corrupt(2, (0, 0, -2, 0, 0, 0, 0))},
    "odd-negative": {"base_forms": _corrupt(0, (0, -1, 0, 0, 0, 0, 0))},
    "slope": {"cp_slope": _shifted(catalog._CP_SLOPE, 1, -2)},
    "base": {"cp_base": _shifted(catalog._CP_BASE, 1, -2 * 7)},
    **{f"row-{name}": {"base_forms": _corrupt(
        row, (0, 0, -up - 2, 0, 0, 0, 0))}
       for row, (name, up) in enumerate(_form_values(REF, None))},
    "row-C~7": {"cp_base": _shifted(catalog._CP_BASE, 2,
                                    -_form_values(REF, 7)[-1][1] - 2)},
}


@pytest.mark.parametrize("name", [case[len("row-"):] for case in CORRUPTIONS
                                  if case.startswith("row-")])
def test_every_row_is_checked(monkeypatch, name):
    _install(monkeypatch, **CORRUPTIONS[f"row-{name}"])
    for mode in ("brute", "both"):
        with pytest.raises(InternalCheckFailure,
                           match=f"^valid spec pairs negatively with "
                                 f"{name}: -1$"):
            nef_check(REF, mode=mode, p=7)


@given(valid_specs())
@settings(max_examples=60, deadline=None)
def test_compiled_guard_equals_dense_evaluation(spec):
    """Same first failing row and value, or none, on the real tables and
    on every corruption, at char 0 and at primes admitting the spec."""
    if spec is None:
        return
    for p in (None, _least_prime_admitting(spec), 1000000000039):
        if p is not None:
            try:
                p = spec.check_char_p(p)
            except DomainError:
                continue
        for tables in (TABLES, *CORRUPTIONS.values()):
            tables = {**TABLES, **tables}
            assert _compiled_failure(spec, p, tables) == \
                _dense_failure(spec, p, tables), (spec, p, tables)


def test_compiled_guard_equals_dense_evaluation_at_ref():
    # at REF and p = 7 every corruption fails, so the messages compare
    for case, tables in CORRUPTIONS.items():
        tables = {**TABLES, **tables}
        for p in (None, catalog.validate_char_p(7)):
            want = _dense_failure(REF, p, tables)
            assert _compiled_failure(REF, p, tables) == want, (case, p)
            assert want is not None or p is None, case


def _spread_primes() -> list[int]:
    """3, then the least prime above 10^k for k = 1..22, 2^61 - 1, and
    the largest prime below _MR_BOUND."""
    primes = [3]
    for k in range(1, 23):
        n = 10 ** k + 1
        while not _twelve_base_verdict(n):
            n += 2
        primes.append(n)
    return [*primes, 2 ** 61 - 1, _largest_prime_below_bound()]


def test_char_p_form_is_the_lattice_form_of_char_p_section():
    for p in _spread_primes():
        p = catalog.validate_char_p(p)
        assert _dense_forms(p, **TABLES)[-1] == catalog._lambda_form(
            f"C~{p}", catalog.char_p_section(p)), p


@pytest.mark.parametrize("mode", ["brute", "both"])
def test_guard_builds_no_char_p_class(monkeypatch, mode):
    def refuse(p):
        raise AssertionError(f"char_p_section({p}) called")

    monkeypatch.setattr(catalog, "char_p_section", refuse)
    p = 1099511627791
    assert nef_check(REF, mode=mode, p=p).is_nef()
    # the catalog itself still builds C~p on the lattice
    with pytest.raises(AssertionError, match="char_p_section"):
        negative_curve_catalog(p)


def test_wrong_lambda_square_fails_the_guard(monkeypatch):
    wrong = catalog.QuotientClass(catalog.gamma_perp_class(4, 2, 1,
                                                           (3, 2, 2, 4)))
    monkeypatch.setattr(brute, "_lambda", lambda spec: wrong)
    with pytest.raises(InternalCheckFailure, match="Lambda\\^2 = "):
        nef_check(REF, mode="brute")


_UNDER_O = """
import osculant.brute as brute
import osculant.catalog as catalog
from osculant import LambdaSpec, nef_check
from osculant.errors import InternalCheckFailure
assert False  # stripped under -O
forms = list(catalog._BASE_FORMS)
forms[5] = forms[5][0], (0, 0, 0, -2, 0, 0, 0)
brute._row_guard = catalog._compile_guard(tuple(forms), catalog._CP_SLOPE,
                                          catalog._CP_BASE)
try:
    nef_check(LambdaSpec(4, 2, (3, 2, 2, 2)))
except InternalCheckFailure as exc:
    print("raised:", exc)
"""


def test_guard_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "raised: valid spec pairs negatively with r~0: -3" in done.stdout


def test_census_row_makes_at_most_three_vec4_calls(monkeypatch):
    """Counted as test_benchmark_bindings counts the census layers: the
    tracer's counter, bound at every osculant binding of vec4."""
    counting = tracer.Tracer()
    module, name = tracer.COUNTED["vectors.vec4"]
    original = getattr(importlib.import_module(module), name)
    wrapper = counting.counter("vectors.vec4", original)
    for mod in tracer._osculant_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    rows = osculant.census(range(1, 7), range(1, 4), 15)
    calls = counting.counters["vectors.vec4"][0]
    assert rows and calls <= 3 * len(rows), (calls, len(rows))


# each public wrapper still coerces and range-checks before its kernel
REJECTED = {
    "decompose_type-float-d": (lambda: decompose_type((3, 2, 2, 2), 2.0),
                               "vec-integer"),
    "decompose_type-negative": (lambda: decompose_type((3, 2, 2, -2), 2),
                                "gamma-nonnegative"),
    "decompose_type-length": (lambda: decompose_type((3, 2, 2), 2),
                              "vec-length"),
    "decompose_type-d0": (lambda: decompose_type((3, 2, 2, 2), 0),
                          "degree-min"),
    "scan_box-negative": (lambda: scan_box((3, 2, 2, -2), 2),
                          "gamma-nonnegative"),
    "scan_box-float-gamma": (lambda: scan_box((3.0, 2, 2, 2), 2),
                             "vec-integer"),
    "scan_box-d0": (lambda: scan_box((3, 2, 2, 2), 0), "degree-min"),
    "n_for_type-negative": (lambda: n_for_type(2, (-3, 2, 2, 2)),
                            "gamma-nonnegative"),
    "lambda_dot_exceptional_closed-negative": (
        lambda: lambda_dot_exceptional_closed(2, (3, 2, 2, -2), (1, 0, 0, 0)),
        "gamma-nonnegative"),
    "scan_box-excluded": (lambda: scan_box((5, 4, 4, 4), 3, 3),
                          "char-p-bound"),
    "scan_box-composite": (lambda: scan_box((3, 2, 2, 2), 2, 9),
                           "char-p-config"),
    "validate_type-float-n": (lambda: validate_type(4.0, (3, 2, 2, 2)),
                              "vec-integer"),
    "validate_type-bool-gamma": (lambda: validate_type(4, (True, 2, 2, 2)),
                                 "vec-integer"),
    "genus_tilde-float-gamma": (
        lambda: genus_tilde(4, 2, 1, 1, (3, 2, 2, 2.5)), "vec-integer"),
    "genus_tilde-m0": (lambda: genus_tilde(4, 2, 1, 0, (3, 2, 2, 2)),
                       NotDivisible.constraint),
    "genus_tilde-d0": (lambda: genus_tilde(2, 0, 1, 1, (1, 0, 0, 0)),
                       "degree-min"),
    "genus_tilde-negative": (lambda: genus_tilde(2, 1, 1, 1, (-1, 0, 0, 0)),
                             "gamma-nonnegative"),
    "validate_type-negative": (lambda: validate_type(1, (-2, 1, 1, 1)),
                               "gamma-nonnegative"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_public_wrappers_keep_their_rejections(case):
    call, constraint = REJECTED[case]
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.constraint == constraint


@given(valid_specs())
@settings(max_examples=200, deadline=None)
def test_compose_inverts_decompose(spec):
    if spec is None:
        return
    dec = decompose_type(spec.gamma, spec.d)
    assert nef._compose(spec.d, dec.mu, dec.eps) == (spec.n, spec.gamma)


def test_compose_skips_windows_off_the_orthant_or_below_n_one():
    # gamma = (1, -2, -2, 0) leaves N^4
    assert nef._compose(2, (1, 0, 0, 0), (-1, -1, -1, 0)) is None
    # at d = 1, gamma = mu = (1, 0, 0, 0) has gamma^(2) = 1 and n = 0
    assert nef._compose(1, (1, 0, 0, 0), (0, 0, 0, 0)) is None
    assert nef._compose(1, (1, 2, 0, 0), (0, 0, 0, 0)) == (2, (1, 2, 0, 0))
    # 4 eps^(2) - 3 = 1 is not divisible by w = 3, so n is no integer
    with pytest.raises(InternalCheckFailure, match="no integral n"):
        nef._compose(2, (1, 0, 0, 0), (1, 0, 0, 0))


def test_wrappers_and_kernels_agree():
    assert decompose_type((3, 2, 2, 2), 2) == nef._decompose((3, 2, 2, 2), 2)
    assert scan_box([3, 2, 2, 2], 2) == nef._scan((3, 2, 2, 2), 3, None)
    assert validate_type(4, (3, 2, 2, 2)) == []
    assert genus_tilde(4, 2, 1, 1, (3, 2, 2, 2)) == 0


def test_report_fields_each_get_their_own_value():
    names = [f.name for f in dataclasses.fields(nef.NefReport)]
    values = [object() for _ in names]
    for report in (nef.NefReport(*values),
                   nef.NefReport(**dict(zip(names, values)))):
        assert [getattr(report, name) for name in names] == values


def test_report_is_slotted_and_frozen():
    report = nef_check(REF, p=7)
    # slots, written once each: no per-report __dict__ to grow the report
    assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.verdict = "not_nef"
    again = dataclasses.replace(report, agreement=False)
    assert again.agreement is False and again.scan is report.scan
    assert (again.spec, again.p, again.decomposition) == \
        (report.spec, report.p, report.decomposition)
