"""The battery's sweep steps read the integers a both-mode report
carries instead of redoing its work: the minimizer claim runs on the
integer kernel nef._minimizer and builds its Fraction report only when
the claim fails, and adjunction and dimensions reuse the report's
Lambda.  These tests pin the kernel against the public claim and its
Fraction oracle, the failure text of doctored reports, the carried
Lambda, and the count of DivisorClass constructions (also under
``python -O``, where nef._compose's integrality check runs too)."""

import dataclasses
import importlib
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings

import minimizer_oracle
import osculant
from osculant import (
    DomainError,
    LambdaSpec,
    lambda_class,
    linear_system_dims,
    moduli_dimension,
    nef_check,
    verify_minimizer_claim,
)
from osculant.nef import _claim_report, _minimizer
from osculant.verify import (
    _fold,
    _minimizer_step,
    _sweep_blocks,
    _tally,
    criterion_adjunction,
    criterion_dimensions,
    criterion_minimizer,
)

from test_benchmark_bindings import tracer
from test_nef import char_p_cases

REF = LambdaSpec(4, 2, (3, 2, 2, 2))
# the least pairing value is attained only at its one flat_mu
FLAT_ONLY = LambdaSpec(2, 4, (1, 0, 0, 4))
SRC = Path(osculant.__file__).resolve().parent.parent


@given(char_p_cases())
@settings(max_examples=100, deadline=None)
def test_kernel_verdict_matches_the_claim_and_its_oracle(case):
    if case is None:
        return
    spec, p = case
    want = minimizer_oracle.verify_minimizer_claim(spec, p)
    for mode in ("brute", "both"):
        report = nef_check(spec, mode=mode, p=p)
        found = _minimizer(report)
        _, cand_xs, xmin, _ = found
        claim = verify_minimizer_claim(spec, p)
        assert (min(cand_xs) == xmin) == claim.holds == want.holds
        assert _claim_report(spec.w, *found) == claim == want
        checked, bad = _minimizer_step([report])
        assert checked == 1 and bool(bad) != claim.holds


def _wrong_argmin(report):
    # a non-minimizer of each class in place of its argmins
    far = ((41, 0, 0, 0),)
    return dataclasses.replace(
        report, scan=report.scan._replace(argmin_k0=far, argmin_other=far))


def _no_flats(report):
    dec = report.decomposition
    return dataclasses.replace(report,
                               decomposition=dec._replace(flat_mu_set=()))


# each detail is the failure line the public claim's fields give on the
# doctored report: its spec, min_value, counterexamples and least
# candidate value
@pytest.mark.parametrize("spec,doctor,detail", [
    (REF, _wrong_argmin, "(n=4, d=2, gamma=(3,2,2,2)): min 1200 only at "
     "[(41, 0, 0, 0), (41, 0, 0, 0)], candidates reach 0"),
    (FLAT_ONLY, _no_flats, "(n=2, d=4, gamma=(1,0,0,4)): min -1 only at "
     "[(0, 0, 0, 1)], candidates reach 0")],
    ids=["wrong-argmin", "emptied-flat-set"])
def test_doctored_report_fails_with_the_public_text(spec, doctor, detail):
    report = nef_check(spec)
    assert verify_minimizer_claim(spec).holds
    bad = doctor(report)
    assert not _claim_report(spec.w, *_minimizer(bad)).holds
    assert _minimizer_step([bad]) == (1, [detail])


def test_flat_only_spec_needs_its_flat_mu():
    found = _minimizer(nef_check(FLAT_ONLY))
    _, cand_xs, xmin, argmins = found
    assert min(cand_xs[:2]) > xmin == cand_xs[2]
    assert argmins == ((0, 0, 0, 1),)


@given(char_p_cases())
@settings(max_examples=60, deadline=None)
def test_carried_lambda_is_lambda_class(case):
    if case is None:
        return
    spec, p = case
    for mode in ("brute", "both"):
        assert nef_check(spec, mode=mode, p=p).lam == lambda_class(spec, p)
    assert nef_check(spec, mode="closed", p=p).lam is None


def test_sweep_criteria_reject_closed_reports():
    # the adjunction, dimension and minimizer steps read a brute scan
    # and Lambda
    closed = [nef_check(REF), nef_check(REF, mode="closed")]
    for criterion in (criterion_adjunction, criterion_dimensions,
                      criterion_minimizer):
        with pytest.raises(DomainError) as info:
            criterion(closed)
        assert info.value.constraint == "report-mismatch"
    assert criterion_adjunction(closed[:1]).passed


def test_divisor_class_built_once_per_report(monkeypatch):
    """Counted with the tracer's counter, bound on the class as
    Tracer.install binds it: Lambda is the one lattice class a report
    builds, in nef_check's guard, and the five steps reuse it."""
    counting = tracer.Tracer()
    module, klass, method = tracer.COUNTED["lattice.divisor_class"]
    cls = getattr(importlib.import_module(module), klass)
    monkeypatch.setattr(cls, method, counting.counter(
        "lattice.divisor_class", getattr(cls, method)))
    blocks = []

    def kept():
        # the first d = 3 block: both nef and non-nef reports
        for block in islice(_sweep_blocks((3, 3, 3)), 1):
            blocks.append(block)
            yield block

    results = _fold((_tally(block) for block in kept()), "factored", "")
    assert all(r.passed for r in results)
    (block,) = blocks
    assert {row.is_nef() for row in block} == {True, False}
    assert counting.counters["lattice.divisor_class"][0] == len(block)


def test_each_call_admits_its_spec_once(monkeypatch):
    """nef._admit runs once per call of the functions that read a brute
    report, and never in the five sweep steps, which read the reports
    they are given through nef's kernels."""
    nef = importlib.import_module("osculant.nef")
    real_admit = nef._admit
    admitted = []

    def admit(spec, p):
        admitted.append(spec)
        return real_admit(spec, p)

    blocks = list(islice(_sweep_blocks((2, 3, 2)), 3))
    monkeypatch.setattr(nef, "_admit", admit)
    for call in (verify_minimizer_claim, linear_system_dims,
                 moduli_dimension):
        admitted.clear()
        call(REF)
        assert admitted == [REF], call.__name__
    admitted.clear()
    results = _fold((_tally(block) for block in blocks), "factored", "")
    assert all(r.passed for r in results)
    assert sum(row.is_nef() for block in blocks for row in block) > 0
    assert admitted == []


_UNDER_O = """
import dataclasses
from osculant import LambdaSpec, nef_check
from osculant.errors import InternalCheckFailure
from osculant.nef import _claim_report, _compose, _minimizer
from osculant.verify import _minimizer_step
assert False  # stripped under -O
report = nef_check(LambdaSpec(2, 4, (1, 0, 0, 4)))
dec = report.decomposition
flatless = dataclasses.replace(report, decomposition=dec._replace(
    flat_mu_set=()))
print("steps:", _minimizer_step([report])[1], len(
    _minimizer_step([flatless])[1]))
print("public:", _claim_report(report.spec.w,
                               *_minimizer(flatless)).holds)
# 4 eps^(2) - 3 = 1 is not divisible by w = 7
broken = dataclasses.replace(report, decomposition=dec._replace(
    eps=(0, 0, 0, 1)))
try:
    _minimizer_step([broken])
except InternalCheckFailure as exc:
    print("raised:", exc)
try:
    _compose(2, (1, 0, 0, 0), (1, 0, 0, 0))
except InternalCheckFailure as exc:
    print("compose:", exc)
"""


def test_kernel_checks_run_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "steps: [] 1",
        "public: False",
        "raised: 4 eps^(2) - 3 = 1 not divisible by w = 7; the spec should "
        "force this congruence",
        "compose: no integral n for gamma = (5,0,0,0) at d = 2, "
        "eps = (1,0,0,0); 4 eps^(2) = 3 mod 2d-1 should force one"]
