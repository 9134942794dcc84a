"""Both nef routes on complete characteristic-p slabs, walked by
scripts/certify.py, whose docstring says why a slab is finite and why
its reduced walk is sound; the unreduced slabs at p = 3 and 5 check it."""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from osculant.nef import LambdaSpec, _minimizer, nef_check

from test_windows import certify

# specs per reduced slab, summed over d <= 4, and per unreduced slab
REDUCED = {3: 117, 5: 583, 7: 1823}
UNREDUCED = {3: 392, 5: 2374}


def _moved(points, order) -> tuple:
    """The alphas with their coordinates taken in order, sorted."""
    return tuple(sorted(tuple(a[i] for i in order) for a in points))


def _signature(report, order=(0, 1, 2, 3)) -> tuple:
    """certify.signature, with the argmins and the contacts (so the
    contacts of each k) moved by order."""
    return (*certify.signature(report),
            _moved(_minimizer(report)[3], order),
            _moved(report.boundary_contacts, order))


def test_every_reduced_slab_up_to_p_7_and_d_4_is_certified():
    start = time.perf_counter()
    counts, seen = {}, set()
    over_budget = 0
    for p in REDUCED:
        counts[p] = 0
        for d in range(1, 5):
            for report, failed in certify.certify(d, p):
                assert failed == [], (p, report.spec, failed)
                over_budget += max(certify.least_candidate_sums(report)) > p
                seen.add(report.failing_constraint)
                counts[p] += 1
    assert counts == REDUCED
    # the slabs hold nef specs and two kinds of failing row (none fails
    # at eps-sum first), and some least candidate lies past the budget,
    # so the budget check is not vacuous
    assert seen == {None, "eps-norm", "eps-pair"}
    assert over_budget > 0
    assert time.perf_counter() - start < 1.0


def test_a_reduced_slab_has_the_signatures_of_the_unreduced_one():
    for p in UNREDUCED:
        count = 0
        for d in range(1, 5):
            reduced = {report.spec.gamma: _signature(report)
                       for report, _ in certify.certify(d, p)}
            orbits = set()
            for n, gamma in certify.slab(p, d, reduced=False):
                # the coordinate order that sorts gamma_1..3
                order = (0, *sorted((1, 2, 3), key=gamma.__getitem__))
                key = tuple(gamma[i] for i in order)
                report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p)
                assert _signature(report, order) == reduced[key], (p, gamma)
                orbits.add(key)
                count += 1
            assert orbits == set(reduced)
        assert count == UNREDUCED[p]


def test_the_budget_check_fails_when_every_least_candidate_lies_past_p(
        monkeypatch):
    # mu, nat_mu and three flat_mu all reach the least excess, with
    # alpha^(1) = 1, 5, 3, 3, 3; the budget needs one of them within p
    report = nef_check(LambdaSpec(4, 2, (3, 2, 2, 2)), mode="both", p=3)
    real = certify.least_candidate_sums
    assert real(report) == [1, 5, 3, 3, 3]
    assert certify.failed_checks(report) == []
    monkeypatch.setattr(certify, "least_candidate_sums",
                        lambda r: [s for s in real(r) if s > 3])
    assert certify.failed_checks(report) == ["char-p-budget"]
    # characteristic 0 has no budget
    assert certify.failed_checks(nef_check(report.spec, mode="both")) == []
    # with no least candidate at all the claim fails, and the budget too
    far = ((41, 0, 0, 0),)
    doctored = dataclasses.replace(
        report, scan=report.scan._replace(argmin_k0=far, argmin_other=far))
    monkeypatch.setattr(certify, "least_candidate_sums", real)
    assert real(doctored) == []
    assert certify.failed_checks(doctored) == ["minimizer-claim",
                                               "char-p-budget"]


@pytest.mark.parametrize("bad", ["4", "9", "1"])
def test_certify_script_rejects_a_char_p_that_is_no_odd_prime(bad, capsys):
    with pytest.raises(SystemExit) as stop:
        certify.main(["--d-max", "2", "--char-p", bad])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "char-p-config" in err


def test_certify_script_walks_a_slab_under_python_O():
    # the script's own entry point, with asserts stripped
    root = Path(certify.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-O", str(root / "scripts" / "certify.py"),
         "--char-p", "3", "--d-max", "2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("d=1: 3 specs, 0 failures, ")
    assert lines[1].startswith("d=2: 15 specs, 0 failures, ")
    assert lines[2].startswith("d 1..2: 18 specs, 0 failures, ")
