"""Both nef routes at every n and gamma of a degree d.

The period-2w lemma in nef._nearest says that gamma_i -> gamma_i + 2wk
(w = 2d-1) keeps a spec valid and keeps what both routes decide.  The
property test checks that on shifted specs.  The lemma makes the valid
specs with gamma in [0, 2w]^4 a complete set of representatives, so the
exhaustive test over them certifies every spec of d <= 7, and its digest
pins every verdict there.  Both use scripts/certify.py, which runs the
same check to any d."""

import dataclasses
import gc
import hashlib
import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from osculant.nef import (LambdaSpec, _compose, _minimizer, _window,
                          mu_patterns, n_for_type, nef_check, thresholds)
from osculant.verify import _sweep_blocks

from test_nef import _least_prime_admitting

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify.py"
_spec = importlib.util.spec_from_file_location("certify", _SCRIPT)
certify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify)

# representatives per d, and the SHA-256 of one repr line per
# representative, (d, gamma, verdict, failing constraint, witness,
# contacts), in enumeration order
REP_COUNTS = {1: 9, 2: 106, 3: 332, 4: 920, 5: 2016, 6: 3118, 7: 5134}
REP_SHA256 = "c122e906591e17b8a2260b7cb0c95e42fb0d146d655c1b43330a6424ffb814bb"

_WINDOWS = {d: _window(d) for d in range(1, 8)}


@st.composite
def shifted_specs(draw):
    """A valid spec at d <= 7 (mu <= 3, any congruent eps), a coordinate
    i and a shift count k in 1..3."""
    d = draw(st.integers(1, 7))
    found = _compose(d, draw(st.sampled_from(mu_patterns(3))),
                     draw(st.sampled_from(_WINDOWS[d])))
    assume(found is not None)
    return d, found, draw(st.integers(0, 3)), draw(st.integers(1, 3))


@given(shifted_specs())
@settings(max_examples=200, deadline=None)
def test_a_2w_shift_of_one_coordinate_changes_no_verdict(case):
    d, (n, gamma), i, k = case
    w = 2 * d - 1
    moved = tuple(g + 2 * w * k if j == i else g for j, g in enumerate(gamma))
    moved_n = n + 2 * k * gamma[i] + 2 * w * k * k
    assert n_for_type(d, moved) == moved_n
    base = nef_check(LambdaSpec(n, d, gamma))
    shift = nef_check(LambdaSpec(moved_n, d, moved))
    assert shift.decomposition.eps == base.decomposition.eps
    # the closed rows read only eps and d
    assert shift.conditions == base.conditions
    assert shift.failing_constraint == base.failing_constraint
    assert (shift.verdict, shift.agreement) == (base.verdict, base.agreement)
    t0, t1 = thresholds(d)
    assert (shift.scan.min_k0 - t0, shift.scan.min_other - t1) == (
        base.scan.min_k0 - t0, base.scan.min_other - t1)
    if gamma[i] > 0:
        def up(points):
            return tuple(a[:i] + (a[i] + 2 * k,) + a[i + 1:] for a in points)
        assert shift.scan.argmin_k0 == up(base.scan.argmin_k0)
        assert shift.scan.argmin_other == up(base.scan.argmin_other)


def test_every_representative_up_to_d_7_is_certified_and_pinned():
    digest = hashlib.sha256()
    counts = {}
    for d in REP_COUNTS:
        counts[d] = 0
        for report, failed in certify.certify(d):
            assert not failed, (report.spec, failed)
            counts[d] += 1
            row = (d, report.spec.gamma, report.verdict,
                   report.failing_constraint, report.witness,
                   report.boundary_contacts)
            digest.update(repr(row).encode() + b"\n")
    assert counts == REP_COUNTS
    assert digest.hexdigest() == REP_SHA256


def test_representatives_are_the_sweep_box_cut_to_2w():
    # the battery's grid kind (d, d, 2) holds them all, in the same order
    for d in range(1, 5):
        box = [(row.spec.n, row.spec.gamma)
               for block in _sweep_blocks((d, d, 2)) for row in block
               if max(row.spec.gamma) <= 2 * (2 * d - 1)]
        assert box == list(certify.representatives(d))


def test_certify_script_reports_and_exits_zero(capsys):
    assert certify.main(["--d-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("d=1: 9 specs, 0 failures, ")
    assert lines[-1].startswith("d 1..3: 447 specs, 0 failures, ")


def test_certify_script_pauses_the_collector_and_restores_it(
        capsys, monkeypatch):
    seen = []

    def walk(d, p):
        seen.append(gc.isenabled())
        if d == 2:
            raise KeyboardInterrupt
        return iter(())

    monkeypatch.setattr(certify, "certify", walk)
    assert certify.main(["--d-max", "1"]) == 0
    assert gc.isenabled() and seen == [False]
    with pytest.raises(KeyboardInterrupt):
        certify.main(["--d-max", "2"])
    assert gc.isenabled() and seen == [False, False, False]
    gc.disable()
    try:
        assert certify.main(["--d-max", "1"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()


def test_certify_script_names_failures_by_battery_key():
    report = nef_check(LambdaSpec(4, 2, (3, 2, 2, 2)))
    far = ((41, 0, 0, 0),)
    doctored = dataclasses.replace(
        report, agreement=False, boundary_contacts=((0, 1, 0, 0), (0, 1, 2, 0)),
        scan=report.scan._replace(argmin_k0=far, argmin_other=far))
    assert report.is_nef() and certify.failed_checks(report) == []
    assert certify.failed_checks(doctored) == [
        "nef-criterion-agreement", "minimizer-claim", "contact-uniqueness"]


def test_certify_script_quotes_three_failures_per_d_and_exits_one(
        capsys, monkeypatch):
    # five planted failures among the 106 specs of d = 2
    planted = {0: ["minimizer-claim"],
               7: ["nef-criterion-agreement", "contact-uniqueness"],
               30: ["contact-uniqueness"], 31: ["minimizer-claim"],
               105: ["nef-criterion-agreement"]}
    real = certify.failed_checks
    seen = []

    def failed_checks(report):
        if report.spec.d != 2:
            return real(report)
        seen.append(report.spec)
        return planted.get(len(seen) - 1) or real(report)

    monkeypatch.setattr(certify, "failed_checks", failed_checks)
    assert certify.main(["--d-max", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(seen) == 106
    assert lines[1:4] == [
        "  FAIL n=2 d=2 gamma=(1, 0, 2, 2): minimizer-claim",
        "  FAIL n=6 d=2 gamma=(5, 2, 2, 0): nef-criterion-agreement, "
        "contact-uniqueness",
        "  FAIL n=14 d=2 gamma=(5, 2, 4, 6): contact-uniqueness"]
    assert lines[4].startswith("d=2: 106 specs, 5 failures, ")
    assert lines[5].startswith("d=3: 332 specs, 0 failures, ")
    assert lines[6].startswith("d 1..3: 447 specs, 5 failures, ")
    assert len(lines) == 7


@pytest.mark.parametrize("bad", ["0", "-3", "x"])
def test_certify_script_rejects_a_d_max_below_one(bad, capsys):
    with pytest.raises(SystemExit) as stop:
        certify.main(["--d-max", bad])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--d-max" in err


def test_char_p_keeps_the_minima_and_drops_only_minimizers_over_p():
    # scan_box's lemma at the least prime each representative of d <= 5
    # admits: the class minima and verdicts are the char-0 ones, and the
    # argmins and contacts are the char-0 ones with alpha^(1) <= p
    dropped = 0
    for d in range(1, 6):
        for n, gamma in certify.representatives(d):
            spec = LambdaSpec(n, d, gamma)
            p = _least_prime_admitting(spec)
            zero = nef_check(spec, mode="both")
            char_p = nef_check(spec, mode="both", p=p)

            def budget(points):
                return tuple(a for a in points if sum(a) <= p)

            assert (char_p.scan.min_k0, char_p.scan.min_other) == (
                zero.scan.min_k0, zero.scan.min_other)
            assert (char_p.verdict, char_p.agreement) == (
                zero.verdict, zero.agreement)
            assert char_p.scan.argmin_k0 == budget(zero.scan.argmin_k0)
            assert char_p.scan.argmin_other == budget(zero.scan.argmin_other)
            assert char_p.boundary_contacts == budget(zero.boundary_contacts)
            dropped += char_p.scan.argmins() != zero.scan.argmins()
    # the budget drops a minimizer of 89 specs, so the argmin checks
    # are not vacuous
    assert dropped == 89


def _coordinates(report) -> list:
    """(|eps_i|, gamma_i = 0) for each coordinate of a report's spec."""
    return [(abs(e), g == 0) for e, g in
            zip(report.decomposition.eps, report.spec.gamma)]


def _class_key(report) -> tuple:
    """A window spec's class: mu_0's parity, (|eps_0|, gamma_0 = 0) and
    the sorted triple of (|eps_i|, gamma_i = 0) for i = 1..3."""
    pairs = _coordinates(report)
    return report.decomposition.mu[0] % 2, pairs[0], tuple(sorted(pairs[1:]))


def _signature(report) -> tuple:
    """certify.signature, the argmin count and the contact counts per k.
    Permuting coordinates 1..3 permutes the counts, so each is kept
    beside coordinate k's part of the class key, in that key's order."""
    counts = [len(v) for v in report.contacts_by_k().values()]
    return (*certify.signature(report), len(_minimizer(report)[3]),
            tuple(sorted(zip(_coordinates(report)[1:], counts))))


def test_every_window_spec_has_the_signature_of_its_class():
    # the class key decides everything the certificate checks, so one
    # spec per class would certify a whole window
    classes = {}
    for d in REP_COUNTS:
        for report, _ in certify.certify(d):
            key = (d, _class_key(report))
            sig = _signature(report)
            assert classes.setdefault(key, sig) == sig, (report.spec, key)
    assert len(classes) == 321
    # the classes are not all alike: verdicts, failing rows and contacts
    # differ between them
    sigs = set(classes.values())
    assert {s[2] for s in sigs} == {None, "eps-norm", "eps-sum", "eps-pair"}
    assert len({s[-1] for s in sigs}) > 1
