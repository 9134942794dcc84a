"""Both nef routes at every n and gamma of a degree d.

The period-2w lemma in nef._nearest says that gamma_i -> gamma_i + 2wk
(w = 2d-1) keeps a spec valid and keeps what both routes decide.  The
property test checks that on shifted specs.  The lemma makes the valid
specs with gamma in [0, 2w]^4 a complete set of representatives, so the
exhaustive test over them certifies every spec of d <= 7, and its digest
pins every verdict there.  Both use scripts/certify_windows.py, which
runs the same check to any d."""

import hashlib
import importlib.util
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from osculant.nef import (
    LambdaSpec,
    _compose,
    mu_patterns,
    n_for_type,
    nef_check,
    thresholds,
)
from osculant.verify import _sweep_blocks

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify_windows.py"
_spec = importlib.util.spec_from_file_location("certify_windows", _SCRIPT)
certify_windows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_windows)

# representatives per d, and the SHA-256 of one repr line per
# representative, (d, gamma, verdict, failing constraint, witness,
# contacts), in enumeration order
REP_COUNTS = {1: 9, 2: 106, 3: 332, 4: 920, 5: 2016, 6: 3118, 7: 5134}
REP_SHA256 = "c122e906591e17b8a2260b7cb0c95e42fb0d146d655c1b43330a6424ffb814bb"

_WINDOWS = {d: certify_windows.congruent_window(d) for d in range(1, 8)}


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
        for report, failed in certify_windows.certify(d):
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
        assert box == list(certify_windows.representatives(d))


def test_certify_script_reports_and_exits_zero(capsys):
    assert certify_windows.main(["--d-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("d=1: 9 specs, 0 failures, ")
    assert lines[-1].startswith("d 1..3: 447 specs, 0 failures, ")
