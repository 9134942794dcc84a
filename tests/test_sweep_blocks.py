"""The battery's block pass over the shared sweep, on the small grid
d 2..3: the (d, mu) blocks are the sweep in order, the five sweep
criteria give the same results block by block as on the whole list,
failures in different blocks are counted and quoted the same way, and
the block pass holds far less memory than the list pass."""

import dataclasses
import tracemalloc

import pytest

import osculant.verify as verify
from osculant.errors import InternalCheckFailure
from osculant.verify import (
    _fold,
    _grid_box,
    _sweep_blocks,
    _tally,
    build_sweep,
    criterion_adjunction,
    criterion_contacts,
    criterion_dimensions,
    criterion_minimizer,
    criterion_nef_agreement,
    mu_patterns,
)


@pytest.fixture(scope="module")
def blocks():
    return list(_sweep_blocks((2, 3, 3)))


def list_pass(sweep):
    """The five public sweep criteria on one list, in battery order."""
    return [criterion_nef_agreement(sweep), criterion_adjunction(sweep),
            criterion_dimensions(sweep), criterion_minimizer(sweep),
            criterion_contacts(sweep)]


def block_pass(blocks):
    """The block pass with no grid noted, to compare with list_pass."""
    return _fold((_tally(block) for block in blocks), "factored", "")


def carried(rows):
    return [(row, row.spec, row.p, row.decomposition, row.scan)
            for row in rows]


def test_blocks_are_the_sweep_in_order(blocks):
    assert len(blocks) == 2 * len(mu_patterns(3))
    for block in blocks:
        assert len({(r.spec.d, r.decomposition.mu) for r in block}) == 1
    flat = [row for block in blocks for row in block]
    assert carried(flat) == carried(build_sweep((2, 3, 3)))


def test_block_pass_matches_the_public_criteria(blocks):
    flat = [row for block in blocks for row in block]
    results = block_pass(blocks)
    assert results == list_pass(flat)
    assert all(r.passed for r in results)
    assert results[0].detail.startswith("3192 specs")


def test_agreement_names_only_the_grid_it_was_run_on(blocks):
    # a list of reports does not say its grid, so none is named
    plain = criterion_nef_agreement(build_sweep((2, 3, 3)))
    assert plain.detail == ("3192 specs, factored reading: "
                            "0 disagreements")
    named = _fold((_tally(block) for block in blocks), "factored",
                  _grid_box((2, 3, 3)))[0]
    assert named.detail == ("3192 specs (d 2..3, mu <= 3, full eps window), "
                            "factored reading: 0 disagreements")
    assert named.passed and plain.passed


# Failures are planted in the first two nef reports of a d = 2 block and
# of a d = 3 block, with a clean block between them; three blocks keep
# these tests fast, and the list pass reads the same three flattened.
SAMPLE = (5, 20, 40)
PICKED = (0, 2)


def sample(blocks):
    return [list(blocks[b]) for b in SAMPLE]


def picks(blocks):
    """(block, row) positions in the sample of the doctored reports, in
    sweep order."""
    out = []
    for b in PICKED:
        nef_at = [i for i, row in enumerate(blocks[b]) if row.is_nef()][:2]
        assert len(nef_at) == 2
        out += [(b, i) for i in nef_at]
    return out


def doctored(blocks, doctor):
    """The sample with the picked reports replaced by doctor(report)."""
    out = sample(blocks)
    for b, i in picks(out):
        out[b][i] = doctor(out[b][i])
    return out


def _agree_false(row):
    return dataclasses.replace(row, agreement=False)


def _two_k1_contacts(row):
    return dataclasses.replace(row,
                               boundary_contacts=((0, 1, 0, 0), (0, 1, 2, 0)))


def _far_argmins(row):
    far = ((41, 0, 0, 0),)
    return dataclasses.replace(
        row, scan=row.scan._replace(argmin_k0=far, argmin_other=far))


@pytest.mark.parametrize("index,doctor,count", [
    (0, _agree_false, ": 4 disagreements"),
    (3, _far_argmins, "; 4 counterexamples"),
    (4, _two_k1_contacts, "; 4 violations")],
    ids=["agreement", "minimizer", "contacts"])
def test_doctored_reports_fail_alike(blocks, index, doctor, count):
    bad = doctored(blocks, doctor)
    flat = [row for block in bad for row in block]
    by_blocks = block_pass(bad)
    assert by_blocks == list_pass(flat)
    result = by_blocks[index]
    assert not result.passed and count in result.detail
    b, i = picks(bad)[0]
    first = bad[b][i].spec
    assert verify._spec_tag(first) in result.detail
    if index == 0:
        # the first three: both of the d = 2 block, one of the d = 3 block
        assert result.detail.count(" | ") == 3
    else:
        assert result.detail.count("; first: ") == 1
    assert all(r.passed for i, r in enumerate(by_blocks) if i != index)


def test_failing_checks_fail_alike(blocks, monkeypatch):
    blocks = sample(blocks)
    picked = {blocks[b][i].spec for b, i in picks(blocks)}
    real_identity = verify._genus_identity
    real_moduli = verify._moduli
    real_dims = verify._dims
    order = sorted(picked, key=lambda s: (s.d, s.gamma))

    def identity(perp, n, d, rho, gamma):
        lhs, rhs = real_identity(perp, n, d, rho, gamma)
        hit = any(s.n == n and s.d == d and s.gamma == gamma for s in picked)
        return lhs, rhs + hit

    def moduli(report):
        return real_moduli(report) + (report.spec in picked)

    def dims(report):
        if report.spec == order[-1]:
            raise InternalCheckFailure("doctored")
        return real_dims(report)

    monkeypatch.setattr(verify, "_genus_identity", identity)
    monkeypatch.setattr(verify, "_moduli", moduli)
    monkeypatch.setattr(verify, "_dims", dims)
    flat = [row for block in blocks for row in block]
    by_blocks, by_list = block_pass(blocks), list_pass(flat)
    assert by_blocks == by_list
    adjunction, dimensions = by_blocks[1], by_blocks[2]
    assert not adjunction.passed and "; 4 failures" in adjunction.detail
    # three moduli failures plus one InternalCheckFailure, which skips
    # the moduli check of its spec
    assert not dimensions.passed and "; 4 failures" in dimensions.detail
    assert "moduli != d-1" in dimensions.detail


def test_block_pass_holds_less_memory(blocks):
    # d = 2 and mu <= 2 only (197 reports in 10 blocks): tracemalloc slows
    # a pass about fivefold, so d 2..3 would take seconds.  The blocks
    # fixture has built the catalog and caches outside the measurement.
    peaks = []
    for run in (lambda: list_pass(build_sweep((2, 2, 2))),
                lambda: block_pass(_sweep_blocks((2, 2, 2)))):
        tracemalloc.start()
        try:
            results = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
    by_list, by_blocks = peaks
    assert by_blocks < by_list / 2, peaks
