"""Family generators, the construction kit, and the census sweep."""

import hashlib
import json

import pytest

from osculant import (
    CSV_COLUMNS,
    DomainError,
    NoSolutions,
    ParityViolation,
    census,
    census_csv,
    census_json,
    construction_kit,
    generate_nef_types,
    generate_non_nef_types,
    nef_check,
    LambdaSpec,
)
from osculant.lattice import C, F, R, S, DivisorClass
from osculant.verify import _FAMILY_MUS

import non_nef_oracle


def test_nef_family_reference():
    out = generate_nef_types(2, 0, (1, 0, 0, 0))
    assert out == [(4, (3, 2, 2, 2), (0, 1, 1, 1))]


def test_nef_family_sign_spread():
    out = generate_nef_types(2, 1, (1, 0, 0, 0))
    assert out == [(6, (5, 0, 2, 2), (1, 0, 1, 1)),
                   (2, (1, 0, 2, 2), (-1, 0, 1, 1))]


def test_nef_family_odd_degree_has_two_patterns():
    out = generate_nef_types(3, 0, (1, 0, 0, 0))
    assert out == [(8, (5, 4, 4, 4), (0, 2, 2, 2)),
                   (10, (9, 2, 2, 2), (2, 1, 1, 1)),
                   (2, (1, 2, 2, 2), (-2, 1, 1, 1))]


def test_nef_family_members_are_nef():
    for d, k, mu in ((2, 0, (1, 0, 0, 0)), (3, 2, (0, 1, 1, 1)),
                     (4, 1, (2, 1, 1, 1))):
        for n, gamma, _ in generate_nef_types(d, k, mu):
            assert nef_check(LambdaSpec(n, d, gamma)).is_nef()


def test_nef_family_validation():
    with pytest.raises(DomainError):
        generate_nef_types(1, 0, (1, 0, 0, 0))
    with pytest.raises(DomainError):
        generate_nef_types(2, 4, (1, 0, 0, 0))
    with pytest.raises(ParityViolation):
        generate_nef_types(2, 0, (1, 1, 0, 0))
    with pytest.raises(DomainError):
        generate_nef_types(2, 0, (1, -2, 0, 0))


def test_nef_family_char_p_filter():
    full = generate_nef_types(3, 0, (1, 0, 0, 0))
    # gamma^(1) caps at 3*(2d-1) = 15: (9,2,2,2) has 15, (5,4,4,4) has 17
    small = generate_nef_types(3, 0, (1, 0, 0, 0), p=3)
    assert [g for _, g, _ in full] == [(5, 4, 4, 4), (9, 2, 2, 2),
                                       (1, 2, 2, 2)]
    assert [g for _, g, _ in small] == [(9, 2, 2, 2), (1, 2, 2, 2)]


def test_non_nef_family_reference():
    out = generate_non_nef_types(3, (1, 0, 0, 0), bound=2)
    assert len(out) == 9
    assert out[0] == (2, (3, 0, 0, 2), (-1, 0, 0, 1))
    assert out[-1] == (6, (7, 2, 0, 0), (1, 1, 0, 0))
    for n, gamma, _ in out:
        report = nef_check(LambdaSpec(n, 3, gamma))
        assert not report.is_nef()
        assert report.failing_constraint == "eps-norm"


def test_non_nef_family_validation():
    with pytest.raises(DomainError):
        generate_non_nef_types(2, (1, 0, 0, 0), bound=3)
    with pytest.raises(NoSolutions):
        generate_non_nef_types(3, (1, 0, 0, 0), bound=0)


def _outcome(fn, *args):
    """The returned list, or (exception type, message)."""
    try:
        return fn(*args)
    except NoSolutions as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("d", range(3, 13))
def test_non_nef_sphere_matches_cube_filter(d):
    # the library's sphere walk against the literal cube filter, with
    # the order of the output, at every mu and char p of interest
    empty = 0
    for mu in _FAMILY_MUS:
        for bound in (-1, 0, 1, d, 2 * d):
            for p in (None, 3, 7):
                args = (d, mu, bound, p)
                got = _outcome(generate_non_nef_types, *args)
                assert got == _outcome(
                    non_nef_oracle.generate_non_nef_types, *args), args
                empty += not isinstance(got, list)
    assert empty > 0  # bound -1 at least has no solution


def test_kit_reference_degree_two():
    kit = construction_kit(2, (1, 0, 0, 0))
    assert (kit.gamma, kit.n, kit.genus) == ((3, 2, 2, 2), 4, 4)
    assert kit.zbar == 3 * C + F - S[0] - 2 * R[0] - R[1] - R[2] - R[3]
    assert kit.zunder == C + F - S[0] - R[1] - R[2] - R[3]
    assert kit.z == F - S[0] - R[0]
    expected_d0 = 4 * C + 2 * F - 2 * (R[0] + R[1] + R[2] + R[3])
    assert kit.d0 == kit.d1 == expected_d0
    expected_lam = (4 * C + 3 * F - S[0] - 3 * R[0]
                    - 2 * R[1] - 2 * R[2] - 2 * R[3])
    assert kit.f == (expected_lam,)
    assert kit.g == kit.lambda_pullback == expected_lam


def test_kit_reference_degree_three():
    kit = construction_kit(3, (1, 0, 0, 0))
    assert (kit.gamma, kit.n, kit.genus) == ((5, 4, 4, 4), 8, 8)
    assert len(kit.f) == 2
    assert all(fj == kit.lambda_pullback for fj in kit.f)


def test_kit_zero_mu0_branch():
    kit = construction_kit(2, (0, 1, 1, 1))
    assert kit.zunder == kit.zbar + 2 * R[0]
    assert kit.d0 == kit.d1
    assert (kit.gamma, kit.n, kit.genus) == ((0, 5, 5, 5), 13, 7)


def test_kit_pieces_are_named():
    kit = construction_kit(2, (1, 0, 0, 0))
    names = [name for name, _ in kit.named_divisors()]
    assert names == ["Zbar", "Zunder", "Zprime", "Zsecond", "Z",
                     "Z(1)", "Z(2)", "Z(3)", "D0", "D1", "F[0]", "G",
                     "pullback(Lambda)"]
    assert all(isinstance(cls, DivisorClass)
               for _, cls in kit.named_divisors())


def test_kit_validation():
    with pytest.raises(DomainError):
        construction_kit(1, (1, 0, 0, 0))
    with pytest.raises(ParityViolation):
        construction_kit(2, (0, 0, 1, 1))


def test_census_reference_content():
    rows = {r.key(): r for r in census(range(1, 7), range(1, 4), 15)}
    ref = rows[(4, 2, (3, 2, 2, 2))]
    assert ref.nef_brute and ref.nef_closed and ref.agreement
    assert ref.dim_moduli == 1
    assert ref.genus_g == 4
    assert ref.genus_tilde == 0
    bad = rows[(6, 3, (7, 2, 0, 0))]
    assert not bad.nef_brute and not bad.nef_closed and bad.agreement
    assert bad.dim_moduli is None
    assert bad.genus_g == 4


def test_census_degree_one_rows():
    rows = [r for r in census(range(1, 5), range(1, 2), 9) if r.d == 1]
    assert rows
    for r in rows:
        assert r.dim_moduli == 0
        assert not r.nef_brute and not r.nef_closed and r.agreement
        assert r.eps == (0, 0, 0, 0) and r.mu == r.gamma


def test_census_routes_always_agree():
    for r in census(range(1, 8), range(1, 4), 13):
        assert r.agreement
        assert r.nef_closed == r.nef_brute


def test_census_empty_ranges():
    assert census([], [], 5) == []
    assert census(range(4, 4), range(1, 3), 5) == []


def test_census_partition_determinism():
    base = census(range(1, 6), range(1, 4), 11, partitions=1)
    assert base == census(range(1, 6), range(1, 4), 11, partitions=3)
    assert census_csv(base) == census_csv(
        census(range(1, 6), range(1, 4), 11, partitions=7))


def test_census_validation():
    with pytest.raises(DomainError):
        census(range(1, 3), range(1, 3), 5, partitions=0)
    with pytest.raises(DomainError):
        census(range(0, 3), range(1, 3), 5)


def test_census_csv_shape():
    records = census(range(1, 7), range(1, 4), 15)
    text = census_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == len(records) + 1
    assert text.endswith("\n")
    bad = next(i for i, r in enumerate(records)
               if r.key() == (6, 3, (7, 2, 0, 0)))
    cells = lines[bad + 1].split(",")
    assert cells[:6] == ["6", "3", "7", "2", "0", "0"]
    assert cells[14:17] == ["false", "false", "true"]
    assert cells[17] == ""


def test_census_json_serializable():
    records = census(range(1, 5), range(1, 3), 9)
    payload = census_json(records)
    assert json.loads(json.dumps(payload)) == payload
    assert payload[0].keys() == {
        "n", "d", "gamma", "mu", "eps", "nef_closed", "nef_brute",
        "agreement", "dim_moduli", "genus_g", "genus_tilde"}


def test_census_csv_golden():
    # recorded before the evaluate-once refactor; any byte change fails
    text = census_csv(census(range(1, 31), range(1, 7), 60))
    assert text.count("\n") - 1 == 6010
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "375f5ad688460caa845d818f9ac2f753d70b88b819688378d3ae0d7c2e035d9e")
