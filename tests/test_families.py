"""Family generators, the construction kit, and the census sweep."""

import hashlib
import json
import time
import tracemalloc
from math import isqrt

import pytest

import osculant.covers as covers
import osculant.families as families
from osculant import (
    CSV_COLUMNS,
    DomainError,
    NegativeGenus,
    NoSolutions,
    ParityViolation,
    census,
    census_csv,
    census_json,
    construction_kit,
    generate_nef_types,
    generate_non_nef_types,
    genus_tilde,
    moduli_dimension,
    nef_check,
    LambdaSpec,
    NotNef,
)
from osculant.covers import char_p_admits
from osculant.families import _cell_types, _pair_tables, _sphere
from osculant.catalog import ExceptionalSpec
from osculant.lattice import K_TILDE, C, F, R, S, DivisorClass, QuotientClass
from osculant.nef import _image_total, mu_patterns
from osculant.verify import _FAMILY_MUS

import cell_types_oracle
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


@pytest.mark.parametrize("d", [13, 31, 57, 101])
def test_sphere_is_the_nested_isqrt_walk(d):
    # the pair-table walk against the walk it replaced, order included
    target = non_nef_oracle.non_nef_target(d)
    for cap in (-1, 0, 1, d // 4, d):
        assert _sphere(target, cap) == non_nef_oracle.sphere(target, cap), cap


def test_sphere_cost_is_its_disc_and_its_points():
    # the nested isqrt walk took about 1.2 s on a 2-core host: O(c^3)
    # for c = 141
    target = non_nef_oracle.non_nef_target(201)
    start = time.perf_counter()
    points = _sphere(target, 201)
    took = time.perf_counter() - start
    assert (target, len(points)) == (20151, 232960)
    assert took < 0.3, took


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


def test_kit_pieces_are_exceptional_class_pullbacks():
    # the shift of mu each piece is built from (Z(1) is Zsecond); Zunder
    # is a G~nu piece only at mu_0 > 0, since at mu_0 = 0 its nu_0 is -1
    count = 0
    for d in range(2, 9):
        for mu in mu_patterns(5):
            kit = construction_kit(d, mu)
            pieces = [(kit.zbar, (1, 1, 1, 1)), (kit.zprime, (0, 2, 1, 1)),
                      (kit.zsecond, (0, 0, 1, 1)), (kit.zk[1], (0, 1, 0, 1)),
                      (kit.zk[2], (0, 1, 1, 0)), (kit.z, (0, 0, 0, 0))]
            if mu[0]:
                pieces.append((kit.zunder, (-1, 1, 1, 1)))
            for piece, delta in pieces:
                nu = tuple(m + x for m, x in zip(mu, delta))
                assert piece == ExceptionalSpec.from_alpha(nu).pullback(), (
                    d, mu, delta)
                q = QuotientClass(piece)
                assert (q.self_intersection(), q.dot(K_TILDE)) == (-1, -1)
                count += 1
    assert count == 7 * (162 * 6 + sum(mu[0] > 0 for mu in mu_patterns(5)))


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


@pytest.mark.parametrize("p", [None, 7])
def test_census_moduli_is_the_public_moduli_dimension(p):
    rows = census(range(1, 9), range(1, 5), 21, p=p)
    assert {r.d for r in rows} == {1, 2, 3, 4}
    assert {r.dim_moduli is None for r in rows} == {True, False}
    for r in rows:
        spec = LambdaSpec(r.n, r.d, r.gamma)
        if r.dim_moduli is None:
            with pytest.raises(NotNef):
                moduli_dimension(spec, p)
        else:
            assert moduli_dimension(spec, p) == r.dim_moduli


def test_census_routes_always_agree():
    for r in census(range(1, 8), range(1, 4), 13):
        assert r.agreement
        assert r.nef_closed == r.nef_brute


def test_census_empty_ranges():
    assert census([], [], 5) == []
    assert census(range(4, 4), range(1, 3), 5) == []
    # a negative bound empties every cell
    assert census([], [], -1) == []
    assert census(range(1, 4), range(1, 3), -1) == []
    assert census(range(1, 4), range(1, 3), -7, p=7, partitions=3) == []


@pytest.mark.parametrize("bound", [0, 1, 2, 7, 80, 10**6])
def test_cell_types_are_the_cube_walk_on_every_small_cell(bound):
    # the census builds its tables once, for its largest cell
    tables = _pair_tables(_image_total(40, 8), bound)
    for n in range(1, 41):
        for d in range(1, 9):
            assert _cell_types(n, d, bound, tables) == \
                cell_types_oracle.cell_types(n, d, bound), (n, d)


@pytest.mark.parametrize("n,d", [(120, 10), (119, 10), (120, 9), (97, 7)])
@pytest.mark.parametrize("bound", [40, 150, 10**6])
def test_cell_types_are_the_cube_walk_on_large_cells(n, d, bound):
    expected = cell_types_oracle.cell_types(n, d, bound)
    for top in (_image_total(n, d), _image_total(n + 5, d + 3)):
        assert _cell_types(n, d, bound, _pair_tables(top, bound)) == expected


def test_census_cost_does_not_grow_with_a_bound_past_the_sphere():
    # a table sized by the bound alone would hold about 2.5e11 pairs
    base = census(range(1, 4), range(1, 3), 100)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rows = census(range(1, 4), range(1, 3), 10**6)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == base
    assert took < 0.1, took
    assert peak < 2**20, peak
    top = _image_total(3, 2)
    assert _pair_tables(top, 10**6) == _pair_tables(top, isqrt(top))


def test_a_char_p_census_walks_only_cells_that_admit_a_type(monkeypatch):
    # (gamma^(1))^2 >= gamma^(2) in N^4, so a cell whose total passes
    # (p(2d-1))^2 admits none; all 2,400 cells were once walked here
    walked = []
    cell_types = families._cell_types

    def counted(n, d, gamma_bound, tables):
        walked.append((n, d))
        return cell_types(n, d, gamma_bound, tables)

    monkeypatch.setattr(families, "_cell_types", counted)
    rows = census(range(1, 801), range(1, 4), 10**6, p=3)
    assert walked == [(n, d) for n in range(1, 801) for d in range(1, 4)
                      if _image_total(n, d) <= (3 * (2 * d - 1)) ** 2]
    assert len(walked) == 41
    # every admitted type lies at n <= 23 here
    monkeypatch.undo()
    assert len(rows) == 140
    assert rows == [r for r in census(range(1, 24), range(1, 4), 10**6)
                    if char_p_admits(r.gamma, 2 * r.d - 1, 3)]


def test_census_reads_each_range_once():
    # an iterator as d_range once ran out after the first n: 3 rows
    base = census(range(1, 8), range(1, 4), 15)
    assert len(base) == 106
    assert census(range(1, 8), iter(range(1, 4)), 15) == base
    assert census((n for n in range(1, 8)), (d for d in range(1, 4)),
                  15) == base


@pytest.mark.parametrize("ns,ds,constraint", [
    ([], ["x"], "vec-integer"), ([0], [], "degree-min"),
    # n_range is checked first
    ([0], ["x"], "degree-min"), ([1, 0], [1.5], "degree-min")])
def test_census_checks_each_range_even_when_the_other_is_empty(
        ns, ds, constraint):
    # and before a negative bound empties every cell
    for bound in (5, -1):
        with pytest.raises(DomainError) as info:
            census(ns, ds, bound)
        assert info.value.constraint == constraint


@pytest.mark.parametrize("ns,ds", [([], []), (range(1, 3), range(1, 3))])
def test_census_checks_the_pair_reading_before_any_row(ns, ds):
    with pytest.raises(DomainError) as info:
        census(ns, ds, 5, pair_reading="bogus")
    assert info.value.constraint == "pair-reading"


def test_census_partition_determinism():
    base = census(range(1, 6), range(1, 4), 11, partitions=1)
    assert base == census(range(1, 6), range(1, 4), 11, partitions=3)
    assert census_csv(base) == census_csv(
        census(range(1, 6), range(1, 4), 11, partitions=7))


@pytest.mark.parametrize("grid", [
    (range(1, 13), range(1, 6), 40, None),
    (range(30, 0, -1), range(6, 0, -1), 60, None),
    (range(1, 41), range(1, 9), 80, 7)])
def test_one_partition_walks_the_grid_in_key_order(grid):
    # the single-partition census is not sorted after its walk
    ns, ds, bound, p = grid
    rows = census(ns, ds, bound, p=p)
    assert len(rows) > 100
    assert all(a.key() < b.key() for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("partitions", [1, 3])
def test_census_genus_tilde_is_each_rows_own(monkeypatch, partitions, p):
    # census computes g~ once per (n, d) cell; every row must read what
    # covers.genus_tilde gives for it.  That is 0 on every rho = 1 type,
    # so a second pass patches the numerator to 4(n + 2d - 1), one value
    # per cell: g~ = n + 2d - 1
    def rows():
        return census(range(1, 13), range(1, 6), 40, p=p,
                      partitions=partitions)

    for patch in (False, True):
        if patch:
            monkeypatch.setattr(covers, "_genus_numerator",
                                lambda n, w, rho, m, g2: 4 * (n + w))
        got = rows()
        assert len(got) > 50
        assert [r.genus_tilde for r in got] == [
            genus_tilde(r.n, r.d, 1, 1, r.gamma) for r in got]
        assert {r.genus_tilde == r.n + 2 * r.d - 1 for r in got} == {patch}


def test_census_genus_check_fails_as_each_row_would(monkeypatch):
    monkeypatch.setattr(covers, "_genus_numerator", lambda *args: -4)
    with pytest.raises(NegativeGenus) as info:
        census(range(1, 13), range(1, 6), 40)
    # the first cell, (1, 1), has gamma^(2) = 3
    assert str(info.value) == (
        "[genus-nonnegative] gamma^(2) = 3 exceeds -1; numerator -4 < 0")
    with pytest.raises(NegativeGenus) as row:
        genus_tilde(1, 1, 1, 1, (1, 1, 1, 0))
    assert str(row.value) == str(info.value)


def test_census_deals_no_more_blocks_than_cells():
    # a partition count far beyond the six cells of this grid once built
    # one list per partition (61.5 MB at 10**6); the records are the same
    base = census(range(1, 4), range(1, 3), 7)
    tracemalloc.start()
    try:
        rows = census(range(1, 4), range(1, 3), 7, partitions=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == base
    assert peak < 2**20, peak


def test_census_validation():
    with pytest.raises(DomainError):
        census(range(1, 3), range(1, 3), 5, partitions=0)
    with pytest.raises(DomainError):
        census(range(0, 3), range(1, 3), 5)
    # n and d are integers: [2.5] x [2.9] is not the cell (2, 2)
    for ns, ds in (([2.5], [2.9]), ([7.0], [2]), ([2], [True]),
                   ([True], [1]), (["2"], [2])):
        with pytest.raises(DomainError) as info:
            census(ns, ds, 10)
        assert info.value.constraint == "vec-integer"


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
