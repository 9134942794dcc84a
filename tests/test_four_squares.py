"""Jacobi's four-square theorem counts every sphere walk.

r_4(t), the number of integer 4-tuples with square sum t, is
8 * sum of the divisors m of t with 4 not dividing m; for odd N that is
8 * sigma(N).  A nonnegative point with z nonzero coordinates stands
for 2^z signed ones, so each walk below, weighted that way, must count
exactly r_4 of its radius:

- a census cell (families._cell_types) at N = _image_total(n, d), which
  is odd.  Its types have gamma_0 of the minority parity (one odd
  coordinate when N = 1 mod 4, one even when N = 3 mod 4), and by
  symmetry a quarter of the r_4(N) points have the minority at index 0:
  2 * sigma(N) when the bound cuts nothing;
- the eps sphere of the non-nef family (families._sphere), signed
  already, when its cap cuts nothing: r_4(t) points;
- the exceptional alphas (catalog.enumerate_exceptional), every alpha
  in N^4 of odd square sum: 8 * sigma(N) per odd N up to max_sq.

sigma is computed here by trial division, with no code of the program.
Char-p cells are left out: their cut alpha^(1) <= p has no such count.
"""

from math import isqrt

from hypothesis import given, settings, strategies as st

from osculant.catalog import enumerate_exceptional
from osculant.families import _cell_types, _pair_tables, _sphere
from osculant.nef import _image_total


def _divisors(t: int) -> list[int]:
    small = [m for m in range(1, isqrt(t) + 1) if t % m == 0]
    return sorted(set(small) | {t // m for m in small})


def _sigma(t: int) -> int:
    return sum(_divisors(t))


def _r4(t: int) -> int:
    return 8 * sum(m for m in _divisors(t) if m % 4)


def _weight(points) -> int:
    """The signed points the nonnegative points stand for."""
    return sum(2 ** sum(1 for x in point if x) for point in points)


def test_the_count_is_jacobis():
    # r_4 by brute force over the cube, against the divisor sums
    for t in range(1, 30):
        c = isqrt(t)
        cube = range(-c, c + 1)
        brute = sum(1 for a in cube for b in cube for x in cube for y in cube
                    if a * a + b * b + x * x + y * y == t)
        assert brute == _r4(t), t
        if t % 2:
            assert _r4(t) == 8 * _sigma(t)


def _assert_two_sigma(types, total):
    """The cell's points are distinct, on the sphere and with the
    minority parity at index 0, so the count makes them all of them."""
    assert len(set(types)) == len(types)
    for g in types:
        assert sum(x * x for x in g) == total
        assert all((g[0] - x) % 2 for x in g[1:]), g
    assert _weight(types) == 2 * _sigma(total)


def test_every_bench_census_cell_has_two_sigma_points():
    cells = [(n, d) for n in range(1, 41) for d in range(1, 9)]
    bound = 80
    top = max(_image_total(n, d) for n, d in cells)
    assert isqrt(top) < bound      # no cell is cut
    tables = _pair_tables(top, bound)
    for n, d in cells:
        _assert_two_sigma(_cell_types(n, d, bound, tables),
                          _image_total(n, d))


@given(st.integers(1, 3500), st.integers(1, 8), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_an_uncut_census_cell_has_two_sigma_points(n, d, past):
    total = _image_total(n, d)
    bound = isqrt(total) + past     # at the radius or past it
    _assert_two_sigma(_cell_types(n, d, bound, _pair_tables(total, bound)),
                      total)


def test_the_non_nef_sphere_at_d_201_has_r4_points():
    # generate_non_nef_types' target at d = 201: k = (d+1) mod 4 = 2
    d, k = 201, 2
    target = (3 + (2 * d - 1) * (d - 2 + k)) // 4
    assert len(_sphere(target, isqrt(target) + 1)) == _r4(target)


def test_the_exceptional_alphas_of_each_odd_norm_are_eight_sigma():
    max_sq = 401
    weight: dict = {}
    for spec in enumerate_exceptional(max_sq):
        norm = 2 * spec.a + 1
        weight[norm] = weight.get(norm, 0) + _weight([spec.alpha])
    assert sorted(weight) == list(range(1, max_sq + 1, 2))
    for norm, count in weight.items():
        assert count == 8 * _sigma(norm), norm
