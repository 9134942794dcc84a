"""The agreement of the two nef routes as algebra, for every d.

Write w = 2d-1, a_i = |eps_i|, A_i = 4a_i^2 and B_i = (w - 2a_i)^2.

- The lemma: ``_nearest(w*m + 2e, w)`` costs A = 4e^2 at m's parity,
  with the one minimizer m, and B = (w - 2|e|)^2 at the other, with
  minimizers m+1 for e > 0, m-1 for e < 0 and both for e = 0 < m.
- The minima: gamma's mu is a parity code of the k = 0 class (mu_i and
  gamma_i share their parity, and gamma has one or three odd
  coordinates, coordinate 0 in the minority).  The other k = 0 code
  flips all four coordinates and each k != 0 code flips two, so
  ``_scan``'s class minima are min(sum A, sum B) and
  sum A + min over pairs i < j of (B_i + B_j - A_i - A_j).
- The rows: each closed row passes exactly when its threshold test
  does, because the threshold side is 4 times the row's slack:

      sum A - (w^2 + 3)       = 4 (e2 - (d^2 - d + 1))          eps-norm
      sum B - (w^2 + 3)       = 4 (3d^2 - 3d + e2 - w sum a)    eps-sum
      pair - (w^2 + 3 - 2w)   = 4 (d^2 - 1 + e2 - w(a_i + a_j)) eps-pair

  with e2 = sum a_i^2 and pair = sum A + B_i + B_j - A_i - A_j.  Since
  B_i - A_i = w^2 - 4w a_i, the least pair is the one with the largest
  a_i + a_j, the pair the eps-pair row reads.  Each side has degree at
  most 2 in every variable, so agreement on a grid of three integer
  points per variable proves each identity; no computer algebra needed.
  The identities fix each row's two sides, not the comparison between
  them, so every sorted magnitude pattern of the windows at d <= 12,
  where the nef boundary makes the sides tie, checks that too.

Together: the closed verdict (all three rows pass) is the brute verdict
(both class minima reach their thresholds) at every d, not only at the
d the battery and the window certificate reach.  The program is not
changed by these tests; the brute route stays independent of the eps
inequalities.
"""

from itertools import combinations, combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from osculant.brute import _nearest, _scan, _thresholds
from osculant.closed import Decomposition, _closed_conditions
from osculant.vectors import new_row


def _lemma(m: int, e: int, w: int):
    """The costs and minimizers the lemma claims for g = w*m + 2e."""
    if e > 0:
        other = (m + 1,)
    elif e < 0:
        other = (m - 1,)
    else:
        other = (m - 1, m + 1) if m else (1,)
    costs, near = [0, 0], [(), ()]
    costs[m & 1], near[m & 1] = 4 * e * e, (m,)
    costs[~m & 1], near[~m & 1] = (w - 2 * abs(e)) ** 2, other
    return tuple(costs), tuple(near)


def _brute_nearest(g: int, w: int, m: int):
    """Both parities' least (g - w*a)^2 and minimizers over 0 <= a <= m+3,
    which holds every nearest point of g/w, as |2e| < w puts g/w in
    (m-1, m+1)."""
    found = []
    for b in (0, 1):
        costs = {a: (g - w * a) ** 2 for a in range(b, m + 4, 2)}
        low = min(costs.values())
        found.append((low, tuple(a for a, c in costs.items() if c == low)))
    return (found[0][0], found[1][0]), (found[0][1], found[1][1])


def test_the_nearest_lemma_holds_exhaustively_up_to_d_40():
    cases = 0
    for d in range(1, 41):
        w = 2 * d - 1
        for m in range(4):
            for e in range(0 if m == 0 else -(d - 1), d):
                g = w * m + 2 * e
                assert _nearest(g, w) == _lemma(m, e, w), (d, m, e)
                cases += 1
    assert cases == sum(4 * (2 * d - 1) - (d - 1) for d in range(1, 41))


@st.composite
def lemma_cases(draw):
    d = draw(st.integers(1, 10**15))
    m = draw(st.integers(0, 3) | st.integers(0, 10**15))
    e = draw(st.integers(0 if m == 0 else -(d - 1), d - 1))
    return d, m, e


@given(lemma_cases())
@settings(max_examples=200, deadline=None)
def test_the_nearest_lemma_holds_up_to_d_10_15(case):
    d, m, e = case
    w = 2 * d - 1
    g = w * m + 2 * e
    assert _nearest(g, w) == _lemma(m, e, w)
    if m < 100:
        assert _nearest(g, w) == _brute_nearest(g, w, m)


@st.composite
def window_types(draw):
    """(d, mu, eps): mu of a k = 0 parity code (one odd coordinate, the
    first, or three odd, the last three), eps in the window with
    eps_i >= 0 where mu_i = 0."""
    d = draw(st.integers(1, 10**15))
    odd = draw(st.sampled_from(((1, 0, 0, 0), (0, 1, 1, 1))))
    mu = tuple(b + 2 * draw(st.integers(0, 3) | st.integers(0, 10**15))
               for b in odd)
    eps = tuple(draw(st.integers(0 if m == 0 else -(d - 1), d - 1))
                for m in mu)
    return d, mu, eps


@given(window_types())
@settings(max_examples=200, deadline=None)
def test_scan_class_minima_are_the_lemma_sums(case):
    d, mu, eps = case
    w = 2 * d - 1
    gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
    a = [abs(e) for e in eps]
    big_a = [4 * x * x for x in a]
    big_b = [(w - 2 * x) ** 2 for x in a]
    scan = _scan(gamma, w, None)
    assert scan.min_k0 == min(sum(big_a), sum(big_b))
    pairs = {(i, j): big_b[i] + big_b[j] - big_a[i] - big_a[j]
             for i, j in combinations(range(4), 2)}
    assert scan.min_other == sum(big_a) + min(pairs.values())
    # the least pair is the one of the two largest a_i, which the
    # eps-pair row reads
    i, j = sorted(sorted(range(4), key=a.__getitem__)[2:])
    assert pairs[i, j] == min(pairs.values())


# three distinct values per variable, the a_i in disjoint ranges so each
# grid point is already sorted and the rows read a_2 + a_3 as their pair
_GRID_D = (1, 2, 3)
_GRID_A = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))


def _rows(d: int, a: tuple):
    dec = new_row(Decomposition, ((0,) * 4, a, (1,) * 4, ((1, 1, 0, 0),)))
    return _closed_conditions(dec, d, "factored")


def test_closed_rows_are_the_threshold_tests_as_polynomial_identities():
    points = 0
    for d, *a in product(_GRID_D, *_GRID_A):
        w = 2 * d - 1
        t0, t1 = _thresholds(w)
        norm, total, pair = _rows(d, tuple(a))
        big_a = [4 * x * x for x in a]
        big_b = [(w - 2 * x) ** 2 for x in a]
        assert sum(big_a) - t0 == 4 * (norm.lhs - norm.rhs)
        assert sum(big_b) - t0 == 4 * (total.rhs - total.lhs)
        least = sum(big_a) + big_b[2] + big_b[3] - big_a[2] - big_a[3]
        assert least - t1 == 4 * (pair.rhs - pair.lhs)
        points += 1
    assert points == 3 ** 5


def test_closed_rows_pass_on_their_threshold_tests_across_real_windows():
    # every sorted magnitude pattern of the windows of d <= 12, where the
    # nef boundary makes each row's two sides equal somewhere
    ties = [0, 0, 0]
    for d in range(1, 13):
        w = 2 * d - 1
        t0, t1 = _thresholds(w)
        for a in combinations_with_replacement(range(d), 4):
            norm, total, pair = _rows(d, a)
            big_a = [4 * x * x for x in a]
            big_b = [(w - 2 * x) ** 2 for x in a]
            least = sum(big_a) + big_b[2] + big_b[3] - big_a[2] - big_a[3]
            assert norm.passed == (sum(big_a) >= t0)
            assert total.passed == (sum(big_b) >= t0)
            assert pair.passed == (least >= t1)
            ties[0] += sum(big_a) == t0
            ties[1] += sum(big_b) == t0
            ties[2] += least == t1
    assert min(ties) > 0, ties
