"""The brute nef route: the exact minimum of q over the exceptional
curves G~alpha, and the (-2)-catalog guard (nef_check's brute mode).

Nefness against the exceptional family reduces to two minimizations of
q(alpha) = ||gamma - w*alpha||^2 (w = 2d-1), over the k(alpha) = 0
parity class and over k(alpha) != 0, against the thresholds of
_thresholds.  q is a sum of one term per coordinate, so over the alpha
of one parity code its minimum is the sum of the per-coordinate minima
(_nearest), attained exactly on the product of their minimizer sets.
The codes of one class cover disjoint points, so the class minimum is
the least of its code sums, and its minimizers are the products of the
codes that reach it.

In characteristic p (an odd prime with gamma^(1) <= p*w) the budget
alpha^(1) <= p never raises a class minimum, so its minimizers are the
ones above with alpha^(1) <= p.  Proof: let alpha be a class minimizer
with alpha^(1) > p.  Both are odd, so the offsets e_i = alpha_i -
gamma_i/w, each in [-1, 1], sum to at least 2.  Flipping every parity
keeps the minority index, so the class also holds beta, the nearest
points of the other parities (the lower one of a tie): beta_i =
alpha_i - 1 where e_i > 0 or e_i = 0 < alpha_i, and alpha_i + 1
elsewhere.  They lie 1 - |e_i| from gamma_i/w, so (q(beta) -
q(alpha))/w^2 = 4 - 2*sum|e_i| <= 0: beta is a minimizer too, every
e_i >= 0, sum e_i = 2 and alpha^(1) = p + 2.  With three e_i > 0,
beta^(1) <= alpha^(1) - 3 + 1 = p.  With two, both are 1: an
alpha_i >= 2 among them ties with alpha_i - 2, and if both are 1 the
other two coordinates carry gamma^(1) = p*w, so one has alpha_i > 0 and
again beta^(1) <= p.

This module imports neither the closed route (closed) nor nef, so the
brute verdict is computed without the eps inequalities.
"""

from itertools import product
from typing import NamedTuple

from .catalog import _perp_class, _row_guard
from .errors import InternalCheckFailure
from .lattice import QuotientClass
from .vectors import Vec4, fmt_vec, minority_index, new_row


def _thresholds(w: int) -> tuple[int, int]:
    return w * w + 3, w * w + 3 - 2 * w


# coordinate parities of exceptional alpha (one or three odd), split into
# the k(alpha) = 0 class and the k != 0 class
_PARITIES = [bits for bits in product((0, 1), repeat=4) if sum(bits) % 2]
_CLASS_PARITIES = (tuple(b for b in _PARITIES if minority_index(b) == 0),
                   tuple(b for b in _PARITIES if minority_index(b) != 0))


class BoxScan(NamedTuple):
    """Minima of q over the k = 0 and k != 0 classes of exceptional
    alpha, each with its sorted minimizers."""

    min_k0: int
    argmin_k0: tuple[Vec4, ...]
    min_other: int
    argmin_other: tuple[Vec4, ...]

    def argmins(self) -> tuple[Vec4, ...]:
        return _class_argmins(self, True, True)


def _class_argmins(scan: BoxScan, k0: bool, other: bool) -> tuple[Vec4, ...]:
    """The sorted minimizers of the picked classes, which are disjoint."""
    if k0 and other:
        return tuple(sorted(scan.argmin_k0 + scan.argmin_other))
    return scan.argmin_k0 if k0 else scan.argmin_other if other else ()


def _nearest(g: int, w: int
             ) -> tuple[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The minimum of (g - w*a)^2 over a >= 0 of parity b, and its
    minimizers, for b = 0 and b = 1: ((min_0, min_1), (argmin_0,
    argmin_1)).

    With m = g // w, g/w lies in [m, m+1): the nearest point of m's
    parity is m, and of the other parity m+1, except that m-1 and m+1
    tie when g = w*m and m >= 1.

    Period 2w, T_b(g) the minimum at parity b: T_b(g + 2w) = T_b(g) for
    g >= 0 and the minimizers move up by 2, except that {1} becomes
    {1, 3} at g = 0, b = 1.  Proof: a = a' + 2 turns (g + 2w - w*a)^2
    into (g - w*a')^2, which adds one candidate a' < 0 of parity b.
    a' = -2 loses to a' = 0, as (g + 2w)^2 > g^2; a' = -1 loses to a' = 1,
    as (g + w)^2 - (g - w)^2 = 4gw, and ties it at g = 0.  So gamma_i ->
    gamma_i + 2w*k keeps a spec valid (n grows by 2k*gamma_i + 2w*k^2)
    and keeps eps and both class minima of q, hence every verdict and
    pairing value, while the minimizers move by 2k in coordinate i if
    gamma_i > 0: gamma in [0, 2w]^4 stands for every gamma at its d."""
    m = g // w
    r = g - w * m
    if r == 0 and m > 0:
        cost, near = w * w, (m - 1, m + 1)
    else:
        cost, near = (w - r) ** 2, (m + 1,)
    if m & 1:
        return (cost, r * r), (near, (m,))
    return (r * r, cost), ((m,), near)


_ROWS: list = [None] * 32   # _ROWS[w]: _row(w), filled on first use


def _row(w: int) -> list:
    """[_nearest(g, w) for g < 256], made once per w < 32 into _ROWS.
    Equal cost pairs and equal minimizer pairs share one tuple, which
    cuts all 16 rows from about 1.1 MB to 0.4 MB."""
    parts: dict = {}
    row = _ROWS[w] = [tuple([parts.setdefault(x, x) for x in _nearest(g, w)])
                      for g in range(256)]
    return row


def _scan(gamma: Vec4, w: int, p: int | None) -> BoxScan:
    """scan_box of a nonnegative int 4-tuple at w = 2d-1, with p None or
    an odd prime that admits gamma (LambdaSpec.check_char_p).

    When w < 32 and every gamma_i < 256, the per-coordinate minima come
    from the table row _ROWS[w].  Its entries are _nearest's own
    results, so both paths give the same scan.  The bound is a chain of
    int compares, tested before any table read.  It admits every spec of
    the battery sweep (gamma_i <= 35, w <= 9) and of the benchmark census
    (gamma_i <= 80, w <= 15), but only 11.2% of the benchmark query's
    spec queries, whose d reaches 40.

    Per class, the least code sum and the codes that reach it come
    first, and argmins are built for those winning codes only: the
    single 4-tuple when one code wins with one minimizer per coordinate,
    else the product of each winning code's minimizer sets."""
    g0, g1, g2, g3 = gamma
    if w < 32 and g0 < 256 and g1 < 256 and g2 < 256 and g3 < 256:
        row = _ROWS[w] or _row(w)
        (c0, a0), (c1, a1), (c2, a2), (c3, a3) = (
            row[g0], row[g1], row[g2], row[g3])
    else:
        (c0, a0), (c1, a1), (c2, a2), (c3, a3) = (
            _nearest(g0, w), _nearest(g1, w), _nearest(g2, w),
            _nearest(g3, w))
    found = []
    for codes in _CLASS_PARITIES:
        # one pass over the codes keeps the least sum so far (sums are
        # >= 0, so -1 is none yet) and the codes that reach it
        low = -1
        for code in codes:
            b0, b1, b2, b3 = code
            s = c0[b0] + c1[b1] + c2[b2] + c3[b3]
            if s < low or low < 0:
                low, wins = s, [code]
            elif s == low:
                wins.append(code)
        b0, b1, b2, b3 = wins[0]
        # each argmin tuple holds one or two points, so four points in
        # all means one each: joined, they are the single minimizer
        hit = a0[b0] + a1[b1] + a2[b2] + a3[b3]
        if len(wins) == 1 and len(hit) == 4:
            hits = [hit]
        else:
            hits = [a for b0, b1, b2, b3 in wins
                    for a in product(a0[b0], a1[b1], a2[b2], a3[b3])]
        if p is not None:
            hits = [a for a in hits if sum(a) <= p]
        if not hits:
            raise InternalCheckFailure(
                f"no minimizer of q within alpha^(1) <= {p} for "
                f"gamma = {fmt_vec(gamma)}, d = {(w + 1) // 2}")
        hits.sort()
        found += low, tuple(hits)
    return new_row(BoxScan, found)


def _lambda(spec: "LambdaSpec") -> QuotientClass:
    """Lambda of a spec whose fields LambdaSpec has already checked:
    the class of catalog.gamma_perp_class, built without checking the
    same ranges a second time."""
    return QuotientClass(_perp_class(spec.n, spec.d, spec.rho, spec.gamma))


def _catalog_guard(spec: "LambdaSpec", p: int | None) -> QuotientClass:
    """Check Lambda . N >= 0 for each row N of negative_curve_catalog(p),
    and Lambda . Lambda = 2d - 3, for an unramified spec admitted at p;
    returns Lambda.

    The rows are checked by catalog._row_guard, one straight-line check
    per row compiled at import from the row's integer form: twice the
    pairing, evaluated at (n, w, rho, gamma) and checked even, then
    nonnegative.  The square is taken on the lattice (_lambda,
    QuotientClass.dot), and is the rational-image constraint that
    nef._excess rests on.  Both hold for every valid spec, so a failure
    means the validation or the lattice arithmetic is broken."""
    d = spec.d
    _row_guard(spec.n, 2 * d - 1, spec.rho, spec.gamma, p)
    lam = _lambda(spec)
    square = lam.dot(lam)
    if square != 2 * d - 3:
        raise InternalCheckFailure(
            f"Lambda^2 = {square} for a valid spec, not 2d-3 = {2 * d - 3}")
    return lam
