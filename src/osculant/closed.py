"""The closed nef route: the window decomposition of a type and the three
eps inequalities (nef_check's closed mode).

Write w = 2d-1 and decompose gamma = w*mu + 2*eps with mu of the same
parity as gamma and |eps_i| <= d-1; the decomposition is unique because
the w even residues mod 2w exactly tile [-(2d-2), 2d-2].  The closed
criterion tests three integer inequalities on eps:

    eps-norm:  eps^(2) >= d^2 - d + 1
    eps-sum:   w * sum|eps_i| <= 3d^2 - 3d + eps^(2)
    eps-pair:  w * max_{i!=j}(|eps_i| + |eps_j|) <= d^2 - 1 + eps^(2)

eps-pair is stated here in its factored reading, with w multiplying the
max; the unfactored literal reading is available behind a flag.

This module imports neither the brute route (brute) nor nef, so the
closed verdict is computed without the minimization of q.
"""

from typing import NamedTuple

from .covers import Check
from .errors import InternalCheckFailure
from .vectors import Vec4, fmt_vec, new_row


class Decomposition(NamedTuple):
    """gamma = (2d-1)*mu + 2*eps plus the two perturbed candidates.

    nat_mu bumps every coordinate of mu one step toward the sign of
    eps_i (up at eps_i = 0, following the printed convention).  Each
    flat_mu agrees with nat_mu on one pair {i, j} maximizing
    |eps_i| + |eps_j| and with mu elsewhere; all maximizing pairs are
    enumerated since ties are common.
    """

    mu: Vec4
    eps: Vec4
    nat_mu: Vec4
    flat_mu_set: tuple[Vec4, ...]


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _split(g: int, w: int) -> tuple[int, int, int, int]:
    """One coordinate of _decompose: (mu_i, eps_i, nat_mu_i, |r_i|) of
    g = gamma_i >= 0 at w = 2d-1, with r_i = g - w*mu_i = 2*eps_i.

    m = g // w moves up one when its parity differs from g's.  w is odd,
    so g - w*m has the parity of g - m, and after the step r = g - w*m
    is even and in [-w, w), hence inside the window [-(w-1), w-1] =
    [-(2d-2), 2d-2].  An odd r raises InternalCheckFailure here, so every
    entry is checked, from the table or not; _decompose checks the
    window and the signs.
    nat_mu_i steps toward the sign of eps_i, up at eps_i = 0 (r >= 0
    exactly when eps_i >= 0)."""
    m = g // w
    m += (g - m) & 1
    r = g - w * m
    if r & 1:
        raise InternalCheckFailure(
            f"no window decomposition of gamma_i = {g} at d = {(w + 1) // 2}:"
            f" odd remainder {r}")
    return m, r >> 1, m + 1 if r >= 0 else m - 1, abs(r)


_DEC_ROWS: list = [None] * 32   # _DEC_ROWS[w]: _dec_row(w), made on first use


def _dec_row(w: int) -> list:
    """[_split(g, w) for g < 256], made once per w < 32 into _DEC_ROWS:
    the closed route's table, apart from the brute route's _ROWS."""
    row = _DEC_ROWS[w] = [_split(g, w) for g in range(256)]
    return row


def _decompose(gamma: Vec4, d: int) -> Decomposition:
    """decompose_type of a nonnegative int 4-tuple at an int d >= 1.

    Coordinate by coordinate, _split gives mu_i, eps_i, nat_mu_i and
    |r_i| = |gamma_i - w*mu_i|.  When w < 32 and every gamma_i < 256 they
    come from the table row _DEC_ROWS[w], whose entries are _split's own
    results, so both paths give the same decomposition.  The bound is the
    one _scan tests (a chain of int compares before any table read); it
    admits every spec of the battery sweep and of the benchmark census.
    The window and the signs of mu and nat_mu are checked here on every
    path."""
    w = 2 * d - 1
    g0, g1, g2, g3 = gamma
    if w < 32 and g0 < 256 and g1 < 256 and g2 < 256 and g3 < 256:
        row = _DEC_ROWS[w] or _dec_row(w)
        (m0, e0, n0, a0), (m1, e1, n1, a1), (m2, e2, n2, a2), (
            m3, e3, n3, a3) = row[g0], row[g1], row[g2], row[g3]
    else:
        (m0, e0, n0, a0), (m1, e1, n1, a1), (m2, e2, n2, a2), (
            m3, e3, n3, a3) = (_split(g0, w), _split(g1, w), _split(g2, w),
                               _split(g3, w))
    if min(m0, m1, m2, m3) < 0 or max(a0, a1, a2, a3) > 2 * d - 2:
        raise InternalCheckFailure(
            f"no window decomposition of gamma = {fmt_vec(gamma)} "
            f"at d = {d}")
    mu = (m0, m1, m2, m3)
    eps = (e0, e1, e2, e3)
    nat = (n0, n1, n2, n3)
    if min(nat) < 0:
        raise InternalCheckFailure(
            f"nat_mu {fmt_vec(nat)} negative for gamma = {fmt_vec(gamma)}")

    # |r_i| = 2|eps_i| ranks the pairs as |eps_i| + |eps_j| does
    sums = (a0 + a1, a0 + a2, a0 + a3, a1 + a2, a1 + a3, a2 + a3)
    best = max(sums)
    if sums.count(best) == 1:
        i, j = _PAIRS[sums.index(best)]
        flat = list(mu)
        flat[i], flat[j] = nat[i], nat[j]
        return new_row(Decomposition, (mu, eps, nat, (tuple(flat),)))
    # nat_mu and mu differ in every coordinate, so distinct pairs give
    # distinct flat_mu
    flats = []
    for (i, j), s in zip(_PAIRS, sums):
        if s == best:
            flat = list(mu)
            flat[i], flat[j] = nat[i], nat[j]
            flats.append(tuple(flat))
    flats.sort()
    return new_row(Decomposition, (mu, eps, nat, tuple(flats)))


_PAIR_NOTES = {"factored": "factored reading", "literal": "literal reading"}


def _closed_conditions(dec: Decomposition, d: int,
                       pair_reading: str) -> tuple[Check, ...]:
    """closed_conditions of a Decomposition at an int d >= 1, under a
    pair reading that _pair_note has accepted."""
    note = _PAIR_NOTES[pair_reading]
    w = 2 * d - 1
    x0, x1, x2, x3 = dec.eps
    a0, a1, a2, a3 = abs(x0), abs(x1), abs(x2), abs(x3)
    e2 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    w_abs_sum = w * (a0 + a1 + a2 + a3)
    # the largest |eps_i| + |eps_j| over the six pairs i != j
    top = max(a0 + a1, a0 + a2, a0 + a3, a1 + a2, a1 + a3, a2 + a3)
    pair = top if pair_reading == "literal" else w * top
    # every field of each row, in field order (vectors.new_row)
    return (
        new_row(Check, ("eps-norm", e2 >= d * d - d + 1, e2, d * d - d + 1,
                        "", False)),
        new_row(Check, ("eps-sum", w_abs_sum <= 3 * d * d - 3 * d + e2,
                        w_abs_sum, 3 * d * d - 3 * d + e2, "", False)),
        new_row(Check, ("eps-pair", pair <= d * d - 1 + e2, pair,
                        d * d - 1 + e2, note, False)),
    )
