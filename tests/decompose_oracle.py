"""Reference for ``osculant.nef.decompose_type`` and the closed criterion,
written from their definitions rather than from the library's code.

Each coordinate solves gamma_i = w*mu_i + 2*eps_i, w = 2d-1, with
mu_i >= 0 and |eps_i| <= d-1 by trying every eps_i in the window; the
tests require exactly one solution.  nat_mu steps each mu_i toward the
sign of eps_i (up at 0), and every pair {i, j} that maximizes
|eps_i| + |eps_j| gives one flat_mu.  The three closed rows follow the
formulas of the ``osculant.nef`` module docstring.
"""

from itertools import combinations


def window_solutions(g: int, d: int) -> list[tuple[int, int]]:
    """Every (mu, eps) with g = w*mu + 2*eps, mu >= 0, |eps| <= d-1."""
    w = 2 * d - 1
    return [((g - 2 * e) // w, e) for e in range(-(d - 1), d)
            if (g - 2 * e) % w == 0 and g - 2 * e >= 0]


def decompose(gamma, d: int):
    """(mu, eps, nat_mu, flat_mu_set) as tuples, or None when some
    coordinate does not have exactly one window solution."""
    solved = [window_solutions(g, d) for g in gamma]
    if any(len(s) != 1 for s in solved):
        return None
    mu = tuple(s[0][0] for s in solved)
    eps = tuple(s[0][1] for s in solved)
    nat = tuple(m + 1 if e >= 0 else m - 1 for m, e in zip(mu, eps))
    best = max(abs(eps[i]) + abs(eps[j]) for i, j in combinations(range(4), 2))
    flats = set()
    for i, j in combinations(range(4), 2):
        if abs(eps[i]) + abs(eps[j]) == best:
            flats.add(tuple(nat[t] if t in (i, j) else mu[t] for t in range(4)))
    return mu, eps, nat, tuple(sorted(flats))


def closed_rows(eps, d: int, pair_reading: str):
    """(id, passed, lhs, rhs, note) of eps-norm, eps-sum and eps-pair."""
    w = 2 * d - 1
    e2 = sum(e * e for e in eps)
    abs_sum = sum(abs(e) for e in eps)
    top = max(abs(eps[i]) + abs(eps[j])
              for i in range(4) for j in range(4) if i != j)
    pair = w * top if pair_reading == "factored" else top
    return (
        ("eps-norm", e2 >= d * d - d + 1, e2, d * d - d + 1, ""),
        ("eps-sum", w * abs_sum <= 3 * d * d - 3 * d + e2,
         w * abs_sum, 3 * d * d - 3 * d + e2, ""),
        ("eps-pair", pair <= d * d - 1 + e2, pair, d * d - 1 + e2,
         f"{pair_reading} reading"),
    )
