"""Reference for ``osculant.families._cell_types``: the cube walk it used
before reading (g2, g3) from the census's pair tables.

Every (g0, g1, g2) of the right parities inside the sphere
gamma^(2) = (2d-1)(2n-2) + 3 is visited in lexicographic order, and g3
is kept when what is left is the square of an integer of the right
parity that is within the bound.  That is O(r^3) work for O(r^2) rows.
"""

from math import isqrt


def cell_types(n: int, d: int, gamma_bound: int) -> list:
    w = 2 * d - 1
    total = w * (2 * n - 2) + 3
    p0, pj = (n + 1) % 2, n % 2
    out = []
    for g0 in range(p0, gamma_bound + 1, 2):
        r0 = total - g0 * g0
        if r0 < 0:
            break
        for g1 in range(pj, gamma_bound + 1, 2):
            r1 = r0 - g1 * g1
            if r1 < 0:
                break
            for g2 in range(pj, gamma_bound + 1, 2):
                r2 = r1 - g2 * g2
                if r2 < 0:
                    break
                g3 = isqrt(r2)
                if g3 * g3 == r2 and g3 <= gamma_bound and (g3 - pj) % 2 == 0:
                    out.append((g0, g1, g2, g3))
    return out
