"""References for ``osculant.families.generate_non_nef_types``: the
literal cube filter it used before enumerating the eps sphere directly,
and the nested isqrt walk its sphere used before reading (e2, e3) from
a pair table.

Every eps in the cube [-cap, cap]^4 is visited in lexicographic order
and kept when eps^(2) hits the target; the survivors then pass the same
gamma, n and char-p filters as in the library, whose mu checks are
reused.  The cube only depends on (target, cap), so its survivors are
kept per pair: the tests call this for many mu, bounds and
characteristics.
"""

from functools import lru_cache
from itertools import product
from math import isqrt

from osculant.catalog import validate_char_p
from osculant.covers import char_p_admits
from osculant.errors import DomainError, InternalCheckFailure, NoSolutions
from osculant.families import _check_mu_pattern
from osculant.nef import n_for_type
from osculant.vectors import fmt_vec, norm_sq, vec4


def non_nef_target(d: int) -> int:
    """eps^(2) of the non-nef family at d: (3 + (2d-1)(d-2+k))/4 with
    k = (d+1) mod 4."""
    return (3 + (2 * d - 1) * (d - 2 + (d + 1) % 4)) // 4


def sphere(target: int, cap: int) -> list:
    """Every eps with eps^(2) = target and |eps_i| <= cap, in the
    lexicographic order of the cube [-cap, cap]^4.

    Each coordinate ranges only as far as the remainder of the target
    allows, and the last one is +-isqrt of what is left, -e3 first: an
    O(c^3) walk, c = min(cap, isqrt(target))."""
    out = []
    m0 = min(cap, isqrt(target))
    for e0 in range(-m0, m0 + 1):
        r0 = target - e0 * e0
        m1 = min(cap, isqrt(r0))
        for e1 in range(-m1, m1 + 1):
            r1 = r0 - e1 * e1
            m2 = min(cap, isqrt(r1))
            for e2 in range(-m2, m2 + 1):
                r2 = r1 - e2 * e2
                e3 = isqrt(r2)
                if e3 * e3 != r2 or e3 > cap:
                    continue
                out.append((e0, e1, e2, -e3))
                if e3:
                    out.append((e0, e1, e2, e3))
    return out


@lru_cache(maxsize=None)
def cube_sphere(target: int, cap: int) -> tuple:
    return tuple(eps for eps in product(range(-cap, cap + 1), repeat=4)
                 if norm_sq(eps) == target)


def generate_non_nef_types(d, mu, bound, p=None):
    mu = vec4(mu)
    p = validate_char_p(p)
    if d < 3:
        raise DomainError(f"non-nef families need d >= 3, got {d}",
                          constraint="degree-min")
    _check_mu_pattern(mu)
    w = 2 * d - 1
    target = non_nef_target(d)
    cap = min(bound, isqrt(target))
    out = []
    for eps in cube_sphere(target, cap):
        gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
        if any(g < 0 for g in gamma):
            continue
        n = n_for_type(d, gamma)
        if n is None:
            raise InternalCheckFailure(
                f"non-nef eps = {fmt_vec(eps)} gives no integral n at d = {d}")
        if n < 1 or not char_p_admits(gamma, w, p):
            continue
        out.append((n, gamma, eps))
    if not out:
        raise NoSolutions(
            f"no eps with eps^(2) = {target}, |eps_i| <= {bound} "
            f"gives a valid type for mu = {fmt_vec(mu)}")
    return out
