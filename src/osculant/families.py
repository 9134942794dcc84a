"""Explicit families: nef types, non-nef types, the construction-kit
divisors behind the existence theorem, and the census sweep.

The kit realizes the pullback of Lambda(n, d, 1, gamma) for
gamma = (2d-1)mu + 2(0, d-1, d-1, d-1) as sums of effective pieces.
Every piece is an instance of one template

    Z(nu, b) = m*C + F - s_b - sum_i nu_i r_i,   2m + 1 = nu^(2),

evaluated at small shifts of mu.  The identities the theorem needs are
pure lattice algebra and are verified here on every construction, not
assumed: D0 = D1, and F_j = G = pullback(Lambda) for every j.
"""

from dataclasses import dataclass
from itertools import product
from math import isqrt

from .catalog import gamma_perp_class, validate_char_p
from .covers import char_p_admits, genus_tilde
from .errors import (
    DomainError,
    IdentityFailure,
    InternalCheckFailure,
    NoSolutions,
    ParityViolation,
)
from .lattice import C, R, S, DivisorClass
from .nef import LambdaSpec, n_for_type, nef_check
from .vectors import Vec4, coord_sum, fmt_vec, norm_sq, vec4


def _check_mu_pattern(mu: Vec4) -> None:
    if any(m < 0 for m in mu):
        raise DomainError(f"mu = {fmt_vec(mu)} must be nonnegative",
                          constraint="mu-nonnegative")
    if any((mu[0] + 1 - mu[j]) % 2 for j in (1, 2, 3)):
        raise ParityViolation(
            f"mu = {fmt_vec(mu)} needs mu_0 + 1 = mu_j mod 2")


def _sign_spread(mags: Vec4) -> list[Vec4]:
    """All sign assignments of a magnitude pattern, positive first."""
    choices = [(m,) if m == 0 else (m, -m) for m in mags]
    return [tuple(v) for v in product(*choices)]


def generate_nef_types(d: int, k: int, mu, p: int | None = None
                       ) -> list[tuple[int, Vec4, Vec4]]:
    """All (n, gamma, eps) from the two nef magnitude patterns at
    distinguished index k.

    Pattern one: |eps_k| = 0 and |eps_i| = d-1 elsewhere.  Pattern two:
    |eps_k| = (d+1)/2 and |eps_i| = (d-1)/2 for odd d, |eps_k| = (d-2)/2
    and |eps_i| = d/2 for even d.  Sign choices producing gamma outside
    N^4, a non-integral or non-positive n, or (char-p) an excluded type
    are skipped.  Every emitted triple is nef.
    """
    mu = vec4(mu)
    p = validate_char_p(p)
    if d < 2:
        raise DomainError(f"nef families need d >= 2, got {d}",
                          constraint="degree-min")
    if not 0 <= k <= 3:
        raise DomainError(f"index k = {k} out of range 0..3",
                          constraint="k-index")
    _check_mu_pattern(mu)
    w = 2 * d - 1

    patterns = [tuple(0 if i == k else d - 1 for i in range(4))]
    if d % 2:
        patterns.append(tuple((d + 1) // 2 if i == k else (d - 1) // 2
                              for i in range(4)))
    else:
        patterns.append(tuple((d - 2) // 2 if i == k else d // 2
                              for i in range(4)))

    out, seen = [], set()
    for mags in patterns:
        for eps in _sign_spread(mags):
            if eps in seen:
                continue
            seen.add(eps)
            gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
            if any(g < 0 for g in gamma):
                continue
            n = n_for_type(d, gamma)
            if n is None:
                raise InternalCheckFailure(
                    f"nef pattern eps = {fmt_vec(eps)} gives no integral n "
                    f"at d = {d}")
            if n < 1:
                continue
            if not char_p_admits(gamma, w, p):
                continue
            out.append((n, gamma, eps))
    return out


def _sphere(target: int, cap: int) -> list[Vec4]:
    """Every eps with eps^(2) = target and |eps_i| <= cap, in the
    lexicographic order of the cube [-cap, cap]^4.

    Each coordinate ranges only as far as the remainder of the target
    allows, and the last one is +-isqrt of what is left, -e3 first."""
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


def generate_non_nef_types(d: int, mu, bound: int, p: int | None = None
                           ) -> list[tuple[int, Vec4, Vec4]]:
    """All (n, gamma, eps) with eps^(2) pinned to the non-nef value
    (3 + (2d-1)(d-2+k))/4, k = (d+1) mod 4, and |eps_i| <= bound.

    Every emitted triple fails the nef check, with the eps-norm
    condition as the closed-form culprit.
    """
    mu = vec4(mu)
    p = validate_char_p(p)
    if d < 3:
        raise DomainError(f"non-nef families need d >= 3, got {d}",
                          constraint="degree-min")
    _check_mu_pattern(mu)
    w = 2 * d - 1
    k = (d + 1) % 4
    num = 3 + w * (d - 2 + k)
    target = num // 4
    # the proof's auxiliary parameter, kept as a cross-check only
    h = (d + 1 - k) // 4
    if (num % 4 or d != 4 * h + k - 1
            or target != 8 * h * h + 3 * (2 * k - 3) * h + k * k - 3 * k + 3
            or isqrt(target) > d - 1):
        raise InternalCheckFailure(
            f"non-nef target eps^(2) = {num}/4 at d = {d} is not an integer "
            f"8h^2 + 3(2k-3)h + k^2 - 3k + 3 inside the eps window")
    cap = min(bound, isqrt(target))

    out = []
    for eps in _sphere(target, cap):
        gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
        if any(g < 0 for g in gamma):
            continue
        n = n_for_type(d, gamma)
        if n is None:
            raise InternalCheckFailure(
                f"non-nef eps = {fmt_vec(eps)} gives no integral n at d = {d}")
        if n < 1:
            continue
        if not char_p_admits(gamma, w, p):
            continue
        out.append((n, gamma, eps))
    if not out:
        raise NoSolutions(
            f"no eps with eps^(2) = {target}, |eps_i| <= {bound} "
            f"gives a valid type for mu = {fmt_vec(mu)}")
    return out


# ---------------------------------------------------------------------------
# construction kit


def _z_template(nu: Vec4, base: int) -> DivisorClass:
    sq = norm_sq(nu)
    if sq % 2 == 0:
        raise IdentityFailure(
            f"template vector {fmt_vec(nu)} must have odd square sum")
    s = tuple(-1 if i == base else 0 for i in range(4))
    return DivisorClass((sq - 1) // 2, 1, s, tuple(-x for x in nu))


@dataclass(frozen=True)
class KitDivisors:
    """The named effective pieces, their two assembled classes D0 = D1,
    the d-1 classes F[j] and G all equal to the pullback of Lambda, and
    the numeric invariants of the realized cover."""

    d: int
    mu: Vec4
    gamma: Vec4
    n: int
    genus: int
    zbar: DivisorClass
    zunder: DivisorClass
    zprime: DivisorClass
    zsecond: DivisorClass
    z: DivisorClass
    zk: tuple[DivisorClass, DivisorClass, DivisorClass]
    d0: DivisorClass
    d1: DivisorClass
    f: tuple[DivisorClass, ...]
    g: DivisorClass
    lambda_pullback: DivisorClass

    def named_divisors(self) -> list[tuple[str, DivisorClass]]:
        rows = [("Zbar", self.zbar), ("Zunder", self.zunder),
                ("Zprime", self.zprime), ("Zsecond", self.zsecond),
                ("Z", self.z)]
        rows += [(f"Z({j})", self.zk[j - 1]) for j in (1, 2, 3)]
        rows += [("D0", self.d0), ("D1", self.d1)]
        rows += [(f"F[{j}]", fj) for j, fj in enumerate(self.f)]
        rows += [("G", self.g), ("pullback(Lambda)", self.lambda_pullback)]
        return rows


def construction_kit(d: int, mu) -> KitDivisors:
    """Assemble and verify the kit for eps = (0, d-1, d-1, d-1)."""
    mu = vec4(mu)
    if d < 2:
        raise DomainError(f"kit needs d >= 2, got {d}",
                          constraint="degree-min")
    _check_mu_pattern(mu)
    w = 2 * d - 1
    gamma = tuple(w * m + 2 * e for m, e in zip(mu, (0, d - 1, d - 1, d - 1)))
    mu1, mu2 = coord_sum(mu), norm_sq(mu)
    sigma = mu[1] + mu[2] + mu[3]

    two_g_plus_1 = w * mu1 + 6 * (d - 1)
    two_n = w * mu2 + 4 * (d - 1) * sigma + 6 * d - 7
    if two_g_plus_1 % 2 == 0 or two_n % 2:
        raise IdentityFailure(f"parity broken: 2g+1 = {two_g_plus_1}, "
                              f"2n = {two_n}")
    g = (two_g_plus_1 - 1) // 2
    n = two_n // 2

    def shift(*delta: int) -> Vec4:
        return tuple(m + x for m, x in zip(mu, delta))

    zbar = _z_template(shift(1, 1, 1, 1), 0)
    if mu[0] != 0:
        zunder = _z_template(shift(-1, 1, 1, 1), 0)
    else:
        zunder = zbar + 2 * R[0]
    zprime = _z_template(shift(0, 2, 1, 1), 1)
    zsecond = _z_template(shift(0, 0, 1, 1), 1)
    zk = (_z_template(shift(0, 0, 1, 1), 1),
          _z_template(shift(0, 1, 0, 1), 2),
          _z_template(shift(0, 1, 1, 0), 3))
    z = _z_template(mu, 0)

    d0 = zbar + zunder + 2 * S[0]
    d1 = zprime + zsecond + 2 * S[1]
    co_perp = C - S[0] - S[1] - S[2] - S[3]
    fan = sum((zk[j] + 2 * S[j + 1] for j in range(3)), co_perp)
    f = tuple(fan + j * d0 + (d - 2 - j) * d1 for j in range(d - 1))
    g_div = z + (d - 1) * d0
    lam = gamma_perp_class(n, d, 1, gamma)

    if d0 != d1:
        raise IdentityFailure(f"D0 != D1 for d={d}, mu={fmt_vec(mu)}: "
                              f"{d0} vs {d1}")
    for j, fj in enumerate(f):
        if fj != lam:
            raise IdentityFailure(f"F[{j}] != pullback(Lambda) for d={d}, "
                                  f"mu={fmt_vec(mu)}")
    if g_div != lam:
        raise IdentityFailure(f"G != pullback(Lambda) for d={d}, "
                              f"mu={fmt_vec(mu)}")
    if coord_sum(gamma) != two_g_plus_1:
        raise IdentityFailure("gamma^(1) != 2g+1")
    if norm_sq(gamma) != w * (two_n - 2) + 3:
        raise IdentityFailure("gamma^(2) != (2d-1)(2n-2)+3")

    return KitDivisors(d, mu, vec4(gamma), n, g, zbar, zunder, zprime,
                       zsecond, z, zk, d0, d1, f, g_div, lam)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusRecord:
    n: int
    d: int
    gamma: Vec4
    mu: Vec4
    eps: Vec4
    nef_closed: bool
    nef_brute: bool
    agreement: bool
    dim_moduli: int | None
    genus_g: int
    genus_tilde: int

    def key(self) -> tuple:
        return (self.n, self.d, self.gamma)


CSV_COLUMNS = ("n,d,gamma0,gamma1,gamma2,gamma3,mu0,mu1,mu2,mu3,"
               "eps0,eps1,eps2,eps3,nef_closed,nef_brute,agreement,"
               "dim_moduli,genus_g,genus_tilde")


def _cell_types(n: int, d: int, gamma_bound: int) -> list[Vec4]:
    """Type vectors for one (n, d) cell: correct parity, coordinates up
    to the bound, square sum pinned by the rational-image constraint."""
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


def census(n_range, d_range, gamma_bound: int, p: int | None = None,
           pair_reading: str = "factored", partitions: int = 1
           ) -> list[CensusRecord]:
    """Sweep the grid and report one record per valid spec.

    Cells (n, d) are dealt round-robin into the requested number of
    partitions, each computed independently, then merged by sorted key;
    the output is identical for any partition count.
    """
    p = validate_char_p(p)
    if partitions < 1:
        raise DomainError(f"partitions must be >= 1, got {partitions}",
                          constraint="partitions")
    cells = sorted({(int(n), int(d)) for n in n_range for d in d_range})
    if any(n < 1 or d < 1 for n, d in cells):
        raise DomainError("census needs n, d >= 1", constraint="degree-min")

    blocks = [cells[i::partitions] for i in range(partitions)]
    records = []
    for block in blocks:
        for n, d in block:
            for gamma in _cell_types(n, d, gamma_bound):
                if not char_p_admits(gamma, 2 * d - 1, p):
                    continue
                records.append(_census_record(n, d, gamma, p, pair_reading))
    records.sort(key=CensusRecord.key)
    return records


def _census_record(n: int, d: int, gamma: Vec4, p: int | None,
                   pair_reading: str) -> CensusRecord:
    report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p,
                       pair_reading=pair_reading)
    dec = report.decomposition
    closed_ok = all(c.passed for c in report.conditions)
    brute_ok = report.is_nef()
    if d == 1:
        dim = 0
    else:
        dim = d - 1 if brute_ok else None
    g1 = coord_sum(gamma)
    if g1 % 2 == 0:
        raise InternalCheckFailure(
            f"gamma^(1) = {g1} even for a valid type {fmt_vec(gamma)}")
    return CensusRecord(
        n=n, d=d, gamma=gamma, mu=dec.mu, eps=dec.eps,
        nef_closed=closed_ok, nef_brute=brute_ok,
        agreement=bool(report.agreement),
        dim_moduli=dim, genus_g=(g1 - 1) // 2,
        genus_tilde=genus_tilde(n, d, 1, 1, gamma))


def census_csv(records) -> str:
    """Fixed-column CSV; newline-terminated rows, '' for absent moduli
    dimension, lowercase booleans."""
    lines = [CSV_COLUMNS]
    for r in records:
        dim = "" if r.dim_moduli is None else str(r.dim_moduli)
        lines.append(",".join([
            str(r.n), str(r.d),
            *(str(x) for x in r.gamma),
            *(str(x) for x in r.mu),
            *(str(x) for x in r.eps),
            "true" if r.nef_closed else "false",
            "true" if r.nef_brute else "false",
            "true" if r.agreement else "false",
            dim, str(r.genus_g), str(r.genus_tilde),
        ]))
    return "\n".join(lines) + "\n"


def census_json(records) -> list[dict]:
    out = []
    for r in records:
        out.append({
            "n": r.n, "d": r.d, "gamma": list(r.gamma), "mu": list(r.mu),
            "eps": list(r.eps), "nef_closed": r.nef_closed,
            "nef_brute": r.nef_brute, "agreement": r.agreement,
            "dim_moduli": r.dim_moduli, "genus_g": r.genus_g,
            "genus_tilde": r.genus_tilde,
        })
    return out
