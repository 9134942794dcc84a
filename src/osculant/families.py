"""Explicit families: nef types, non-nef types, the construction-kit
divisors behind the existence theorem, and the census sweep.

The kit realizes the pullback of Lambda(n, d, 1, gamma) for
gamma = (2d-1)mu + 2(0, d-1, d-1, d-1) as sums of effective pieces.
Every piece is the pullback of an exceptional class G~nu,

    Z(nu, b) = m*C + F - s_b - sum_i nu_i r_i,   2m + 1 = nu^(2),

at a small shift nu of mu, with b = k(nu) (_z_template).  The identities
the theorem needs are pure lattice algebra, verified on every
construction, not assumed: D0 = D1, and F_j = G = pullback(Lambda).
"""

from bisect import bisect_left, bisect_right
from itertools import product
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .catalog import ExceptionalSpec, gamma_perp_class, validate_char_p
from .covers import _genus_tilde, char_p_admits
from .errors import (
    DomainError,
    IdentityFailure,
    InternalCheckFailure,
    NoSolutions,
)
from .lattice import C, R, S, DivisorClass
from .nef import (LambdaSpec, _check_mu_pattern, _compose, _image_total,
                  _moduli, _pair_note, nef_check)
from .vectors import (Vec4, as_int, at_least, coord_sum, fmt_vec, index4,
                      minority_index, new_row, norm_sq, of_kind)


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
    d, k = at_least(d, 2, "d"), index4(k, "index k", "k-index")
    mu = _check_mu_pattern(mu)
    p = validate_char_p(p)

    patterns = [tuple(0 if i == k else d - 1 for i in range(4))]
    if d % 2:
        patterns.append(tuple((d + 1) // 2 if i == k else (d - 1) // 2
                              for i in range(4)))
    else:
        patterns.append(tuple((d - 2) // 2 if i == k else d // 2
                              for i in range(4)))

    # at d = 2 both patterns are (0, 1, 1, 1) at k: each eps once
    spread = dict.fromkeys(e for mags in patterns for e in _sign_spread(mags))
    return _triples(d, mu, spread, p)


def _triples(d: int, mu: Vec4, epss, p: int | None
             ) -> list[tuple[int, Vec4, Vec4]]:
    """(n, gamma, eps) for each eps of epss that _compose and p admit."""
    out = []
    for eps in epss:
        found = _compose(d, mu, eps)
        if found is not None and char_p_admits(found[1], 2 * d - 1, p):
            out.append((*found, eps))
    return out


def _pairs(values: range, top: int) -> dict[int, list[tuple[int, int]]]:
    """Every sum a^2 + b^2 <= top with a, b in the ascending range
    values, mapped to its pairs (a, b) in lexicographic order.  Each
    coordinate is clipped to the square left, so the table is sized by
    the disc of radius^2 top however long the range."""
    def within(m: int) -> range:
        return values[bisect_left(values, -m):bisect_right(values, m)]

    table: dict = {}
    for a in within(isqrt(top)):
        for b in within(isqrt(top - a * a)):
            table.setdefault(a * a + b * b, []).append((a, b))
    return table


def _sphere_points(total: int, first: range, rest: range,
                   pairs: dict) -> list[Vec4]:
    """Every (x0, x1, x2, x3) with x0 in first, x1 in rest and
    x0^2 + x1^2 + x2^2 + x3^2 = total, where pairs (from _pairs) holds
    the (x2, x3) of each remaining square sum.  The order is
    lexicographic, and the cost O(len(first) * len(rest) + points)."""
    out = []
    for x0 in first:
        r0 = total - x0 * x0
        out += [(x0, x1, x2, x3) for x1 in rest
                for x2, x3 in pairs.get(r0 - x1 * x1, ())]
    return out


def _sphere(target: int, cap: int) -> list[Vec4]:
    """Every eps with eps^(2) = target and |eps_i| <= cap, in the
    lexicographic order of the cube [-cap, cap]^4."""
    c = min(cap, isqrt(target))
    values = range(-c, c + 1)
    return _sphere_points(target, values, values, _pairs(values, target))


def generate_non_nef_types(d: int, mu, bound: int, p: int | None = None
                           ) -> list[tuple[int, Vec4, Vec4]]:
    """All (n, gamma, eps) with eps^(2) pinned to the non-nef value
    (3 + (2d-1)(d-2+k))/4, k = (d+1) mod 4, and |eps_i| <= bound.

    Every emitted triple fails the nef check, with the eps-norm
    condition as the closed-form culprit.
    """
    d, bound = at_least(d, 3, "d"), as_int(bound, "bound")
    mu = _check_mu_pattern(mu)
    p = validate_char_p(p)
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

    out = _triples(d, mu, _sphere(target, bound), p)
    if not out:
        raise NoSolutions(
            f"no eps with eps^(2) = {target}, |eps_i| <= {bound} "
            f"gives a valid type for mu = {fmt_vec(mu)}")
    return out


# ---------------------------------------------------------------------------
# construction kit


def _z_template(nu: Vec4) -> DivisorClass:
    """Z(nu, b) = pullback(G~nu), b = k(nu).  A mu pattern has its
    odd-one-out parity at index 0; adding (1,1,1,1) or (-1,1,1,1) flips
    every parity, so it stays at 0; adding (0,2,1,1) or (0,0,1,1) flips
    indices 2 and 3, which moves it to 1; (0,1,0,1) moves it to 2 and
    (0,1,1,0) to 3."""
    sq = norm_sq(nu)
    if sq % 2 == 0:
        raise IdentityFailure(
            f"template vector {fmt_vec(nu)} must have odd square sum")
    return ExceptionalSpec(nu, (sq - 1) // 2, minority_index(nu)).pullback()


class KitDivisors(NamedTuple):
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
    """Assemble and verify the kit for eps = (0, d-1, d-1, d-1).  Each
    piece _z_template builds is the pullback of G~nu, with b = k(nu)."""
    d = at_least(d, 2, "d")
    mu = _check_mu_pattern(mu)
    w = 2 * d - 1
    # congruent, 12(d-1)^2 - 3 = 3(2d-3)(2d-1), and n >= 3: a spec
    n_window, gamma = _compose(d, mu, (0, d - 1, d - 1, d - 1))
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

    zbar = _z_template(shift(1, 1, 1, 1))
    if mu[0] != 0:
        zunder = _z_template(shift(-1, 1, 1, 1))
    else:
        zunder = zbar + 2 * R[0]  # nu_0 = -1: no G~nu
    zprime = _z_template(shift(0, 2, 1, 1))
    zsecond = _z_template(shift(0, 0, 1, 1))
    zk = (zsecond,
          _z_template(shift(0, 1, 0, 1)),
          _z_template(shift(0, 1, 1, 0)))
    z = _z_template(mu)

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
    if n_window != n:
        raise IdentityFailure("gamma^(2) != (2d-1)(2n-2)+3")

    return KitDivisors(d, mu, gamma, n, g, zbar, zunder, zprime,
                       zsecond, z, zk, d0, d1, f, g_div, lam)


# ---------------------------------------------------------------------------
# census


class CensusRecord(NamedTuple):
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
# one census_csv row: a field per CSV_COLUMNS entry
_CSV_ROW = ",".join(["%s"] * 20)
_CSV_BOOL = {True: "true", False: "false"}


def _pair_tables(top: int, cap: int) -> tuple[dict, dict]:
    """For each parity q, _pairs over the coordinates 0 <= a <= cap with
    a = q mod 2: about pi*top/16 pairs per parity, however far cap lies
    past isqrt(top)."""
    return tuple(_pairs(range(q, cap + 1, 2), top) for q in (0, 1))


def _cell_types(n: int, d: int, gamma_bound: int,
                tables: tuple[dict, dict]) -> list[Vec4]:
    """Type vectors for one (n, d) cell: correct parity, coordinates up
    to the bound, square sum pinned by the rational-image constraint.

    The 4-sphere walk of `_sphere_points` over the two parity ranges,
    clipped at the radius, with (g2, g3) read from the census's
    `_pair_tables` built with the same bound; so a cell costs
    O(r^2 + rows), in lexicographic order."""
    total, pj = _image_total(n, d), n % 2
    end = min(gamma_bound, isqrt(total)) + 1
    return _sphere_points(total, range(1 - pj, end, 2), range(pj, end, 2),
                          tables[pj])


def census(n_range, d_range, gamma_bound: int, p: int | None = None,
           pair_reading: str = "factored", partitions: int = 1
           ) -> list[CensusRecord]:
    """Sweep the grid and report one record per valid spec.

    Cells (n, d) are dealt round-robin into the requested number of
    partitions, each computed independently, then merged by sorted key;
    the output is identical for any partition count.  One partition
    walks the sorted cells, each in lexicographic gamma order, so its
    records come out in key order and are not sorted again.  Partitions
    beyond the number of cells would be empty, so no block is made for
    them.  In characteristic p the cells that admit no type are dropped
    first.

    g~ is computed once per cell, on its first emitted row: every type
    of a cell has gamma^(2) = _image_total(n, d), which LambdaSpec checks
    on each row, so every row of the cell has the same g~ and passes or
    fails its NegativeGenus and NotDivisible checks alike.  A cell that
    emits no row (in char p) computes none."""
    p = validate_char_p(p)
    gamma_bound = as_int(gamma_bound, "gamma_bound")
    partitions = as_int(partitions, "partitions")
    if partitions < 1:
        raise DomainError(f"partitions must be >= 1, got {partitions}",
                          constraint="partitions")
    _pair_note(pair_reading)
    # each range read once and checked on its own, so an iterator is not
    # spent after the first n and an empty range skips no check
    n_range = tuple(at_least(n, 1, "n") for n in n_range)
    d_range = tuple(at_least(d, 1, "d") for d in d_range)
    # (gamma^(1))^2 >= gamma^(2) in N^4: a cell past (p(2d-1))^2 is empty
    cells = sorted({(n, d) for n in n_range for d in d_range if p is None
                    or _image_total(n, d) <= (p * (2 * d - 1)) ** 2})

    blocks = [cells[i::partitions]
              for i in range(min(partitions, len(cells)))]
    # one pair table per parity for the whole sweep, sized by the
    # largest cell's sphere
    top = max((_image_total(n, d) for n, d in cells), default=0)
    tables = _pair_tables(top, gamma_bound)
    records = []
    for block in blocks:
        for n, d in block:
            g_tilde = None
            for gamma in _cell_types(n, d, gamma_bound, tables):
                if p is not None and not char_p_admits(gamma, 2 * d - 1, p):
                    continue
                if g_tilde is None:
                    g_tilde = _genus_tilde(n, d, 1, 1, gamma)
                records.append(_census_record(n, d, gamma, p, pair_reading,
                                              g_tilde))
    # (n, d, gamma), the order of CensusRecord.key, in which a single
    # partition already walks its cells and each cell its types
    if partitions > 1:
        records.sort(key=itemgetter(0, 1, 2))
    return records


def _census_record(n: int, d: int, gamma: Vec4, p: int | None,
                   pair_reading: str, g_tilde: int) -> CensusRecord:
    report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p,
                       pair_reading=pair_reading)
    dec = report.decomposition
    g1 = coord_sum(gamma)
    if g1 % 2 == 0:
        raise InternalCheckFailure(
            f"gamma^(1) = {g1} even for a valid type {fmt_vec(gamma)}")
    # every field, in field order (vectors.new_row)
    return new_row(CensusRecord, (
        n, d, gamma, dec.mu, dec.eps, report.failing_constraint is None,
        report.is_nef(), bool(report.agreement), _moduli(report),
        (g1 - 1) // 2, g_tilde))


def census_csv(records) -> str:
    """Fixed-column CSV; newline-terminated rows, '' for absent moduli
    dimension, lowercase booleans.  Each row is one _CSV_ROW template."""
    lines = [CSV_COLUMNS]
    for r in records:
        n, d, g, m, e, closed, brute, agree, dim, gg, gt = of_kind(
            r, CensusRecord)
        lines.append(_CSV_ROW % (
            n, d, *g, *m, *e, _CSV_BOOL[closed], _CSV_BOOL[brute],
            _CSV_BOOL[agree], "" if dim is None else dim, gg, gt))
    return "\n".join(lines) + "\n"


def census_json(records) -> list[dict]:
    """CensusRecord fields, in order, of each record; vectors as lists."""
    return [{**of_kind(r, CensusRecord)._asdict(), "gamma": list(r.gamma),
             "mu": list(r.mu), "eps": list(r.eps)} for r in records]
