"""Numerical invariants of hyperelliptic osculating covers.

A cover contributes the tuple (n, d, g, g_tilde, rho, m, gamma): degree
over the base elliptic curve, osculating order, arithmetic genus, genus
of the image curve on the quotient, ramification index at the marked
point, degree of the induced base map, and the type vector gamma in N^4
of intersections with the r-exceptionals.  The laws tying these together
are pure integer (in)equalities; this module evaluates them.

validate_cover never raises: every law becomes a pass/fail row, so batch
census runs can record failures as data.
"""

from typing import NamedTuple

from .catalog import _cover_fields, _perp_class, validate_char_p
from .errors import (
    InternalCheckFailure,
    NegativeGenus,
    NotDivisible,
    RhoEven,
    RhoOutOfRange,
)
from .lattice import DivisorClass
from .vectors import (Vec4, as_int, at_least, coord_sum, nonnegative,
                      norm_sq, of_kind, record, vec4)


class Check(NamedTuple):
    """One evaluated law: lhs REL rhs, plus an optional note.  Rows with
    informational=True are reported but never fail a report."""

    id: str
    passed: bool
    lhs: int
    rhs: int
    note: str = ""
    informational: bool = False

    def to_dict(self) -> dict:
        d = {"id": self.id, "pass": self.passed, "lhs": self.lhs, "rhs": self.rhs}
        if self.note:
            d["note"] = self.note
        if self.informational:
            d["informational"] = True
        return d


@record
class CoverInvariants:
    """The invariants of one cover: n, its degree over the base elliptic
    curve; d, the osculating order; g, its arithmetic genus; g_tilde, the
    genus of the image curve on the quotient; rho, the ramification index
    at the marked point; m, the degree of the induced base map; gamma,
    the type vector in N^4.  Each field is checked to be an integer
    (gamma a 4-vector of them); validate_cover checks the laws."""

    n: int
    d: int
    g: int
    g_tilde: int
    rho: int
    m: int
    gamma: Vec4

    def __post_init__(self):
        # every scalar under the integer rule (vectors.as_int), then
        # gamma; vectors.record writes back any value coerced
        return (as_int(self.n, "n"), as_int(self.d, "d"), as_int(self.g, "g"),
                as_int(self.g_tilde, "g_tilde"), as_int(self.rho, "rho"),
                as_int(self.m, "m"), vec4(self.gamma))

    @property
    def gamma_sum(self) -> int:
        return coord_sum(self.gamma)

    @property
    def gamma_sq(self) -> int:
        return norm_sq(self.gamma)


def validate_type(n: int, gamma) -> list[str]:
    """Parity law of a type vector gamma in N^4: gamma_0 + 1 and gamma_1,
    gamma_2, gamma_3 must all be congruent to n mod 2.  Returns the list
    of violated coordinates (empty = ok)."""
    return _validate_type(as_int(n, "n"), nonnegative(vec4(gamma), "gamma"))


def _validate_type(n: int, gamma: Vec4) -> list[str]:
    """validate_type of an int n and an int 4-tuple."""
    out = []
    if (gamma[0] + 1 - n) % 2:
        out.append(f"gamma_0 parity: gamma_0 + 1 = {gamma[0] + 1} and "
                   f"n = {n} differ mod 2")
    for i in (1, 2, 3):
        if (gamma[i] - n) % 2:
            out.append(f"gamma_{i} parity: gamma_{i} = {gamma[i]} and "
                       f"n = {n} differ mod 2")
    return out


def char_p_admits(gamma, w: int, p: int | None) -> bool:
    """The char-p rule on a type: gamma^(1) <= p*w, w = 2d-1; every type
    is admitted in characteristic 0.  p must already be validated.  The
    one spelling of the rule: the nef layer raises CharPExcluded on it,
    the family generators and the census skip the type, and
    validate_cover reports it as the char-p-type-sum row."""
    return p is None or coord_sum(gamma) <= p * w


def genus_tilde(n: int, d: int, rho: int, m: int, gamma) -> int:
    """Genus of the image curve on the quotient, from

        4 m^2 g~ = (2d-1)(2n-2m) + 4m^2 - rho^2 - gamma^(2).

    d must be >= 1 and gamma lie in N^4.  The right side must be
    nonnegative (NegativeGenus otherwise, i.e.
    gamma^(2) > 2(2d-1)(n-m) + 4m^2 - rho^2) and divisible by 4m^2
    (NotDivisible otherwise).
    """
    n, d = as_int(n, "n"), at_least(d, 1, "d")
    rho, m = as_int(rho, "rho"), as_int(m, "m")
    gamma = nonnegative(vec4(gamma), "gamma")
    if m < 1:
        raise NotDivisible(f"m must be >= 1, got {m}")
    return _genus_tilde(n, d, rho, m, gamma)


def _genus_numerator(n: int, w: int, rho: int, m: int, g2: int) -> int:
    """4m^2 g~ = w(2n-2m) + 4m^2 - rho^2 - g2, w = 2d-1, g2 = gamma^(2):
    >= 0 exactly when g2 <= 2w(n-m) + 4m^2 - rho^2 (type-norm-bound)."""
    return w * (2 * n - 2 * m) + 4 * m * m - rho * rho - g2


def _genus_tilde(n: int, d: int, rho: int, m: int, gamma: Vec4) -> int:
    """genus_tilde of ints with m >= 1 and an int 4-tuple gamma."""
    g2 = norm_sq(gamma)
    num = _genus_numerator(n, 2 * d - 1, rho, m, g2)
    if num < 0:
        raise NegativeGenus(
            f"gamma^(2) = {g2} exceeds {num + g2}; numerator {num} < 0")
    if num % (4 * m * m):
        raise NotDivisible(
            f"numerator {num} not divisible by 4m^2 = {4 * m * m}")
    return num // (4 * m * m)


class CoverReport(NamedTuple):
    checks: tuple[Check, ...]
    minimal: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed and not c.informational]

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks],
                "minimal": self.minimal}


def validate_cover(inv: CoverInvariants, p: int | None = None) -> CoverReport:
    """Evaluate every numerical law on one invariant tuple.

    Covers: rho odd and in range, divisibility of m, type parity, the
    genus bound 2g+1 <= gamma^(1), the quotient-genus identity (the
    stored g_tilde is recomputed and compared), the squared-genus bound,
    the rho = 1 specializations, the char-p bound when configured, and
    the dominated-genus cap.  The weak right-hand member of the squared
    chain is recomputed informationally and never rejects.
    """
    of_kind(inv, CoverInvariants)
    p = validate_char_p(p)
    n, d, g, rho, m, gamma = inv.n, inv.d, inv.g, inv.rho, inv.m, inv.gamma
    w = 2 * d - 1
    g1, g2 = inv.gamma_sum, inv.gamma_sq
    checks: list[Check] = []

    checks.append(Check("rho-odd", rho % 2 == 1, rho % 2, 1))
    checks.append(Check("rho-range", 1 <= rho <= w, rho, w))

    bad = [x for x in (n, w, rho, *gamma) if x % m] if m >= 1 else [n]
    checks.append(Check(
        "m-divides", m >= 1 and not bad, m, 0,
        note="" if not bad else f"m = {m} fails to divide {bad}"))

    parity = _validate_type(n, gamma)
    checks.append(Check("type-parity", not parity, len(parity), 0,
                        note="; ".join(parity)))

    checks.append(Check("genus-le-type-sum", 2 * g + 1 <= g1, 2 * g + 1, g1))

    # quotient-genus identity, with the stored g_tilde cross-checked
    num = _genus_numerator(n, w, rho, m, g2)
    ok = m >= 1 and num >= 0 and num % (4 * m * m) == 0 and num == 4 * m * m * inv.g_tilde
    note = ""
    if m >= 1 and (num < 0 or num % (4 * m * m)):
        note = f"right side {num} not a genus: must be >= 0 and divisible by {4 * m * m}"
    elif not ok:
        note = f"stored g_tilde = {inv.g_tilde} disagrees with recomputed value"
    checks.append(Check("quotient-genus", ok, 4 * m * m * inv.g_tilde, num, note=note))
    checks.append(Check("type-norm-bound", num >= 0, g2, num + g2))

    lhs = (2 * g + 1) ** 2
    mid = 8 * w * (n - m) + 13 * m * m - 4 * rho * rho
    checks.append(Check("genus-square", lhs <= mid, lhs, mid))
    checks.append(Check("genus-square-weak", mid <= 8 * w * n + w * w,
                        mid, 8 * w * n + w * w, informational=True,
                        note="weak chain member, reported only"))

    if rho == 1:
        checks.append(Check("unramified-m", m == 1, m, 1))
        checks.append(Check("unramified-genus-square",
                            lhs <= 8 * w * (n - 1) + 9, lhs, 8 * w * (n - 1) + 9))
    if p is not None:
        checks.append(Check("char-p-type-sum", char_p_admits(gamma, w, p),
                            g1, p * w))

    checks.append(Check("max-genus", 2 * g <= 4 * n - rho - 1, 2 * g, 4 * n - rho - 1))

    return CoverReport(tuple(checks), minimal=(2 * g + 1 == g1))


def factorization_relations(d: int, g: int, m: int) -> tuple[int, int]:
    """Invariants (d_b, g_b) of the base cover under a degree-m factor:
    2d-1 = m(2 d_b - 1) and 2g+1 = m(2 g_b + 1), both exact."""
    d, g, m = at_least(d, 1, "d"), as_int(g, "g"), as_int(m, "m")
    if m < 1 or m % 2 == 0:
        raise NotDivisible(f"m must be odd and >= 1, got {m}")
    if (2 * d - 1) % m:
        raise NotDivisible(f"m = {m} does not divide 2d-1 = {2 * d - 1}")
    if (2 * g + 1) % m:
        raise NotDivisible(f"m = {m} does not divide 2g+1 = {2 * g + 1}")
    # odd/odd quotients are odd, so the +-1 shifts below stay integral
    d_b = ((2 * d - 1) // m + 1) // 2
    g_b = ((2 * g + 1) // m - 1) // 2
    if 2 * d - 1 != m * (2 * d_b - 1) or 2 * g + 1 != m * (2 * g_b + 1):
        raise InternalCheckFailure(
            f"base invariants (d_b, g_b) = ({d_b}, {g_b}) do not rebuild "
            f"(d, g) = ({d}, {g}) under m = {m}")
    return d_b, g_b


def osculating_bound(n: int, g: int) -> int:
    """Smallest osculating order d consistent with
    (2d-1)(2n-2) >= g^2 + g - 2."""
    n, g = at_least(n, 2, "n"), as_int(g, "g")
    need = g * g + g - 2
    # the least odd 2d-1 >= ceil(need / (2n-2)), with d >= 1
    t = -(-need // (2 * n - 2))
    return max(1, (t + 2) // 2)


def max_genus_dominated(n: int, rho: int) -> int:
    """Largest arithmetic genus of a cover dominated at ramification
    index rho: 2n - (rho+1)/2.  Without a d, rho is checked only odd and
    >= 1, not against 2d-1 as in catalog._cover_fields."""
    n, rho = at_least(n, 1, "n"), as_int(rho, "rho")
    if rho % 2 == 0:
        raise RhoEven(f"rho = {rho} must be odd")
    if rho < 1:
        raise RhoOutOfRange(f"rho = {rho} must be >= 1")
    return 2 * n - (rho + 1) // 2


def perp_genus_identity(n: int, d: int, rho: int, gamma) -> tuple[int, int]:
    """Both sides of the upstairs-genus identity

        arithmetic_genus(cover class) = 2 g~ + (rho - 2 + gamma^(1)) / 2

    with g~ recomputed at m = 1.  Returns (lhs, rhs) for callers to
    compare; they agree for every valid tuple.
    """
    n, d, rho, gamma = _cover_fields(n, d, rho, gamma)
    return _genus_identity(_perp_class(n, d, rho, gamma), n, d, rho,
                           gamma)


def _genus_identity(perp: DivisorClass, n: int, d: int, rho: int,
                    gamma: Vec4) -> tuple[int, int]:
    """perp_genus_identity of checked ints, with the cover class
    perp = gamma_perp_class(n, d, rho, gamma) already built: the left
    side is its genus on the lattice, the right side the formula."""
    lhs = perp.genus()
    gt = _genus_tilde(n, d, rho, 1, gamma)
    num = rho - 2 + coord_sum(gamma)
    if num % 2:
        raise NotDivisible(f"rho - 2 + gamma^(1) = {num} is odd")
    return lhs, 2 * gt + num // 2
