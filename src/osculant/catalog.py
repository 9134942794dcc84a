"""Named curve classes: the exceptional family on the quotient, the
(-2)-configuration, fiber components, and the upstairs cover class.

Downstairs the negative curves come in two flavours.  There is a finite
(-2)-configuration: the section image C~o, the eight half-branch classes
s~0..s~3 and r~0..r~3 (whose pullbacks are 2*s_i and 2*r_i, the factor 2
because the branch divisor is fixed by the involution), and in odd
characteristic p one extra member C~p pulling back to p*C - sum r_i.
And there is an infinite family of (-1)-classes G~alpha indexed by
alpha in N^4 with odd square sum:

    pullback(G~alpha) = a*C + F - s_k - sum_i alpha_i r_i,
    a = (alpha^(2) - 1)/2,
    k = the index whose coordinate parity disagrees with the rest.

Each G~alpha has self-intersection -1 and canonical degree -1, so genus
0 by adjunction.  In characteristic p only those with alpha^(1) <= p
survive.  The unit vectors alpha = e_i recover the fiber-component
images: pullback F - s_i - r_i.

Every class here is built straight from its coefficients through the
validating DivisorClass constructor.  The nine characteristic-0 rows
of the (-2)-catalog are built once per process; C~p is built per call,
so no cache grows with p.
"""

from dataclasses import dataclass
from math import isqrt
from operator import index

from .errors import CharPExcluded, ParityViolation, RhoEven, RhoOutOfRange, DomainError
from .lattice import F, S, R, DivisorClass, QuotientClass
from .vectors import Vec4, coord_sum, fmt_vec, minority_index, norm_sq, vec4


# Miller-Rabin over the first 12 prime bases is exact below
# psi_12 = 318665857834031151167461 ~ 3.2e23, the least strong
# pseudoprime to all twelve (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic primality of an odd n with 3 <= n < _MR_BOUND."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _CheckedP(int):
    """A characteristic validate_char_p has already accepted."""


def validate_char_p(p: int | None) -> int | None:
    """Characteristic config: None (char 0) or an odd prime >= 3 below
    _MR_BOUND, the range where primality is decided exactly.

    Only integers are accepted (``__index__``, not bool).  The result is
    marked as checked and is returned as is when passed back in, so the
    calls a public call makes do not test primality again."""
    if p is None or isinstance(p, _CheckedP):
        return p
    if isinstance(p, bool) or not hasattr(type(p), "__index__"):
        raise DomainError(f"characteristic must be an integer, got {p!r}",
                          constraint="char-p-config")
    p = index(p)
    if p < 3 or p % 2 == 0:
        raise DomainError(f"characteristic must be an odd prime >= 3, got {p}",
                          constraint="char-p-config")
    if p >= _MR_BOUND:
        raise DomainError(f"characteristic {p} is beyond {_MR_BOUND}, where "
                          f"primality is no longer decided exactly",
                          constraint="char-p-config")
    if not _is_prime(p):
        raise DomainError(f"characteristic {p} is not prime",
                          constraint="char-p-config")
    return _CheckedP(p)


@dataclass(frozen=True)
class ExceptionalSpec:
    """Index data of one exceptional class: the vector alpha together
    with the derived a = (alpha^(2)-1)/2 and odd-one-out index k."""

    alpha: Vec4
    a: int
    k: int

    @classmethod
    def from_alpha(cls, alpha, p: int | None = None) -> "ExceptionalSpec":
        alpha = vec4(alpha)
        if any(x < 0 for x in alpha):
            raise DomainError(f"alpha={fmt_vec(alpha)} must be nonnegative",
                              constraint="alpha-nonnegative")
        sq = norm_sq(alpha)
        if sq % 2 == 0:
            raise ParityViolation(
                f"alpha={fmt_vec(alpha)} has even square sum {sq}")
        p = validate_char_p(p)
        if p is not None and coord_sum(alpha) > p:
            raise CharPExcluded(
                f"alpha={fmt_vec(alpha)} has coordinate sum "
                f"{coord_sum(alpha)} > p = {p}")
        return cls(alpha, (sq - 1) // 2, minority_index(alpha))

    def pullback(self) -> DivisorClass:
        s = tuple(-1 if i == self.k else 0 for i in range(4))
        return DivisorClass(self.a, 1, s, tuple(-a for a in self.alpha))

    def quotient_class(self) -> QuotientClass:
        return QuotientClass(self.pullback())


def exceptional_class(alpha, p: int | None = None) -> QuotientClass:
    """The (-1)-class G~alpha, as a quotient class."""
    return ExceptionalSpec.from_alpha(alpha, p).quotient_class()


def enumerate_exceptional(max_sq: int, p: int | None = None) -> list[ExceptionalSpec]:
    """All alpha in N^4 with odd alpha^(2) <= max_sq (and alpha^(1) <= p
    in characteristic p), in lexicographic order of alpha."""
    p = validate_char_p(p)
    out = []
    m = isqrt(max(max_sq, 0))
    for a0 in range(m + 1):
        q0 = a0 * a0
        for a1 in range(isqrt(max_sq - q0) + 1):
            q1 = q0 + a1 * a1
            for a2 in range(isqrt(max_sq - q1) + 1):
                q2 = q1 + a2 * a2
                for a3 in range(isqrt(max_sq - q2) + 1):
                    if (q2 + a3 * a3) % 2 == 0:
                        continue
                    if p is not None and a0 + a1 + a2 + a3 > p:
                        continue
                    out.append(ExceptionalSpec.from_alpha((a0, a1, a2, a3)))
    return out


# -- the (-2)-configuration ------------------------------------------------

_SECTION_IMAGE = QuotientClass(DivisorClass(c=1, s=(-1, -1, -1, -1)))


def section_image() -> QuotientClass:
    """C~o: image of the zero section, pullback C - s0-s1-s2-s3.  Every
    call, the catalog's C~o row included, shares one instance."""
    return _SECTION_IMAGE


def s_branch(i: int) -> QuotientClass:
    """s~i, pullback 2*s_i (branch component, fixed by the involution)."""
    return QuotientClass(2 * S[i])


def r_branch(i: int) -> QuotientClass:
    """r~i, pullback 2*r_i."""
    return QuotientClass(2 * R[i])


def char_p_section(p: int) -> QuotientClass:
    """C~p: the extra (-2)-section in odd characteristic p,
    pullback p*C - r0-r1-r2-r3."""
    p = validate_char_p(p)
    if p is None:
        raise DomainError("C~p needs a characteristic p, got None",
                          constraint="char-p-config")
    return QuotientClass(DivisorClass(c=p, r=(-1, -1, -1, -1)))


def _catalog_row(name: str, cls: QuotientClass
                 ) -> tuple[str, QuotientClass, int]:
    return name, cls, cls.self_intersection()


# the nine characteristic-0 rows are constant: built once, shared by
# every call (rows are immutable)
_BASE_CATALOG = (
    _catalog_row("C~o", section_image()),
    *(_catalog_row(f"s~{i}", s_branch(i)) for i in range(4)),
    *(_catalog_row(f"r~{i}", r_branch(i)) for i in range(4)),
)


def negative_curve_catalog(p: int | None = None) -> list[tuple[str, QuotientClass, int]]:
    """The finite (-2)-catalog as (name, class, self-intersection) rows.

    Nine entries in characteristic 0; C~p joins in characteristic p.
    Self-intersections are computed from the lattice, not hardcoded, so
    the list doubles as a sanity check on the lattice arithmetic.  The
    nine base rows are built once per process; only C~p is built per
    call, and every call returns a fresh list.
    """
    rows = list(_BASE_CATALOG)
    if p is not None:
        # char_p_section validates p
        rows.append(_catalog_row(f"C~{p}", char_p_section(p)))
    return rows


def fiber_component_class(i: int) -> DivisorClass:
    """Strict transform of the fiber through marked pair i: F - s_i - r_i.

    Upstairs class; its image downstairs is G~alpha for alpha = e_i.
    """
    if not 0 <= i <= 3:
        raise DomainError(f"fiber index {i} out of range 0..3",
                          constraint="fiber-index")
    return F - S[i] - R[i]


def gamma_perp_class(n: int, d: int, rho: int, gamma) -> DivisorClass:
    """Upstairs class of a cover curve:

        n*C + (2d-1)*F - rho*s_0 - sum_i gamma_i r_i.

    rho must be odd and within 1..2d-1; gamma in N^4.
    """
    n, d, rho = int(n), int(d), int(rho)
    gamma = vec4(gamma)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}", constraint="degree-min")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}", constraint="degree-min")
    if rho % 2 == 0:
        raise RhoEven(f"rho={rho} must be odd")
    if not 1 <= rho <= 2 * d - 1:
        raise RhoOutOfRange(f"rho={rho} outside 1..{2 * d - 1}")
    if any(g < 0 for g in gamma):
        raise DomainError(f"gamma={fmt_vec(gamma)} must be nonnegative",
                          constraint="gamma-nonnegative")
    return DivisorClass(n, 2 * d - 1, (-rho, 0, 0, 0),
                        tuple(-g for g in gamma))
