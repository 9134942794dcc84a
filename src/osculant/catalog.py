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
of the (-2)-catalog are built once per process; C~p is built per call
of negative_curve_catalog, so no cache grows with p.

Lambda(n, d, rho, gamma) pulls back to n*C + w*F - rho*s_0 -
sum gamma_i r_i (w = 2d-1), so its upstairs pairing with the pullback P
of a catalog row is the integer linear form

    n*(C.P) + w*(F.P) - rho*(s_0.P) - sum_i gamma_i*(r_i.P)

and Lambda . N is half of it.  _BASE_FORMS holds each base row's seven
coefficients, taken with DivisorClass.dot on the lattice once per
process.  The form is linear in P, so C~p's is p times the form of C
plus the form of -r0-r1-r2-r3: two fixed 7-tuples (_CP_SLOPE and
_CP_BASE), and no class is built per call.  _compile_guard writes these
tables once, at import, into _row_guard: one straight-line check per
row with only the nonzero terms of its form (vectors.signed_terms),
compiled by vectors.define.
"""

from bisect import bisect_right
from math import isqrt
from operator import index
from typing import NamedTuple

from .errors import (
    CharPExcluded,
    DomainError,
    InternalCheckFailure,
    ParityViolation,
    RhoEven,
    RhoOutOfRange,
)
from .lattice import C, F, S, R, DivisorClass, QuotientClass
from .vectors import (
    Vec4,
    as_int,
    at_least,
    coord_sum,
    define,
    fmt_vec,
    index4,
    minority_index,
    nonnegative,
    norm_sq,
    signed_terms,
    vec4,
)


# Miller-Rabin over the first k prime bases is exact below psi_k, the
# least strong pseudoprime to all k of them (OEIS A014233): psi_1..psi_4
# from Pomerance, Selfridge & Wagstaff (Math. Comp. 35, 1980), psi_5..
# psi_8 from Jaeschke (Math. Comp. 61, 1993), psi_9..psi_11 from Jiang &
# Deng (Math. Comp. 83, 2014) and psi_12 from Sorenson & Webster (Math.
# Comp. 86, 2017).  Jaeschke also gives shorter exact sets below three
# bounds (_MR_SETS), each bound the least strong pseudoprime to its set.
# _is_prime runs the shortest set that decides n: 2 bases below
# 9,080,191, 3 below 4,759,123,141, 4 below 1.12e12, 5 below psi_5 ~
# 2.15e12 and 6 to 12 above it, up to _MR_BOUND = psi_12 ~ 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461)
_MR_BOUND = _MR_PSI[-1]
_MR_SETS = ((9080191, (31, 73)),
            (4759123141, (2, 7, 61)),
            (1122004669633, (2, 13, 23, 1662803)))


def _mr_bands() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(upper edges, bases) of the bands between consecutive bounds of
    _MR_PSI and _MR_SETS: each band's bases are the prefix of _MR_BASES
    that _MR_PSI gives, or a set of _MR_SETS whose bound covers the band
    where that set is shorter."""
    edges = tuple(sorted({*_MR_PSI, *(bound for bound, _ in _MR_SETS)}))
    bases = []
    for edge in edges:
        best = _MR_BASES[:bisect_right(_MR_PSI, edge - 1) + 1]
        for bound, group in _MR_SETS:
            if edge <= bound and len(group) < len(best):
                best = group
        bases.append(best)
    return edges, tuple(bases)


_MR_EDGES, _MR_BAND_BASES = _mr_bands()


def _mr_bases(n: int) -> tuple[int, ...]:
    """The shortest base set of _mr_bands that decides n < _MR_BOUND
    exactly."""
    return _MR_BAND_BASES[bisect_right(_MR_EDGES, n)]


def _is_prime(n: int) -> bool:
    """Deterministic primality of an odd n with 3 <= n < _MR_BOUND.

    Trial division by the 12 bases of _MR_BASES, then a
    strong-probable-prime test to each base of _mr_bases(n): below the
    bound of a base set no composite passes all of its bases, so the
    verdict is exact with that set alone."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _mr_bases(n):
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


class ExceptionalSpec(NamedTuple):
    """Index data of one exceptional class: the vector alpha together
    with the derived a = (alpha^(2)-1)/2 and odd-one-out index k."""

    alpha: Vec4
    a: int
    k: int

    @classmethod
    def from_alpha(cls, alpha, p: int | None = None) -> "ExceptionalSpec":
        alpha = nonnegative(vec4(alpha), "alpha")
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
    in characteristic p), in lexicographic order of alpha.  Each
    coordinate stops at the square and at the sum left, so a char-p walk
    is O(p^4) whatever max_sq; in char 0 the sum left starts at max_sq,
    which never binds, since alpha^(1) <= alpha^(2).  The walk makes
    only such alphas and holds each one's square sum, so it builds each
    spec directly, with none of from_alpha's checks."""
    max_sq = as_int(max_sq, "max_sq")
    p = validate_char_p(p)
    if max_sq < 0:
        return []
    out = []
    left = max_sq if p is None else p
    for a0 in range(min(isqrt(max_sq), left) + 1):
        q0, l0 = a0 * a0, left - a0
        for a1 in range(min(isqrt(max_sq - q0), l0) + 1):
            q1, l1 = q0 + a1 * a1, l0 - a1
            for a2 in range(min(isqrt(max_sq - q1), l1) + 1):
                q2 = q1 + a2 * a2
                top = min(isqrt(max_sq - q2), l1 - a2)
                for a3 in range(1 - q2 % 2, top + 1, 2):  # alpha^(2) odd
                    alpha = (a0, a1, a2, a3)
                    out.append(ExceptionalSpec(alpha, (q2 + a3 * a3 - 1) // 2,
                                               minority_index(alpha)))
    return out


# -- the (-2)-configuration ------------------------------------------------

_SECTION_IMAGE = QuotientClass(DivisorClass(c=1, s=(-1, -1, -1, -1)))


def section_image() -> QuotientClass:
    """C~o: image of the zero section, pullback C - s0-s1-s2-s3.  Every
    call, the catalog's C~o row included, shares one instance."""
    return _SECTION_IMAGE


def s_branch(i: int) -> QuotientClass:
    """s~i, pullback 2*s_i (branch component, fixed by the involution)."""
    return QuotientClass(2 * S[index4(i, "branch index", "branch-index")])


def r_branch(i: int) -> QuotientClass:
    """r~i, pullback 2*r_i."""
    return QuotientClass(2 * R[index4(i, "branch index", "branch-index")])


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


# the classes whose pairings with P are the coefficients of n, w, rho
# and gamma_0..gamma_3 in the upstairs pairing of Lambda with P
_LAMBDA_BASIS = (C, F, -S[0], -R[0], -R[1], -R[2], -R[3])


def _lambda_form(name: str, cls: QuotientClass
                 ) -> tuple[str, tuple[int, ...]]:
    return name, tuple(b.dot(cls.pullback) for b in _LAMBDA_BASIS)


_BASE_FORMS = tuple(_lambda_form(name, cls) for name, cls, _ in _BASE_CATALOG)

# C~p pulls back to p*C + (-r0-r1-r2-r3), so its form is p*_CP_SLOPE +
# _CP_BASE (the form is linear in the class)
_CP_SLOPE = tuple(b.dot(C) for b in _LAMBDA_BASIS)
_CP_BASE = tuple(b.dot(DivisorClass(r=(-1, -1, -1, -1))) for b in _LAMBDA_BASIS)


# the names _compile_guard gives n, w, rho and gamma_0..gamma_3, the
# order of the seven coefficients of a form
_FORM_VARS = ("n", "w", "rho", "g0", "g1", "g2", "g3")


def _guard_failure(up: int, name: str) -> InternalCheckFailure:
    """The failure of a catalog row whose upstairs pairing with Lambda
    is up: odd first, then negative."""
    if up % 2:
        return InternalCheckFailure(
            f"upstairs pairing {up} with {name} is odd; Lambda is not "
            f"a pullback")
    return InternalCheckFailure(
        f"valid spec pairs negatively with {name}: {up // 2}")


def _compile_guard(base_forms, cp_slope, cp_base):
    """The guard of nef._catalog_guard, generated from the form tables
    once: _row_guard(n, w, rho, gamma, p) raises InternalCheckFailure
    (_guard_failure) at the first row of negative_curve_catalog(p)
    whose upstairs pairing with Lambda is odd or negative, p already
    validated.

    One line per row, in catalog order, evaluates its form at (n, w,
    rho, gamma) with only the nonzero terms (vectors.signed_terms), then
    checks parity, then sign.  C~p's line is p*cp_slope + cp_base
    written out, so nothing is kept per p."""

    def row(terms, name: str) -> str:
        return (f"if (up := {signed_terms('', terms) or '0'}) % 2 "
                f"or up < 0: raise _guard_failure(up, {name})")

    return define("_row_guard", ["n", "w", "rho", "gamma", "p"], [
        "g0, g1, g2, g3 = gamma",
        *(row(zip(form, _FORM_VARS), repr(name))
          for name, form in base_forms),
        "if p is None: return",
        row([*zip(cp_slope, [f"p*{v}" for v in _FORM_VARS]),
             *zip(cp_base, _FORM_VARS)], 'f"C~{p}"')],
        {"_guard_failure": _guard_failure})


_row_guard = _compile_guard(_BASE_FORMS, _CP_SLOPE, _CP_BASE)


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
    i = index4(i, "fiber index", "fiber-index")
    e_i = tuple(int(j == i) for j in range(4))
    return ExceptionalSpec(e_i, 0, i).pullback()


def gamma_perp_class(n: int, d: int, rho: int, gamma) -> DivisorClass:
    """Upstairs class of a cover curve:

        n*C + (2d-1)*F - rho*s_0 - sum_i gamma_i r_i.

    n, d >= 1, rho odd and within 1..2d-1, gamma in N^4 (_cover_fields).
    """
    return _perp_class(*_cover_fields(n, d, rho, gamma))


def _cover_fields(n, d, rho, gamma) -> tuple[int, int, int, Vec4]:
    """(n, d, rho, gamma) of a cover curve, checked: n, d >= 1, rho odd
    and within 1..2d-1, then gamma an int 4-tuple in N^4.  The one owner
    of these rules for gamma_perp_class, nef.LambdaSpec and
    covers.perp_genus_identity."""
    n, d = at_least(n, 1, "n"), at_least(d, 1, "d")
    rho = as_int(rho, "rho")
    if rho % 2 == 0:
        raise RhoEven(f"rho = {rho} must be odd")
    if not 1 <= rho <= 2 * d - 1:
        raise RhoOutOfRange(f"rho = {rho} outside 1..{2 * d - 1}")
    return n, d, rho, nonnegative(vec4(gamma), "gamma")


def _perp_class(n: int, d: int, rho: int, gamma: Vec4) -> DivisorClass:
    """The class of gamma_perp_class from fields already checked by
    _cover_fields; only DivisorClass validates them."""
    g0, g1, g2, g3 = gamma
    return DivisorClass(n, 2 * d - 1, (-rho, 0, 0, 0), (-g0, -g1, -g2, -g3))
