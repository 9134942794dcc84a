"""Nefness of the moduli-defining classes, by closed form and by oracle.

For n, d >= 1 and a type vector gamma, Lambda(n, d, rho, gamma) is the
quotient class pulling back to n*C + (2d-1)*F - rho*s_0 - sum gamma_i r_i.
Everything here concerns rho = 1 with the rational-image constraint
gamma^(2) = (2d-1)(2n-2) + 3, under which Lambda^2 = 2d-3 and
Lambda.K~ = -(2d-1).

Write w = 2d-1 and decompose gamma = w*mu + 2*eps with mu of the same
parity as gamma and |eps_i| <= d-1; the decomposition is unique because
the w even residues mod 2w exactly tile [-(2d-2), 2d-2].  Pairing against
the exceptional class G~alpha then satisfies

    4w * (Lambda . G~alpha) = q(alpha) - w^2 - 3 + (0 if k(alpha)=0 else 2w),

where q(alpha) = ||gamma - w*alpha||^2, so nefness against the whole
infinite exceptional family reduces to two finite minimizations of q:
over the k(alpha) = 0 parity class with threshold w^2 + 3, and over
k(alpha) != 0 with threshold w^2 + 3 - 2w.  The brute oracle performs
those minimizations exactly over the whole orthant alpha >= 0 (scan_box):
q is a sum of one term per coordinate, so its minimum over each parity
code is taken coordinate by coordinate, and in characteristic p the
bound alpha^(1) <= p only drops minimizers, never raises a minimum.  The
closed criterion tests three integer inequalities on eps:

    eps-norm:  eps^(2) >= d^2 - d + 1
    eps-sum:   w * sum|eps_i| <= 3d^2 - 3d + eps^(2)
    eps-pair:  w * max_{i!=j}(|eps_i| + |eps_j|) <= d^2 - 1 + eps^(2)

eps-pair is stated here in its factored reading, with w multiplying the
max; the unfactored literal reading is available behind a flag.  The
three inequalities are exactly the q thresholds evaluated at the
candidate minimizers mu, nat_mu and flat_mu, which is why closed and
brute verdicts agree.
"""

from dataclasses import field
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .catalog import (
    ExceptionalSpec,
    _cover_fields,
    _perp_class,
    _row_guard,
    section_image,
    validate_char_p,
)
from .covers import Check, _validate_type, char_p_admits
from .errors import (
    AnticanonicalDegreeTooSmall,
    CharPExcluded,
    ConstraintViolation,
    DomainError,
    InternalCheckFailure,
    NotNef,
    ParityViolation,
    RationalImageViolation,
)
from .lattice import K_TILDE, QuotientClass
from .vectors import (
    Vec4,
    at_least,
    coord_sum,
    fmt_vec,
    minority_index,
    new_row,
    nonnegative,
    norm_sq,
    of_kind,
    record,
    vec4,
)

if TYPE_CHECKING:
    from fractions import Fraction


# ---------------------------------------------------------------------------
# specs and decompositions


@record
class LambdaSpec:
    """Validated parameter tuple (n, d, gamma, rho) of a Lambda class:
    the cover-curve rules of catalog._cover_fields, then the type parity
    and, at rho = 1, the rational-image constraint.  The generated
    __init__ (vectors.record) writes the fields through their slot
    descriptors, and writes back the same way any value that
    __post_init__ had to coerce."""

    n: int
    d: int
    gamma: Vec4
    rho: int = 1

    def __post_init__(self):
        # the checks hand back a plain int or int 4-tuple as the same
        # object, so vectors.record writes a field again only when coerced
        n, d, rho, gamma = _cover_fields(self.n, self.d, self.rho,
                                         self.gamma)
        bad = _validate_type(n, gamma)
        if bad:
            raise ParityViolation("; ".join(bad))
        if rho == 1:
            want = _image_total(n, d)
            if norm_sq(gamma) != want:
                raise RationalImageViolation(
                    f"gamma^(2) = {norm_sq(gamma)} but rho = 1 requires "
                    f"(2d-1)(2n-2)+3 = {want}")
        return n, d, gamma, rho

    @property
    def w(self) -> int:
        return 2 * self.d - 1

    def check_char_p(self, p: int | None) -> int | None:
        """_char_p_for_type on this spec; returns p checked."""
        return _char_p_for_type(self.gamma, self.w, p)


def _image_total(n: int, d: int) -> int:
    """gamma^(2) of every rho = 1 type at (n, d), the rational-image
    constraint; LambdaSpec checks it and census sizes its cells by it."""
    return (2 * d - 1) * (2 * n - 2) + 3


def _char_p_for_type(gamma: Vec4, w: int, p: int | None) -> int | None:
    """validate_char_p, then the char-p rule on the type
    (covers.char_p_admits), else CharPExcluded."""
    p = validate_char_p(p)
    if not char_p_admits(gamma, w, p):
        raise CharPExcluded(
            f"gamma^(1) = {coord_sum(gamma)} > p(2d-1) = {p * w}")
    return p


def _type_args(d, gamma) -> tuple[int, Vec4]:
    """The d and gamma of a call on a type, checked in that order: d an
    int >= 1, then gamma an int 4-tuple in N^4."""
    return at_least(d, 1, "d"), nonnegative(vec4(gamma), "gamma")


def n_for_type(d: int, gamma) -> int | None:
    """The n forced by the rational-image constraint, or None if the
    constraint has no integral solution n >= 1 for this (d, gamma)."""
    d, gamma = _type_args(d, gamma)
    n = _solve_n(gamma, 2 * d - 1)
    return n if n is not None and n >= 1 else None


def _solve_n(gamma: Vec4, w: int) -> int | None:
    """The integer n with gamma^(2) = w(2n-2) + 3, which may be below 1,
    or None when there is none."""
    num = norm_sq(gamma) - 3
    if num % (2 * w):
        return None
    return num // (2 * w) + 1


def _check_mu_pattern(mu) -> Vec4:
    """mu as an int 4-tuple in N^4 with mu_0 + 1 = mu_j mod 2."""
    mu = nonnegative(vec4(mu), "mu")
    if any((mu[0] + 1 - mu[j]) % 2 for j in (1, 2, 3)):
        raise ParityViolation(
            f"mu = {fmt_vec(mu)} needs mu_0 + 1 = mu_j mod 2")
    return mu


def mu_patterns(mu_max: int) -> list[Vec4]:
    """Each mu <= mu_max that _check_mu_pattern admits, mu_0 odd first."""
    odds, evens = range(1, mu_max + 1, 2), range(0, mu_max + 1, 2)
    return [*product(odds, evens, evens, evens),
            *product(evens, odds, odds, odds)]


def _congruent(eps: Vec4, w: int) -> bool:
    """Whether 4 eps^(2) = 3 mod w = 2d-1, which gives n in _compose."""
    return (4 * norm_sq(eps) - 3) % w == 0


def _window(d: int) -> list[Vec4]:
    """Each eps with |eps_i| <= d-1 and _congruent(eps, 2d-1), in
    lexicographic order: the eps of every window spec at d."""
    return [eps for eps in product(range(1 - d, d), repeat=4)
            if _congruent(eps, 2 * d - 1)]


def _compose(d: int, mu: Vec4, eps: Vec4) -> tuple[int, Vec4] | None:
    """The inverse of _decompose: the (n, gamma) of the window
    (d, mu, eps), with gamma = (2d-1)*mu + 2*eps and n forced by the
    rational-image constraint.  None when gamma leaves N^4 or n < 1.

    Callers pass a mu_patterns mu and a _congruent eps (every eps of
    _window(d) is one), which make n an integer; InternalCheckFailure
    says one did not."""
    w = 2 * d - 1
    m0, m1, m2, m3 = mu
    e0, e1, e2, e3 = eps
    gamma = (w * m0 + 2 * e0, w * m1 + 2 * e1, w * m2 + 2 * e2,
             w * m3 + 2 * e3)
    if min(gamma) < 0:
        return None
    n = _solve_n(gamma, w)
    if n is None:
        raise InternalCheckFailure(
            f"no integral n for gamma = {fmt_vec(gamma)} at d = {d}, "
            f"eps = {fmt_vec(eps)}; 4 eps^(2) = 3 mod 2d-1 should force one")
    if n < 1:
        return None
    return n, gamma


def lambda_class(spec: LambdaSpec, p: int | None = None) -> QuotientClass:
    """The quotient class of the spec (via its pullback)."""
    of_kind(spec, LambdaSpec).check_char_p(p)
    return _lambda(spec)


def _lambda(spec: LambdaSpec) -> QuotientClass:
    """Lambda of a spec whose fields LambdaSpec has already checked:
    the class of catalog.gamma_perp_class, built without checking the
    same ranges a second time."""
    return QuotientClass(_perp_class(spec.n, spec.d, spec.rho, spec.gamma))


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


def decompose_type(gamma, d: int) -> Decomposition:
    d, gamma = _type_args(d, gamma)
    return _decompose(gamma, d)


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


# ---------------------------------------------------------------------------
# closed-form pairing


def thresholds(d: int) -> tuple[int, int]:
    """q-thresholds for nefness: k=0 class first, then k != 0."""
    return _thresholds(2 * at_least(d, 1, "d") - 1)


def _thresholds(w: int) -> tuple[int, int]:
    return w * w + 3, w * w + 3 - 2 * w


def _excess(gamma: Vec4, w: int, alpha: Vec4) -> int:
    """q(alpha) - t = 4w * (Lambda . G~alpha), an integer, for a gamma
    and an exceptional alpha that are already valid: t is w^2 + 3 when
    k(alpha) = 0 and w^2 + 3 - 2w otherwise (thresholds).  One or three
    coordinates of alpha are odd, so k(alpha) = 0 exactly when alpha_0
    differs in parity from both alpha_1 and alpha_2."""
    g0, g1, g2, g3 = gamma
    a0, a1, a2, a3 = alpha
    q = ((g0 - w * a0) ** 2 + (g1 - w * a1) ** 2
         + (g2 - w * a2) ** 2 + (g3 - w * a3) ** 2)
    if (a0 - a1) & 1 and (a0 - a2) & 1:
        return q - w * w - 3
    return q - w * w - 3 + 2 * w


def lambda_dot_exceptional_closed(d: int, gamma, alpha) -> "Fraction":
    """Lambda . G~alpha as an exact rational, assuming the rational-image
    constraint fixes n:

        4w * value = ||gamma - w*alpha||^2 - w^2 - 3 + (0 or 2w),

    the last summand vanishing exactly when k(alpha) = 0 (the branch
    where G~alpha meets s~0).
    """
    from fractions import Fraction
    d, gamma = _type_args(d, gamma)
    w = 2 * d - 1
    if not isinstance(alpha, ExceptionalSpec):
        alpha = ExceptionalSpec.from_alpha(alpha)
    return Fraction(_excess(gamma, w, alpha.alpha), 4 * w)


# ---------------------------------------------------------------------------
# exact minimization of q

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


def scan_box(gamma, d: int, p: int | None = None) -> BoxScan:
    """Minimize q(alpha) = ||gamma - w*alpha||^2 exactly over the
    exceptional alpha >= 0 of each class, with alpha^(1) <= p in
    characteristic p.

    q is a sum of one term per coordinate, so over the alpha of one
    parity code its minimum is the sum of the per-coordinate minima
    (_nearest), attained exactly on the product of their minimizer sets.
    The codes of one class cover disjoint points, so the class minimum is
    the least of its code sums, and its minimizers are the products of
    the codes that reach it.

    p must be an odd prime, and gamma^(1) > p*w raises CharPExcluded
    (both checked as in LambdaSpec.check_char_p).  Then the budget
    alpha^(1) <= p never raises a class minimum, so its minimizers are
    the ones above with alpha^(1) <= p.  Proof: let alpha be a class
    minimizer with alpha^(1) > p.  Both are odd, so the offsets
    e_i = alpha_i - gamma_i/w, each in [-1, 1], sum to at least 2.
    Flipping every parity keeps the minority index, so the class also
    holds beta, the nearest points of the other parities (the lower one
    of a tie): beta_i = alpha_i - 1 where e_i > 0 or e_i = 0 < alpha_i,
    and alpha_i + 1 elsewhere.  They lie 1 - |e_i| from gamma_i/w, so
    (q(beta) - q(alpha))/w^2 = 4 - 2*sum|e_i| <= 0: beta is a minimizer
    too, every e_i >= 0, sum e_i = 2 and alpha^(1) = p + 2.  With three
    e_i > 0, beta^(1) <= alpha^(1) - 3 + 1 = p.  With two, both are 1:
    an alpha_i >= 2 among them ties with alpha_i - 2, and if both are 1
    the other two coordinates carry gamma^(1) = p*w, so one has
    alpha_i > 0 and again beta^(1) <= p.
    """
    d, gamma = _type_args(d, gamma)
    w = 2 * d - 1
    return _scan(gamma, w, _char_p_for_type(gamma, w, p))


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


# ---------------------------------------------------------------------------
# nef criterion


def _carried():
    """A value the report carries for reuse; not part of its equality,
    repr or JSON form."""
    return field(default=None, compare=False, repr=False)


@record
class NefReport:
    """Verdict of one nef check.  It also carries what it was made from
    (spec, p) and what it computed (the decomposition, unless brute
    only; the brute scan and Lambda, unless closed only), so callers can
    reuse the work instead of redoing it.

    The fields are slots, written once each by the generated __init__
    through their slot descriptors (vectors.record): the dataclass
    frozen __init__ makes one object.__setattr__ call per field, and
    took about twice as long per report."""

    verdict: str                      # "nef" | "not_nef"
    mode: str                         # "closed" | "brute" | "both"
    failing_constraint: str | None    # first failed closed condition
    witness: Vec4 | None              # brute alpha with Lambda.G~alpha < 0
    boundary_contacts: tuple[Vec4, ...]   # brute alphas with pairing 0
    agreement: bool | None            # set in both mode
    conditions: tuple[Check, ...] = ()
    spec: LambdaSpec | None = _carried()
    p: int | None = _carried()
    decomposition: Decomposition | None = _carried()   # None in brute mode
    scan: BoxScan | None = _carried()   # None in closed mode
    lam: QuotientClass | None = _carried()   # None in closed mode

    def is_nef(self) -> bool:
        return self.verdict == "nef"

    def contacts_by_k(self) -> dict[int, list[Vec4]]:
        """The boundary contacts with k(alpha) = 1, 2, 3, sorted, by k."""
        by_k: dict[int, list[Vec4]] = {1: [], 2: [], 3: []}
        for alpha in self.boundary_contacts:
            k = minority_index(alpha)
            if k:
                by_k[k].append(alpha)
        return by_k

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "failing_constraint": self.failing_constraint,
            "witness": list(self.witness) if self.witness else None,
            "boundary_contacts": [list(a) for a in self.boundary_contacts],
            "agreement": self.agreement,
            "conditions": [c.to_dict() for c in self.conditions],
        }


_PAIR_NOTES = {"factored": "factored reading", "literal": "literal reading"}


def closed_conditions(dec: Decomposition, d: int,
                      pair_reading: str = "factored") -> tuple[Check, ...]:
    """The three closed inequalities on eps, as check rows."""
    dec, d = of_kind(dec, Decomposition), at_least(d, 1, "d")
    _pair_note(pair_reading)
    return _closed_conditions(dec, d, pair_reading)


def _pair_note(pair_reading: str) -> str:
    """The eps-pair row's note for a pair reading; raises DomainError
    for a reading that _PAIR_NOTES does not name."""
    note = _PAIR_NOTES.get(pair_reading)
    if note is None:
        raise DomainError(f"unknown pair reading {pair_reading!r}",
                          constraint="pair-reading")
    return note


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


def _admit(spec: LambdaSpec, p: int | None) -> int | None:
    """Front door of the rho = 1 analyses: an unramified spec, admitted
    in characteristic p.  Returns p checked, to be passed along; in
    characteristic 0 (p None) every type is admitted, so nothing is
    checked."""
    if of_kind(spec, LambdaSpec).rho != 1:
        raise ConstraintViolation(
            f"this analysis needs rho = 1, got rho = {spec.rho}")
    if p is None:
        return None
    return spec.check_char_p(p)


# nef_check's modes; the CLI's --mode choices (cli._MODES)
_MODES = ("closed", "brute", "both")


def nef_check(spec: LambdaSpec, mode: str = "both", p: int | None = None,
              pair_reading: str = "factored") -> NefReport:
    """Decide nefness of Lambda(spec) by the requested route(s).

    Closed mode evaluates the three eps inequalities.  Brute mode checks
    Lambda against the full negative-curve catalog: the exceptional
    family through the two exact minimizations of q (scan_box), and the
    finite (-2)-list through each row's pairing with Lambda, an integer
    linear form in (n, w, rho, gamma) taken from the lattice once per
    process and compiled into one check (catalog._row_guard), with
    Lambda^2 = 2d-3 checked on the lattice itself (_catalog_guard).
    Both mode runs the two and records their agreement; the reported
    verdict is then the brute one.

    The spec's fields are already checked (LambdaSpec), so after mode,
    p and the pair reading (_pair_note, checked in every mode) the work
    runs on the kernels: _decompose for the closed route,
    _scan and the guard for the brute one.  The report carries what each
    route built: the decomposition, and the scan and Lambda.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown mode {mode!r}", constraint="nef-mode")
    p = _admit(spec, p)
    _pair_note(pair_reading)
    d, gamma = spec.d, spec.gamma
    w = 2 * d - 1

    dec = None
    conditions: tuple[Check, ...] = ()
    closed_verdict = None
    failing = None
    if mode != "brute":
        dec = _decompose(gamma, d)
        conditions = _closed_conditions(dec, d, pair_reading)
        norm, total, pair = conditions
        # failing_constraint is the first row that fails
        if not norm.passed:
            failing = norm.id
        elif not total.passed:
            failing = total.id
        elif not pair.passed:
            failing = pair.id
        closed_verdict = failing is None

    brute_verdict = None
    witness = None
    contacts: tuple[Vec4, ...] = ()
    scan = lam = None
    if mode != "closed":
        lam = _catalog_guard(spec, p)
        scan = _scan(gamma, w, p)
        t0, t1 = _thresholds(w)
        # per class, the excess q - t of its minimum: 4w times the
        # pairing value of each of its (sorted) minimizers
        x0, x1 = scan.min_k0 - t0, scan.min_other - t1
        brute_verdict = x0 >= 0 and x1 >= 0
        contacts = _class_argmins(scan, x0 == 0, x1 == 0)
        if not brute_verdict:
            # the lower pairing value belongs to a failing class
            witness = min((x0, scan.argmin_k0[0]),
                          (x1, scan.argmin_other[0]))[1]

    final = brute_verdict if brute_verdict is not None else closed_verdict
    agreement = None
    if mode == "both":
        agreement = closed_verdict == brute_verdict
    return NefReport("nef" if final else "not_nef", mode, failing, witness,
                     contacts, agreement, conditions, spec, p, dec, scan,
                     lam)


def _catalog_guard(spec: LambdaSpec, p: int | None) -> QuotientClass:
    """Check Lambda . N >= 0 for each row N of negative_curve_catalog(p),
    and Lambda . Lambda = 2d - 3, for an unramified spec admitted at p;
    returns Lambda.

    The rows are checked by catalog._row_guard, one straight-line check
    per row compiled at import from the row's integer form: twice the
    pairing, evaluated at (n, w, rho, gamma) and checked even, then
    nonnegative.  The square is taken on the lattice (_lambda,
    QuotientClass.dot), and is the rational-image constraint that
    _excess rests on.  Both hold for every valid spec, so a failure
    means the validation or the lattice arithmetic is broken."""
    d = spec.d
    _row_guard(spec.n, 2 * d - 1, spec.rho, spec.gamma, p)
    lam = _lambda(spec)
    square = lam.dot(lam)
    if square != 2 * d - 3:
        raise InternalCheckFailure(
            f"Lambda^2 = {square} for a valid spec, not 2d-3 = {2 * d - 3}")
    return lam


# ---------------------------------------------------------------------------
# minimizer claim, contact divisor, dimensions


class MinimizerReport(NamedTuple):
    holds: bool
    min_value: "Fraction"
    argmins: tuple[Vec4, ...]          # attaining the minimal pairing value
    candidates: "tuple[tuple[str, Vec4, Fraction], ...]"
    counterexamples: tuple[Vec4, ...]  # argmins outside the candidate set

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_value": _frac_json(self.min_value),
            "argmins": [list(a) for a in self.argmins],
            "candidates": [
                {"name": n, "alpha": list(a), "value": _frac_json(v)}
                for n, a, v in self.candidates],
            "counterexamples": [list(a) for a in self.counterexamples],
        }


def _frac_json(x: "Fraction"):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def verify_minimizer_claim(spec: LambdaSpec,
                           p: int | None = None) -> MinimizerReport:
    """Check that the minimal pairing value over all exceptional classes
    is attained at mu, nat_mu, or a flat_mu (recorded, not assumed); a
    brute-mode nef_check supplies the scan (_minimizer)."""
    report = nef_check(spec, mode="brute", p=p)
    return _claim_report(spec.w, *_minimizer(report))


def _minimizer(report: NefReport
               ) -> tuple[Decomposition, list[int], int, tuple[Vec4, ...]]:
    """verify_minimizer_claim on the integers of a brute or both report:
    the decomposition, the excess 4w * (Lambda . G~alpha) of each
    candidate (mu, nat_mu, then the flat_mu in order), the least excess
    over all exceptional alpha and the sorted alphas attaining it.  The
    claim holds when the least candidate excess is that minimum.

    A brute-only report carries no decomposition, so it is computed
    here.  Each class's minimum is the excess of its first minimizer,
    taken with _excess rather than read off the scan, so argmins that do
    not attain the scan's minima show as a failed claim."""
    spec = report.spec
    gamma, d = spec.gamma, spec.d
    w = 2 * d - 1
    dec = report.decomposition
    if dec is None:
        dec = _decompose(gamma, d)
    mu, eps, nat, flats = dec
    if not _congruent(eps, w):
        raise InternalCheckFailure(
            f"4 eps^(2) - 3 = {4 * norm_sq(eps) - 3} not divisible by "
            f"w = {w}; the spec should force this congruence")
    cand_xs = [_excess(gamma, w, mu), _excess(gamma, w, nat)]
    cand_xs += [_excess(gamma, w, flat) for flat in flats]
    # every minimizer of a class pairs to the value of its first one
    scan = report.scan
    x0 = _excess(gamma, w, scan.argmin_k0[0])
    x1 = _excess(gamma, w, scan.argmin_other[0])
    return dec, cand_xs, min(x0, x1), _class_argmins(scan, x0 <= x1, x1 <= x0)


def _claim_report(w: int, dec: Decomposition, cand_xs: list[int],
                  xmin: int, argmins: tuple[Vec4, ...]) -> MinimizerReport:
    """The MinimizerReport of a _minimizer result at w = 2d-1: the
    excesses share the denominator 4w, so Fractions are built only for
    the values the report carries."""
    from fractions import Fraction
    names = ["mu", "nat_mu"]
    names += [f"flat_mu[{i}]" for i in range(len(dec.flat_mu_set))]
    vecs = (dec.mu, dec.nat_mu, *dec.flat_mu_set)
    den = 4 * w
    holds = min(cand_xs) == xmin
    cand_rows = tuple((name, vec, Fraction(x, den))
                      for name, vec, x in zip(names, vecs, cand_xs))
    return MinimizerReport(holds, Fraction(xmin, den), argmins, cand_rows,
                           () if holds else argmins)


def _require_nef(report: NefReport) -> None:
    if not report.is_nef():
        spec = report.spec
        raise NotNef(f"Lambda({spec.n},{spec.d},{spec.rho},"
                     f"{fmt_vec(spec.gamma)}) is not nef")


class ContactDivisor(NamedTuple):
    """Exceptional contacts of a nef Lambda sorted by branch index j:
    at most one alpha with k(alpha) = j should pair to zero."""

    components: tuple[ExceptionalSpec, ...]
    anomalies: tuple[tuple[int, tuple[Vec4, ...]], ...]

    def to_dict(self) -> dict:
        return {
            "components": [
                {"alpha": list(c.alpha), "a": c.a, "k": c.k}
                for c in self.components],
            "anomalies": [
                {"k": k, "alphas": [list(a) for a in alphas]}
                for k, alphas in self.anomalies],
        }


def z_divisor(spec: LambdaSpec, p: int | None = None) -> ContactDivisor:
    """For j in {1,2,3}, the exceptional contact with k(alpha) = j, when
    one exists.  Requires a nef spec; uniqueness per j is confirmed over
    every exceptional class and any violation reported as an anomaly rather
    than silently truncated."""
    report = nef_check(spec, mode="brute", p=p)
    _require_nef(report)
    comps, anomalies = [], []
    for k, hits in report.contacts_by_k().items():
        if len(hits) > 1:
            anomalies.append((k, tuple(hits)))
        comps += [ExceptionalSpec(a, (norm_sq(a) - 1) // 2, k) for a in hits]
    return ContactDivisor(tuple(comps), tuple(anomalies))


def linear_system_dims(spec: LambdaSpec,
                       p: int | None = None) -> tuple[int, int]:
    """Dimensions of |Lambda| and |Lambda - C~o| by the anticanonical
    dimension formula dim|D| = D.(D - K~)/2, cross-checked against the
    closed forms 2d-2 and d-2 (_dims on a brute-mode nef_check)."""
    return _dims(nef_check(spec, mode="brute", p=p))


def _dims(report: NefReport) -> tuple[int, int]:
    """linear_system_dims on the Lambda of a brute or both report."""
    lam = report.lam
    deg = -K_TILDE.dot(lam)
    if deg < 2:
        raise AnticanonicalDegreeTooSmall(
            f"-K~.Lambda = {deg} < 2; the dimension formula needs >= 2")
    _require_nef(report)

    def harbourne(q: QuotientClass) -> int:
        v = q.dot(q) - q.dot(K_TILDE)
        if v % 2:
            raise InternalCheckFailure(f"D.(D - K~) = {v} odd for {q}")
        return v // 2

    dim_l = harbourne(lam)
    dim_lc = harbourne(lam - section_image())
    d = report.spec.d
    if dim_l != 2 * d - 2 or dim_lc != d - 2:
        raise InternalCheckFailure(
            f"dimension formulas disagree with closed forms: "
            f"{(dim_l, dim_lc)} vs {(2 * d - 2, d - 2)}")
    return dim_l, dim_lc


def moduli_dimension(spec: LambdaSpec, p: int | None = None) -> int:
    """Dimension of the moduli space the spec defines (_moduli on a
    brute-mode nef_check): d-1 for nef specs with d >= 2, and 0 for
    d = 1; NotNef for the others."""
    report = nef_check(spec, mode="brute", p=p)
    dim = _moduli(report)
    if dim is None:
        _require_nef(report)
    return dim


def _moduli(report: NefReport) -> int | None:
    """The moduli dimension of a report's spec: 0 at d = 1 (the spec
    forces gamma = mu, one cover), else d-1 when nef and None when not."""
    d = report.spec.d
    return 0 if d == 1 else d - 1 if report.is_nef() else None
