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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .catalog import (
    ExceptionalSpec,
    gamma_perp_class,
    negative_curve_catalog,
    section_image,
    validate_char_p,
)
from .covers import Check, char_p_admits, validate_type
from .errors import (
    AnticanonicalDegreeTooSmall,
    CharPExcluded,
    ConstraintViolation,
    DomainError,
    InternalCheckFailure,
    NotNef,
    ParityViolation,
    RationalImageViolation,
    RhoEven,
    RhoOutOfRange,
)
from .lattice import K_TILDE, QuotientClass
from .vectors import Vec4, coord_sum, fmt_vec, minority_index, norm_sq, vec4


# ---------------------------------------------------------------------------
# specs and decompositions


@dataclass(frozen=True)
class LambdaSpec:
    """Validated parameter tuple (n, d, gamma, rho) of a Lambda class."""

    n: int
    d: int
    gamma: Vec4
    rho: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "rho", int(self.rho))
        object.__setattr__(self, "gamma", vec4(self.gamma))
        n, d, rho, gamma = self.n, self.d, self.rho, self.gamma
        if n < 1 or d < 1:
            raise DomainError(f"need n, d >= 1, got n={n}, d={d}",
                              constraint="degree-min")
        if rho % 2 == 0:
            raise RhoEven(f"rho = {rho} must be odd")
        if not 1 <= rho <= 2 * d - 1:
            raise RhoOutOfRange(f"rho = {rho} outside 1..{2 * d - 1}")
        bad = validate_type(n, gamma)
        if bad:
            raise ParityViolation("; ".join(bad))
        if rho == 1:
            want = (2 * d - 1) * (2 * n - 2) + 3
            if norm_sq(gamma) != want:
                raise RationalImageViolation(
                    f"gamma^(2) = {norm_sq(gamma)} but rho = 1 requires "
                    f"(2d-1)(2n-2)+3 = {want}")

    @property
    def w(self) -> int:
        return 2 * self.d - 1

    def check_char_p(self, p: int | None) -> int | None:
        """_char_p_for_type on this spec; returns p checked."""
        return _char_p_for_type(self.gamma, self.w, p)


def _char_p_for_type(gamma: Vec4, w: int, p: int | None) -> int | None:
    """validate_char_p, then the char-p rule on the type
    (covers.char_p_admits), else CharPExcluded."""
    p = validate_char_p(p)
    if not char_p_admits(gamma, w, p):
        raise CharPExcluded(
            f"gamma^(1) = {coord_sum(gamma)} > p(2d-1) = {p * w}")
    return p


def n_for_type(d: int, gamma) -> int | None:
    """The n forced by the rational-image constraint, or None if the
    constraint has no integral solution for this (d, gamma)."""
    num = norm_sq(vec4(gamma)) - 3
    den = 2 * (2 * d - 1)
    if num < 0 or num % den:
        return None
    return num // den + 1


def lambda_class(spec: LambdaSpec, p: int | None = None) -> QuotientClass:
    """The quotient class of the spec (via its pullback)."""
    spec.check_char_p(p)
    return QuotientClass(gamma_perp_class(spec.n, spec.d, spec.rho, spec.gamma))


@dataclass(frozen=True)
class Decomposition:
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

    @property
    def eps_sq(self) -> int:
        return norm_sq(self.eps)

    @property
    def eps_abs_sum(self) -> int:
        return sum(abs(e) for e in self.eps)

    @property
    def max_pair_sum(self) -> int:
        a = sorted((abs(e) for e in self.eps), reverse=True)
        return a[0] + a[1]


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def decompose_type(gamma, d: int) -> Decomposition:
    gamma = vec4(gamma)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}", constraint="degree-min")
    if min(gamma) < 0:
        raise DomainError(f"gamma = {fmt_vec(gamma)} must be nonnegative",
                          constraint="gamma-nonnegative")
    w = 2 * d - 1
    mu, eps, nat = [], [], []
    for g in gamma:
        m = g // w
        if (g - m) % 2:
            m += 1
        e2 = g - w * m
        if e2 % 2 or abs(e2) > 2 * d - 2 or m < 0:
            raise InternalCheckFailure(
                f"no window decomposition of gamma = {fmt_vec(gamma)} "
                f"at d = {d}")
        e = e2 // 2
        mu.append(m)
        eps.append(e)
        nat.append(m + 1 if e >= 0 else m - 1)
    if min(nat) < 0:
        raise InternalCheckFailure(
            f"nat_mu {fmt_vec(nat)} negative for gamma = {fmt_vec(gamma)}")

    a = [abs(e) for e in eps]
    sums = [a[i] + a[j] for i, j in _PAIRS]
    best = max(sums)
    # nat_mu and mu differ in every coordinate, so distinct pairs give
    # distinct flat_mu
    flats = []
    for (i, j), s in zip(_PAIRS, sums):
        if s == best:
            flat = mu.copy()
            flat[i] = nat[i]
            flat[j] = nat[j]
            flats.append(tuple(flat))
    flats.sort()
    return Decomposition(tuple(mu), tuple(eps), tuple(nat), tuple(flats))


# ---------------------------------------------------------------------------
# closed-form pairing


def thresholds(d: int) -> tuple[int, int]:
    """q-thresholds for nefness: k=0 class first, then k != 0."""
    w = 2 * d - 1
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


def lambda_dot_exceptional_closed(d: int, gamma, alpha) -> Fraction:
    """Lambda . G~alpha as an exact rational, assuming the rational-image
    constraint fixes n:

        4w * value = ||gamma - w*alpha||^2 - w^2 - 3 + (0 or 2w),

    the last summand vanishing exactly when k(alpha) = 0 (the branch
    where G~alpha meets s~0).
    """
    if not isinstance(alpha, ExceptionalSpec):
        alpha = ExceptionalSpec.from_alpha(alpha)
    w = 2 * d - 1
    return Fraction(_excess(vec4(gamma), w, alpha.alpha), 4 * w)


# ---------------------------------------------------------------------------
# exact minimization of q

# coordinate parities of exceptional alpha (one or three odd), split into
# the k(alpha) = 0 class and the k != 0 class
_PARITIES = [bits for bits in product((0, 1), repeat=4) if sum(bits) % 2]
_CLASS_PARITIES = (tuple(b for b in _PARITIES if minority_index(b) == 0),
                   tuple(b for b in _PARITIES if minority_index(b) != 0))


@dataclass(frozen=True)
class BoxScan:
    """Minima of q over the k = 0 and k != 0 classes of exceptional
    alpha, each with its sorted minimizers."""

    min_k0: int
    argmin_k0: tuple[Vec4, ...]
    min_other: int
    argmin_other: tuple[Vec4, ...]

    def argmins(self) -> tuple[Vec4, ...]:
        return tuple(sorted(set(self.argmin_k0) | set(self.argmin_other)))


def _nearest(g: int, w: int, b: int) -> tuple[int, tuple[int, ...]]:
    """Minimum and minimizers of (g - w*a)^2 over a >= 0 of parity b.

    With m = g // w, g/w lies in [m, m+1): the nearest point of parity b
    is m or m+1, except that m-1 and m+1 tie when g = w*m, m >= 1 and m
    has the other parity."""
    m = g // w
    if (m - b) % 2 == 0:
        pts = (m,)
    elif g == w * m and m > 0:
        pts = (m - 1, m + 1)
    else:
        pts = (m + 1,)
    return (g - w * pts[-1]) ** 2, pts


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
    gamma = vec4(gamma)
    if min(gamma) < 0:
        raise DomainError(f"gamma = {fmt_vec(gamma)} must be nonnegative",
                          constraint="gamma-nonnegative")
    w = 2 * d - 1
    p = _char_p_for_type(gamma, w, p)
    n0, n1, n2, n3 = [(_nearest(g, w, 0), _nearest(g, w, 1)) for g in gamma]
    classes = []
    for codes in _CLASS_PARITIES:
        sums = [n0[b0][0] + n1[b1][0] + n2[b2][0] + n3[b3][0]
                for b0, b1, b2, b3 in codes]
        low = min(sums)
        hits = [a for s, (b0, b1, b2, b3) in zip(sums, codes) if s == low
                for a in product(n0[b0][1], n1[b1][1], n2[b2][1], n3[b3][1])
                if p is None or sum(a) <= p]
        hits.sort()
        hits = tuple(hits)
        if not hits:
            raise InternalCheckFailure(
                f"no minimizer of q within alpha^(1) <= {p} for "
                f"gamma = {fmt_vec(gamma)}, d = {d}")
        classes.append((low, hits))
    (min_k0, argmin_k0), (min_other, argmin_other) = classes
    return BoxScan(min_k0, argmin_k0, min_other, argmin_other)


# ---------------------------------------------------------------------------
# nef criterion


def _carried():
    """A value the report carries for reuse; not part of its equality,
    repr or JSON form."""
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NefReport:
    """Verdict of one nef check.  It also carries what it was made from
    (spec, p) and what it computed (decomposition, brute scan), so
    callers can reuse the work instead of redoing it."""

    verdict: str                      # "nef" | "not_nef"
    mode: str                         # "closed" | "brute" | "both"
    failing_constraint: str | None    # first failed closed condition
    witness: Vec4 | None              # brute alpha with Lambda.G~alpha < 0
    boundary_contacts: tuple[Vec4, ...]   # brute alphas with pairing 0
    agreement: bool | None            # set in both mode
    conditions: tuple[Check, ...] = ()
    spec: LambdaSpec | None = _carried()
    p: int | None = _carried()
    decomposition: Decomposition | None = _carried()
    scan: BoxScan | None = _carried()   # None in closed mode

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


def closed_conditions(dec: Decomposition, d: int,
                      pair_reading: str = "factored") -> tuple[Check, ...]:
    """The three closed inequalities on eps, as check rows."""
    if pair_reading not in ("factored", "literal"):
        raise DomainError(f"unknown pair reading {pair_reading!r}",
                          constraint="pair-reading")
    w = 2 * d - 1
    a0, a1, a2, a3 = sorted([abs(e) for e in dec.eps])
    e2 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    w_abs_sum = w * (a0 + a1 + a2 + a3)
    pair = a2 + a3 if pair_reading == "literal" else w * (a2 + a3)
    return (
        Check("eps-norm", e2 >= d * d - d + 1, e2, d * d - d + 1),
        Check("eps-sum", w_abs_sum <= 3 * d * d - 3 * d + e2,
              w_abs_sum, 3 * d * d - 3 * d + e2),
        Check("eps-pair", pair <= d * d - 1 + e2, pair, d * d - 1 + e2,
              note=f"{pair_reading} reading"),
    )


def _admit(spec: LambdaSpec, p: int | None) -> int | None:
    """Front door of the rho = 1 analyses: an unramified spec, admitted
    in characteristic p.  Returns p checked, to be passed along."""
    if spec.rho != 1:
        raise ConstraintViolation(
            f"this analysis needs rho = 1, got rho = {spec.rho}")
    return spec.check_char_p(p)


def nef_check(spec: LambdaSpec, mode: str = "both", p: int | None = None,
              pair_reading: str = "factored") -> NefReport:
    """Decide nefness of Lambda(spec) by the requested route(s).

    Closed mode evaluates the three eps inequalities.  Brute mode checks
    Lambda against the full negative-curve catalog: the finite (-2)-list
    directly, the exceptional family through the two exact minimizations
    of q (scan_box).
    Both mode runs the two and records their agreement; the reported
    verdict is then the brute one.
    """
    if mode not in ("closed", "brute", "both"):
        raise DomainError(f"unknown mode {mode!r}", constraint="nef-mode")
    p = _admit(spec, p)
    dec = decompose_type(spec.gamma, spec.d)

    conditions: tuple[Check, ...] = ()
    closed_verdict = None
    if mode in ("closed", "both"):
        conditions = closed_conditions(dec, spec.d, pair_reading)
        closed_verdict = all(c.passed for c in conditions)

    brute_verdict = None
    witness = None
    contacts: tuple[Vec4, ...] = ()
    scan = None
    if mode in ("brute", "both"):
        lam = lambda_class(spec, p)
        for name, cls, _ in negative_curve_catalog(p):
            pairing = lam.dot(cls)
            # nonnegative automatically for a valid spec; a failure here
            # means the validation above is broken
            if pairing < 0:
                raise InternalCheckFailure(
                    f"valid spec pairs negatively with {name}: {pairing}")
        scan = scan_box(spec.gamma, spec.d, p)
        t0, t1 = thresholds(spec.d)
        # per class, the excess q - t of its minimum (4w times the
        # pairing value) and its minimizers
        lows = ((scan.min_k0 - t0, scan.argmin_k0),
                (scan.min_other - t1, scan.argmin_other))
        brute_verdict = all(x >= 0 for x, _ in lows)
        contacts = tuple(sorted(a for x, argmin in lows if x == 0
                                for a in argmin))
        if not brute_verdict:
            # the lower pairing value belongs to a failing class
            witness = min((x, argmin[0]) for x, argmin in lows)[1]

    final = brute_verdict if brute_verdict is not None else closed_verdict
    agreement = None
    if mode == "both":
        agreement = closed_verdict == brute_verdict
    failing = None
    if conditions and not closed_verdict:
        failing = next(c.id for c in conditions if not c.passed)
    return NefReport(
        verdict="nef" if final else "not_nef",
        mode=mode,
        failing_constraint=failing,
        witness=witness,
        boundary_contacts=contacts,
        agreement=agreement,
        conditions=conditions,
        spec=spec,
        p=p,
        decomposition=dec,
        scan=scan,
    )


# ---------------------------------------------------------------------------
# minimizer claim, contact divisor, dimensions


@dataclass(frozen=True)
class MinimizerReport:
    holds: bool
    min_value: Fraction
    argmins: tuple[Vec4, ...]          # attaining the minimal pairing value
    candidates: tuple[tuple[str, Vec4, Fraction], ...]
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


def _frac_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def verify_minimizer_claim(spec: LambdaSpec, p: int | None = None, *,
                           report: NefReport | None = None
                           ) -> MinimizerReport:
    """Check that the minimal pairing value over all exceptional classes
    is attained at mu, nat_mu, or a flat_mu (recorded, not assumed).

    ``report`` is reused as in linear_system_dims; without one, a fresh
    brute-mode nef_check supplies the decomposition and scan."""
    p = _admit(spec, p)
    report = _brute_report(report, spec, p)
    dec, scan = report.decomposition, report.scan
    w = spec.w
    if (4 * dec.eps_sq - 3) % w:
        raise InternalCheckFailure(
            f"4 eps^(2) - 3 = {4 * dec.eps_sq - 3} not divisible by w = {w}; "
            f"the spec should force this congruence")

    # decided on the integer excesses 4w * pairing, which share the
    # denominator 4w; Fractions are built only for what the report carries
    gamma = spec.gamma
    cands = [("mu", dec.mu), ("nat_mu", dec.nat_mu)]
    cands += [(f"flat_mu[{i}]", v) for i, v in enumerate(dec.flat_mu_set)]
    cand_xs = [_excess(gamma, w, vec) for _, vec in cands]
    # every minimizer of a class pairs to the value of its first one
    lows = [(_excess(gamma, w, argmin[0]), argmin)
            for argmin in (scan.argmin_k0, scan.argmin_other)]
    xmin = min(x for x, _ in lows)
    argmins = tuple(sorted(a for x, argmin in lows if x == xmin
                           for a in argmin))
    holds = min(cand_xs) == xmin
    counterexamples = () if holds else argmins
    den = 4 * w
    cand_rows = tuple((name, vec, Fraction(x, den))
                      for (name, vec), x in zip(cands, cand_xs))
    return MinimizerReport(holds, Fraction(xmin, den), argmins, cand_rows,
                           counterexamples)


def _brute_report(report: NefReport | None, spec: LambdaSpec,
                  p: int | None) -> NefReport:
    """A fresh brute-mode report on (spec, p) when ``report`` is None;
    else ``report``, rejected unless it is a brute-route verdict on
    (spec, p)."""
    if report is None:
        return nef_check(spec, mode="brute", p=p)
    if report.spec != spec or report.p != p or report.scan is None:
        raise DomainError(
            f"report was made for spec {report.spec}, p = {report.p} in "
            f"{report.mode} mode; need a brute or both report for {spec}, "
            f"p = {p}", constraint="report-mismatch")
    return report


def _require_nef(report: NefReport) -> None:
    if not report.is_nef():
        spec = report.spec
        raise NotNef(f"Lambda({spec.n},{spec.d},{spec.rho},"
                     f"{fmt_vec(spec.gamma)}) is not nef")


@dataclass(frozen=True)
class ContactDivisor:
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
        comps += [ExceptionalSpec.from_alpha(a) for a in hits]
    return ContactDivisor(tuple(comps), tuple(anomalies))


def linear_system_dims(spec: LambdaSpec, p: int | None = None, *,
                       report: NefReport | None = None) -> tuple[int, int]:
    """Dimensions of |Lambda| and |Lambda - C~o| by the anticanonical
    dimension formula dim|D| = D.(D - K~)/2, cross-checked against the
    closed forms 2d-2 and d-2.

    Pass the brute or both nef_check report of (spec, p) as ``report``
    to reuse its verdict; one made for another spec or p is rejected
    (``report-mismatch``)."""
    p = _admit(spec, p)
    lam = lambda_class(spec, p)
    deg = -K_TILDE.dot(lam)
    if deg < 2:
        raise AnticanonicalDegreeTooSmall(
            f"-K~.Lambda = {deg} < 2; the dimension formula needs >= 2")
    _require_nef(_brute_report(report, spec, p))

    def harbourne(q: QuotientClass) -> int:
        v = q.dot(q) - q.dot(K_TILDE)
        if v % 2:
            raise InternalCheckFailure(f"D.(D - K~) = {v} odd for {q}")
        return v // 2

    dim_l = harbourne(lam)
    dim_lc = harbourne(lam - section_image())
    d = spec.d
    if dim_l != 2 * d - 2 or dim_lc != d - 2:
        raise InternalCheckFailure(
            f"dimension formulas disagree with closed forms: "
            f"{(dim_l, dim_lc)} vs {(2 * d - 2, d - 2)}")
    return dim_l, dim_lc


def moduli_dimension(spec: LambdaSpec, p: int | None = None, *,
                     report: NefReport | None = None) -> int:
    """Dimension of the moduli space the spec defines: d-1 for nef
    specs with d >= 2, and 0 for d = 1 (a single cover, gamma = mu).

    ``report`` is reused as in linear_system_dims."""
    p = _admit(spec, p)
    report = _brute_report(report, spec, p)
    if spec.d == 1:
        # the spec invariants already force gamma = mu and
        # gamma^(2) = 2n+1 at d = 1; the moduli space is one point
        return 0
    _require_nef(report)
    return spec.d - 1
