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
those minimizations by scanning a box around mu (q is a separable
positive quadratic, so real minimizers hug mu; the scan asserts the
minimum is away from the artificial box faces and enlarges the box if
not).  Within one box the minima are taken coordinate by coordinate for
each parity code, unless the char-p bound cuts the box; then every
point is visited.  The closed criterion tests three integer
inequalities on eps:

    eps-norm:  eps^(2) >= d^2 - d + 1
    eps-sum:   w * sum|eps_i| <= 3d^2 - 3d + eps^(2)
    eps-pair:  w * max_{i!=j}(|eps_i| + |eps_j|) <= d^2 - 1 + eps^(2)

eps-pair is stated here in its factored reading, with w multiplying the
max; the unfactored literal reading is available behind a flag.  The
three inequalities are exactly the box thresholds evaluated at the
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
from .covers import Check, validate_type
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
    SearchBoxExhausted,
)
from .lattice import K_TILDE, QuotientClass
from .vectors import Vec4, coord_sum, fmt_vec, norm_sq, vec4

DEFAULT_RADIUS = 3
_ENLARGE_LIMIT = 32  # added to the requested radius before giving up


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

    def check_char_p(self, p: int | None) -> None:
        p = validate_char_p(p)
        if p is not None and coord_sum(self.gamma) > p * self.w:
            raise CharPExcluded(
                f"gamma^(1) = {coord_sum(self.gamma)} > p(2d-1) = {p * self.w}")


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


def decompose_type(gamma, d: int) -> Decomposition:
    gamma = vec4(gamma)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}", constraint="degree-min")
    if any(g < 0 for g in gamma):
        raise DomainError(f"gamma = {fmt_vec(gamma)} must be nonnegative",
                          constraint="gamma-nonnegative")
    w = 2 * d - 1
    mu, eps = [], []
    for g in gamma:
        m = g // w
        if (g - m) % 2:
            m += 1
        e2 = g - w * m
        if e2 % 2 or abs(e2) > 2 * d - 2 or m < 0:
            raise InternalCheckFailure(
                f"no window decomposition of gamma = {fmt_vec(gamma)} "
                f"at d = {d}")
        mu.append(m)
        eps.append(e2 // 2)
    nat = [m + (1 if e >= 0 else -1) for m, e in zip(mu, eps)]
    if any(x < 0 for x in nat):
        raise InternalCheckFailure(
            f"nat_mu {fmt_vec(nat)} negative for gamma = {fmt_vec(gamma)}")

    a = [abs(e) for e in eps]
    best = max(a[i] + a[j] for i in range(4) for j in range(i + 1, 4))
    flats = set()
    for i in range(4):
        for j in range(i + 1, 4):
            if a[i] + a[j] == best:
                flats.add(tuple(nat[t] if t in (i, j) else mu[t]
                                for t in range(4)))
    return Decomposition(tuple(mu), tuple(eps), tuple(nat),
                         tuple(sorted(flats)))


# ---------------------------------------------------------------------------
# closed-form pairing


def lambda_dot_exceptional_closed(d: int, gamma, alpha) -> Fraction:
    """Lambda . G~alpha as an exact rational, assuming the rational-image
    constraint fixes n:

        4w * value = ||gamma - w*alpha||^2 - w^2 - 3 + (0 or 2w),

    the last summand vanishing exactly when k(alpha) = 0 (the branch
    where G~alpha meets s~0).
    """
    gamma = vec4(gamma)
    if not isinstance(alpha, ExceptionalSpec):
        alpha = ExceptionalSpec.from_alpha(alpha)
    w = 2 * d - 1
    q = sum((g - w * x) ** 2 for g, x in zip(gamma, alpha.alpha))
    bump = 0 if alpha.k == 0 else 2 * w
    return Fraction(q - w * w - 3 + bump, 4 * w)


# ---------------------------------------------------------------------------
# brute box scan

# minority-parity index by 4-bit parity code (coordinate 0 = high bit);
# -1 marks even square sums, which are not exceptional indices
def _k_of_code(code: int) -> int:
    bits = ((code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1)
    ones = [i for i, b in enumerate(bits) if b]
    if len(ones) == 1:
        return ones[0]
    if len(ones) == 3:
        return next(i for i in range(4) if i not in ones)
    return -1


_K_BY_CODE = tuple(_k_of_code(c) for c in range(16))
_BITS_BY_CODE = tuple(((c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1)
                      for c in range(16))
# parity codes of the k = 0 class, then of the k != 0 class
_CLASS_CODES = (tuple(c for c in range(16) if _K_BY_CODE[c] == 0),
                tuple(c for c in range(16) if _K_BY_CODE[c] > 0))


@dataclass(frozen=True)
class BoxScan:
    """Minima of q over the two parity classes inside one scanned box."""

    radius: int
    min_k0: int | None
    argmin_k0: tuple[Vec4, ...]
    min_other: int | None
    argmin_other: tuple[Vec4, ...]

    def argmins(self) -> tuple[Vec4, ...]:
        return tuple(sorted(set(self.argmin_k0) | set(self.argmin_other)))


def _scan_once(gamma: Vec4, d: int, mu: Vec4, radius: int,
               p: int | None, engine: str) -> tuple[BoxScan, bool]:
    """One box scan; second return value reports whether any argmin sits
    on an artificial face (upper face, or lower face not clamped at 0)."""
    w = 2 * d - 1
    axes = [list(range(max(0, mu[i] - radius), mu[i] + radius + 1))
            for i in range(4)]
    if engine == "auto" and (p is None or sum(ax[-1] for ax in axes) <= p):
        # the char-p bound alpha^(1) <= p does not cut this box, so the
        # box is the product of its axes
        results = _separable_minima(gamma, w, axes)
    elif engine == "numpy":
        # full-grid reference engine; int64, so only for moderate entries
        import numpy as np

        per = [np.array([(gamma[i] - w * a) ** 2 for a in axes[i]],
                        dtype=np.int64) for i in range(4)]
        ax = [np.array(axes[i], dtype=np.int64) for i in range(4)]
        sh = [(-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)]
        q = sum(per[i].reshape(sh[i]) for i in range(4))
        code = sum(((ax[i] & 1) << (3 - i)).reshape(sh[i]) for i in range(4))
        kgrid = np.array(_K_BY_CODE, dtype=np.int64)[code]
        if p is not None:
            asum = sum(ax[i].reshape(sh[i]) for i in range(4))
            kgrid = np.where(asum <= p, kgrid, -1)
        results = []
        for mask in (kgrid == 0, kgrid > 0):
            if not mask.any():
                results.append((None, ()))
                continue
            m = int(q[mask].min())
            hits = np.argwhere(mask & (q == m))
            pts = tuple(sorted(tuple(axes[i][int(h[i])] for i in range(4))
                               for h in hits))
            results.append((m, pts))
    else:
        best = [None, None]
        arg: list[list[Vec4]] = [[], []]
        for a0 in axes[0]:
            c0 = (gamma[0] - w * a0) ** 2
            for a1 in axes[1]:
                c1 = c0 + (gamma[1] - w * a1) ** 2
                for a2 in axes[2]:
                    c2 = c1 + (gamma[2] - w * a2) ** 2
                    for a3 in axes[3]:
                        if p is not None and a0 + a1 + a2 + a3 > p:
                            continue
                        code = ((a0 & 1) << 3) | ((a1 & 1) << 2) | \
                               ((a2 & 1) << 1) | (a3 & 1)
                        k = _K_BY_CODE[code]
                        if k < 0:
                            continue
                        cls = 0 if k == 0 else 1
                        qv = c2 + (gamma[3] - w * a3) ** 2
                        if best[cls] is None or qv < best[cls]:
                            best[cls] = qv
                            arg[cls] = [(a0, a1, a2, a3)]
                        elif qv == best[cls]:
                            arg[cls].append((a0, a1, a2, a3))
        results = [(best[0], tuple(sorted(arg[0]))),
                   (best[1], tuple(sorted(arg[1])))]

    scan = BoxScan(radius, results[0][0], results[0][1],
                   results[1][0], results[1][1])
    onface = False
    for pt in scan.argmins():
        for i in range(4):
            if pt[i] == mu[i] + radius:
                onface = True
            if pt[i] == axes[i][0] and axes[i][0] > 0:
                onface = True
    return scan, onface


def _separable_minima(gamma: Vec4, w: int, axes: list[list[int]]
                      ) -> list[tuple[int | None, tuple[Vec4, ...]]]:
    """(minimum, sorted argmins) of q over the k = 0 and k != 0 classes
    of the box that is the product of ``axes``.

    q is a sum of one term per coordinate, and the parity code of alpha
    is the tuple of its coordinate parities.  So over the points of one
    code the minimum of q is the sum of per-coordinate minima over that
    parity, attained exactly on the product of the per-coordinate
    minimizer sets.  Codes of one class cover disjoint points.
    """
    best = []   # best[i][b]: (min term, minimizers) on axis i, parity b
    for g, axis in zip(gamma, axes):
        per: list = [None, None]
        for a in axis:
            term = (g - w * a) ** 2
            cur = per[a & 1]
            if cur is None or term < cur[0]:
                per[a & 1] = (term, [a])
            elif term == cur[0]:
                cur[1].append(a)
        best.append(per)
    results = []
    for codes in _CLASS_CODES:
        low, hits = None, []
        for code in codes:
            parts = [best[i][b] for i, b in enumerate(_BITS_BY_CODE[code])]
            if None in parts:
                continue
            value = sum(part[0] for part in parts)
            if low is None or value < low:
                low, hits = value, [parts]
            elif value == low:
                hits.append(parts)
        results.append((low, tuple(sorted(
            pt for parts in hits
            for pt in product(*(part[1] for part in parts))))))
    return results


def scan_box(gamma, d: int, mu, radius: int = DEFAULT_RADIUS,
             p: int | None = None, engine: str = "auto") -> BoxScan:
    """Minimize q over each parity class near mu, growing the box until
    every minimizer is strictly inside the artificial faces.

    All engines return the same scan.  "auto" takes per-coordinate
    minima (_separable_minima) unless the char-p bound cuts the box, and
    then visits every point ("pure", exact integers).  "numpy" evaluates
    the full grid in int64 and is kept as a reference."""
    gamma, mu = vec4(gamma), vec4(mu)
    if radius < 2:
        raise DomainError(f"search radius must be >= 2, got {radius}",
                          constraint="search-radius")
    r = radius
    while r <= radius + _ENLARGE_LIMIT:
        scan, onface = _scan_once(gamma, d, mu, r, p, engine)
        if not onface:
            return scan
        r += 2
    raise SearchBoxExhausted(
        f"minimum still on the box face at radius {r - 2} "
        f"(gamma={fmt_vec(gamma)}, d={d})")


def thresholds(d: int) -> tuple[int, int]:
    """q-thresholds for nefness: k=0 class first, then k != 0."""
    w = 2 * d - 1
    return w * w + 3, w * w + 3 - 2 * w


def _value(q: int, d: int, k_zero: bool) -> Fraction:
    t0, t1 = thresholds(d)
    return Fraction(q - (t0 if k_zero else t1), 4 * (2 * d - 1))


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
    e2 = dec.eps_sq
    rows = [
        Check("eps-norm", e2 >= d * d - d + 1, e2, d * d - d + 1),
        Check("eps-sum", w * dec.eps_abs_sum <= 3 * d * d - 3 * d + e2,
              w * dec.eps_abs_sum, 3 * d * d - 3 * d + e2),
    ]
    pair = dec.max_pair_sum if pair_reading == "literal" else w * dec.max_pair_sum
    rows.append(Check("eps-pair", pair <= d * d - 1 + e2, pair, d * d - 1 + e2,
                      note=f"{pair_reading} reading"))
    return tuple(rows)


def _require_unramified(spec: LambdaSpec) -> None:
    if spec.rho != 1:
        raise ConstraintViolation(
            f"this analysis needs rho = 1, got rho = {spec.rho}")


def nef_check(spec: LambdaSpec, mode: str = "both", p: int | None = None,
              radius: int = DEFAULT_RADIUS,
              pair_reading: str = "factored") -> NefReport:
    """Decide nefness of Lambda(spec) by the requested route(s).

    Closed mode evaluates the three eps inequalities.  Brute mode checks
    Lambda against the full negative-curve catalog: the finite (-2)-list
    directly, the exceptional family through the two box minimizations.
    Both mode runs the two and records their agreement; the reported
    verdict is then the brute one.
    """
    if mode not in ("closed", "brute", "both"):
        raise DomainError(f"unknown mode {mode!r}", constraint="nef-mode")
    _require_unramified(spec)
    spec.check_char_p(p)
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
        scan = scan_box(spec.gamma, spec.d, dec.mu, radius, p)
        t0, t1 = thresholds(spec.d)
        brute_verdict = ((scan.min_k0 is None or scan.min_k0 >= t0)
                         and (scan.min_other is None or scan.min_other >= t1))
        cont = []
        if scan.min_k0 == t0:
            cont += scan.argmin_k0
        if scan.min_other == t1:
            cont += scan.argmin_other
        contacts = tuple(sorted(cont))
        if not brute_verdict:
            worst: tuple[Fraction, Vec4] | None = None
            if scan.min_k0 is not None and scan.min_k0 < t0:
                worst = (_value(scan.min_k0, spec.d, True), scan.argmin_k0[0])
            if scan.min_other is not None and scan.min_other < t1:
                v = (_value(scan.min_other, spec.d, False),
                     scan.argmin_other[0])
                if worst is None or v < worst:
                    worst = v
            witness = worst[1]

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


def verify_minimizer_claim(spec: LambdaSpec, p: int | None = None,
                           radius: int = DEFAULT_RADIUS) -> MinimizerReport:
    """Check that the minimal pairing value over all exceptional classes
    is attained at mu, nat_mu, or a flat_mu (recorded, not assumed)."""
    _require_unramified(spec)
    spec.check_char_p(p)
    dec = decompose_type(spec.gamma, spec.d)
    w = spec.w
    if (4 * dec.eps_sq - 3) % w:
        raise InternalCheckFailure(
            f"4 eps^(2) - 3 = {4 * dec.eps_sq - 3} not divisible by w = {w}; "
            f"the spec should force this congruence")

    def qval(alpha: Vec4) -> int:
        return sum((g - w * x) ** 2 for g, x in zip(spec.gamma, alpha))

    cands = [("mu", dec.mu), ("nat_mu", dec.nat_mu)]
    cands += [(f"flat_mu[{i}]", v) for i, v in enumerate(dec.flat_mu_set)]
    cand_rows = []
    for name, vec in cands:
        kz = ExceptionalSpec.from_alpha(vec).k == 0
        cand_rows.append((name, vec, _value(qval(vec), spec.d, kz)))

    scan = scan_box(spec.gamma, spec.d, dec.mu, radius, p)
    values: list[tuple[Fraction, Vec4]] = []
    if scan.min_k0 is not None:
        values += [(_value(scan.min_k0, spec.d, True), a)
                   for a in scan.argmin_k0]
    if scan.min_other is not None:
        values += [(_value(scan.min_other, spec.d, False), a)
                   for a in scan.argmin_other]
    vmin = min(v for v, _ in values)
    argmins = tuple(sorted(a for v, a in values if v == vmin))
    holds = min(v for _, _, v in cand_rows) == vmin
    counterexamples = () if holds else argmins
    return MinimizerReport(holds, vmin, argmins, tuple(cand_rows),
                           counterexamples)


def _check_report(report: NefReport, spec: LambdaSpec,
                  p: int | None) -> None:
    """Reject a report that is not a brute-route verdict on (spec, p)."""
    if report.spec != spec or report.p != p or report.scan is None:
        raise DomainError(
            f"report was made for spec {report.spec}, p = {report.p} in "
            f"{report.mode} mode; need a brute or both report for {spec}, "
            f"p = {p}", constraint="report-mismatch")


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


def z_divisor(spec: LambdaSpec, p: int | None = None,
              radius: int = DEFAULT_RADIUS) -> ContactDivisor:
    """For j in {1,2,3}, the exceptional contact with k(alpha) = j, when
    one exists.  Requires a nef spec; uniqueness per j is confirmed over
    the certified box and any violation reported as an anomaly rather
    than silently truncated."""
    report = nef_check(spec, mode="brute", p=p, radius=radius)
    _require_nef(report)
    by_k: dict[int, list[Vec4]] = {1: [], 2: [], 3: []}
    for alpha in report.boundary_contacts:
        k = ExceptionalSpec.from_alpha(alpha).k
        if k in by_k:
            by_k[k].append(alpha)
    comps, anomalies = [], []
    for k in (1, 2, 3):
        hits = sorted(by_k[k])
        if len(hits) > 1:
            anomalies.append((k, tuple(hits)))
        comps += [ExceptionalSpec.from_alpha(a) for a in hits]
    return ContactDivisor(tuple(comps), tuple(anomalies))


def linear_system_dims(spec: LambdaSpec, p: int | None = None,
                       radius: int = DEFAULT_RADIUS, *,
                       report: NefReport | None = None) -> tuple[int, int]:
    """Dimensions of |Lambda| and |Lambda - C~o| by the anticanonical
    dimension formula dim|D| = D.(D - K~)/2, cross-checked against the
    closed forms 2d-2 and d-2.

    Pass the brute or both nef_check report of (spec, p) as ``report``
    to reuse its verdict; one made for another spec or p is rejected
    (``report-mismatch``)."""
    _require_unramified(spec)
    lam = lambda_class(spec, p)
    deg = -K_TILDE.dot(lam)
    if deg < 2:
        raise AnticanonicalDegreeTooSmall(
            f"-K~.Lambda = {deg} < 2; the dimension formula needs >= 2")
    if report is None:
        report = nef_check(spec, mode="brute", p=p, radius=radius)
    else:
        _check_report(report, spec, p)
    _require_nef(report)

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


def moduli_dimension(spec: LambdaSpec, p: int | None = None,
                     radius: int = DEFAULT_RADIUS, *,
                     report: NefReport | None = None) -> int:
    """Dimension of the moduli space the spec defines: d-1 for nef
    specs with d >= 2, and 0 for d = 1 (a single cover, gamma = mu).

    ``report`` is reused as in linear_system_dims."""
    _require_unramified(spec)
    spec.check_char_p(p)
    if report is not None:
        _check_report(report, spec, p)
    if spec.d == 1:
        # the spec invariants already force gamma = mu and
        # gamma^(2) = 2n+1 at d = 1; the moduli space is one point
        return 0
    if report is None:
        report = nef_check(spec, mode="brute", p=p, radius=radius)
    _require_nef(report)
    return spec.d - 1
