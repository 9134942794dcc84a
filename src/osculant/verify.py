"""The acceptance battery: thirteen independent checks, each pinning a
claimed identity or classification against an exhaustive or randomized
second route.  ``run_all`` executes the full list; each criterion is
also callable on its own.

The heavier criteria share one exhaustive sweep: every valid spec with
d in [2, 5] built from mu patterns with components at most 3 (both
parity orientations) and every eps window vector whose congruence class
admits an integral degree.  For each spec the sweep stores the dual
nef report, which carries its decomposition and scan, so agreement,
adjunction, dimension, minimizer and contact checks all read the same
data.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import expr
from .catalog import (
    enumerate_exceptional,
    exceptional_class,
    negative_curve_catalog,
)
from .covers import perp_genus_identity
from .errors import ExprError, IdentityFailure, InternalCheckFailure
from .families import census, census_csv, construction_kit, generate_nef_types, \
    generate_non_nef_types
from .lattice import K_TILDE, DivisorClass
from .nef import (
    LambdaSpec,
    NefReport,
    decompose_type,
    lambda_class,
    lambda_dot_exceptional_closed,
    linear_system_dims,
    moduli_dimension,
    n_for_type,
    nef_check,
    verify_minimizer_claim,
)
from .vectors import Vec4, fmt_vec, norm_sq


@dataclass(frozen=True)
class CriterionResult:
    key: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.key}: {self.detail}"


# ---------------------------------------------------------------------------
# shared sweep


def mu_patterns(mu_max: int) -> list[Vec4]:
    """All mu in N^4 with components <= mu_max and the one-against-three
    parity split at coordinate 0, in both orientations."""
    odds = range(1, mu_max + 1, 2)
    evens = range(0, mu_max + 1, 2)
    pats = [(a, b, c, e) for a in odds for b in evens
            for c in evens for e in evens]
    pats += [(a, b, c, e) for a in evens for b in odds
             for c in odds for e in odds]
    return pats


def build_sweep(d_lo: int = 2, d_hi: int = 5, mu_max: int = 3,
                pair_reading: str = "factored") -> list[NefReport]:
    """The both-mode nef report of every spec in the grid; each report
    carries its spec, decomposition and scan."""
    rows = []
    for d in range(d_lo, d_hi + 1):
        w = 2 * d - 1
        eps_ok = [e for e in product(range(-(d - 1), d), repeat=4)
                  if (4 * norm_sq(e) - 3) % w == 0]
        for mu in mu_patterns(mu_max):
            for eps in eps_ok:
                gamma = tuple(w * m + 2 * x for m, x in zip(mu, eps))
                if any(g < 0 for g in gamma):
                    continue
                n = n_for_type(d, gamma)
                if n is None:
                    raise InternalCheckFailure(
                        f"no integral n for gamma = {fmt_vec(gamma)} at "
                        f"d = {d}; the eps congruence filter should "
                        f"guarantee one")
                if n < 1:
                    continue
                rows.append(nef_check(LambdaSpec(n, d, gamma), mode="both",
                                      pair_reading=pair_reading))
    return rows


def _spec_tag(spec: LambdaSpec) -> str:
    return f"(n={spec.n}, d={spec.d}, gamma={fmt_vec(spec.gamma)})"


# ---------------------------------------------------------------------------
# criteria 1..3: catalogs and the closed pairing form


def criterion_exceptional_catalog(max_sq: int = 199) -> CriterionResult:
    specs = enumerate_exceptional(max_sq)
    bad = []
    for es in specs:
        qc = es.quotient_class()
        if qc.self_intersection() != -1 or qc.dot(K_TILDE) != -1:
            bad.append(es.alpha)
    detail = (f"{len(specs)} classes with alpha^(2) <= {max_sq}: "
              f"{len(bad)} with (self, K-degree) != (-1, -1)")
    return CriterionResult("exceptional-catalog", not bad, detail)


def criterion_negative_curve_catalog() -> CriterionResult:
    problems = []
    base = negative_curve_catalog()
    if len(base) != 9:
        problems.append(f"expected 9 base entries, got {len(base)}")
    for name, qc, self_int in base:
        if self_int != -2 or qc.self_intersection() != -2:
            problems.append(f"{name}: self-intersection {self_int}")
        if qc.dot(K_TILDE) != 0:
            problems.append(f"{name}: K-degree {qc.dot(K_TILDE)} != 0")
    with_p = negative_curve_catalog(3)
    if len(with_p) != 10 or with_p[-1][0] != "C~3" or with_p[-1][2] != -2:
        problems.append("char-3 catalog misses C~3 at self-intersection -2")
    detail = "9 base entries + C~3 all at -2" if not problems \
        else "; ".join(problems)
    return CriterionResult("negative-curve-catalog", not problems, detail)


def _random_spec(rng: random.Random, d_lo: int = 1, d_hi: int = 8
                 ) -> LambdaSpec:
    while True:
        d = rng.randint(d_lo, d_hi)
        w = 2 * d - 1
        if rng.random() < 0.5:
            mu = (rng.randrange(1, 6, 2), rng.randrange(0, 6, 2),
                  rng.randrange(0, 6, 2), rng.randrange(0, 6, 2))
        else:
            mu = (rng.randrange(0, 6, 2), rng.randrange(1, 6, 2),
                  rng.randrange(1, 6, 2), rng.randrange(1, 6, 2))
        eps = tuple(rng.randint(-(d - 1), d - 1) for _ in range(4)) \
            if d > 1 else (0, 0, 0, 0)
        if (4 * norm_sq(eps) - 3) % w:
            continue
        gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
        if any(g < 0 for g in gamma):
            continue
        n = n_for_type(d, gamma)
        if n is None or n < 1:
            continue
        return LambdaSpec(n, d, gamma)


def criterion_pairing_closed_form(seed: int = 0, trials: int = 1000
                                  ) -> CriterionResult:
    rng = random.Random(seed)
    mismatches = []
    done = 0
    while done < trials:
        spec = _random_spec(rng)
        dec = decompose_type(spec.gamma, spec.d)
        alpha = tuple(max(0, m + rng.randint(-3, 3)) for m in dec.mu)
        if norm_sq(alpha) % 2 == 0:
            continue
        closed = lambda_dot_exceptional_closed(spec.d, spec.gamma, alpha)
        direct = Fraction(
            lambda_class(spec).pullback.dot(exceptional_class(alpha).pullback),
            2)
        if closed != direct:
            mismatches.append((spec, alpha, closed, direct))
        done += 1
    detail = f"{trials} random (spec, alpha) tuples, d in [1,8]: " \
             f"{len(mismatches)} closed-vs-direct mismatches"
    if mismatches:
        s, a, c, v = mismatches[0]
        detail += f"; first: {_spec_tag(s)} alpha={fmt_vec(a)} {c} vs {v}"
    return CriterionResult("pairing-closed-form", not mismatches, detail)


# ---------------------------------------------------------------------------
# criteria over the shared sweep


def criterion_nef_agreement(sweep: list[NefReport],
                            pair_reading: str = "factored") -> CriterionResult:
    bad = [row for row in sweep if row.agreement is not True]
    detail = (f"{len(sweep)} specs (d 2..5, mu <= 3, full eps window), "
              f"{pair_reading} reading: {len(bad)} disagreements")
    for row in bad[:3]:
        conds = "; ".join(
            f"{c.id}: {c.lhs} vs {c.rhs} ({'ok' if c.passed else 'FAIL'})"
            for c in row.conditions)
        detail += (f" | {_spec_tag(row.spec)} closed said "
                   f"{[c.passed for c in row.conditions]}, brute said "
                   f"{row.verdict}; {conds}")
    return CriterionResult("nef-criterion-agreement", not bad, detail)


_FAMILY_MUS = ((1, 0, 0, 0), (1, 2, 0, 0), (3, 0, 0, 2),
               (0, 1, 1, 1), (2, 1, 1, 1), (0, 1, 3, 1))


def criterion_family_generators() -> CriterionResult:
    bad = []
    nef_count = 0
    for d in range(2, 9):
        for k in range(4):
            for mu in _FAMILY_MUS:
                for n, gamma, _ in generate_nef_types(d, k, mu):
                    nef_count += 1
                    rep = nef_check(LambdaSpec(n, d, gamma), mode="brute")
                    if not rep.is_nef():
                        bad.append(f"nef family d={d} k={k} "
                                   f"gamma={fmt_vec(gamma)} came out not_nef")
    non_count = 0
    for d in range(3, 9):
        for mu in _FAMILY_MUS:
            for n, gamma, _ in generate_non_nef_types(d, mu, bound=d):
                non_count += 1
                rep = nef_check(LambdaSpec(n, d, gamma), mode="both")
                norm_row = next(c for c in rep.conditions
                                if c.id == "eps-norm")
                if rep.is_nef() or rep.witness is None or norm_row.passed:
                    bad.append(f"non-nef family d={d} gamma={fmt_vec(gamma)}:"
                               f" verdict={rep.verdict}, "
                               f"witness={rep.witness}, "
                               f"eps-norm passed={norm_row.passed}")
    detail = (f"{nef_count} nef triples (d 2..8) all nef, "
              f"{non_count} non-nef triples (d 3..8) all refuted with "
              f"witness + eps-norm failure")
    if bad:
        detail = f"{len(bad)} failures; first: {bad[0]}"
    return CriterionResult("family-generators", not bad, detail)


def criterion_adjunction(sweep: list[NefReport]) -> CriterionResult:
    bad = []
    for row in sweep:
        s = row.spec
        lhs, rhs = perp_genus_identity(s.n, s.d, s.rho, s.gamma)
        if lhs != rhs:
            bad.append(f"{_spec_tag(s)}: {lhs} != {rhs}")
    detail = (f"{len(sweep)} specs: arithmetic genus upstairs matches "
              f"2*g~ + (rho - 2 + gamma^(1))/2 on all; {len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("adjunction-consistency", not bad, detail)


def criterion_dimensions(sweep: list[NefReport]) -> CriterionResult:
    bad = []
    checked = 0
    for row in sweep:
        if not row.is_nef():
            continue
        checked += 1
        s = row.spec
        try:
            dims = linear_system_dims(s, report=row)
            if dims != (2 * s.d - 2, s.d - 2):
                bad.append(f"{_spec_tag(s)}: dims {dims}")
            if moduli_dimension(s, report=row) != s.d - 1:
                bad.append(f"{_spec_tag(s)}: moduli != d-1")
        except InternalCheckFailure as exc:
            bad.append(f"{_spec_tag(s)}: {exc}")
    detail = (f"{checked} nef specs: dim formulas (2d-2, d-2) and moduli "
              f"d-1 all exact; {len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("dimension-formulas", not bad, detail)


def criterion_minimizer(sweep: list[NefReport]) -> CriterionResult:
    bad = []
    for row in sweep:
        claim = verify_minimizer_claim(row.spec, report=row)
        if not claim.holds:
            best_cand = min(v for _, _, v in claim.candidates)
            bad.append(f"{_spec_tag(row.spec)}: min {claim.min_value} only "
                       f"at {list(claim.counterexamples)}, candidates reach "
                       f"{best_cand}")
    detail = (f"{len(sweep)} specs: box minimum always attained on "
              f"{{mu, nat_mu}} or a flat_mu; {len(bad)} counterexamples")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("minimizer-claim", not bad, detail)


def criterion_contacts(sweep: list[NefReport]) -> CriterionResult:
    bad = []
    checked = 0
    for row in sweep:
        if not row.is_nef():
            continue
        checked += 1
        for k, hits in row.contacts_by_k().items():
            if len(hits) > 1:
                bad.append(f"{_spec_tag(row.spec)}: k={k} contacts "
                           f"{[fmt_vec(a) for a in hits]}")
    detail = (f"{checked} nef specs: at most one zero-pairing alpha per "
              f"index k in {{1,2,3}}; {len(bad)} violations")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("contact-uniqueness", not bad, detail)


# ---------------------------------------------------------------------------
# criteria 10..13: kit, decomposition, parser, census


def criterion_construction_kit() -> CriterionResult:
    bad = []
    count = 0
    for d in range(2, 7):
        for mu in mu_patterns(3):
            count += 1
            try:
                kit = construction_kit(d, mu)
            except IdentityFailure as exc:
                bad.append(f"d={d} mu={fmt_vec(mu)}: {exc}")
                continue
            w = 2 * d - 1
            checks = [
                sum(kit.gamma) == 2 * kit.genus + 1,
                norm_sq(kit.gamma) == w * (2 * kit.n - 2) + 3,
                2 * kit.genus + 1 == w * sum(mu) + 6 * (d - 1),
                2 * kit.n == (w * norm_sq(mu)
                              + 4 * (d - 1) * (mu[1] + mu[2] + mu[3])
                              + 6 * d - 7),
                kit.d0 == kit.d1,
                all(fj == kit.lambda_pullback for fj in kit.f),
                kit.g == kit.lambda_pullback,
            ]
            if not all(checks):
                bad.append(f"d={d} mu={fmt_vec(mu)}: identity row {checks}")
    detail = (f"{count} kits (d 2..6, 32 mu patterns): D0 = D1 and "
              f"F_j = G = pullback(Lambda) plus degree/genus identities; "
              f"{len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("construction-kit", not bad, detail)


def criterion_decomposition(seed: int = 0) -> CriterionResult:
    bad = []
    for d in range(1, 6):
        w = 2 * d - 1
        for v in range(6 * w + 1):
            sols = []
            for m in range(-2, (v + 2 * d - 2) // w + 2):
                rem = v - w * m
                if rem % 2 == 0 and abs(rem) <= 2 * d - 2:
                    sols.append((m, rem // 2))
            if len(sols) != 1 or sols[0][0] < 0:
                bad.append(f"d={d}, value {v}: solutions {sols}")
    rng = random.Random(seed)
    for _ in range(500):
        d = rng.randint(1, 5)
        w = 2 * d - 1
        gamma = tuple(rng.randint(0, 6 * w) for _ in range(4))
        dec = decompose_type(gamma, d)
        rebuilt = tuple(w * m + 2 * e for m, e in zip(dec.mu, dec.eps))
        if rebuilt != gamma or any(abs(e) > d - 1 for e in dec.eps) \
                or any(m < 0 for m in dec.mu):
            bad.append(f"d={d} gamma={fmt_vec(gamma)}: got mu={dec.mu}, "
                       f"eps={dec.eps}")
    detail = ("per-coordinate exhaustive (d 1..5, values 0..6(2d-1)): "
              "exactly one window/parity solution, always nonnegative; "
              f"500 random 4-vectors reconstruct; {len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("decomposition-uniqueness", not bad, detail)


_MALFORMED = (
    "", "+", "++", "s0 +", "3", "2*", "e*(s0)", "Co", "So + s0", "2**s0",
    "s4", "r9", "K K", "e*(Co", "e*()", "4 Co", "2*-s0", "(s0", "s0)",
    "e*(e*(Co))", "x", "e", "0.5*s0", "s0 - - r1", "e*(K)",
)


def _random_class(rng: random.Random) -> DivisorClass:
    def coef() -> int:
        if rng.random() < 0.1:
            return rng.randint(-10 ** 6, 10 ** 6)
        return rng.randint(-9, 9)

    return DivisorClass(c=coef(), f=coef(),
                        s=tuple(coef() for _ in range(4)),
                        r=tuple(coef() for _ in range(4)))


def criterion_expression_round_trip(seed: int = 0, trials: int = 10_000
                                    ) -> CriterionResult:
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        dclass = _random_class(rng)
        text = expr.format(dclass)
        back = expr.parse(text)
        if back != dclass:
            bad.append(f"{dclass} -> {text!r} -> {back}")
    rejected = 0
    for text in _MALFORMED:
        try:
            expr.parse(text)
            bad.append(f"malformed {text!r} was accepted")
        except ExprError as exc:
            if not (isinstance(exc.position, int)
                    and 0 <= exc.position <= len(text)):
                bad.append(f"malformed {text!r}: bad position {exc.position}")
            else:
                rejected += 1
    detail = (f"{trials} random classes round-trip; {rejected}/"
              f"{len(_MALFORMED)} malformed strings rejected with positions; "
              f"{len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("expression-round-trip", not bad, detail)


def criterion_census_determinism() -> CriterionResult:
    outputs = {}
    for parts in (1, 2, 8):
        rows = census(range(1, 7), range(1, 4), 15, partitions=parts)
        outputs[parts] = census_csv(rows)
    texts = set(outputs.values())
    n_rows = outputs[1].count("\n") - 1
    ok = len(texts) == 1
    detail = (f"census n <= 6, d <= 3, gamma <= 15 ({n_rows} rows): "
              + ("byte-identical CSV for 1, 2, 8 partitions" if ok
                 else "partition outputs differ"))
    return CriterionResult("census-determinism", ok, detail)


# ---------------------------------------------------------------------------
# the full battery


def run_all(seed: int = 0,
            pair_reading: str = "factored") -> list[CriterionResult]:
    """All thirteen criteria, in specification order.

    The agreement/adjunction/dimension/minimizer/contact criteria share
    one sweep built at characteristic zero; char-p behavior is covered
    by the unit suites, not by the battery.
    """
    sweep = build_sweep(pair_reading=pair_reading)
    return [
        criterion_exceptional_catalog(),
        criterion_negative_curve_catalog(),
        criterion_pairing_closed_form(seed=seed),
        criterion_nef_agreement(sweep, pair_reading),
        criterion_family_generators(),
        criterion_adjunction(sweep),
        criterion_dimensions(sweep),
        criterion_minimizer(sweep),
        criterion_contacts(sweep),
        criterion_construction_kit(),
        criterion_decomposition(seed=seed),
        criterion_expression_round_trip(seed=seed),
        criterion_census_determinism(),
    ]
