"""The acceptance battery: thirteen independent checks, each pinning a
claimed identity or classification against an exhaustive or randomized
second route.  ``run_all`` executes the full list; each criterion is
also callable on its own.

Five criteria (agreement, adjunction, dimensions, the minimizer claim
and contact uniqueness) share one exhaustive sweep over a grid, the
value (d_lo, d_hi, mu_max).  The battery's grid, (2, 5, 3), holds the
spec nef._compose builds from each window (d, mu, eps) with d in [2, 5],
mu in nef.mu_patterns(3) and eps in nef._window(d).  Each spec gets one
both-mode nef report, which carries its decomposition, scan and Lambda,
and all five criteria read that report: the minimizer claim decides on
its integers (nef._minimizer), adjunction and dimensions read its Lambda
(covers._genus_identity, nef._dims, nef._moduli), so no criterion
redoes the report's work or admits its spec again.

The five criteria are one table, _SWEEP_CRITERIA: each row's step
checks a block of reports.  A block's tally (_tally) keeps per row only
its counts and the failures it may quote, and _fold sums the tallies in
sweep order.  ``run_all`` builds the sweep one (d, mu) block at a time
(at most 864 reports), tallies it and drops it, so its memory does not
grow with the grid.  ``build_sweep`` returns a grid's whole list, and
each public ``criterion_*(sweep)`` runs its row over a list taken as one
block.

The sweep's blocks and the other eight criteria share no state, so
``run_all`` runs them as 136 jobs through the job runner
(jobs._run_jobs), listed in the order they run inline and are claimed:
the eight in battery order, then the 128 blocks in sweep order.
"""

import random
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import expr
from .catalog import (
    enumerate_exceptional,
    exceptional_class,
    negative_curve_catalog,
)
from .covers import _genus_identity
from .errors import DomainError, ExprError, IdentityFailure, \
    InternalCheckFailure
from .families import census, census_csv, construction_kit, generate_nef_types, \
    generate_non_nef_types
from .jobs import _run_jobs
from .lattice import K_TILDE, DivisorClass, _make
from .nef import (
    LambdaSpec,
    NefReport,
    _claim_report,
    _compose,
    _congruent,
    _decompose,
    _dims,
    _minimizer,
    _moduli,
    _pair_note,
    _window,
    decompose_type,
    lambda_class,
    lambda_dot_exceptional_closed,
    mu_patterns,
    nef_check,
)
from .vectors import Vec4, as_int, fmt_vec, norm_sq


class CriterionResult(NamedTuple):
    key: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.key}: {self.detail}"


# ---------------------------------------------------------------------------
# shared sweep


# a sweep's grid (d_lo, d_hi, mu_max), and the battery's
Grid = tuple[int, int, int]
_BATTERY_GRID: Grid = (2, 5, 3)


# a block of a sweep: d, a mu pattern and the eps window of d
Block = tuple[int, Vec4, list[Vec4]]


def _grid_blocks(grid: Grid) -> list[Block]:
    """The (d, mu) blocks of a grid in sweep order; the blocks of one d
    share its window."""
    d_lo, d_hi, mu_max = grid
    mus = mu_patterns(mu_max)
    return [(d, mu, window) for d in range(d_lo, d_hi + 1)
            for window in [_window(d)] for mu in mus]


def _sweep_block(d: int, mu: Vec4, window: list[Vec4],
                 pair_reading: str = "factored") -> list[NefReport]:
    """The both-mode nef report of each spec of the (d, mu) block, in
    window order."""
    specs = filter(None, (_compose(d, mu, eps) for eps in window))
    return [nef_check(LambdaSpec(n, d, gamma), mode="both",
                      pair_reading=pair_reading)
            for n, gamma in specs]


def _sweep_blocks(grid: Grid, pair_reading: str = "factored"
                  ) -> Iterator[list[NefReport]]:
    """The sweep of a grid in sweep order, one list of both-mode nef
    reports per (d, mu) pattern, so a caller can check a block and drop
    it."""
    for block in _grid_blocks(grid):
        yield _sweep_block(*block, pair_reading)


def build_sweep(grid: Grid = _BATTERY_GRID,
                pair_reading: str = "factored") -> list[NefReport]:
    """The both-mode nef report of every spec in the grid; each report
    carries its spec, decomposition and scan."""
    return [row for block in _sweep_blocks(grid, pair_reading)
            for row in block]


def _spec_tag(spec: LambdaSpec) -> str:
    return f"(n={spec.n}, d={spec.d}, gamma={fmt_vec(spec.gamma)})"


# ---------------------------------------------------------------------------
# criteria 1..3 and 5: catalogs, the closed pairing form, the families


# the exceptional classes checked have alpha^(2) up to this bound
_CATALOG_MAX_SQ = 199


def criterion_exceptional_catalog() -> CriterionResult:
    specs = enumerate_exceptional(_CATALOG_MAX_SQ)
    bad = []
    for es in specs:
        qc = es.quotient_class()
        if qc.self_intersection() != -1 or qc.dot(K_TILDE) != -1:
            bad.append(es.alpha)
    detail = (f"{len(specs)} classes with alpha^(2) <= {_CATALOG_MAX_SQ}: "
              f"{len(bad)} with (self, K-degree) != (-1, -1)")
    return CriterionResult("exceptional-catalog", not bad, detail)


def criterion_negative_curve_catalog() -> CriterionResult:
    problems = []
    base = negative_curve_catalog()
    if len(base) != 9:
        problems.append(f"expected 9 base entries, got {len(base)}")
    for name, qc, self_int in base:
        if self_int != -2:
            problems.append(f"{name}: self-intersection {self_int}")
        if qc.dot(K_TILDE) != 0:
            problems.append(f"{name}: K-degree {qc.dot(K_TILDE)} != 0")
    with_p = negative_curve_catalog(3)
    if len(with_p) != 10 or with_p[-1][0] != "C~3" or with_p[-1][2] != -2:
        problems.append("char-3 catalog misses C~3 at self-intersection -2")
    detail = "9 base entries + C~3 all at -2" if not problems \
        else "; ".join(problems)
    return CriterionResult("negative-curve-catalog", not problems, detail)


def _randint(rng: random.Random) -> Callable[[int, int], int]:
    """The draw kernel of the seeded criteria: draw(lo, hi) returns what
    rng.randint(lo, hi) would and leaves rng in the same state, without
    randint's argument checks.  It is CPython's randrange on a step of 1,
    _randbelow_with_getrandbits: getrandbits(k) for k the bit length of
    the width, drawn again until it falls below the width.  Every integer
    draw of the battery goes through it; rng.random() is called as is."""
    getrandbits = rng.getrandbits

    def draw(lo: int, hi: int) -> int:
        n = hi - lo + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw


# the two parity orientations of mu, (1, 0, 0, 0) and (0, 1, 1, 1)
_ORIENTATIONS = tuple(mu_patterns(1))


def _random_spec(rng: random.Random) -> LambdaSpec:
    draw = _randint(rng)
    while True:
        d = draw(1, 8)
        # mu: one of the two parity orientations, raised by 0, 2 or 4
        bits = _ORIENTATIONS[0 if rng.random() < 0.5 else 1]
        mu = tuple(b + 2 * draw(0, 2) for b in bits)
        eps = tuple(draw(-(d - 1), d - 1) for _ in range(4)) \
            if d > 1 else (0, 0, 0, 0)
        found = _congruent(eps, 2 * d - 1) and _compose(d, mu, eps)
        if found:
            return LambdaSpec(found[0], d, found[1])


_PAIRING_TRIALS = 1000


def criterion_pairing_closed_form(seed: int = 0) -> CriterionResult:
    rng = random.Random(as_int(seed, "seed"))
    draw = _randint(rng)
    mismatches = []
    done = 0
    while done < _PAIRING_TRIALS:
        spec = _random_spec(rng)
        dec = decompose_type(spec.gamma, spec.d)
        alpha = tuple(max(0, m + draw(-3, 3)) for m in dec.mu)
        if norm_sq(alpha) % 2 == 0:
            continue
        closed = lambda_dot_exceptional_closed(spec.d, spec.gamma, alpha)
        direct = Fraction(
            lambda_class(spec).pullback.dot(exceptional_class(alpha).pullback),
            2)
        if closed != direct:
            mismatches.append((spec, alpha, closed, direct))
        done += 1
    detail = f"{_PAIRING_TRIALS} random (spec, alpha) tuples, d in [1,8]: " \
             f"{len(mismatches)} closed-vs-direct mismatches"
    if mismatches:
        s, a, c, v = mismatches[0]
        detail += f"; first: {_spec_tag(s)} alpha={fmt_vec(a)} {c} vs {v}"
    return CriterionResult("pairing-closed-form", not mismatches, detail)


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


# ---------------------------------------------------------------------------
# criteria over the shared sweep
#
# Each criterion has a block step: a block of reports -> (reports
# checked, failure texts in sweep order).


def _agreement_step(block: list[NefReport]) -> tuple[int, list[str]]:
    bad = []
    for row in block:
        if row.agreement is not True:
            conds = "; ".join(
                f"{c.id}: {c.lhs} vs {c.rhs} ({'ok' if c.passed else 'FAIL'})"
                for c in row.conditions)
            bad.append(f"{_spec_tag(row.spec)} closed said "
                       f"{[c.passed for c in row.conditions]}, brute said "
                       f"{row.verdict}; {conds}")
    return len(block), bad


def _adjunction_step(block: list[NefReport]) -> tuple[int, list[str]]:
    bad = []
    for row in block:
        s = row.spec
        # the report carries Lambda, whose pullback is the cover class
        lhs, rhs = _genus_identity(row.lam.pullback, s.n, s.d, s.rho,
                                   s.gamma)
        if lhs != rhs:
            bad.append(f"{_spec_tag(s)}: {lhs} != {rhs}")
    return len(block), bad


def _dimensions_step(block: list[NefReport]) -> tuple[int, list[str]]:
    bad = []
    nef = [row for row in block if row.is_nef()]
    for row in nef:
        s = row.spec
        try:
            # raises InternalCheckFailure unless the dims are (2d-2, d-2)
            _dims(row)
            if _moduli(row) != s.d - 1:
                bad.append(f"{_spec_tag(s)}: moduli != d-1")
        except InternalCheckFailure as exc:
            bad.append(f"{_spec_tag(s)}: {exc}")
    return len(nef), bad


def _minimizer_step(block: list[NefReport]) -> tuple[int, list[str]]:
    bad = []
    for row in block:
        found = _minimizer(row)
        _, cand_xs, xmin, _ = found
        if min(cand_xs) != xmin:
            # the claim fails: only now build its report, for the message
            claim = _claim_report(row.spec.w, *found)
            best_cand = min(v for _, _, v in claim.candidates)
            bad.append(f"{_spec_tag(row.spec)}: min {claim.min_value} only "
                       f"at {list(claim.counterexamples)}, candidates reach "
                       f"{best_cand}")
    return len(block), bad


def _contacts_step(block: list[NefReport]) -> tuple[int, list[str]]:
    bad = []
    nef = [row for row in block if row.is_nef()]
    for row in nef:
        for k, hits in row.contacts_by_k().items():
            if len(hits) > 1:
                bad.append(f"{_spec_tag(row.spec)}: k={k} contacts "
                           f"{[fmt_vec(a) for a in hits]}")
    return len(nef), bad


# The five sweep criteria in battery order: key, block step, summary
# (formatted with the counts, the grid note and the pair reading), how
# many failures the detail quotes, and the lead-in of each quote.
_SWEEP_CRITERIA = (
    ("nef-criterion-agreement", _agreement_step,
     "{checked} specs{box}, {reading} reading: {failed} disagreements",
     3, " | "),
    ("adjunction-consistency", _adjunction_step,
     "{checked} specs: arithmetic genus upstairs matches "
     "2*g~ + (rho - 2 + gamma^(1))/2 on all; {failed} failures",
     1, "; first: "),
    ("dimension-formulas", _dimensions_step,
     "{checked} nef specs: dim formulas (2d-2, d-2) and moduli d-1 all "
     "exact; {failed} failures", 1, "; first: "),
    ("minimizer-claim", _minimizer_step,
     "{checked} specs: box minimum always attained on {{mu, nat_mu}} or "
     "a flat_mu; {failed} counterexamples", 1, "; first: "),
    ("contact-uniqueness", _contacts_step,
     "{checked} nef specs: at most one zero-pairing alpha per index k in "
     "{{1,2,3}}; {failed} violations", 1, "; first: "),
)


def _grid_box(grid: Grid) -> str:
    """The agreement detail's note of the sweep grid it was run on."""
    d_lo, d_hi, mu_max = grid
    return f" (d {d_lo}..{d_hi}, mu <= {mu_max}, full eps window)"


# a block's tally: (reports checked, failures, the failures a detail may
# quote) for each sweep criterion
Tally = list[tuple[int, int, list[str]]]


def _tally(block: list[NefReport], criteria=_SWEEP_CRITERIA) -> Tally:
    """The block through each criterion's step (rows of
    _SWEEP_CRITERIA), kept as counts and the failures it may quote."""
    tally = []
    for _, step, _, keep, _ in criteria:
        checked, bad = step(block)
        tally.append((checked, len(bad), bad[:keep]))
    return tally


def _fold(tallies: Iterable[Tally], pair_reading: str, box: str,
          criteria=_SWEEP_CRITERIA) -> list[CriterionResult]:
    """The criteria's results from their block tallies in sweep order:
    the counts summed and the first failures quoted.  ``box`` notes the
    blocks' grid in the agreement detail (_grid_box), or is empty."""
    totals = [[0, 0, []] for _ in criteria]
    for tally in tallies:
        for (_, _, _, keep, _), total, (checked, failed, quoted) in zip(
                criteria, totals, tally):
            total[0] += checked
            total[1] += failed
            total[2] += quoted[:keep - len(total[2])]
    return [CriterionResult(key, not failed,
                            summary.format(checked=checked, failed=failed,
                                           box=box, reading=pair_reading)
                            + "".join(lead + text for text in quoted))
            for (key, _, summary, _, lead), (checked, failed, quoted)
            in zip(criteria, totals)]


def _on_list(key: str, sweep: list[NefReport],
             pair_reading: str = "factored") -> CriterionResult:
    """The sweep criterion ``key`` over one list of reports.  A list does
    not say what grid it was built on, so the detail names none."""
    rows = [row for row in _SWEEP_CRITERIA if row[0] == key]
    return _fold([_tally(sweep, rows)], pair_reading, "", rows)[0]


def _brute_rows(sweep: list[NefReport]) -> list[NefReport]:
    """The sweep, checked to hold only brute or both reports: the
    adjunction, dimension and minimizer steps read their Lambda and scan
    through nef's kernels, which do not check for them."""
    for row in sweep:
        if row.scan is None or row.lam is None:
            raise DomainError(
                f"a {row.mode} mode report for {row.spec} carries no brute "
                f"scan; the sweep criteria need brute or both reports",
                constraint="report-mismatch")
    return sweep


def criterion_nef_agreement(sweep: list[NefReport],
                            pair_reading: str = "factored") -> CriterionResult:
    """Closed and brute verdicts agree on every report of the sweep."""
    return _on_list("nef-criterion-agreement", sweep, pair_reading)


def criterion_adjunction(sweep: list[NefReport]) -> CriterionResult:
    return _on_list("adjunction-consistency", _brute_rows(sweep))


def criterion_dimensions(sweep: list[NefReport]) -> CriterionResult:
    return _on_list("dimension-formulas", _brute_rows(sweep))


def criterion_minimizer(sweep: list[NefReport]) -> CriterionResult:
    return _on_list("minimizer-claim", _brute_rows(sweep))


def criterion_contacts(sweep: list[NefReport]) -> CriterionResult:
    return _on_list("contact-uniqueness", sweep)


# ---------------------------------------------------------------------------
# criteria 10..13: kit, decomposition, parser, census


def criterion_construction_kit() -> CriterionResult:
    """Every kit of d 2..6 and mu <= 3 builds.  construction_kit raises
    IdentityFailure unless D0 = D1, each F_j and G equal pullback(Lambda),
    gamma^(1) = 2g+1 and _compose's n (from gamma^(2)) is the kit's n, so
    a kit that builds holds every identity."""
    bad = []
    count = 0
    for d in range(2, 7):
        for mu in mu_patterns(3):
            count += 1
            try:
                construction_kit(d, mu)
            except IdentityFailure as exc:
                bad.append(f"d={d} mu={fmt_vec(mu)}: {exc}")
    detail = (f"{count} kits (d 2..6, 32 mu patterns): D0 = D1 and "
              f"F_j = G = pullback(Lambda) plus degree/genus identities; "
              f"{len(bad)} failures")
    if bad:
        detail += f"; first: {bad[0]}"
    return CriterionResult("construction-kit", not bad, detail)


def criterion_decomposition(seed: int = 0) -> CriterionResult:
    draw = _randint(random.Random(as_int(seed, "seed")))
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
                continue
            # the program's decomposition finds the one solution too
            (m, e), = sols
            dec = _decompose((v, v, v, v), d)
            if dec.mu != (m,) * 4 or dec.eps != (e,) * 4:
                bad.append(f"d={d}, value {v}: solution {(m, e)}, but "
                           f"_decompose gives mu={dec.mu}, eps={dec.eps}")
    for _ in range(500):
        d = draw(1, 5)
        w = 2 * d - 1
        gamma = tuple(draw(0, 6 * w) for _ in range(4))
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
    """Ten coefficients, each in [-10**6, 10**6] with probability 0.1 and
    else in [-9, 9]; they are ints by construction, so the class is built
    unchecked (lattice._make)."""
    draw = _randint(rng)
    x = [draw(-10 ** 6, 10 ** 6) if rng.random() < 0.1 else draw(-9, 9)
         for _ in range(10)]
    return _make(x[0], x[1], (x[2], x[3], x[4], x[5]),
                 (x[6], x[7], x[8], x[9]))


_ROUND_TRIPS = 10_000


def criterion_expression_round_trip(seed: int = 0) -> CriterionResult:
    rng = random.Random(as_int(seed, "seed"))
    bad = []
    for _ in range(_ROUND_TRIPS):
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
    detail = (f"{_ROUND_TRIPS} random classes round-trip; {rejected}/"
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
    by the unit suites, not by the battery.  The 136 jobs are the
    other eight criteria in battery order, then the sweep's (d, mu)
    blocks in sweep order, each built, tallied through the five
    criteria and dropped.  _run_jobs runs them on two processes or
    inline, and the tallies are folded in sweep order.  The seed and
    the pair reading are checked before any job runs.
    """
    seed = as_int(seed, "seed")
    _pair_note(pair_reading)
    blocks = _grid_blocks(_BATTERY_GRID)
    side = [criterion_exceptional_catalog,
            criterion_negative_curve_catalog,
            partial(criterion_pairing_closed_form, seed=seed),
            criterion_family_generators,
            criterion_construction_kit,
            partial(criterion_decomposition, seed=seed),
            partial(criterion_expression_round_trip, seed=seed),
            criterion_census_determinism]
    sweep = [lambda block=block: _tally(_sweep_block(*block, pair_reading))
             for block in blocks]
    results = _run_jobs(side + sweep)
    catalogs, negatives, pairing, families, *kit_onward = \
        results[:len(side)]
    agreement, *sweep_checks = _fold(results[len(side):], pair_reading,
                                     _grid_box(_BATTERY_GRID))
    return [catalogs, negatives, pairing, agreement, families,
            *sweep_checks, *kit_onward]
