"""Certify both nef routes on a complete set of specs, one d at a time.

In characteristic 0 the set is d's window.  By the period-2w lemma
(nef._nearest), gamma_i -> gamma_i + 2wk, w = 2d-1, keeps a spec valid
and keeps every verdict, failing constraint and pairing value, so the
valid specs with gamma in [0, 2w]^4 stand for all of them: mu from
mu_patterns(2) (a larger mu puts gamma past 2w), eps from _window(d),
the spec from _compose, kept when max(gamma) <= 2w.

In characteristic p the set is the slab at (p, d): every gamma in N^4
with the type parity, the char-p rule gamma^(1) <= pw and an integral
n >= 1 from the rational-image constraint.  A slab is finite, as the
rule keeps gamma in a simplex and gamma fixes n, so it needs no lemma.
The walk keeps gamma_1 <= gamma_2 <= gamma_3.  That is sound because
all that is checked is symmetric in coordinates 1..3: the char-p rule,
the C~p row (pw - gamma^(1)), both routes' rows, the pairing
q(alpha) = ||gamma - w*alpha||^2, the genus identity and the dimension
formulas, under one permutation of gamma and alpha alike
(tests/test_char_p_slabs.py checks it at p = 3 and 5).

Each spec gets a both-mode nef_check and the five rows of the battery's
table (verify._SWEEP_CRITERIA), and in characteristic p one check more,
each named by its key:

- nef-criterion-agreement: the closed and brute verdicts agree;
- adjunction-consistency: the arithmetic genus of Lambda's pullback
  equals 2g~ + (rho - 2 + gamma^(1))/2 (covers._genus_identity);
- dimension-formulas: a nef spec has dim|Lambda| = 2d-2,
  dim|Lambda - C~o| = d-2 and moduli d-1 (nef._dims, nef._moduli).  A
  d = 1 spec is never nef (Lambda^2 = -1), so the row never meets d = 1's
  anticanonical-degree error;
- minimizer-claim: the least exceptional pairing is attained at mu,
  nat_mu or a flat_mu (nef._minimizer);
- contact-uniqueness: a nef spec has at most one zero-pairing alpha per
  index k;
- char-p-budget, which the program never checks: some least candidate
  has alpha^(1) <= p, as one past p is no curve in characteristic p.

Usage:

    PYTHONPATH=src python scripts/certify.py --d-max 30
    PYTHONPATH=src python scripts/certify.py --char-p 13 --d-max 10

One line per d gives its count of specs, its failures and its wall time.
The exit code is 1 when any check failed, 2 on a bad option.  Like an
osculant command, the run goes with the cyclic garbage collector paused
(cli.collector_paused): the reports form no reference cycles, so its
passes would find nothing to free.
"""

import argparse
import sys
import time

from osculant.catalog import validate_char_p
from osculant.cli import collector_paused
from osculant.errors import DomainError
from osculant.nef import (LambdaSpec, _compose, _minimizer, _window,
                          mu_patterns, nef_check, thresholds)
from osculant.verify import _SWEEP_CRITERIA

_STEPS = [(key, step) for key, step, *_ in _SWEEP_CRITERIA]


def representatives(d: int):
    """(n, gamma) of every valid spec at d with gamma in [0, 2w]^4, mu
    pattern by mu pattern, each in the window's eps order."""
    w = 2 * d - 1
    window = _window(d)
    for mu in mu_patterns(2):
        for eps in window:
            found = _compose(d, mu, eps)
            if found is not None and max(found[1]) <= 2 * w:
                yield found


def slab(p: int, d: int, reduced: bool):
    """(n, gamma) of every admitted spec at (p, d), gamma_1 <= gamma_2
    <= gamma_3 when reduced: gamma_0 of the other parity than gamma_1..3,
    each coordinate within the sum p(2d-1) leaves, n of gamma_1's parity."""
    w = 2 * d - 1
    left = p * w
    for q in (0, 1):
        for g0 in range(1 - q, left + 1, 2):
            for g1 in range(q, left - g0 + 1, 2):
                for g2 in range(g1 if reduced else q, left - g0 - g1 + 1, 2):
                    for g3 in range(g2 if reduced else q,
                                    left - g0 - g1 - g2 + 1, 2):
                        num = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 - 3
                        n = num // (2 * w) + 1
                        if num >= 0 and num % (2 * w) == 0 and n % 2 == q:
                            yield n, (g0, g1, g2, g3)


def least_candidate_sums(report) -> list[int]:
    """alpha^(1) of each candidate (mu, nat_mu or a flat_mu) that
    reaches the least excess."""
    dec, cand_xs, least, _ = _minimizer(report)
    cands = (dec.mu, dec.nat_mu, *dec.flat_mu_set)
    return [sum(v) for v, x in zip(cands, cand_xs) if x == least]


def failed_checks(report) -> list[str]:
    """The keys of the checks that fail on a both-mode report."""
    failed = [key for key, step in _STEPS if step([report])[1]]
    p = report.p
    if p is not None and all(s > p for s in least_candidate_sums(report)):
        failed.append("char-p-budget")
    return failed


def signature(report) -> tuple:
    """What the certificate reads of a both-mode report: both verdicts,
    the failing row, both class excesses, whether the minimizer claim
    holds and the failed checks."""
    t0, t1 = thresholds(report.spec.d)
    _, cand_xs, least, _ = _minimizer(report)
    return (report.failing_constraint is None, report.is_nef(),
            report.failing_constraint,
            report.scan.min_k0 - t0, report.scan.min_other - t1,
            min(cand_xs) == least, tuple(failed_checks(report)))


def certify(d: int, p: int | None = None):
    """Yield (report, failed checks) for each spec of the window at d,
    or of the reduced slab at (p, d)."""
    specs = representatives(d) if p is None else slab(p, d, reduced=True)
    for n, gamma in specs:
        report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p)
        yield report, failed_checks(report)


def degree(text: str) -> int:
    """A --d-max value: an int of at least 1, else a usage error."""
    d = int(text)
    if d < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {d}")
    return d


def characteristic(text: str) -> int:
    """A --char-p value, checked as every osculant command checks it."""
    try:
        return validate_char_p(int(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--d-max", dest="d_max", type=degree, required=True)
    parser.add_argument("--char-p", dest="p", type=characteristic)
    args = parser.parse_args(argv)
    with collector_paused():
        return run(args.d_max, args.p)


def run(d_max: int, p: int | None) -> int:
    """Certify d = 1..d_max, printing one line per d; the exit code."""
    total = failures = 0
    start = time.perf_counter()
    for d in range(1, d_max + 1):
        t0 = time.perf_counter()
        count = bad = 0
        for report, checks in certify(d, p):
            count += 1
            if checks:
                bad += 1
                if bad <= 3:
                    spec = report.spec
                    print(f"  FAIL n={spec.n} d={d} gamma={spec.gamma}: "
                          f"{', '.join(checks)}")
        total += count
        failures += bad
        print(f"d={d}: {count} specs, {bad} failures, "
              f"{time.perf_counter() - t0:.2f} s", flush=True)
    print(f"d 1..{d_max}: {total} specs, {failures} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
