"""Certify both nef routes at every n and gamma, one degree d at a time.

By the period-2w lemma (nef._nearest), gamma_i -> gamma_i + 2(2d-1)k
keeps a spec valid and keeps every verdict, failing constraint and
pairing value.  So at each d the valid specs with gamma in [0, 2w]^4,
w = 2d-1, stand for all of them.  They are built here from the window
laws in nef: mu from mu_patterns(2) (a larger mu puts gamma past 2w),
eps from _window(d), the spec from _compose, kept when max(gamma) <= 2w.
Each one gets a both-mode nef_check, and three steps of the battery's
table (verify._SWEEP_CRITERIA) run on it, each named by its key:

- nef-criterion-agreement: the closed and brute verdicts agree;
- minimizer-claim: the least exceptional pairing is attained at mu,
  nat_mu or a flat_mu (nef._minimizer);
- contact-uniqueness: a nef spec has at most one zero-pairing alpha per
  index k.

Usage:

    PYTHONPATH=src python scripts/certify_windows.py --d-max 30

One line per d gives its count of specs, its failures and its wall time.
The exit code is 1 when any check failed.  Like an osculant command,
the run goes with the cyclic garbage collector paused
(cli.collector_paused): the reports form no reference cycles, so its
passes would find nothing to free.
"""

import argparse
import sys
import time

from osculant.cli import collector_paused
from osculant.nef import LambdaSpec, _compose, _window, mu_patterns, nef_check
from osculant.verify import _SWEEP_CRITERIA

_STEPS = [(key, step) for key, step, *_ in _SWEEP_CRITERIA
          if key in ("nef-criterion-agreement", "minimizer-claim",
                     "contact-uniqueness")]


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


def failed_checks(report) -> list[str]:
    """The keys of the steps that fail on a both-mode report."""
    return [key for key, step in _STEPS if step([report])[1]]


def certify(d: int):
    """Yield (report, failed checks) for each representative at d."""
    for n, gamma in representatives(d):
        report = nef_check(LambdaSpec(n, d, gamma), mode="both")
        yield report, failed_checks(report)


def degree(text: str) -> int:
    """A --d-max value: an int of at least 1, else a usage error."""
    d = int(text)
    if d < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {d}")
    return d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--d-max", dest="d_max", type=degree, required=True)
    args = parser.parse_args(argv)
    with collector_paused():
        return run(args.d_max)


def run(d_max: int) -> int:
    """Certify d = 1..d_max, printing one line per d; the exit code."""
    total = failures = 0
    start = time.perf_counter()
    for d in range(1, d_max + 1):
        t0 = time.perf_counter()
        count = bad = 0
        for report, checks in certify(d):
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
