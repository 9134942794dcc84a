"""A characteristic is tested for primality once per public call: the
entry point validates p and hands the checked value down, so the
functions it calls accept it without a second Miller-Rabin run.  A call
at the largest admitted p stays under a fixed bound, and the catalog
guard keeps nothing per p."""

import time
import tracemalloc

import pytest

import osculant.catalog
from osculant import (
    LambdaSpec,
    census,
    lambda_class,
    linear_system_dims,
    moduli_dimension,
    negative_curve_catalog,
    nef_check,
    scan_box,
    verify_minimizer_claim,
    z_divisor,
)
from osculant.cli import main

from test_catalog import _largest_prime_below_bound, _twelve_base_verdict

P = 1099511627791   # a prime near 2^40
REF = LambdaSpec(4, 2, (3, 2, 2, 2))

CALLS = {
    "nef_check-closed": lambda p: nef_check(REF, mode="closed", p=p),
    "nef_check-brute": lambda p: nef_check(REF, mode="brute", p=p),
    "nef_check-both": lambda p: nef_check(REF, mode="both", p=p),
    "lambda_class": lambda p: lambda_class(REF, p),
    "verify_minimizer_claim": lambda p: verify_minimizer_claim(REF, p=p),
    "z_divisor": lambda p: z_divisor(REF, p=p),
    "linear_system_dims": lambda p: linear_system_dims(REF, p=p),
    "moduli_dimension": lambda p: moduli_dimension(REF, p=p),
    "negative_curve_catalog": lambda p: negative_curve_catalog(p),
    "scan_box": lambda p: scan_box(REF.gamma, REF.d, p),
}


@pytest.fixture
def prime_tests(monkeypatch):
    """The arguments of every primality test run while the test runs."""
    seen = []
    original = osculant.catalog._is_prime

    def counting(n):
        seen.append(n)
        return original(n)

    monkeypatch.setattr(osculant.catalog, "_is_prime", counting)
    return seen


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_primality_test_per_call(name, prime_tests):
    CALLS[name](P)
    assert prime_tests == [P]


def test_census_tests_primality_once_per_sweep(prime_tests):
    rows = census(range(1, 8), range(1, 4), 15, p=P)
    assert len(rows) > 10
    assert prime_tests == [P]


def test_cli_tests_primality_once_per_command(prime_tests, capsys):
    assert main(["dims", "4", "2", "3,2,2,2", "--char-p", str(P)]) == 0
    assert "dim_lambda" in capsys.readouterr().out
    assert prime_tests == [P]


P_MAX = _largest_prime_below_bound()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_call_at_the_largest_prime_takes_constant_time(name):
    # the best of three runs must stay under 20 ms, far below any work
    # that grows with p
    CALLS[name](P_MAX)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        CALLS[name](P_MAX)
        best = min(best, time.perf_counter() - start)
    assert best < 0.02, (name, best)


def test_catalog_forms_keep_nothing_per_prime():
    # the compiled guard evaluates C~p's form as p*slope + base per call
    primes = [n for n in range(3, 40_000, 2) if _twelve_base_verdict(n)]
    primes = [osculant.catalog.validate_char_p(n) for n in primes[:2000]]
    halves = primes[:1000], primes[1000:]
    guard = osculant.catalog._row_guard
    at = REF.n, REF.w, REF.rho, REF.gamma
    guard(*at, primes[0])
    peaks = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for half in halves:
            tracemalloc.reset_peak()
            for p in half:
                guard(*at, p)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # a cache of 1,000 forms would keep hundreds of KB
    assert kept < 4096, kept
    assert peaks[1] <= peaks[0] + 1024 and peaks[1] < 16384, peaks
