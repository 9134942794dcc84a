"""A characteristic is tested for primality once per public call: the
entry point validates p and hands the checked value down, so the
functions it calls accept it without a second Miller-Rabin run."""

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
