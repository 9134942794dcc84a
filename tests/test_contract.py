"""The input contract of the whole public API.

Every callable in ``osculant.__all__`` either succeeds, raises a
``DomainError`` carrying a constraint id (a bad value), or raises a
``TypeError`` (a wrong kind of object); never an ``AttributeError``, an
``IndexError`` or an internal check failure.  The sweep starts from one
known-good call per callable and replaces each of its arguments in turn
with every value of a small pool of bad ones.  ``run_all``, which runs
the whole battery on any call it accepts, gets only the values it
rejects."""

import ast
import inspect
import os
import pickle
import time
from pathlib import Path

import pytest

import osculant
from osculant import errors, verify
from osculant.nef import _compose
from osculant import (
    C,
    F,
    DivisorClass,
    DomainError,
    LambdaSpec,
    QuotientClass,
    census,
    construction_kit,
    decompose_type,
    nef_check,
    scan_box,
    verify_minimizer_claim,
)

GAMMA = (3, 2, 2, 2)
MU = (0, 1, 1, 1)
SPEC = LambdaSpec(4, 2, GAMMA)
REPORT = nef_check(SPEC)
DEC = decompose_type(GAMMA, 2)
RECORDS = census(range(4, 5), range(2, 3), 5)
Q = QuotientClass(DivisorClass(c=1, s=(-1, -1, -1, -1)))
COVER = osculant.CoverInvariants(4, 2, 4, 0, 1, 1, GAMMA)

# a LambdaSpec stands in as the wrong record wherever another is wanted
POOL = (-1, 0, True, 2.0, "2", None, SPEC)

# name -> (positional args, keyword args) of one call that succeeds
GOOD = {
    "BoxScan": (tuple(scan_box(GAMMA, 2)), {}),
    "CensusRecord": (tuple(RECORDS[0]), {}),
    "Check": (("eps-norm", True, 3, 3), {}),
    "ContactDivisor": (((), ()), {}),
    "CoverInvariants": ((4, 2, 4, 0, 1, 1, GAMMA), {}),
    "CoverReport": (((), True), {}),
    "CriterionResult": (("key", True, "detail"), {}),
    "Decomposition": (tuple(DEC), {}),
    "DivisorClass": ((1, 2, (0, 1, 0, 0), (0, 0, 0, -1)), {}),
    "ExceptionalSpec": (((1, 0, 0, 0), 0, 1), {}),
    "KitDivisors": (tuple(construction_kit(2, MU)), {}),
    "LambdaSpec": ((4, 2, GAMMA, 1), {}),
    "MinimizerReport": (tuple(verify_minimizer_claim(SPEC)), {}),
    "NefReport": (("nef", "both", None, None, (), True), {}),
    "QuotientClass": ((C,), {}),
    "arithmetic_genus": ((C,), {}),
    "canonical_class": ((), {}),
    "census": ((range(1, 3), range(1, 3), 5, None, "factored", 1), {}),
    "census_csv": ((RECORDS,), {}),
    "census_json": ((RECORDS,), {}),
    "char_p_section": ((3,), {}),
    "closed_conditions": ((DEC, 2, "factored"), {}),
    "construction_kit": ((2, MU), {}),
    "decompose_type": ((GAMMA, 2), {}),
    "enumerate_exceptional": ((3, None), {}),
    "exceptional_class": (((1, 0, 0, 0), None), {}),
    "factorization_relations": ((2, 1, 3), {}),
    "fiber_component_class": ((0,), {}),
    "format_divisor": ((C,), {}),
    "gamma_perp_class": ((4, 2, 1, GAMMA), {}),
    "generate_nef_types": ((2, 0, MU, None), {}),
    "generate_non_nef_types": ((3, MU, 2, None), {}),
    "genus_tilde": ((4, 2, 1, 1, GAMMA), {}),
    "intersect": ((C, F), {}),
    "lambda_class": ((SPEC, None), {}),
    "lambda_dot_exceptional_closed": ((2, GAMMA, (1, 0, 0, 0)), {}),
    "linear_system_dims": ((SPEC, None), {"report": REPORT}),
    "max_genus_dominated": ((4, 1), {}),
    "moduli_dimension": ((SPEC, None), {"report": REPORT}),
    "n_for_type": ((2, GAMMA), {}),
    "nef_check": ((SPEC, "both", None, "factored"), {}),
    "negative_curve_catalog": ((None,), {}),
    "osculating_bound": ((4, 2), {}),
    "parse_divisor": (("e*(Co + So) - s0",), {}),
    "perp_genus_identity": ((4, 2, 1, GAMMA), {}),
    "quotient_genus": ((Q,), {}),
    "quotient_intersect": ((Q, Q), {}),
    "r_branch": ((0,), {}),
    "s_branch": ((0,), {}),
    "scan_box": ((GAMMA, 2, None), {}),
    "section_image": ((), {}),
    "thresholds": ((2,), {}),
    "validate_char_p": ((3,), {}),
    "validate_cover": ((COVER, None), {}),
    "validate_type": ((4, GAMMA), {}),
    "verify_minimizer_claim": ((SPEC, None), {"report": REPORT}),
    "z_divisor": ((SPEC, None), {}),
}

# run_all runs the whole battery, seconds a call, on every seed and pair
# reading it takes (tests/test_acceptance.py runs it), so it is called only
# with the pool values it rejects: argument name -> (bad values, the id)
REJECTED = {"run_all": {
    "seed": ((True, 2.0, "2", None, SPEC), "vec-integer"),
    "pair_reading": (POOL, "pair-reading"),
}}


def _public_callables() -> list[str]:
    """Every callable of __all__ that is not an exception class."""
    out = []
    for name in osculant.__all__:
        value = getattr(osculant, name)
        if not callable(value):
            continue
        if inspect.isclass(value) and issubclass(value, BaseException):
            continue
        out.append(name)
    return out


def _outcome(fn, args, kwargs) -> str | None:
    """None when the call succeeds or fails by the contract, else the
    name of the exception that escaped."""
    try:
        fn(*args, **kwargs)
    except (DomainError, TypeError):
        return None
    except Exception as exc:    # noqa: BLE001 - any other kind breaks it
        return type(exc).__name__
    return None


def test_every_public_callable_keeps_the_input_contract():
    names = _public_callables()
    assert sorted([*GOOD, *REJECTED]) == sorted(names)
    broken = []
    for name in GOOD:
        fn = getattr(osculant, name)
        args, kwargs = GOOD[name]
        fn(*args, **kwargs)     # the known-good call succeeds
        for i in range(len(args)):
            for bad in POOL:
                trial = args[:i] + (bad,) + args[i + 1:]
                escaped = _outcome(fn, trial, kwargs)
                if escaped:
                    broken.append(f"{name} arg {i} = {bad!r}: {escaped}")
        for key in kwargs:
            for bad in POOL:
                escaped = _outcome(fn, args, {**kwargs, key: bad})
                if escaped:
                    broken.append(f"{name} {key} = {bad!r}: {escaped}")
    assert not broken, "\n".join(broken)


# a class times a scalar, in both operand orders: the multiplier follows
# the integer rule of every other public scalar
PRODUCTS = {
    "DivisorClass * n": lambda n: C * n,
    "n * DivisorClass": lambda n: n * C,
    "QuotientClass * n": lambda n: Q * n,
    "n * QuotientClass": lambda n: n * Q,
}


def test_class_multiples_keep_the_input_contract():
    broken = []
    for name, product in PRODUCTS.items():
        product(2)      # the known-good call succeeds
        for bad in POOL:
            escaped = _outcome(product, (bad,), {})
            if escaped:
                broken.append(f"{name} with n = {bad!r}: {escaped}")
        with pytest.raises(DomainError) as info:
            product(True)
        assert info.value.constraint == "vec-integer", name
    assert not broken, "\n".join(broken)


def test_run_all_rejects_a_bad_seed_or_reading_before_its_battery(
        monkeypatch):
    first_block = verify._sweep_blocks

    def no_battery(grid, reading):
        next(first_block(grid, reading))    # raises on a bad reading
        raise AssertionError("run_all took its arguments and ran its sweep")

    def no_child():
        raise AssertionError("run_all forked a child for arguments it "
                             "rejects")

    monkeypatch.setattr(verify, "_sweep_blocks", no_battery)
    monkeypatch.setattr(os, "fork", no_child)
    for name, params in REJECTED.items():
        fn = getattr(osculant, name)
        for param, (values, constraint) in params.items():
            for bad in values:
                start = time.perf_counter()
                with pytest.raises(DomainError) as caught:
                    fn(**{param: bad})
                assert caught.value.constraint == constraint, (param, bad)
                assert time.perf_counter() - start < 0.5, (param, bad)


def test_a_constraint_id_with_a_class_is_raised_as_that_class():
    # one exception class per constraint id: no plain DomainError names
    # an id that a subclass owns, so catching the class sees every case
    owned = {cls.constraint for cls in vars(errors).values()
             if inspect.isclass(cls) and issubclass(cls, errors.DomainError)
             and cls is not errors.DomainError}
    found = []
    for path in sorted(Path(osculant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.keyword) and node.arg == "constraint"
                    and isinstance(node.value, ast.Constant)
                    and node.value.value in owned):
                found.append(f"{path.name}:{node.lineno} "
                             f"{node.value.value}")
    assert not found, found


# one instance of every exception class in errors.py, and a plain
# DomainError with an id set on the instance
PICKLED = [cls("bad input", 3) if issubclass(cls, errors.ExprError)
           else cls("bad input")
           for cls in vars(errors).values()
           if inspect.isclass(cls) and issubclass(cls, BaseException)
           and cls.__module__ == errors.__name__]
PICKLED.append(DomainError("bad input", constraint="k-index"))


@pytest.mark.parametrize("exc", PICKLED,
                         ids=[type(e).__name__ for e in PICKLED[:-1]]
                         + ["DomainError-with-id"])
def test_every_error_survives_pickle(exc):
    # the battery's forked child sends its exception back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "constraint", None) == getattr(exc, "constraint",
                                                        None)
    assert getattr(back, "position", None) == getattr(exc, "position", None)


# a kit-window spec at d = 10**40: eps = (0, d-1, d-1, d-1), mu = e_0
BIG_D = 10 ** 40
BIG_N, BIG_GAMMA = _compose(BIG_D, (1, 0, 0, 0), (0, BIG_D - 1, BIG_D - 1,
                                                   BIG_D - 1))
BIG = LambdaSpec(BIG_N, BIG_D, BIG_GAMMA)

# name -> (args) of each call whose work does not grow with d, n or gamma;
# construction_kit (d-1 classes F[j]) and the enumerators (census, the
# family generators, enumerate_exceptional) are O(output) and left out
BOUNDED = {
    "LambdaSpec": (BIG_N, BIG_D, BIG_GAMMA),
    "nef_check": (BIG,),
    "verify_minimizer_claim": (BIG,),
    "z_divisor": (BIG,),
    "linear_system_dims": (BIG,),
    "moduli_dimension": (BIG,),
    "decompose_type": (BIG_GAMMA, BIG_D),
    "n_for_type": (BIG_D, BIG_GAMMA),
    "scan_box": (BIG_GAMMA, BIG_D),
    "lambda_dot_exceptional_closed": (BIG_D, BIG_GAMMA, (1, 0, 0, 0)),
    "genus_tilde": (BIG_N, BIG_D, 1, 1, BIG_GAMMA),
    "perp_genus_identity": (BIG_N, BIG_D, 1, BIG_GAMMA),
    "thresholds": (BIG_D,),
}


@pytest.mark.parametrize("name", BOUNDED)
def test_a_call_at_d_10_to_the_40_takes_constant_time(name):
    # each call measured 0.01 to 0.13 ms; the best of three runs must
    # stay under 20 ms, far below any work that grows with d
    fn, args = getattr(osculant, name), BOUNDED[name]
    fn(*args)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    assert best < 0.02, (name, best)
