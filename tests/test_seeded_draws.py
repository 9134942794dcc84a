"""The battery's seeded draws: the draw kernel (verify._randint) against
random.Random.randint, the random class and random spec against their
reference versions (tests/draw_oracle.py), and verify.py's integer
draws all through the kernel."""

import ast
import random
from pathlib import Path

import pytest

from osculant import verify
from osculant.lattice import DivisorClass

import draw_oracle

ROOT = Path(__file__).resolve().parents[1]

# every (lo, hi) the battery draws from, in the order listed
BATTERY_RANGES = (
    [(-9, 9), (-10 ** 6, 10 ** 6), (1, 8), (0, 2)]
    + [(-(d - 1), d - 1) for d in range(2, 9)]
    + [(-3, 3), (1, 5)]
    + [(0, 6 * w) for w in range(1, 10)]
)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 1])
def test_draw_kernel_is_randint(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = verify._randint(ours)
    for lo, hi in BATTERY_RANGES:
        got = [draw(lo, hi) for _ in range(300)]
        assert got == [theirs.randint(lo, hi) for _ in range(300)], (lo, hi)
    # interleaved with rng.random(), as the criteria draw
    for lo, hi in BATTERY_RANGES * 20:
        assert ours.random() == theirs.random()
        assert draw(lo, hi) == theirs.randint(lo, hi)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [0, 7])
def test_random_class_equals_the_reference(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(verify._ROUND_TRIPS):
        got = verify._random_class(ours)
        want = draw_oracle.random_class(theirs)
        assert got == want
        assert type(got) is DivisorClass
        assert all(type(x) is int for x in got.coefficients())
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [0, 7])
def test_random_spec_equals_the_reference(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(2 * verify._PAIRING_TRIALS):
        assert verify._random_spec(ours) == draw_oracle.random_spec(theirs)
    assert ours.getstate() == theirs.getstate()


def test_verify_draws_no_integer_through_random():
    """verify.py reads no randint or randrange attribute: its integer
    draws all go through the kernel, which calls getrandbits."""
    path = ROOT / "src" / "osculant" / "verify.py"
    found = [(node.lineno, node.attr)
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("randint", "randrange")]
    assert found == []
