"""Reference draws for the battery's seeded criteria.

These were ``osculant.verify``'s random class and random spec before
its draws went through one kernel (``verify._randint``): every integer
comes from ``random.Random.randint`` or ``randrange``, and the class is
built through the checking ``DivisorClass`` constructor.  The tests
keep them as an oracle: the library's draws must yield the same values
and leave the generator in the same state.
"""

import random

from osculant.lattice import DivisorClass
from osculant.nef import LambdaSpec, _compose, _congruent, mu_patterns

_ORIENTATIONS = tuple(mu_patterns(1))


def random_spec(rng: random.Random) -> LambdaSpec:
    while True:
        d = rng.randint(1, 8)
        # mu: one of the two parity orientations, raised by 0, 2 or 4
        bits = _ORIENTATIONS[0 if rng.random() < 0.5 else 1]
        mu = tuple(b + 2 * rng.randrange(3) for b in bits)
        eps = tuple(rng.randint(-(d - 1), d - 1) for _ in range(4)) \
            if d > 1 else (0, 0, 0, 0)
        found = _congruent(eps, 2 * d - 1) and _compose(d, mu, eps)
        if found:
            return LambdaSpec(found[0], d, found[1])


def random_class(rng: random.Random) -> DivisorClass:
    def coef() -> int:
        if rng.random() < 0.1:
            return rng.randint(-10 ** 6, 10 ** 6)
        return rng.randint(-9, 9)

    return DivisorClass(c=coef(), f=coef(),
                        s=tuple(coef() for _ in range(4)),
                        r=tuple(coef() for _ in range(4)))
