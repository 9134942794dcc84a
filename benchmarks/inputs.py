"""Seeded input generation for the benchmark, independent of osculant.

Nothing here imports osculant: the benchmark decides what to ask with its
own integer arithmetic (a SplitMix64 stream, its own n-from-gamma formula
and its own Miller-Rabin), so a later change to osculant's validation
cannot change what is measured.

Queries come from a fixed pool of POOL_SIZE entries whose golden digests
are recorded once (see record_golden.py).  The pool is stratified: every
block of PATTERN_LEN queries has the same mix of kinds, and the prime bit
sizes of the char-p queries follow a low-discrepancy sequence, so any
window of the pool has nearly the same composition.  A run's seed picks
where in the pool its window starts; the contents (d, gamma, primes,
expressions) differ from window to window.
"""

MASK64 = (1 << 64) - 1

POOL_SEED = 20101112

# Query mix per block of PATTERN_LEN: 20% expression queries, 80% spec
# queries split evenly over four kinds, 10% of those in characteristic p.
SPEC_KINDS = ("nef", "minimizer", "zdiv", "dims")
PATTERN = ([("expr", False)] * 10
           + [(kind, False) for kind in SPEC_KINDS] * 9
           + [(kind, True) for kind in SPEC_KINDS])
PATTERN_LEN = len(PATTERN)
POOL_SIZE = 640 * PATTERN_LEN   # more than a run gets through today
D_MAX = 40
MU_MAX = 60
# char-p primes are spread log-uniformly from 3 to just above 2^40
PRIME_CAP = (1 << 40) + (1 << 36)
PRIME_BITS = range(2, PRIME_CAP.bit_length() + 1)
GOLDEN_32 = 0x9E3779B9    # 2^32 / golden ratio: a Kronecker step

# the census grid of the census workload (ROADMAP shape, scaled up)
CENSUS_GRID = (40, 8, 80)


class SplitMix64:
    """Steele, Lea and Flood's SplitMix64: a tiny, fully specified stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias)."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            x = self.next()
            if x < limit:
                return x % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 12 prime bases, exact for
    n < 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_odd_prime(x: int) -> int:
    x = max(x, 3) | 1
    while not is_prime(x):
        x += 2
    return x


def char_p_prime(j: int) -> int:
    """The prime of the j-th char-p query.  A golden-ratio (Kronecker) walk
    picks a point of [0, 1) for every j, so any run of consecutive j covers
    the range evenly; its integer part over PRIME_BITS is the bit length
    and its fraction the position inside that octave, which makes the
    primes close to log-uniform from 3 to just above 2^40."""
    point = ((j * GOLDEN_32) & 0xFFFFFFFF) * len(PRIME_BITS)
    bits = PRIME_BITS[point >> 32]
    lo = 1 << (bits - 1)
    hi = min(1 << bits, PRIME_CAP)
    return next_odd_prime(lo + ((point & 0xFFFFFFFF) * (hi - lo) >> 32))


def n_from_gamma(d: int, gamma) -> int | None:
    """n with gamma^(2) = (2d-1)(2n-2) + 3, or None if none is integral."""
    num = sum(g * g for g in gamma) - 3
    den = 2 * (2 * d - 1)
    if num < 0 or num % den:
        return None
    return num // den + 1


def draw_spec(rng: SplitMix64) -> tuple[int, int, tuple[int, ...]]:
    """A valid (n, d, gamma) with d <= D_MAX and mu components <= MU_MAX.

    gamma = (2d-1)*mu + 2*eps with |eps_i| <= d-1; mu has one coordinate
    of odd-one-out parity (coordinate 0 against 1..3), and n must differ
    from gamma_0 and match gamma_1..3 mod 2.
    """
    while True:
        d = rng.between(1, D_MAX)
        w = 2 * d - 1
        odd0 = rng.below(2)
        pars = (odd0, 1 - odd0, 1 - odd0, 1 - odd0)
        mu = tuple(2 * rng.between(0, (MU_MAX - par) // 2) + par
                   for par in pars)
        eps = [rng.between(0 if m == 0 else -(d - 1), d - 1) for m in mu[:3]]
        # the last coordinate is solved for: 4 eps^(2) = 3 (mod w)
        need = (3 - 4 * sum(e * e for e in eps)) % w
        lo3 = 0 if mu[3] == 0 else -(d - 1)
        fits = [e for e in range(lo3, d) if (4 * e * e - need) % w == 0]
        if not fits:
            continue
        eps.append(fits[rng.below(len(fits))])
        gamma = tuple(w * m + 2 * e for m, e in zip(mu, eps))
        n = n_from_gamma(d, gamma)
        if n is None or n < 1:
            continue
        if (gamma[0] - n) % 2 == 0 or any((g - n) % 2 for g in gamma[1:]):
            continue
        return n, d, gamma


_EXPR_SYMBOLS = ("s0", "s1", "s2", "s3", "r0", "r1", "r2", "r3", "K")


def _join_terms(terms: list[tuple[int, str]]) -> str:
    out = []
    for i, (coef, sym) in enumerate(terms):
        mag = abs(coef)
        body = sym if mag == 1 else f"{mag}*{sym}"
        if i == 0:
            out.append(body if coef > 0 else f"-{body}")
        else:
            out.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(out)


def draw_expression(rng: SplitMix64) -> str:
    """A well-formed divisor expression: an optional e*(a*Co + b*So)
    pullback and up to six signed multiples of s_i, r_i and K, in random
    order."""
    def coef() -> int:
        c = rng.between(1, 9)
        return c if rng.below(2) else -c

    terms = []
    if rng.below(4):
        pull = [(coef(), sym) for sym in ("Co", "So") if rng.below(4)]
        if pull:
            terms.append((1 if rng.below(3) else -1,
                          f"e*({_join_terms(pull)})"))
    for _ in range(rng.between(1, 6)):
        terms.append((coef(), _EXPR_SYMBOLS[rng.below(len(_EXPR_SYMBOLS))]))
    for i in range(len(terms) - 1, 0, -1):
        j = rng.below(i + 1)
        terms[i], terms[j] = terms[j], terms[i]
    return _join_terms(terms)


def query_pool() -> list[list]:
    """The fixed pool every query run draws from, in index order.  Each
    query is a JSON-ready list: ["expr", text] or [kind, n, d, gamma, p]
    with p = None in characteristic 0."""
    rng = SplitMix64(POOL_SEED)
    pattern = list(PATTERN)
    for i in range(PATTERN_LEN - 1, 0, -1):
        j = rng.below(i + 1)
        pattern[i], pattern[j] = pattern[j], pattern[i]
    pool, char_p = [], 0
    for i in range(POOL_SIZE):
        kind, in_char_p = pattern[i % PATTERN_LEN]
        if kind == "expr":
            pool.append(["expr", draw_expression(rng)])
            continue
        n, d, gamma = draw_spec(rng)
        p = None
        if in_char_p:
            p = char_p_prime(char_p)
            char_p += 1
        pool.append([kind, n, d, list(gamma), p])
    return pool


def pool_order(seed: int) -> list[int]:
    """The seed's visiting order of the pool: all of it, cyclically, from
    a seeded start."""
    start = SplitMix64(seed).below(POOL_SIZE)
    return [(start + k) % POOL_SIZE for k in range(POOL_SIZE)]
