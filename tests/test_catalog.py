"""Negative-curve catalog: exceptional classes, the fixed (-2)-list,
fiber components, and the cover-class template."""

import random
import time
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from osculant import (
    C,
    F,
    R,
    S,
    CharPExcluded,
    DomainError,
    ExceptionalSpec,
    K_TILDE,
    ParityViolation,
    RhoEven,
    RhoOutOfRange,
    arithmetic_genus,
    char_p_section,
    enumerate_exceptional,
    exceptional_class,
    fiber_component_class,
    gamma_perp_class,
    negative_curve_catalog,
    r_branch,
    s_branch,
    section_image,
    validate_char_p,
)
from osculant import catalog


def test_exceptional_unit_vector():
    qc = exceptional_class((1, 0, 0, 0))
    assert qc.pullback == F - S[0] - R[0]
    assert qc.self_intersection() == -1
    assert qc.dot(K_TILDE) == -1


def test_exceptional_mixed_vector():
    es = ExceptionalSpec.from_alpha((2, 1, 0, 0))
    assert (es.a, es.k) == (2, 1)
    qc = es.quotient_class()
    assert qc.pullback == 2 * C + F - S[1] - 2 * R[0] - R[1]
    assert qc.self_intersection() == -1
    assert qc.dot(K_TILDE) == -1


def test_exceptional_even_square_rejected():
    with pytest.raises(ParityViolation):
        exceptional_class((1, 1, 0, 0))
    with pytest.raises(DomainError):
        exceptional_class((1, -1, 0, 0))


def test_char_p_bound_on_alpha():
    exceptional_class((1, 1, 1, 0), p=3)
    with pytest.raises(CharPExcluded):
        exceptional_class((3, 1, 1, 0), p=3)


def test_enumeration_small():
    units = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    assert {e.alpha for e in enumerate_exceptional(1)} == units
    three = {e.alpha for e in enumerate_exceptional(3)}
    assert three == units | {(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
                             (0, 1, 1, 1)}
    assert {e.alpha for e in enumerate_exceptional(3, p=3)} == three


@pytest.mark.parametrize("max_sq", [0, -1, -5])
def test_enumeration_below_one_is_empty(max_sq):
    # no alpha has a negative square sum, so a negative bound is empty
    # like 0, not a ValueError from isqrt
    assert enumerate_exceptional(max_sq) == []
    assert enumerate_exceptional(max_sq, p=3) == []


def test_enumeration_is_lexicographic_and_filtered():
    alphas = [e.alpha for e in enumerate_exceptional(30)]
    assert alphas == sorted(alphas)
    assert all(sum(x * x for x in a) % 2 == 1 for a in alphas)
    capped = [e.alpha for e in enumerate_exceptional(30, p=3)]
    assert capped == [a for a in alphas if sum(a) <= 3]


@pytest.mark.parametrize("p", [None, 3, 13])
def test_each_enumerated_spec_is_the_one_from_alpha_builds(p):
    # the walk builds each spec directly; from_alpha checks and derives
    # a and k from alpha alone
    specs = enumerate_exceptional(199, p)
    assert specs == [ExceptionalSpec.from_alpha(es.alpha, p) for es in specs]
    assert max(es.alpha[3] for es in specs) >= 3


@pytest.mark.parametrize("max_sq,p", [
    (199, 3), (199, 7), (2000, 13), (6400, 3), (6400, 7), (25600, 3)])
def test_a_char_p_enumeration_walks_only_its_budget(max_sq, p):
    # the walk once covered the whole ball alpha^(2) <= max_sq whatever
    # p: 0.66 s at (6400, 3) and 10.6 s at (25600, 3)
    start = time.perf_counter()
    capped = [e.alpha for e in enumerate_exceptional(max_sq, p)]
    took = time.perf_counter() - start
    assert took < 0.05, took
    # alpha^(1) <= p gives alpha^(2) <= p^2, so the char-0 list at
    # min(max_sq, p^2) holds every row
    full = [e.alpha for e in enumerate_exceptional(min(max_sq, p * p))]
    assert capped == [a for a in full if sum(a) <= p]


def test_base_catalog():
    rows = negative_curve_catalog()
    assert [name for name, _, _ in rows] == [
        "C~o", "s~0", "s~1", "s~2", "s~3", "r~0", "r~1", "r~2", "r~3"]
    for _, qc, self_int in rows:
        assert self_int == -2
        assert qc.self_intersection() == -2
        assert qc.dot(K_TILDE) == 0
    by_name = {name: qc for name, qc, _ in rows}
    assert by_name["C~o"] == section_image()
    assert by_name["C~o"].pullback == C - S[0] - S[1] - S[2] - S[3]
    assert by_name["s~2"] == s_branch(2)
    assert by_name["s~2"].pullback == 2 * S[2]
    assert by_name["r~1"] == r_branch(1)
    assert by_name["r~1"].pullback == 2 * R[1]


def test_char_p_catalog_entry():
    rows = negative_curve_catalog(3)
    assert len(rows) == 10
    name, qc, self_int = rows[-1]
    assert name == "C~3"
    assert qc == char_p_section(3)
    assert qc.pullback == 3 * C - R[0] - R[1] - R[2] - R[3]
    assert self_int == -2
    rows5 = negative_curve_catalog(5)
    assert rows5[-1][0] == "C~5" and rows5[-1][2] == -2


class _Index:
    """An integer-like value that is not an int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_validate_char_p():
    assert validate_char_p(None) is None
    for p in (3, 5, 7, 11, 13):
        assert validate_char_p(p) == p
    for bad in (2, 4, 9, 15, 1, 0, -3):
        with pytest.raises(DomainError):
            validate_char_p(bad)
    # only integers: no truncated float, no numeric string, no bool
    for bad in (7.5, 7.0, 7.9, "7", True, False, 3 + 0j):
        with pytest.raises(DomainError) as info:
            validate_char_p(bad)
        assert info.value.constraint == "char-p-config"
    checked = validate_char_p(_Index(7))
    assert checked == 7 and isinstance(checked, int)
    # an accepted p is returned as is
    assert validate_char_p(checked) is checked
    assert str(checked) == repr(checked) == "7"


def _is_odd_prime_by_trial_division(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


def _accepts(p: int) -> bool:
    try:
        return validate_char_p(p) == p
    except DomainError as exc:
        assert exc.constraint == "char-p-config"
        return False


def test_validate_char_p_matches_trial_division():
    for n in range(-2, 200_000):
        assert _accepts(n) == _is_odd_prime_by_trial_division(n), n


def test_validate_char_p_rejects_pseudoprimes():
    # Carmichael numbers and strong pseudoprimes to the leading bases
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not _accepts(n), n


def test_validate_char_p_accepts_large_primes():
    for p in (1000000000039, 2 ** 61 - 1):
        assert validate_char_p(p) == p


def test_validate_char_p_rejects_above_exact_bound():
    # psi_12, the least strong pseudoprime to the first 12 prime bases,
    # and a Mersenne prime beyond it: primality is not decided there
    for n in (318665857834031151167461, 2 ** 89 - 1):
        with pytest.raises(DomainError) as info:
            validate_char_p(n)
        assert info.value.constraint == "char-p-config"
        assert "decided exactly" in str(info.value)


# OEIS A014233: psi_k, the least odd composite that is a strong
# probable prime to each of the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong Fermat test to base a; written here from the
    definition, apart from osculant.catalog."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _twelve_base_verdict(n: int) -> bool:
    """Odd n >= 3 below psi_12: prime by trial division by the first 12
    primes and the strong test to all 12 of them."""
    if any(n % q == 0 for q in FIRST_PRIMES[:12]):
        return n in FIRST_PRIMES[:12]
    return all(_strong_probable_prime(n, a) for a in FIRST_PRIMES[:12])


# Jaeschke (Math. Comp. 61, 1993): shorter base sets, each exact below
# its bound, the least strong pseudoprime to all of its bases; with the
# bound's least prime factor
JAESCHKE = ((9080191, (31, 73), 2131),
            (4759123141, (2, 7, 61), 48781),
            (1122004669633, (2, 13, 23, 1662803), 611557))


def _psi_prefix(n: int) -> tuple[int, ...]:
    """The first k primes, k the least with n < psi_k."""
    return FIRST_PRIMES[:bisect_right(PSI, n) + 1]


def _largest_prime_below_bound() -> int:
    """The largest prime below psi_12, by this module's own verdict."""
    n = PSI[-1] - 2
    while not _twelve_base_verdict(n):
        n -= 2
    return n


def test_threshold_table_is_a014233():
    assert catalog._MR_BASES == FIRST_PRIMES[:12]
    assert catalog._MR_PSI == PSI
    assert catalog._MR_BOUND == PSI[-1]
    assert catalog._MR_SETS == tuple((bound, bases)
                                     for bound, bases, _ in JAESCHKE)


@pytest.mark.parametrize("k", range(1, 13))
def test_each_threshold_is_a_strong_pseudoprime(k):
    psi = PSI[k - 1]
    # composite: some base up to 41 witnesses it
    assert not all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES)
    # yet it passes the first k bases, so k bases cannot decide psi_k
    assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k])
    with pytest.raises(DomainError) as info:
        validate_char_p(psi)
    assert info.value.constraint == "char-p-config"


@pytest.mark.parametrize("bound,bases,factor", JAESCHKE,
                         ids=[str(b) for b, _, _ in JAESCHKE])
def test_each_set_bound_is_a_strong_pseudoprime_to_its_set(bound, bases,
                                                           factor):
    assert 1 < factor < bound and bound % factor == 0
    # so the set cannot decide its own bound, and its bases are all run
    assert all(_strong_probable_prime(bound, a) for a in bases)
    assert not _accepts(bound)


# _mr_bases below each psi_k: the prefix of k bases (fewer where psi_k
# repeats psi_(k-1)), or the shorter Jaeschke set whose bound covers
# psi_k - 1
BELOW_PSI = {1: (2,), 2: (2, 3), 3: (2, 3, 5), 4: (2, 7, 61),
             5: FIRST_PRIMES[:5], 6: FIRST_PRIMES[:6], 7: FIRST_PRIMES[:7],
             8: FIRST_PRIMES[:7], 9: FIRST_PRIMES[:9], 10: FIRST_PRIMES[:9],
             11: FIRST_PRIMES[:9], 12: FIRST_PRIMES[:12]}


@pytest.mark.parametrize("k", range(1, 13))
def test_prefix_has_k_bases_below_psi_k_and_more_at_it(k):
    psi = PSI[k - 1]
    below = catalog._mr_bases(psi - 1)
    assert below == BELOW_PSI[k]
    # below psi_k the prefix has k bases, exactly k where psi_(k-1) <
    # psi_k, and _mr_bases is never longer
    prefix = _psi_prefix(psi - 1)
    if k == 1 or PSI[k - 2] < psi:
        assert len(prefix) == k
    else:
        assert len(prefix) < k
    assert len(below) <= len(prefix)
    # psi_12 = _MR_BOUND is rejected before any base is chosen
    if k < 12:
        # at psi_k the prefix has more bases, and the set _mr_bases
        # picks there witnesses that psi_k is composite
        assert len(_psi_prefix(psi)) > k
        at = catalog._mr_bases(psi)
        assert not all(_strong_probable_prime(psi, a) for a in at)


_EDGES = sorted({*PSI, *(bound for bound, _, _ in JAESCHKE)})


@pytest.mark.parametrize("edge", _EDGES)
def test_bases_are_never_longer_than_the_psi_prefix(edge):
    rng = random.Random(edge)
    lower = max(e for e in [3] + _EDGES if e < edge)
    for n in [lower, edge - 1, *(rng.randrange(lower, edge) for _ in range(200))]:
        bases = catalog._mr_bases(n)
        assert len(bases) <= len(_psi_prefix(n)), n
        # the set is a prefix or a Jaeschke set whose bound covers n, and
        # every base is below n
        assert bases == _psi_prefix(n)[:len(bases)] or any(
            bases == group and n < bound for bound, group, _ in JAESCHKE), n
        assert max(bases) < n, n


# the bands between consecutive psi_k, and between consecutive edges of
# the table _mr_bases reads (the psi_k and the Jaeschke bounds)
_BANDS = sorted({*zip((3,) + PSI[:-1], PSI), *zip([3] + _EDGES[:-1], _EDGES)})


@pytest.mark.parametrize("lo,hi", [b for b in _BANDS if b[0] < b[1]])
def test_sized_test_matches_twelve_bases_in_each_band(lo, hi):
    rng = random.Random(lo)
    # odd n in [lo, hi - 2], the band's ends included
    draws = [rng.randrange(lo, hi - 1) | 1 for _ in range(1500)]
    for n in draws + [lo, hi - 2]:
        assert _accepts(n) == _twelve_base_verdict(n), n


def test_catalog_rows_are_shared_but_lists_are_fresh():
    first, second = negative_curve_catalog(), negative_curve_catalog()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.append(("extra", section_image(), -2))
    assert len(negative_curve_catalog()) == 9
    # C~p is built per call, for each p
    assert negative_curve_catalog(7)[-1][1] == char_p_section(7)


def test_direct_builders_match_basis_sums():
    assert section_image().pullback == C - S[0] - S[1] - S[2] - S[3]
    assert char_p_section(5).pullback == 5 * C - R[0] - R[1] - R[2] - R[3]
    es = ExceptionalSpec.from_alpha((2, 1, 0, 2))
    assert es.pullback() == 4 * C + F - S[1] - (2 * R[0] + R[1] + 2 * R[3])
    assert gamma_perp_class(4, 2, 1, (3, 2, 2, 2)) == (
        4 * C + 3 * F - S[0] - 3 * R[0] - 2 * R[1] - 2 * R[2] - 2 * R[3])


def test_fiber_component():
    s0 = fiber_component_class(0)
    assert s0 == F - S[0] - R[0]
    assert s0.self_intersection() == -2
    assert s0.dot(C) == 1
    assert arithmetic_genus(s0) == 0
    for i in range(4):
        e_i = tuple(int(j == i) for j in range(4))
        assert fiber_component_class(i) == F - S[i] - R[i] == (
            ExceptionalSpec.from_alpha(e_i).pullback())


def test_cover_class_template():
    d = gamma_perp_class(4, 2, 1, (3, 2, 2, 2))
    assert d == 4 * C + 3 * F - S[0] - 3 * R[0] - 2 * R[1] - 2 * R[2] - 2 * R[3]
    small = gamma_perp_class(2, 1, 1, (1, 0, 0, 2))
    assert small.self_intersection() == -2
    assert arithmetic_genus(small) == 1


def test_cover_class_validation():
    with pytest.raises(RhoEven):
        gamma_perp_class(3, 2, 2, (1, 1, 1, 1))
    with pytest.raises(RhoOutOfRange):
        gamma_perp_class(3, 2, 5, (1, 1, 1, 1))
    with pytest.raises(DomainError):
        gamma_perp_class(0, 2, 1, (1, 1, 1, 1))
    with pytest.raises(DomainError):
        gamma_perp_class(3, 2, 1, (1, 1, 1, -1))
    # n, d and rho are integers, not truncated
    for n, d, rho in ((4.5, 2, 1), (4, 2, 1.9), (4, 2.0, 1), (7.0, 2, 1),
                      (True, 2, 1), (4, True, 1), (4, 2, True), ("4", 2, 1)):
        with pytest.raises(DomainError) as info:
            gamma_perp_class(n, d, rho, (3, 2, 2, 2))
        assert info.value.constraint == "vec-integer"
    assert gamma_perp_class(_Index(4), _Index(2), _Index(1),
                            (3, 2, 2, 2)) == gamma_perp_class(4, 2, 1,
                                                              (3, 2, 2, 2))


@given(st.integers(1, 60))
def test_enumeration_monotone(max_sq):
    smaller = {e.alpha for e in enumerate_exceptional(max_sq)}
    larger = {e.alpha for e in enumerate_exceptional(max_sq + 2)}
    assert smaller <= larger


@given(st.tuples(*[st.integers(0, 6)] * 4))
def test_exceptional_defining_property(alpha):
    sq = sum(x * x for x in alpha)
    if sq % 2 == 0:
        with pytest.raises(ParityViolation):
            ExceptionalSpec.from_alpha(alpha)
        return
    es = ExceptionalSpec.from_alpha(alpha)
    assert 2 * es.a + 1 == sq
    assert (alpha[es.k] - alpha[(es.k + 1) % 4]) % 2 == 1
    qc = es.quotient_class()
    assert qc.self_intersection() == -1
    assert qc.dot(K_TILDE) == -1


# r~i, s~i and the fiber components take the index of a marked pair:
# an int in 0..3, never a negative tuple index, a bool or a float
@pytest.mark.parametrize("make,constraint", [
    (r_branch, "branch-index"), (s_branch, "branch-index"),
    (fiber_component_class, "fiber-index")],
    ids=["r_branch", "s_branch", "fiber_component_class"])
@pytest.mark.parametrize("bad,kind", [
    (-1, "range"), (-2, "range"), (7, "range"), (4, "range"),
    (True, "integer"), (2.0, "integer"), ("2", "integer")], ids=repr)
def test_pair_index_is_an_int_in_range(make, constraint, bad, kind):
    with pytest.raises(DomainError) as info:
        make(bad)
    assert info.value.constraint == (constraint if kind == "range"
                                     else "vec-integer")


def test_pair_index_accepts_index_integers():
    class Index:
        def __index__(self):
            return 2

    assert r_branch(Index()) == r_branch(2)
    assert s_branch(Index()).pullback == 2 * S[2]
    assert fiber_component_class(Index()) == F - S[2] - R[2]
