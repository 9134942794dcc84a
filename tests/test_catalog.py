"""Negative-curve catalog: exceptional classes, the fixed (-2)-list,
fiber components, and the cover-class template."""

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


def test_enumeration_is_lexicographic_and_filtered():
    alphas = [e.alpha for e in enumerate_exceptional(30)]
    assert alphas == sorted(alphas)
    assert all(sum(x * x for x in a) % 2 == 1 for a in alphas)
    capped = [e.alpha for e in enumerate_exceptional(30, p=3)]
    assert capped == [a for a in alphas if sum(a) <= 3]


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
