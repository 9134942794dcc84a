"""Lattice arithmetic: the pairing matrix, adjunction, and the quotient
half-pairing with its parity gate."""

import pytest
from hypothesis import given, strategies as st

from osculant import (
    C,
    F,
    K,
    K_TILDE,
    R,
    S,
    ZERO,
    DivisorClass,
    DomainError,
    OddPairing,
    QuotientClass,
    arithmetic_genus,
    canonical_class,
    intersect,
    quotient_genus,
    quotient_intersect,
)
from osculant.vectors import coord_sum, norm_sq, vec4

coef = st.integers(min_value=-50, max_value=50)
classes = st.builds(
    DivisorClass,
    c=coef, f=coef,
    s=st.tuples(coef, coef, coef, coef),
    r=st.tuples(coef, coef, coef, coef),
)


def test_basis_pairings():
    assert C.dot(C) == 0
    assert F.dot(F) == 0
    assert C.dot(F) == 1
    for i in range(4):
        assert S[i].dot(S[i]) == -1
        assert R[i].dot(R[i]) == -1
        assert C.dot(S[i]) == C.dot(R[i]) == 0
        assert F.dot(S[i]) == F.dot(R[i]) == 0
        assert S[i].dot(R[i]) == 0
        for j in range(4):
            if i != j:
                assert S[i].dot(S[j]) == 0
                assert R[i].dot(R[j]) == 0


def test_canonical_class():
    assert K == canonical_class()
    assert K.c == -2 and K.f == 0
    assert K.s == (1, 1, 1, 1) and K.r == (1, 1, 1, 1)
    assert K.dot(K) == -8


def test_cover_template_self_intersection():
    d = 4 * C + 3 * F - S[0] - 3 * R[0] - 2 * R[1] - 2 * R[2] - 2 * R[3]
    assert d.self_intersection() == 2
    assert intersect(d, d) == 2


def test_genus_of_named_curves():
    assert arithmetic_genus(C) == 1
    assert arithmetic_genus(F) == 0
    assert arithmetic_genus(F - S[0] - R[0]) == 0
    assert arithmetic_genus(K) == -7


def test_operator_algebra():
    d = 2 * C - F + S[1]
    assert d + ZERO == d
    assert d - d == ZERO
    assert -d + d == ZERO
    assert 3 * d == d + d + d
    assert d * 3 == 3 * d
    assert d.coefficients() == (2, -1, 0, 1, 0, 0, 0, 0, 0, 0)
    assert ZERO.is_zero() and not d.is_zero()


def test_quotient_half_pairing():
    co = QuotientClass(C - S[0] - S[1] - S[2] - S[3])
    assert co.self_intersection() == -2
    assert co.dot(K_TILDE) == 0
    assert quotient_genus(co) == 0
    s0 = QuotientClass(2 * S[0])
    assert quotient_intersect(co, s0) == 1


def test_quotient_rejects_odd_pairing():
    with pytest.raises(OddPairing):
        QuotientClass(C).dot(QuotientClass(F))
    with pytest.raises(OddPairing):
        QuotientClass(S[0]).self_intersection()


def test_quotient_canonical():
    assert K_TILDE.pullback == -2 * C
    assert K_TILDE.dot(K_TILDE) == 0


@pytest.mark.parametrize("bad", [7, None, (1, 0, 0, 0), K_TILDE])
def test_quotient_class_needs_a_divisor_class(bad):
    # a wrong kind is refused when the class is built, not later as an
    # AttributeError from the pairing
    for use in (lambda: QuotientClass(bad),
                lambda: 2 * QuotientClass(bad),
                lambda: quotient_intersect(QuotientClass(bad), K_TILDE),
                lambda: quotient_genus(QuotientClass(bad))):
        with pytest.raises(TypeError, match="expected a DivisorClass"):
            use()


@given(classes, classes)
def test_pairing_symmetry(a, b):
    assert a.dot(b) == b.dot(a)


@given(classes, classes, classes, st.integers(-9, 9))
def test_pairing_bilinearity(a, b, c, t):
    assert (a + t * b).dot(c) == a.dot(c) + t * b.dot(c)


@given(classes)
def test_adjunction_parity(d):
    # D.D + D.K is always even, so the genus is an integer
    assert (d.dot(d) + d.dot(K)) % 2 == 0
    assert isinstance(arithmetic_genus(d), int)


@given(classes)
def test_doubled_class_has_even_pairings(d):
    q = QuotientClass(2 * d)
    assert q.self_intersection() == 2 * d.dot(d)


def _rebuilt(d):
    """The same coefficients through the validating constructor."""
    return DivisorClass(d.c, d.f, d.s, d.r)


@given(classes, classes, st.integers(-9, 9))
def test_arithmetic_matches_validated_construction(a, b, t):
    for result in (a + b, a - b, -a, t * a, a * t):
        assert result == _rebuilt(result)
        assert hash(result) == hash(_rebuilt(result))
        assert all(type(x) is int for x in result.coefficients())
    assert (a + b).coefficients() == tuple(
        x + y for x, y in zip(a.coefficients(), b.coefficients()))
    assert (t * a).coefficients() == tuple(t * x for x in a.coefficients())


@given(classes, classes)
def test_dot_matches_gram_matrix(a, b):
    gram = [[0] * 10 for _ in range(10)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, 10):
        gram[i][i] = -1
    x, y = a.coefficients(), b.coefficients()
    assert a.dot(b) == sum(x[i] * gram[i][j] * y[j]
                           for i in range(10) for j in range(10))


def test_vec4_rejects_wrong_length():
    for bad in ((1, 2, 3), (1, 2, 3, 4, 5), ()):
        with pytest.raises(DomainError) as info:
            vec4(bad)
        assert info.value.constraint == "vec-length"
    with pytest.raises(DomainError) as info:
        DivisorClass(s=(1, 2, 3))
    assert info.value.constraint == "vec-length"


def test_vec4_rejects_bool():
    with pytest.raises(DomainError) as info:
        vec4((1, True, 0, 0))
    assert info.value.constraint == "vec-integer"


def test_vec4_rejects_non_integer():
    for bad in ((3.0, 0, 0, 0), (0, 0, 0, 0.5), (0, "1", 0, 0)):
        with pytest.raises(DomainError) as info:
            vec4(bad)
        assert info.value.constraint == "vec-integer"
    with pytest.raises(DomainError) as info:
        DivisorClass(r=(1, 2, 3.0, 4))
    assert info.value.constraint == "vec-integer"


class _Index:
    """An integer-like value that is not an int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_divisor_class_scalars_must_be_integers():
    for kwargs in ({"c": 7.0}, {"f": 2.5}, {"c": True}, {"f": False},
                   {"c": "1"}):
        with pytest.raises(DomainError) as info:
            DivisorClass(**kwargs)
        assert info.value.constraint == "vec-integer"
    cls = DivisorClass(c=_Index(2), f=_Index(-3))
    assert cls == DivisorClass(c=2, f=-3)
    assert type(cls.c) is int and type(cls.f) is int


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=4, max_size=4),
       st.sampled_from([tuple, list, lambda v: tuple(map(_Index, v))]))
def test_coord_sum_and_norm_sq_match_the_sum_form(v, form):
    assert coord_sum(form(v)) == sum(v)
    assert norm_sq(form(v)) == sum(x * x for x in v)


# a class times a scalar, in both operand orders
PRODUCTS = {
    "DivisorClass*n": lambda n: C * n,
    "n*DivisorClass": lambda n: n * C,
    "QuotientClass*n": lambda n: K_TILDE * n,
    "n*QuotientClass": lambda n: n * K_TILDE,
}


@pytest.mark.parametrize("bad", [True, False], ids=repr)
@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_class_multiplier_rejects_a_bool(product, bad):
    # C * True was C and K_TILDE * False was zero
    with pytest.raises(DomainError) as info:
        PRODUCTS[product](bad)
    assert info.value.constraint == "vec-integer"


@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_class_multiplier_takes_an_index_integer(product):
    # the constructor takes an __index__ value, so the multiplier does too
    result = PRODUCTS[product](_Index(3))
    assert result == PRODUCTS[product](3)
    assert all(type(x) is int for x in getattr(result, "pullback",
                                               result).coefficients())


@pytest.mark.parametrize("bad", [2.0, "2", None, 1.5j], ids=repr)
@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_class_multiplier_without_index_is_not_implemented(product, bad):
    # NotImplemented from both operands: Python raises the TypeError
    with pytest.raises(TypeError):
        PRODUCTS[product](bad)
    assert C.__mul__(bad) is NotImplemented
    assert K_TILDE.__mul__(bad) is NotImplemented


class _Right:
    """A right-hand operand that takes + and - from any left operand."""

    def __radd__(self, left):
        return ("radd", left)

    def __rsub__(self, left):
        return ("rsub", left)


SUMS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b}


@pytest.mark.parametrize("op", sorted(SUMS))
@pytest.mark.parametrize("left, other", [(DivisorClass(), K_TILDE),
                                         (QuotientClass(C), C)],
                         ids=["DivisorClass", "QuotientClass"])
def test_class_sum_with_another_type_is_not_implemented(left, other, op):
    # NotImplemented from both operands: Python raises the TypeError
    for bad in (1, other):
        with pytest.raises(TypeError):
            SUMS[op](left, bad)
    # else Python hands the sum to the right operand's reflected method
    assert SUMS[op](left, _Right()) == (
        "radd" if op == "+" else "rsub", left)
