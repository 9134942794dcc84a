"""Rank-10 numerical divisor lattice of the blown-up ruled surface, and
the half-pairing calculus of its rational quotient.

The ambient surface is an eight-point blow-up of a ruled surface over an
elliptic curve.  Its numerical Picard group is free of rank 10 with basis

    C  : pullback of the zero section,
    F  : a ruling fiber,
    s0..s3, r0..r3 : the eight exceptional classes,

and intersection form

    C.C = 0,  C.F = 1,  F.F = 0,
    s_i.s_j = r_i.r_j = -delta_ij,
    every other pairing of basis elements = 0.

The canonical class is K = -2C + sum_i (s_i + r_i), of self-intersection
-8.  Adjunction reads g(D) = 1 + (D.D + D.K)/2 and the numerator is even
for every integer class, so arithmetic genus is exact integer arithmetic.

The surface carries an involution whose quotient is rational; numerical
classes downstairs are handled through their pullbacks.  The projection
formula makes the quotient pairing *half* the upstairs pairing of the
pullbacks, so a genuine pair of quotient classes always pairs evenly
upstairs.  QuotientClass performs that division and raises OddPairing
when it does not come out exact, which is the cheap certificate that an
operand was not actually a pullback.  The quotient canonical class
pulls back to -2C.

Classes are validated once, when DivisorClass(...) is called; the
arithmetic on them (+, -, unary -, integer multiples, dot) works on the
stored int tuples with the pairing written out term by term.  Both
classes are records (vectors.record), whose fields are slots: the
generated __init__ writes each one through its slot descriptor, and so
does _make, generated by vectors.unchecked, for the arithmetic's results.
"""

from .errors import InternalCheckFailure, OddPairing
from .vectors import Vec4, as_int, of_kind, record, unchecked, vec4


@record
class DivisorClass:
    """Integer class a*C + b*F - sum x_i s_i - sum y_i r_i ... except that
    the stored s/r coefficients are the plain basis coefficients, signs
    included.  DivisorClass(c=2, s=(1,0,0,0)) is 2C + s0.

    The constructor validates its coefficients once; the arithmetic
    below works on the stored int tuples and builds its results through
    the unchecked _make, since sums and multiples of valid classes are
    valid."""

    c: int = 0
    f: int = 0
    s: Vec4 = (0, 0, 0, 0)
    r: Vec4 = (0, 0, 0, 0)

    def __post_init__(self):
        return (as_int(self.c, "coefficient c"),
                as_int(self.f, "coefficient f"), vec4(self.s), vec4(self.r))

    # -- module structure ------------------------------------------------

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        s, t, r, u = self.s, other.s, self.r, other.r
        return _make(self.c + other.c, self.f + other.f,
                     (s[0] + t[0], s[1] + t[1], s[2] + t[2], s[3] + t[3]),
                     (r[0] + u[0], r[1] + u[1], r[2] + u[2], r[3] + u[3]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        s, t, r, u = self.s, other.s, self.r, other.r
        return _make(self.c - other.c, self.f - other.f,
                     (s[0] - t[0], s[1] - t[1], s[2] - t[2], s[3] - t[3]),
                     (r[0] - u[0], r[1] - u[1], r[2] - u[2], r[3] - u[3]))

    def __neg__(self) -> "DivisorClass":
        s, r = self.s, self.r
        return _make(-self.c, -self.f, (-s[0], -s[1], -s[2], -s[3]),
                     (-r[0], -r[1], -r[2], -r[3]))

    def __mul__(self, n: int) -> "DivisorClass":
        n = _scalar(n)
        if n is NotImplemented:
            return n
        s, r = self.s, self.r
        return _make(n * self.c, n * self.f,
                     (n * s[0], n * s[1], n * s[2], n * s[3]),
                     (n * r[0], n * r[1], n * r[2], n * r[3]))

    __rmul__ = __mul__

    # -- intersection theory ----------------------------------------------

    def dot(self, other: "DivisorClass") -> int:
        """Intersection number under the hyperbolic-plus-diagonal form."""
        s, t, r, u = self.s, other.s, self.r, other.r
        return (self.c * other.f + self.f * other.c
                - s[0] * t[0] - s[1] * t[1] - s[2] * t[2] - s[3] * t[3]
                - r[0] * u[0] - r[1] * u[1] - r[2] * u[2] - r[3] * u[3])

    def self_intersection(self) -> int:
        return self.dot(self)

    def genus(self) -> int:
        """Arithmetic genus by adjunction, 1 + (D.D + D.K)/2."""
        return 1 + _half(self.dot(self) + self.dot(K), self)

    def is_zero(self) -> bool:
        return self == ZERO

    def coefficients(self) -> tuple[int, ...]:
        return (self.c, self.f, *self.s, *self.r)


_make = unchecked(DivisorClass)


def _scalar(n) -> int:
    """The integer multiplier of a class, under the integer rule
    (vectors.as_int): an ``__index__`` value becomes its int and a bool
    raises ``vec-integer``.  NotImplemented for a value without
    ``__index__``, so that Python tries the other operand."""
    if not hasattr(type(n), "__index__"):
        return NotImplemented
    return as_int(n, "multiplier")


def _half(num: int, cls) -> int:
    """num // 2 for an adjunction numerator, which is even for every
    integer class; an odd one means the lattice arithmetic is broken."""
    if num % 2:
        raise InternalCheckFailure(f"adjunction numerator odd for {cls}")
    return num // 2


def _unit(i: int) -> Vec4:
    return tuple(1 if j == i else 0 for j in range(4))  # type: ignore[return-value]


ZERO = DivisorClass()
C = DivisorClass(c=1)
F = DivisorClass(f=1)
S = tuple(DivisorClass(s=_unit(i)) for i in range(4))
R = tuple(DivisorClass(r=_unit(i)) for i in range(4))


def canonical_class() -> DivisorClass:
    """K = -2C + s0+s1+s2+s3 + r0+r1+r2+r3, self-intersection -8."""
    return DivisorClass(c=-2, s=(1, 1, 1, 1), r=(1, 1, 1, 1))


K = canonical_class()
if K.dot(K) != -8:
    raise InternalCheckFailure(f"K.K = {K.dot(K)}, expected -8")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    return of_kind(a, DivisorClass).dot(of_kind(b, DivisorClass))


def arithmetic_genus(d: DivisorClass) -> int:
    return of_kind(d, DivisorClass).genus()


@record
class QuotientClass:
    """Numerical class on the rational quotient, stored by its pullback.

    Pairings divide the upstairs pairing of the pullbacks by two; an odd
    upstairs pairing means some operand was not a pullback and raises
    OddPairing.  The constructor checks only that the pullback is a
    DivisorClass (TypeError otherwise); whether it is a pullback is
    checked lazily, at pairing time, so classes can be assembled freely
    (sums and differences of pullbacks are again pullbacks, hence close
    under the arithmetic).
    """

    pullback: DivisorClass

    def __post_init__(self):
        of_kind(self.pullback, DivisorClass)

    def dot(self, other: "QuotientClass") -> int:
        up = self.pullback.dot(other.pullback)
        if up % 2:
            raise OddPairing(
                f"upstairs pairing {up} is odd; an operand is not a pullback"
            )
        return up // 2

    def self_intersection(self) -> int:
        return self.dot(self)

    def genus(self) -> int:
        """Arithmetic genus downstairs: 1 + (D.D + D.K)/2 with both
        pairings taken on the quotient."""
        return 1 + _half(self.dot(self) + self.dot(K_TILDE), self)

    def __add__(self, other: "QuotientClass") -> "QuotientClass":
        if not isinstance(other, QuotientClass):
            return NotImplemented
        return QuotientClass(self.pullback + other.pullback)

    def __sub__(self, other: "QuotientClass") -> "QuotientClass":
        if not isinstance(other, QuotientClass):
            return NotImplemented
        return QuotientClass(self.pullback - other.pullback)

    def __neg__(self) -> "QuotientClass":
        return QuotientClass(-self.pullback)

    def __mul__(self, n: int) -> "QuotientClass":
        n = _scalar(n)
        if n is NotImplemented:
            return n
        return QuotientClass(n * self.pullback)

    __rmul__ = __mul__


K_TILDE = QuotientClass(DivisorClass(c=-2))


def quotient_intersect(a: QuotientClass, b: QuotientClass) -> int:
    return of_kind(a, QuotientClass).dot(of_kind(b, QuotientClass))


def quotient_genus(a: QuotientClass) -> int:
    return of_kind(a, QuotientClass).genus()
