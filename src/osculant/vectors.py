"""Small helpers for the length-4 integer vectors used everywhere, and
the one owner of each rule on a caller's scalars, vectors and records.

A "type vector" gamma (and its relatives mu, eps, alpha) is a tuple of
four integers.  Only two aggregates of such a vector ever enter a
formula: the coordinate sum and the sum of squares.

Each rule below raises from one place: an integer (as_int, vec4), a
lower bound on a degree or count (at_least, always DegreeTooSmall), a
vector in N^4 (nonnegative), an index in 0..3 (index4) and the kind of
a record (of_kind, a TypeError).  A public function puts its scalars
through them first, then its vectors.
"""

from operator import index

from .errors import DegreeTooSmall, DomainError, ParityViolation

Vec4 = tuple[int, int, int, int]


def _coord(x, what: str = "coordinate") -> int:
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise DomainError(f"non-integer {what} {x!r}",
                      constraint="vec-integer")


def as_int(x, what: str) -> int:
    """One integer under the coordinate rule of vec4: anything with
    ``__index__`` becomes a Python int; a bool or a non-integer such as
    7.0 or '7' raises ``vec-integer``, naming ``what`` it was."""
    if type(x) is int:
        return x
    return _coord(x, what)


def at_least(x, least: int, what: str) -> int:
    """as_int, then x >= least, else DegreeTooSmall (degree-min): the
    lower bound of a degree n or d, or of a count such as n >= 2."""
    if type(x) is not int:
        x = _coord(x, what)
    if x < least:
        raise DegreeTooSmall(f"{what} must be >= {least}, got {x}")
    return x


def index4(i, what: str, constraint: str) -> int:
    """i as an int in 0..3, the index of a marked pair or a coordinate;
    ``constraint`` names the index."""
    i = as_int(i, what)
    if not 0 <= i <= 3:
        raise DomainError(f"{what} {i} out of range 0..3",
                          constraint=constraint)
    return i


def of_kind(x, kind: type):
    """x, when it is a ``kind``; else a TypeError naming both types, so
    a wrong kind of object never gets as far as an attribute read."""
    if not isinstance(x, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(x).__name__}")
    return x


def vec4(v) -> Vec4:
    """Coerce to a 4-tuple of Python ints, rejecting anything else.

    Integer-like values (anything with ``__index__``) are accepted; a
    bool or a non-integer such as 3.0 raises ``vec-integer``, a wrong
    length ``vec-length``.
    """
    t = tuple(v)
    if len(t) != 4:
        raise DomainError(f"expected 4 coordinates, got {len(t)}",
                          constraint="vec-length")
    if type(t[0]) is type(t[1]) is type(t[2]) is type(t[3]) is int:
        return t  # type: ignore[return-value]
    return tuple(map(_coord, t))  # type: ignore[return-value]


def nonnegative(v: Vec4, what: str) -> Vec4:
    """v, an int 4-tuple, checked to lie in N^4 (``<what>-nonnegative``,
    what one of gamma, alpha, mu).  Four compares cost less than min()
    on every spec built."""
    a, b, c, d = v
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise DomainError(f"{what} = {fmt_vec(v)} must be nonnegative",
                          constraint=f"{what}-nonnegative")
    return v


def coord_sum(v) -> int:
    a, b, c, d = v
    if not type(a) is type(b) is type(c) is type(d) is int:
        a, b, c, d = map(index, (a, b, c, d))
    return a + b + c + d


def norm_sq(v) -> int:
    a, b, c, d = v
    if not type(a) is type(b) is type(c) is type(d) is int:
        a, b, c, d = map(index, (a, b, c, d))
    return a * a + b * b + c * c + d * d


def minority_index(alpha) -> int:
    """Index of the coordinate whose parity disagrees with the other three.

    Defined exactly when the sum of squares is odd, i.e. when either one
    or three coordinates are odd.  Raises ParityViolation otherwise.
    """
    bits = [a & 1 for a in alpha]
    if bits.count(1) == 1:
        return bits.index(1)
    if bits.count(0) == 1:
        return bits.index(0)
    raise ParityViolation(
        f"alpha={tuple(alpha)} has even square sum; no odd-one-out index"
    )


def fmt_vec(v) -> str:
    return "(" + ",".join(str(int(x)) for x in v) + ")"
