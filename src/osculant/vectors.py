"""Small helpers for the length-4 integer vectors used everywhere.

A "type vector" gamma (and its relatives mu, eps, alpha) is a tuple of
four integers.  Only two aggregates of such a vector ever enter a
formula: the coordinate sum and the sum of squares.
"""

from operator import index

from .errors import DomainError, ParityViolation

Vec4 = tuple[int, int, int, int]


def _coord(x) -> int:
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise DomainError(f"non-integer coordinate {x!r}",
                      constraint="vec-integer")


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


def coord_sum(v) -> int:
    return sum(int(x) for x in v)


def norm_sq(v) -> int:
    return sum(int(x) * int(x) for x in v)


def minority_index(alpha) -> int:
    """Index of the coordinate whose parity disagrees with the other three.

    Defined exactly when the sum of squares is odd, i.e. when either one
    or three coordinates are odd.  Raises ParityViolation otherwise.
    """
    odd = [i for i, a in enumerate(alpha) if a & 1]
    if len(odd) == 1:
        return odd[0]
    if len(odd) == 3:
        return next(i for i in range(4) if i not in odd)
    raise ParityViolation(
        f"alpha={tuple(alpha)} has even square sum; no odd-one-out index"
    )


def fmt_vec(v) -> str:
    return "(" + ",".join(str(int(x)) for x in v) + ")"
