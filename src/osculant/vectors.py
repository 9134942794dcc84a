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

Records are built here too: by the record decorator, whose generated
__init__ writes a frozen dataclass's slots and writes back what its
__post_init__ coerced; by unchecked, a builder without the checks
(lattice._make); and by new_row, for NamedTuple rows made once per spec,
which skip the generated __new__.  define is the package's one code
generator, and signed_terms its one writer of signed-term text.
"""

from collections.abc import Iterable
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
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


def record(cls: type) -> type:
    """Declare cls a frozen dataclass with slots=True and init=False,
    with an __init__ generated once from its fields.

    The __init__ takes the fields in field order, with their defaults,
    and writes each through its slot descriptor's __set__, bound into its
    namespace; then it calls self.__post_init__(), looked up at call
    time, where the class has one, and writes back each field it returns
    that is not the object passed: a value as_int or vec4 coerced.  The
    dataclass frozen __init__ makes one object.__setattr__ call per field
    instead, which costs about twice as much.  A class with its own
    __init__ raises TypeError.  The frozen guard raises
    FrozenInstanceError for every name; the dataclass one raises a bare
    TypeError on a name that is not a field (Python 3.11)."""
    if "__init__" in vars(cls):
        raise TypeError(f"{cls.__name__} is a record, whose __init__ is "
                        "generated from its fields")
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    space = {f"_default_{f.name}": f.default for f in fields(cls)
             if f.default is not MISSING}
    params = [f"{n}=_default_{n}" if f"_default_{n}" in space else n
              for n in names]
    body = [f"_put_{n}(self, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body += ["fixed = self.__post_init__()", "if fixed is not None:",
                 f"    {''.join(f'{n}_, ' for n in names)}= fixed",
                 *(f"    if {n}_ is not {n}: _put_{n}(self, {n}_)"
                   for n in names)]
    cls.__init__ = _method(cls, "__init__", ["self", *params], body, space)
    cls.__setattr__, cls.__delattr__ = _frozen_set, _frozen_del
    return cls


def unchecked(cls: type):
    """A builder of the record cls from its fields, in field order, that
    writes them as its __init__ does but runs no __post_init__."""
    names = [f.name for f in fields(cls)]
    body = ["self = _new(_cls)", *(f"_put_{n}(self, {n})" for n in names)]
    return _method(cls, "unchecked", names, [*body, "return self"],
                   {"_new": object.__new__, "_cls": cls})


def define(name: str, params: list, body: list, space: dict):
    """def name(params): body, one line per body item, run in space."""
    exec(f"def {name}({', '.join(params)}):"
         + "".join(f"\n    {line}" for line in body), space)
    return space[name]


def _method(cls: type, name: str, params: list, body: list, space: dict):
    """define, with _put_<f> = f's slot __set__, as a method of cls."""
    for f in fields(cls):
        space[f"_put_{f.name}"] = vars(cls)[f.name].__set__
    method = define(name, params, body, space)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


def _frozen_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# A NamedTuple row from the tuple of all its fields, in field order,
# without the generated __new__: about 0.2 us against 0.4 us with
# positional and 0.9 us with keyword arguments for an 11-field row.  It
# checks neither the count nor the order of the fields and fills in no
# default, so it is kept to the rows built once per spec.
new_row = tuple.__new__


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


def signed_terms(text: str, terms: Iterable[tuple[int, str]]) -> str:
    """text followed by each nonzero (coefficient, symbol) term, with a
    unary minus on a negative first term and a spaced + or - before the
    others; a unit coefficient is left implicit."""
    for coef, sym in terms:
        if coef:
            body = sym if coef == 1 or coef == -1 else f"{abs(coef)}*{sym}"
            if text:
                text += f" + {body}" if coef > 0 else f" - {body}"
            else:
                text = body if coef > 0 else f"-{body}"
    return text
