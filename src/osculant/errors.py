"""Exception hierarchy.

Every rejection of caller input derives from DomainError and carries a
stable ``constraint`` id naming the violated rule.  The ids double as the
``id`` field of validator check rows, so a failed check and the exception
raised by an eager constructor always agree on the name of the rule.
There is one exception class per constraint id: an id that has a class
below (DegreeTooSmall for ``degree-min``, RhoEven for ``rho-odd``, ...)
is raised only as that class, so catching the class and reading the id
agree; an id without one (``gamma-nonnegative``, ``k-index``, ...) is
raised as a plain DomainError.

Internal inconsistencies (a cross-check of two independently computed
values failing) are *not* domain errors; they signal a bug or an
untrustworthy result and map to a different process exit code in the
CLI.
"""

import copyreg


class DomainError(ValueError):
    """Caller input violates a documented constraint."""

    constraint = "domain"

    def __init__(self, message: str, *, constraint: str | None = None):
        super().__init__(message)
        if constraint is not None:
            self.constraint = constraint

    def __str__(self) -> str:
        return f"[{self.constraint}] {super().__str__()}"

    def __reduce__(self):
        # Rebuild without calling __init__, whose signature differs by
        # class (ExprError takes a position): args holds the message as
        # formatted, __dict__ the constraint and position set on the
        # instance.  So every class survives pickle, as the exception of
        # a job run in a forked child (jobs._run_jobs) must.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class OddPairing(DomainError):
    """A quotient pairing came out odd: some operand is not a genuine
    pullback from the quotient surface."""

    constraint = "even-pairing"


class ParityViolation(DomainError):
    constraint = "type-parity"


class CharPExcluded(DomainError):
    constraint = "char-p-bound"


class RhoEven(DomainError):
    constraint = "rho-odd"


class RhoOutOfRange(DomainError):
    constraint = "rho-range"


class NotDivisible(DomainError):
    constraint = "divisibility"


class NegativeGenus(DomainError):
    constraint = "genus-nonnegative"


class DegreeTooSmall(DomainError):
    constraint = "degree-min"


class RationalImageViolation(DomainError):
    constraint = "rational-image"


class NotNef(DomainError):
    constraint = "nef-required"


class AnticanonicalDegreeTooSmall(DomainError):
    constraint = "anticanonical-degree"


class ConstraintViolation(DomainError):
    constraint = "unramified-base"


class NoSolutions(DomainError):
    constraint = "no-solutions"


class ExprError(DomainError):
    """Base for expression parser rejections; ``position`` is the 0-based
    offset of the first offending character."""

    constraint = "expr-syntax"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprSyntaxError(ExprError):
    constraint = "expr-syntax"


class UnknownSymbol(ExprError):
    constraint = "expr-unknown-symbol"


class BareSectionSymbol(ExprError):
    """Co or So used outside an e*( ... ) pullback wrapper."""

    constraint = "expr-bare-section"


class InternalCheckFailure(AssertionError):
    """Two routes to the same value disagreed.  Not a user error."""


class IdentityFailure(InternalCheckFailure):
    """A construction-kit identity that must hold by construction failed."""
