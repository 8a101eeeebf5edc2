"""Exception types shared across the package.

Validation errors carry every offending item they found, not just the first,
so callers can report all problems at once.
"""

from __future__ import annotations


class TrellisKitError(Exception):
    pass


class PreconditionError(TrellisKitError):
    """Base for inputs a computation does not apply to (no bounds, no
    trellis, a carrier over the cap, arguments that do not fit it); the
    CLI reports them with exit code 4."""


class ValidationError(TrellisKitError):
    """Base for structural validation failures; `violations` lists offenders."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class NotReflexive(ValidationError):
    pass


class NotAntisymmetric(ValidationError):
    pass


class DuplicateName(ValidationError):
    pass


class EmptySubset(PreconditionError):
    pass


class ElementNotInSubset(PreconditionError):
    pass


class NoTop(PreconditionError):
    pass


class NotBounded(PreconditionError):
    pass


class NotATrellis(PreconditionError):
    """Some pair has no meet or no join; `pair` is the first offender."""

    def __init__(self, message, pair=None, kind=None):
        super().__init__(message)
        self.pair = pair
        self.kind = kind  # "meet" or "join"


class AxiomsFailed(TrellisKitError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotModular(TrellisKitError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotACoAtom(PreconditionError):
    pass


class NotAnInteriorOperator(PreconditionError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BottomMissing(PreconditionError):
    pass


class PreconditionViolated(PreconditionError):
    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class NotRightTransitiveSubset(PreconditionViolated):
    pass


class RangeNotRightTransitive(PreconditionViolated):
    pass


class VNotATnorm(PreconditionError):
    """The supplied binary operation fails the gate for interior-based
    construction: it must be commutative, associative, increasing and
    bounded above by the meet on the restricted carrier."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotASubLattice(PreconditionError):
    pass


class TargetMismatch(TrellisKitError):
    pass


class CarrierTooLarge(PreconditionError):
    pass


class LimitReached(TrellisKitError):
    """Enumeration hit the requested limit; `result` holds the partial
    enumeration with `complete=False`."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ParseError(TrellisKitError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
