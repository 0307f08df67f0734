"""Exception types shared across the package."""


class PolydegenError(Exception):
    """Base class for every error raised by this package."""


class ArityMismatch(PolydegenError, ValueError):
    """Operands live over polynomial rings in different numbers of variables."""


class PoleAtZero(PolydegenError, ArithmeticError):
    """Evaluation at t = 0 hit a negative power of t."""


class NonUnit(PolydegenError, ValueError):
    """An inverse was requested for a coefficient that is not a unit."""


class NotTriangular(PolydegenError, ValueError):
    """An operation that needs a triangular map received something else."""


class KernelViolation(PolydegenError, ValueError):
    """A polynomial that must be killed by the derivation is not."""


class HypothesisViolation(PolydegenError, ValueError):
    """Input data does not satisfy the hypotheses of the requested test."""


class CheckFailed(PolydegenError, RuntimeError):
    """A document about to be emitted failed one of its own identities."""


class ParseError(PolydegenError, ValueError):
    """Malformed polynomial, rational, or document text."""


class CoefficientTooLong(PolydegenError, ValueError):
    """A coefficient has more digits than ``str()`` prints (``sys.get_int_max_str_digits()``)."""


class ExponentOverflow(PolydegenError, OverflowError):
    """A variable exponent is too large for the packed term representation."""
