"""Exception hierarchy shared across the package.

Each class carries the command-line exit status it ends in: 2 for a
configuration error, 3 for an unsupported model, 4 (the default) for an
internal inconsistency, which counts as a failed check.
"""


class EllsurfError(Exception):
    """Base class for all library errors."""

    exit_status = 4


# field / places
class NotPrime(EllsurfError):
    pass


class CharTooSmall(EllsurfError):
    exit_status = 3


class NotIrreducible(EllsurfError):
    pass


class DivisionByZero(EllsurfError):
    pass


class PlaceBudgetExceeded(EllsurfError):
    exit_status = 3


# exact algebra
class InconsistentPowerSums(EllsurfError):
    pass


class NoConsistentSign(EllsurfError):
    pass


# fibers / surfaces
class NotMinimalizable(EllsurfError):
    pass


class GoodFiber(EllsurfError):
    pass


class EulerNotTwelveDivisible(EllsurfError):
    exit_status = 3


class UnsupportedModel(EllsurfError):
    exit_status = 3


class InconsistentFiberData(EllsurfError):
    pass


class InternalInconsistency(EllsurfError):
    """An identity that exact arithmetic guarantees did not hold."""


# global assembly
class InconsistentCounts(EllsurfError):
    pass


class TruncationInsufficient(EllsurfError):
    pass


class NonPolynomialTail(EllsurfError):
    pass


class NonPolynomial(EllsurfError):
    pass


# lattices
class DegeneratePairing(EllsurfError):
    pass


class NontrivialMW(EllsurfError):
    pass


# configuration
class ParseError(EllsurfError):
    exit_status = 2

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKey(ParseError):
    pass


class BadField(ParseError):
    pass
