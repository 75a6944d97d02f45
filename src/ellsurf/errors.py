"""Exception hierarchy shared across the package."""


class EllsurfError(Exception):
    """Base class for all library errors."""


# field / places
class NotPrime(EllsurfError):
    pass


class CharTooSmall(EllsurfError):
    pass


class NotIrreducible(EllsurfError):
    pass


class DivisionByZero(EllsurfError):
    pass


class PlaceBudgetExceeded(EllsurfError):
    pass


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
    pass


class UnsupportedModel(EllsurfError):
    pass


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


class ClosedFormMismatch(EllsurfError):
    pass


# lattices
class DegeneratePairing(EllsurfError):
    pass


class InfiniteHomology(EllsurfError):
    pass


class NotExact(EllsurfError):
    pass


class NotIsotropic(EllsurfError):
    pass


class IndexInfinite(EllsurfError):
    pass


class NontrivialMW(EllsurfError):
    pass


# configuration
class ParseError(EllsurfError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKey(ParseError):
    pass


class BadField(ParseError):
    pass
