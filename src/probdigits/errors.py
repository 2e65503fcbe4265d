"""Exception hierarchy shared by all probdigits modules."""


class ProbDigitsError(Exception):
    """Base class for every error raised by this package."""


class BaseTooSmall(ProbDigitsError):
    """A probability vector needs at least two entries."""


class NonPositiveWeight(ProbDigitsError):
    """Probability vector entries must be strictly positive."""


class SumNotOne(ProbDigitsError):
    """Probability vector entries must sum to exactly 1."""


class DigitOutOfRange(ProbDigitsError):
    """A digit fell outside {0, ..., q-1}, or alphabets of two values disagree."""


class OutOfUnitInterval(ProbDigitsError):
    """The argument must lie in [0, 1]."""


class ShiftPastPrefix(ProbDigitsError):
    """Digit-form shift asked to drop more digits than the explicit prefix holds."""


class NotPRational(ProbDigitsError):
    """Jump analysis is only defined at points with two expansions."""


class EndpointOneSided(ProbDigitsError):
    """0 and 1 admit only a one-sided limit; evaluate the flip map there directly."""


class PrefixTooShort(ProbDigitsError):
    """The supplied digit prefix is shorter than the requested scan rank."""


class NotShiftInvariant(ProbDigitsError):
    """This operation needs a position-independent flip set (none or all)."""


class RankTooLarge(ProbDigitsError):
    """The rank's entropy-sum groups leave the float range."""


class BudgetExceeded(ProbDigitsError):
    """An enumeration would produce more items than the configured budget."""


class EmptyAlphabet(ProbDigitsError):
    """The block-set alphabet A0 minus {u} is empty (q = 2 with u = 1)."""


class FlipSpecError(ProbDigitsError, ValueError):
    """A textual flip-set spec could not be parsed; message points at the offending token."""


class InvalidArgument(ProbDigitsError, ValueError):
    """An argument lies outside its domain: a negative depth or offset, a rank below 1, a non-positive tolerance."""
