"""Exception types shared across the package."""


class ThetaSumError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ThetaSumError):
    """An argument lies outside an operation's domain.

    This covers an exponent that the chosen route does not take: an even
    integer w on the generic route, a w that is not 2m on the even
    transformation, and a nonzero w on the classical identity.
    """


class PoleError(ThetaSumError):
    """Evaluation was requested at (or indistinguishably close to) a pole."""


class ConvergenceError(ThetaSumError):
    """Direct summation cannot reach the requested tolerance.

    Raised when the Gaussian damping is so weak that the term cutoff
    would exceed the iteration budget; the expansions are the intended
    tool in that regime.
    """


class PrecisionError(ThetaSumError):
    """The result cannot be carried in binary64.

    Mostly an overflow: a series sum, m!, 2^(2m), n^w or an error
    estimate that is not finite.  Also an underflow that leaves the
    transformation dividing by zero, and a remainder that sits below the
    binary64 noise floor.
    """
