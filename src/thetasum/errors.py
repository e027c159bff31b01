"""Exception types shared across the package."""


class ThetaSumError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ThetaSumError):
    """An argument lies outside an operation's domain."""


class PoleError(ThetaSumError):
    """Evaluation was requested at (or indistinguishably close to) a pole."""


class EvenExponentError(ThetaSumError):
    """The exponent is an even integer; the generic expansion does not apply.

    Callers must switch to the even-exponent transformation, whose
    algebraic part terminates and which carries the exponential tail.
    """


class MismatchError(ThetaSumError):
    """The exponent does not match the integer form required by a method."""


class ConvergenceError(ThetaSumError):
    """Direct summation cannot reach the requested tolerance.

    Raised when the Gaussian damping is so weak that the term cutoff
    would exceed the iteration budget; the expansions are the intended
    tool in that regime.
    """


class PrecisionError(ThetaSumError):
    """The requested quantity sits below the binary64 noise floor."""
