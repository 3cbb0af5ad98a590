"""Exception hierarchy.

``InputError`` subclasses indicate bad inputs or configuration (CLI exit
code 2); ``NumericalError`` subclasses indicate a numerical failure inside
an otherwise valid computation (CLI exit code 3).
"""

from numbers import Integral, Real


class CdpaError(Exception):
    """Base class for all package errors."""


class InputError(CdpaError):
    """Invalid input data, file, or configuration."""


class NumericalError(CdpaError):
    """Numerical failure during a computation."""


class DegenerateThreshold(NumericalError):
    """Denoising threshold denominator n*p - n*r - p*r is not positive."""


class RankTooLarge(InputError):
    """Requested rank exceeds min(n, p)."""


class ZeroSignal(NumericalError):
    """Signal estimate is identically zero."""


class TooFewSamples(InputError):
    """Not enough eigenvalues to calibrate the rank-selection threshold."""


class RankDeficiency(NumericalError):
    """A signal covariance is numerically rank deficient for the request."""


class ChannelRankDeficient(NumericalError):
    """Mixing channel does not have full column rank."""


class TooLarge(InputError):
    """Problem size exceeds the limit of an exhaustive method."""


class BadConfig(InputError):
    """Invalid configuration values."""


def check_count(value, name: str, error: type[InputError] = InputError) -> None:
    """Raise ``error`` unless ``value`` is an integer; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def check_real(value, name: str, error: type[InputError] = InputError) -> None:
    """Raise ``error`` unless ``value`` is a real number; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
