"""Exception taxonomy shared by all analysis modules.

Each class carries the exit code of the ``multiscale`` command, by family:
:class:`InputError` (3, bad input data), :class:`NumericError` (4, a numeric
failure on valid input) and every other :class:`MultiscaleError` (2, a bad
argument, config value or flag).
"""


class MultiscaleError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InputError(MultiscaleError):
    """Input data that the operation cannot use."""

    exit_code = 3


class NumericError(MultiscaleError):
    """A numeric failure on input that passed validation."""

    exit_code = 4


class InvalidParameter(MultiscaleError):
    """A parameter violates an operation's precondition."""


class TooShort(InputError):
    """Input series is too short for the requested operation."""


class Malformed(InputError):
    """Input stream contains a cell that does not parse as a number."""


class NonUniformSampling(InputError):
    """Two-column CSV time stamps are not uniformly spaced."""


class Aliased(MultiscaleError):
    """Requested oscillation frequency is at or above Nyquist."""


class TooFewScales(MultiscaleError):
    """Fewer window sizes / scales than the estimator needs."""


class DegenerateWindow(NumericError):
    """A rescaled-range window has zero standard deviation."""


class NonPositiveVariance(NumericError):
    """An MFDFA segment has zero detrended variance."""


class InsufficientBand(NumericError):
    """Too few spectral bins inside the requested fit band."""


class ZeroPower(NumericError):
    """A selected spectral bin has non-positive power."""


class GridTooCoarse(MultiscaleError):
    """Scale grid extends beyond a quarter of the record length."""


class EmptyCOI(NumericError):
    """No cone-of-influence interior points at some scale."""


class EmptyBand(NumericError):
    """Scale band does not intersect the scalogram grid."""


class ScaleOutOfRange(MultiscaleError):
    """Requested analysis scale falls outside the valid range."""


class LengthMismatch(InputError):
    """Two series that must align have different lengths."""


class ScaleMismatch(InputError):
    """Two phase series were extracted at different scales."""


class BadOrder(MultiscaleError):
    """Daubechies order outside the supported 1..10 range."""
