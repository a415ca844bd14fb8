"""Exception taxonomy shared by all analysis modules."""


class MultiscaleError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(MultiscaleError):
    """A parameter violates an operation's precondition."""


class TooShort(MultiscaleError):
    """Input series is too short for the requested operation."""


class Malformed(MultiscaleError):
    """Input stream contains a cell that does not parse as a number."""


class NonUniformSampling(MultiscaleError):
    """Two-column CSV time stamps are not uniformly spaced."""


class Aliased(MultiscaleError):
    """Requested oscillation frequency is at or above Nyquist."""


class TooFewScales(MultiscaleError):
    """Fewer window sizes / scales than the estimator needs."""


class DegenerateWindow(MultiscaleError):
    """A rescaled-range window has zero standard deviation."""


class NonPositiveVariance(MultiscaleError):
    """An MFDFA segment has zero detrended variance."""


class InsufficientBand(MultiscaleError):
    """Too few spectral bins inside the requested fit band."""


class ZeroPower(MultiscaleError):
    """A selected spectral bin has non-positive power."""


class GridTooCoarse(MultiscaleError):
    """Scale grid extends beyond a quarter of the record length."""


class EmptyCOI(MultiscaleError):
    """No cone-of-influence interior points at some scale."""


class EmptyBand(MultiscaleError):
    """Scale band does not intersect the scalogram grid."""


class ScaleOutOfRange(MultiscaleError):
    """Requested analysis scale falls outside the valid range."""


class LengthMismatch(MultiscaleError):
    """Two series that must align have different lengths."""


class ScaleMismatch(MultiscaleError):
    """Two phase series were extracted at different scales."""


class BadOrder(MultiscaleError):
    """Daubechies order outside the supported 1..10 range."""
