"""Exception taxonomy shared by all analysis modules.

Each class carries the exit code of the ``multiscale`` command, by family:
:class:`InvalidParameter` (2, a bad argument, config value or flag),
:class:`InputError` (3, bad input data) and :class:`NumericError` (4, a
numeric failure on valid input). The message tells the raise sites apart.
"""


class MultiscaleError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvalidParameter(MultiscaleError):
    """A bad argument, config value or flag."""


class InputError(MultiscaleError):
    """Input data that the operation cannot use."""

    exit_code = 3


class NumericError(MultiscaleError):
    """A numeric failure on input that passed validation."""

    exit_code = 4
