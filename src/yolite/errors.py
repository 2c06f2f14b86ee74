"""Exception types shared across the package, and its one integer rule."""

import numbers


class YoliteError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(YoliteError):
    """A tensor or parameter bundle has an incompatible dimension.

    The message names the offending dimension so callers can tell *which*
    axis disagreed, not just that something did.
    """


class NonFiniteError(YoliteError):
    """An operation produced or was handed NaN/Inf values."""


class GraphError(YoliteError):
    """A network graph is malformed or failed shape inference.

    Carries the id of the node at fault when one is known.
    """

    def __init__(self, message: str, node_id: str | None = None):
        super().__init__(message if node_id is None else f"node '{node_id}': {message}")
        self.node_id = node_id


class WeightFileError(YoliteError):
    """Base class for weight-file load/save failures."""


class BadMagicError(WeightFileError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(WeightFileError):
    """The file declares a format version this build does not understand."""


class FingerprintMismatchError(WeightFileError):
    """The file was written for a different graph layout."""


class TruncatedFileError(WeightFileError):
    """The file ended before all declared data was read."""

    def __init__(self, message: str, layer_id: str | None = None):
        super().__init__(message if layer_id is None else f"{message} (while reading layer '{layer_id}')")
        self.layer_id = layer_id


class ArrayLengthError(WeightFileError):
    """A declared array length disagrees with the target graph."""


class ConfigError(YoliteError):
    """Invalid command-line or runtime configuration."""


class InputError(YoliteError):
    """An input file (image or raw tensor) is unreadable or ill-formed."""


def integer(value, what: str, error: type = ValueError) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer (``bool``
    excluded); otherwise raise ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)
