"""Exception types shared across the package.

Every error raised by the library derives from :class:`SliceKitError` so
callers can trap the whole family with a single except clause.  The CLI maps
:class:`ConfigError` to exit code 2 and every other error, raised once a run
is under way (such as :class:`AssumptionViolated` or
:class:`InfeasibleWeights`), to exit code 4, as it does an ``OSError`` from
writing the outputs.  Exit code 3 is a certification verdict of "not
certified" (which is a result, not an error).
"""

from __future__ import annotations

__all__ = [
    "SliceKitError",
    "NegativeEntry",
    "DimensionMismatch",
    "AssumptionViolated",
    "InvalidIndex",
    "InvalidLength",
    "InvalidSubset",
    "MeaninglessBound",
    "InfeasibleWeights",
    "ConfigError",
]


class SliceKitError(Exception):
    """Base class for all library errors."""


class NegativeEntry(SliceKitError):
    """A matrix or row contains an entry below -tol."""


class DimensionMismatch(SliceKitError):
    """Operands have incompatible shapes."""


class AssumptionViolated(SliceKitError):
    """A matrix holds NaN or infinity, or an update failed validation
    while the engine runs strict."""


class InvalidIndex(SliceKitError):
    """An update-position index is outside the valid range for its slice."""


class InvalidLength(SliceKitError):
    """A slice length below 1 was supplied."""


class InvalidSubset(SliceKitError):
    """A slice-index subset refers to indices outside the sample."""


class MeaninglessBound(SliceKitError):
    """The requested length cap is undefined because the row-sum cap is not
    below the available contraction budget at this index."""


class InfeasibleWeights(SliceKitError):
    """A neighborhood is too large (or too demanding) for the weight floors
    to be satisfiable."""


class ConfigError(SliceKitError):
    """An experiment configuration file is missing, malformed, or
    inconsistent."""
