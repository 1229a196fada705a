"""Exception types shared across the toolkit."""

__all__ = [
    "ToolkitError",
    "ShapeError",
    "DomainError",
    "ParameterError",
    "CalibrationError",
    "PruningError",
    "CurveError",
    "NoOverlapError",
    "SimulationError",
    "ConfigError",
    "MissingInputError",
    "FormatError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "VersionMismatchError",
]


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ToolkitError):
    """Tensor or parameter extents do not line up."""


class DomainError(ToolkitError):
    """A numeric argument is outside the domain an operation supports."""


class ParameterError(ToolkitError):
    """Layer or kernel parameters violate a structural constraint."""


def integral_bits(value, name: str = "bit widths", least=None, most=None) -> int:
    """value as an int: integral numbers pass (8 and 8.0 alike); anything
    else, such as 8.5, "8", NaN or None, raises ParameterError naming
    what value was meant to be, and so does an integer below least or
    above most (a bound of None is open)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ParameterError(f"{name} must be integers; got {value!r}")
    if least is not None and n < least:
        raise ParameterError(f"{name} must be >= {least}; got {n}")
    if most is not None and n > most:
        raise ParameterError(f"{name} must be at most {most}; got {n}")
    return n


class CalibrationError(ToolkitError):
    """Calibration statistics are missing, empty, or inconsistent."""


class PruningError(ToolkitError):
    """A prune request cannot be satisfied without emptying a layer."""


class CurveError(ToolkitError):
    """A rate-distortion curve is unusable (too few points, bad ordering)."""


class NoOverlapError(ToolkitError):
    """Two rate-distortion curves share no common interval."""


class SimulationError(ToolkitError):
    """Scheduler input is inconsistent (partitioning, core counts)."""


class ConfigError(ToolkitError):
    """A run configuration failed schema validation."""


class MissingInputError(ToolkitError):
    """A referenced input file does not exist."""


class FormatError(ToolkitError):
    """Base class for serialization problems."""


class MalformedHeaderError(FormatError):
    """Container header bytes cannot be parsed."""


class TruncatedPayloadError(FormatError):
    """Payload section ends before its declared length."""


class VersionMismatchError(FormatError):
    """Container was written by an incompatible format version."""
