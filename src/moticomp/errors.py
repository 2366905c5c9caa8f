"""Exception types shared across the package, and the config bound checks."""

import math
import numbers


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class ConfigError(ValueError):
    """Invalid configuration value."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf or diverged."""


class ParseError(ValueError):
    """A file could not be parsed; message cites the offending line."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable, truncated, or version-incompatible."""


class ManifestError(ValueError):
    """Dataset manifest is inconsistent (e.g. overlapping split seeds)."""


def finite(value) -> bool:
    """Whether a number is finite as a float; an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_positive_finite(config, *keys: str, zero_ok: bool = False) -> None:
    """Raise ConfigError naming the first of keys whose value in config is not
    finite and > 0 (>= 0 with zero_ok, for a weight 0 turns off); NaN, inf and
    an int too large for a float fail."""
    for key in keys:
        value = getattr(config, key)
        if not (finite(value) and value >= 0 and (zero_ok or value != 0)):
            raise ConfigError(f"{key} must be finite and {'>=' if zero_ok else '>'} 0, "
                              f"got {value}")


def require_sizes(key: str, values) -> None:
    """Raise ConfigError naming key unless each of values is an integer
    (Python or numpy) >= 1."""
    values = list(values)
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise ConfigError(f"{key} entries must be integers, got {values}")
    if any(v < 1 for v in values):
        raise ConfigError(f"{key} entries must be >= 1, got {values}")


def require_at_least(config, low: int, *keys: str, error: type = ConfigError) -> None:
    """Raise error naming the first of keys whose value in config is not an
    integer (Python or numpy) or is below low; a key holding None, an optional
    left unset, passes."""
    for key in keys:
        value = getattr(config, key)
        if value is not None and not isinstance(value, numbers.Integral):
            raise error(f"{key} must be an integer, got {value!r}")
        if value is not None and value < low:
            raise error(f"{key} must be >= {low}, got {value}")
