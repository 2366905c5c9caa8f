"""Exception types shared across the package, and the config bound checks."""

import math
import numbers
import sys


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


def require_at_least(config, low: int, *keys: str, error: type = ConfigError,
                     high: int | None = sys.maxsize) -> None:
    """Raise error naming the first of keys whose value in config, or any entry
    of a tuple or list value, is not an integer (Python or numpy; a bool is
    not one), is below low, or is above high: by default sys.maxsize, the
    largest size or index numpy holds (a seed passes high=None); a key holding
    None, an optional left unset, passes."""
    for key in keys:
        value = getattr(config, key)
        if value is None:
            continue
        entries = ([(f"{key}[{i}]", v) for i, v in enumerate(value)]
                   if isinstance(value, (tuple, list)) else [(key, value)])
        for name, v in entries:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise error(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise error(f"{name} must be >= {low}, got {v}")
            if high is not None and v > high:
                raise error(f"{name} must be <= {high}, got {v}")
