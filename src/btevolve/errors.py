"""Shared exception types, and the value checks every module shares: `is_int`,
`is_finite_real` and `check_count`, so each rule and its message are written once."""

import math
import numbers

import numpy as np


def is_int(value) -> bool:
    """True for Python and numpy integers; bools and integral floats do not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number that fits a float; bools do not count."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_count(name: str, value, low: int) -> None:
    """Raise ConfigError unless `value` is an integer of at least `low`."""
    if not is_int(value) or value < low:
        raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")


class ConfigError(ValueError):
    """Invalid configuration or rejected operation input."""


class BackendError(RuntimeError):
    """A completion backend failed after exhausting its transport retries."""


class PairingError(RuntimeError):
    """No valid pairing was found within the restart budget."""


class JudgeParseError(ValueError):
    """A judge reply did not contain a usable verdict object."""


class ReplayError(ValueError):
    """A run trace could not be replayed."""
