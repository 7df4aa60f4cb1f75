"""Shared exception types, and the integer check that config validation shares."""

import numpy as np


def is_int(value) -> bool:
    """True for Python and numpy integers; bools and integral floats do not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
