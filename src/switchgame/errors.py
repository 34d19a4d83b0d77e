"""Exception types shared across the package, and the parameter checks that
raise them from more than one module."""

import math

import numpy as np


class SwitchGameError(Exception):
    """Base class for all package-specific errors."""


class SizingError(SwitchGameError):
    """A requested computation exceeds a configured size or stability cap."""


class ConvergenceError(SwitchGameError):
    """An iterative scheme failed to converge within its iteration budget."""


class DataError(SwitchGameError):
    """Input data violates a structural requirement (shapes, domain membership)."""


class ScenarioError(DataError):
    """A scenario document is malformed or fails validation.

    Carries the full list of diagnostics, not just the first one, each
    naming the field it concerns.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _require_tolerance(name, tol):
    """DataError naming the parameter `name` unless tol is a finite number >= 0."""
    if not 0.0 <= tol < math.inf:
        raise DataError(f"{name} must be a finite nonnegative number; got {tol!r}")


def _require_count(name, value, least=1):
    """DataError naming the parameter `name` unless value is an integer of at
    least `least` (1 or 0): NumPy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise DataError(f"{name} must be a {kind} integer; got {value!r}")
