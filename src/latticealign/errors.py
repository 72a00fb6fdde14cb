"""Shared exception types and the type tests of configuration values."""

import math
import numbers


def is_integer(val) -> bool:
    """Whether val is an integer, numpy integers included and bools not."""
    return not isinstance(val, bool) and isinstance(val, numbers.Integral)


def is_finite_real(val) -> bool:
    """Whether val is a finite real number, numpy floats included and bools not."""
    return not isinstance(val, bool) and isinstance(val, numbers.Real) and math.isfinite(val)


class ConfigurationError(ValueError):
    """Raised when dimensions, grids or option values are inconsistent."""


class NonConvergenceError(RuntimeError):
    """Raised when a robust filter fit exhausts its Newton iteration budget.

    Carries every fitted filter in ``best`` and, in ``failed``, a boolean per
    fitted row of ``best`` that is True where that fit hit the cap.  The
    receive-side block catches it and returns the message as the design's
    error instead.
    """

    def __init__(self, message, best=None, failed=None):
        super().__init__(message)
        self.best = best
        self.failed = failed


class PowerBudgetError(RuntimeError):
    """Raised when a finished design spends more than a user's power budget."""

    def __init__(self, user, power, budget):
        super().__init__(f"user {user} transmits power {power!r}, over its budget {budget!r}")
        self.user = user
        self.power = power
        self.budget = budget
