"""Exception types shared across the toolkit, and the argument checks that
raise them, here because every module imports this one: _number, _positive
and _integer for scalars, _floats, the package's one array conversion, and
_vector, its one array check."""

from __future__ import annotations

import math

import numpy as np


class ToolError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolError, ValueError):
    """Invalid input data, configuration, or parameters."""


class GridError(ValidationError):
    """Grid cannot be constructed from the given node count."""


class DimensionError(ValidationError):
    """Vector length does not match the grid or parameter dimension."""


class DomainError(ValidationError):
    """Argument lies outside the admissible domain of an operation."""


class InfeasibleError(ValidationError):
    """A point violates feasibility beyond the permitted tolerance."""


class ConvergenceError(ToolError, RuntimeError):
    """An iterative solver failed to reach its exit criterion.

    Carries the best iterate seen so far and its residuals so callers can
    inspect partial results instead of losing the run.
    """

    def __init__(self, message: str, best=None, residuals: dict | None = None):
        super().__init__(message)
        self.best = best
        self.residuals = dict(residuals) if residuals else {}


class InsufficientPathError(ToolError):
    """A relaxation path does not contain enough successful iterates."""


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _positive(value, name: str, upper: float = math.inf) -> float:
    """value as a float in (0, upper); DomainError names the argument if it is not."""
    value = _number(value, name)
    if not 0.0 < value < upper:
        bound = "finite" if upper == math.inf else f"below {upper:g}"
        raise DomainError(f"{name} must be positive and {bound}, got {value}")
    return value


def _integer(value, name: str, low: int | None = None) -> int:
    """value as an int of at least low; DomainError names the argument if it is below."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be at least {low}, got {value}")
    return int(value)


def _floats(value, name: str) -> np.ndarray:
    """value as a float array; ValidationError names the argument if it is not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not an array of numbers") from None


def _vector(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape: _floats' ValidationError if
    it is not numeric, DimensionError naming the argument if its shape differs."""
    value = _floats(value, name)
    if value.shape != shape:
        raise DimensionError(f"{name} has shape {value.shape}, expected {shape}")
    return value
