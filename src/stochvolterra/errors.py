"""Exception types shared across the package."""

__all__ = [
    "StochVolterraError",
    "DimensionMismatch",
    "GridMismatch",
    "KernelDomainError",
    "SmoothnessError",
    "NumericalFailure",
    "ConfigError",
]


class StochVolterraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(StochVolterraError, ValueError):
    """Operands have incompatible dimensions.

    Carries the offending shapes so callers can report both sides.
    """

    def __init__(self, message, *shapes):
        if shapes:
            message = f"{message}: " + " vs ".join(str(s) for s in shapes)
        super().__init__(message)
        self.shapes = shapes


class GridMismatch(StochVolterraError, ValueError):
    """Two objects were built on different time grids."""


class KernelDomainError(StochVolterraError, ValueError):
    """A kernel was evaluated outside its domain (e.g. a singular kernel at t = 0)."""


class SmoothnessError(StochVolterraError, ValueError):
    """An operation requires a time derivative the kernel does not provide."""


class NumericalFailure(StochVolterraError, ArithmeticError):
    """A computation failed numerically (singular step matrix, overflow, ...)."""


class ConfigError(StochVolterraError, ValueError):
    """An experiment configuration failed validation."""
