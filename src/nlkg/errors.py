"""Exception types shared across the package."""

__all__ = ["CorruptionError", "DomainError", "StagnationError"]


class CorruptionError(ValueError):
    """A field contains NaN/Inf, or a binary snapshot failed validation."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class StagnationError(RuntimeError):
    """Bubble extraction failed to decrease the tracked residual norm."""
