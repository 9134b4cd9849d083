class PreconditionError(ValueError):
    """An operation was called on input that violates its contract."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, never a fault in the input."""
