"""Shared exception types, mapped to CLI exit codes (1 = domain, 2 = resource)."""


class DomainError(ValueError):
    """Invalid argument or out-of-domain request."""


class ResourceLimitError(RuntimeError):
    """Enumeration or memory budget exceeded."""


class InsufficientDataError(DomainError):
    """Not enough data to evaluate (table-backed growth functions)."""


class ConvergenceError(RuntimeError):
    """A solver found no bracket, or a numerical identity check failed."""
