"""Shared exception types, and the two rules shared across modules: ``at_least`` and ``allocating``."""

from contextlib import contextmanager


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Input values are outside the operation's domain (empty cloud, k > n, ...)."""


class ContractError(RuntimeError):
    """An API contract was violated (non-scalar loss, mismatched grids, ...)."""


class ConfigError(ValueError):
    """Invalid or contradictory configuration."""


class NumericalAbort(RuntimeError):
    """Training hit a non-finite value and was aborted."""


def at_least(checks) -> None:
    """Raise ConfigError for the first ``(name, value, low)`` with value < low."""
    for name, value, low in checks:
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


@contextmanager
def allocating(message: str):
    """Turn an allocation that does not fit into ConfigError(message)."""
    try:
        yield
    except (MemoryError, ValueError):  # numpy raises ValueError past 2**63 bytes
        raise ConfigError(message) from None
