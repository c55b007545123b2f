"""Exception taxonomy shared across the package."""


class SpecLabError(Exception):
    """Base class for all speclab errors."""


class DomainError(SpecLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(SpecLabError, ArithmeticError):
    """An iteration failed to converge or a result would be numerically unsafe."""


class ResourceLimitError(SpecLabError, RuntimeError):
    """A request exceeds a documented size or runtime cap."""


class ConfigError(SpecLabError, ValueError):
    """A run configuration is malformed or incomplete."""
