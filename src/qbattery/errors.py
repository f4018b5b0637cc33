"""Exception types shared across the package."""


class QBatteryError(Exception):
    """Base class for all package errors."""


class ValidationError(QBatteryError):
    """An input violates a documented precondition or type invariant."""


class CapacityLimitError(QBatteryError):
    """A dense run's estimated allocation exceeds the dense limit."""


class ConfigError(QBatteryError):
    """A scenario configuration file is malformed or inconsistent."""
