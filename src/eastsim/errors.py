"""Error types shared across the simulator."""


class EastSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(EastSimError):
    """Invalid configuration value or violated configuration invariant."""


class UsageError(EastSimError):
    """A valid component was invoked in an unsupported way."""


class DataError(EastSimError):
    """Malformed or incomplete input data (e.g. a temperature trace)."""
