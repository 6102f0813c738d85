"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or invalid dataset input."""


class NumericsError(ArithmeticError):
    """No finite result, or an accuracy target missed: an arithmetic failure, as ArithmeticError is."""


class ConfigError(ValueError):
    """Invalid or conflicting run configuration: a refused argument value, as ValueError is."""
