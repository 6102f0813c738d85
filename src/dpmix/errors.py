"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or invalid dataset input."""


class NumericsError(Exception):
    """A numerical routine gave no finite result or did not reach its accuracy target."""


class ConfigError(ValueError):
    """Invalid or conflicting run configuration: a refused argument value, as ValueError is."""
