"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or invalid dataset input."""


class NumericsError(Exception):
    """A numerical routine gave no finite result or did not reach its accuracy target."""


class ConfigError(Exception):
    """Invalid or conflicting run configuration."""
