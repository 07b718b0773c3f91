"""Error taxonomy shared across the package; each maps to a CLI exit code."""

__all__ = ["ConfigError", "DataError", "NumericError"]


class ConfigError(Exception):
    """Invalid run configuration or command usage (exit code 2)."""


class DataError(Exception):
    """Missing, malformed, or mismatched data on disk (exit code 3); the
    volume and checkpoint format errors subclass it."""


class NumericError(Exception):
    """Non-finite values where finite ones are required (exit code 4)."""
