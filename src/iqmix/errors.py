"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: DataError (1),
ConfigError (2), OracleError (3).
"""

from __future__ import annotations


class IqmixError(Exception):
    """Base class for all errors raised by this package."""


class DataError(IqmixError):
    """Invalid or malformed input data."""


class ConfigError(IqmixError):
    """Invalid configuration (bad scale, missing keys, bad flag values)."""


class OracleError(IqmixError):
    """Failure at the trainer/evaluator boundary."""
