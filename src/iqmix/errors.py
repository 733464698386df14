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


class ScoreOutOfRangeError(DataError):
    """A score falls outside the declared [min, max] scale."""


class MalformedLogitsError(DataError):
    """A logit record is missing a level or contains a non-finite value."""


class DegenerateSampleError(DataError):
    """Correlation is undefined: too few points or zero variance."""


class MissingDimensionError(DataError):
    """A required rating dimension is absent from the input."""


class RankDeficientFitError(DataError):
    """Too few distinct axis values to fit the requested polynomial degree."""


class OracleExecutionError(OracleError):
    """External oracle command exited nonzero."""


class OracleTimeoutError(OracleError):
    """External oracle command exceeded its timeout."""


class OracleResultError(OracleError):
    """External oracle result file is missing, unparsable, or out of range."""
