"""Exception types shared across the package.

Error categories map to CLI exit codes in :mod:`fmwarp.cli`.
"""


class FmwarpError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FmwarpError):
    """An argument violates a precondition (non-finite, empty, out of range)."""


class DimensionError(FmwarpError):
    """Tensor shapes are mutually inconsistent."""


class ConfigError(FmwarpError):
    """Experiment configuration is missing or contradictory."""


class ParseError(FmwarpError):
    """A data file could not be parsed; carries the offending row number."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class SplitError(FmwarpError):
    """A temporal split produced an empty or invalid partition."""


class AlignmentError(FmwarpError):
    """An observation falls outside the prediction span."""


class DegenerateMaskError(FmwarpError):
    """A loss mask selects no observations."""


class TrainingDivergedError(FmwarpError):
    """A training step's gradients or an epoch's losses became non-finite;
    carries the last good snapshot."""

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class SearchFailedError(FmwarpError):
    """Every grid-search candidate produced a non-finite objective."""


class ZeroVarianceError(FmwarpError):
    """R^2 is undefined because the observations have no variance."""


class EvaluationError(FmwarpError):
    """Evaluation could not proceed (e.g. empty test pairing)."""
