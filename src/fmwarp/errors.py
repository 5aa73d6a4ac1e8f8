"""Exception types shared across the package.

Each class carries its exit code, which :mod:`fmwarp.cli` exits with:
2 configuration, 3 data and input, 4 training, 5 search and evaluation.
"""


class FmwarpError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class InvalidInputError(FmwarpError):
    """An argument violates a precondition (non-finite, empty, out of range)."""
    exit_code = 3


class DimensionError(FmwarpError):
    """Tensor shapes are mutually inconsistent."""
    exit_code = 3


class ConfigError(FmwarpError):
    """Experiment configuration is missing or contradictory."""
    exit_code = 2


class ParseError(FmwarpError):
    """A data file could not be parsed; carries the offending row number."""
    exit_code = 3

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class SplitError(FmwarpError):
    """A temporal split produced an empty or invalid partition."""
    exit_code = 3


class AlignmentError(FmwarpError):
    """An observation falls outside the prediction span."""
    exit_code = 3


class DegenerateMaskError(FmwarpError):
    """A loss mask selects no observations."""
    exit_code = 3


class TrainingDivergedError(FmwarpError):
    """A training step's gradients or an epoch's losses became non-finite;
    carries the last good snapshot."""
    exit_code = 4

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class SearchFailedError(FmwarpError):
    """Every grid-search candidate produced a non-finite objective."""
    exit_code = 5


class ZeroVarianceError(FmwarpError):
    """R^2 is undefined because the observations have no variance."""
    exit_code = 5


class EvaluationError(FmwarpError):
    """Evaluation could not proceed (e.g. empty test pairing)."""
    exit_code = 5
