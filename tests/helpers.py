"""Accounting and constructors that only the tests need."""

import math

from fmwarp import train
from fmwarp.errors import InvalidInputError, TrainingDivergedError
from fmwarp.timelag import TimeLagParams


def parameter_count(params) -> int:
    """Entries in every tensor of an ``nn.RnnParams``."""
    return sum(v.size for v in params.tensors().values())


def trainable_count(params) -> int:
    """Entries in the tensors that ``params.freeze_mask`` leaves trainable."""
    return sum(v.size for k, v in params.tensors().items() if not params.freeze_mask[k])


def from_retention(a: float) -> TimeLagParams:
    """The time-lag parameters whose one-step retention coefficient is ``a``."""
    a = float(a)
    if not (0.0 < a < 1.0):
        raise InvalidInputError(f"retention coefficient must lie in (0,1), got {a}")
    return TimeLagParams(tau=-1.0 / math.log(a), a=a)


def fit(params, train_series, val, config, val_selection_id="full"):
    """One realization through ``train.fit_lockstep``, seeded by
    ``config.seed``; a diverged run raises its ``TrainingDivergedError``."""
    [outcome] = train.fit_lockstep([params], train_series, [val], config, [config.seed],
                                   [val_selection_id])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome
