"""Accounting, constructors and one-case entry points that only the tests need."""

import math
from dataclasses import dataclass

from fmwarp import data, nn, train, transfer
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


@dataclass(frozen=True)
class WarpFactor:
    """Temporal rescaling factor gamma > 0; gamma > 1 speeds the dynamics up."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InvalidInputError(f"gamma must be finite and > 0, got {self.gamma}")


def warp(params: TimeLagParams, gamma: WarpFactor) -> TimeLagParams:
    """Time-warp the dynamics: a -> a**gamma, equivalently tau -> tau/gamma."""
    a_warped = params.a ** gamma.gamma
    return TimeLagParams(tau=params.tau / gamma.gamma, a=a_warped)


def grid_search(params, train_series, grid=transfer.DEFAULT_GRID):
    """Select the bias-shift pair minimizing the masked training RMSE: the
    one-series ``transfer.sweep``, returning its ``transfer._pick`` and its
    surface."""
    [surface] = transfer.sweep(params, [train_series], grid)
    return transfer._pick(surface), surface


def fit(params, train_series, val, config, val_selection_id="full"):
    """One realization through ``train.fit_lockstep``, seeded by
    ``config.seed``; a diverged run raises its ``TrainingDivergedError``."""
    [outcome] = train.fit_lockstep([params], train_series, [val], config, [config.seed],
                                   [val_selection_id])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


def replicate(input_size, hidden_size, dense_sizes, train_series, val, config, n):
    """``n`` realizations seeded ``config.seed`` .. ``config.seed + n - 1``
    in one ``train.fit_lockstep`` call, as one worker of ``fmwarp pretrain``
    trains them: realization k draws its fresh start, its segment order and
    its subset of the validation observations from seed ``config.seed + k``."""
    seeds = [config.seed + k for k in range(n)]
    starts = [nn.init_params(input_size, hidden_size, dense_sizes,
                             rng=train.substream(seed, train.STREAM_INIT)) for seed in seeds]
    vals, selections = zip(*(train.subsample_validation(val, seed) for seed in seeds))
    return train.fit_lockstep(starts, train_series, list(vals), config, seeds, list(selections))


def columns(frame) -> dict:
    """Each weather column of ``frame`` by name, in ``data.WEATHER_COLUMNS`` order."""
    return {name: getattr(frame, name) for name in data.WEATHER_COLUMNS}
