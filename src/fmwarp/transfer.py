"""Transfer-learning protocols, centered on the time-warping bias shift.

Shifting the forget- and input-gate biases of a pretrained LSTM by two
global scalars (alpha_f, alpha_i) rescales the learned dynamics: raising
the forget activation slows the system down, lowering it speeds the
system up. The shift pair is selected by grid search on the target
training observations; 2 x hidden tensor entries change and nothing else.

Six protocols are supported, one row each of :data:`PROTOCOLS`: its
start, its frozen tensors, whether it searches a shift and whether it
fine-tunes. No protocol ever sees the test partition: the interface
takes only the training and validation series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fmwarp import data as datamod
from fmwarp import nn
from fmwarp.errors import ConfigError, InvalidInputError, SearchFailedError
from fmwarp.train import STREAM_INIT, SupervisedSeries, TrainConfig, fit, substream


@dataclass(frozen=True)
class BiasShift:
    """Global additive shifts for the forget and input gate biases."""

    alpha_f: float
    alpha_i: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha_f) and math.isfinite(self.alpha_i)):
            raise InvalidInputError("bias shifts must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced candidate values per axis, endpoints inclusive."""

    lo: float = -5.0
    hi: float = 5.0
    n_per_axis: int = 25

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInputError(
                f"grid.lo and grid.hi must be finite, got {self.lo} and {self.hi}")
        if not self.lo < self.hi:
            raise InvalidInputError(f"grid lo {self.lo} must be < hi {self.hi}")
        if self.n_per_axis < 2:
            raise InvalidInputError(f"n_per_axis must be >= 2, got {self.n_per_axis}")

    def axis_values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_per_axis)


DEFAULT_GRID = GridSpec()


class TransferMethod(enum.Enum):
    NO_TRANSFER = "NoTransfer"
    FULL_FINE_TUNE = "FullFineTune"
    FREEZE_RECURRENT = "FreezeRecurrent"
    FREEZE_DENSE = "FreezeDense"
    TIME_WARP = "TimeWarp"
    TIME_WARP_FINE_TUNE = "TimeWarpFineTune"

    @classmethod
    def parse(cls, name: str) -> "TransferMethod":
        for member in cls:
            if member.value.lower() == name.strip().lower():
                return member
        raise ConfigError(f"unknown transfer method {name!r}")


def candidate_shifts(grid: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """All (alpha_f, alpha_i) candidates in fixed row-major order, with the
    exact zero shift always appended so the zero-shot baseline is searched."""
    axis = grid.axis_values()
    af, ai = np.meshgrid(axis, axis, indexing="ij")
    cands = np.column_stack([af.ravel(), ai.ravel()])
    return np.vstack([cands, [0.0, 0.0]])


def apply_shift(params: nn.RnnParams, shift: BiasShift) -> nn.RnnParams:
    """Shift b_f and b_i uniformly across all hidden units; every other
    tensor is copied unchanged."""
    out = params.copy()
    blocks = out.lstm.tensors()
    blocks["b_f"] += shift.alpha_f
    blocks["b_i"] += shift.alpha_i
    return out


def _masked_rmse_batched(
    params: nn.RnnParams, series: SupervisedSeries, shifts: np.ndarray
) -> np.ndarray:
    """Masked training RMSE for every candidate shift in one vectorized sweep.

    Weights are shared across candidates; only the gate biases differ, so
    the kernel carries the states with a trailing candidate axis.
    """
    initial = nn.LstmState.zeros(params.lstm.hidden_size)
    sq_sum = np.zeros(shifts.shape[0])
    n_obs = series.mask.sum()
    # Extreme shifts can overflow in the linear-gate mode; those candidates
    # come back non-finite and are simply excluded from the argmin.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = nn.lstm_steps(params.lstm, series.inputs, initial, shifts)
        for t, (_, _, h) in enumerate(steps):
            if series.mask[t]:
                v = nn.dense_forward(params.dense, h.T)
                sq_sum += (v[:, 0] - series.targets[t]) ** 2
        return np.sqrt(sq_sum / n_obs)


def grid_search(
    params: nn.RnnParams,
    train: SupervisedSeries,
    grid: GridSpec = DEFAULT_GRID,
) -> tuple[BiasShift, np.ndarray]:
    """Select the bias-shift pair minimizing the masked training RMSE.

    Ties are broken toward the smallest |alpha_f|+|alpha_i|, then the
    smallest alpha_f. Returns the winning shift and the full objective
    surface as an (n_candidates, 3) array of (alpha_f, alpha_i, rmse) rows.
    """
    if train.mask.sum() < 1:
        raise InvalidInputError("grid search needs at least one training observation")
    shifts = candidate_shifts(grid)
    values = _masked_rmse_batched(params, train, shifts)
    surface = np.column_stack([shifts, values])
    finite = np.isfinite(values)
    if not finite.any():
        raise SearchFailedError("every grid candidate produced a non-finite objective")
    af, ai = shifts[finite].T
    # lexsort is stable, so an exact tie on every key keeps the first candidate
    k = np.lexsort((ai, af, np.abs(af) + np.abs(ai), values[finite]))[0]
    return BiasShift(alpha_f=float(af[k]), alpha_i=float(ai[k])), surface


def write_surface_csv(surface: np.ndarray, path) -> None:
    datamod.write_table(path, ("alpha_f", "alpha_i", "rmse"), surface.tolist())


class Protocol(NamedTuple):
    """A transfer protocol as four choices, applied in this order."""

    pretrained: bool  # start from the pretrained network, else from a fresh init
    frozen: str | None  # prefix of the tensor names held fixed while fine-tuning
    search: bool  # grid-search a gate-bias shift and apply it
    fine_tune: bool


PROTOCOLS = {
    TransferMethod.NO_TRANSFER: Protocol(False, None, False, True),
    TransferMethod.FULL_FINE_TUNE: Protocol(True, None, False, True),
    TransferMethod.FREEZE_RECURRENT: Protocol(True, "lstm.", False, True),
    TransferMethod.FREEZE_DENSE: Protocol(True, "dense", False, True),
    TransferMethod.TIME_WARP: Protocol(True, None, True, False),
    TransferMethod.TIME_WARP_FINE_TUNE: Protocol(True, None, True, True),
}


@dataclass(frozen=True)
class TransferResult:
    """Adapted parameters; for a searched warp also the picked shift and
    the objective surface of the search that picked it."""

    params: nn.RnnParams
    shift: BiasShift | None
    surface: np.ndarray | None = None


def run_method(
    method: TransferMethod,
    pretrained: nn.RnnParams | None,
    train: SupervisedSeries,
    val: SupervisedSeries,
    config: TrainConfig,
    grid: GridSpec = DEFAULT_GRID,
    arch: tuple[int, int, tuple[int, ...]] | None = None,
    forced_shift: BiasShift | None = None,
) -> TransferResult:
    """Run one transfer protocol using only training and validation data.

    A protocol that starts fresh (NoTransfer) ignores ``pretrained`` and
    needs ``arch``, the (input_size, hidden_size, dense_sizes) of its
    network. ``forced_shift`` bypasses the grid search in the warp methods,
    for diagnostics and contract tests; the result then has no surface.
    """
    protocol = PROTOCOLS[method]
    if protocol.pretrained:
        if pretrained is None:
            raise ConfigError(f"{method.value} requires a pretrained model")
        start = pretrained.copy()
        start.freeze_mask = {name: protocol.frozen is not None and name.startswith(protocol.frozen)
                             for name in start.tensor_names()}
    elif arch is None:
        raise ConfigError(f"{method.value} needs the arch sizes of its fresh start")
    else:
        start = nn.init_params(*arch, rng=substream(config.seed, STREAM_INIT))
    shift = surface = None
    if protocol.search:  # on the training observations only
        shift, surface = (grid_search(start, train, grid) if forced_shift is None
                          else (forced_shift, None))
        start = apply_shift(start, shift)
    if protocol.fine_tune:
        start = fit(start, train, val, config).trained
    return TransferResult(params=start, shift=shift, surface=surface)
