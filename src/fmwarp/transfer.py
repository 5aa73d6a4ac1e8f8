"""Transfer-learning protocols, centered on the time-warping bias shift.

Shifting the forget- and input-gate biases of a pretrained LSTM by two
global scalars (alpha_f, alpha_i) rescales the learned dynamics: raising
the forget activation slows the system down, lowering it speeds the
system up. The shift pair is selected by grid search on the target
training observations; 2 x hidden tensor entries change and nothing else.
A class changes only which steps the search scores and against what, so
one :func:`sweep` runs the kernel once for the series of several classes
over the same inputs and returns each one's surface.

Six protocols are supported, one row each of :data:`PROTOCOLS`: its
start, its frozen tensors, whether it searches a shift and whether it
fine-tunes. :func:`adapt` runs one on a stack of realizations in
lockstep, each from the start it is given: a pretrained checkpoint, or
the fresh network the stage draws (``cli._starts``). No protocol ever
sees the test partition: the interface takes only the training and
validation series.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from fmwarp import data as datamod
from fmwarp import nn
from fmwarp.errors import (ConfigError, InvalidInputError, SearchFailedError,
                           TrainingDivergedError)
from fmwarp.train import SupervisedSeries, TrainConfig, fit_lockstep


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


def sweep(params: nn.RnnParams, series: list[SupervisedSeries],
          grid: GridSpec = DEFAULT_GRID) -> list[np.ndarray]:
    """The objective surface of each of several series over the same inputs,
    from one pass of the kernel over every candidate shift.

    Weights are shared across candidates; only the gate biases differ, so
    the kernel carries the states with a trailing candidate axis. The dense
    stack runs only at the steps some series observes, and each series adds
    its squared errors in step order, so its surface is bit for bit the one
    it gives alone: an (n_candidates, 3) array of (alpha_f, alpha_i, rmse)
    rows, the masked training RMSE in the targets' units.
    """
    inputs = series[0].inputs
    if any(s.inputs is not inputs and not np.array_equal(s.inputs, inputs) for s in series):
        raise InvalidInputError("the series of one sweep must share their inputs")
    if any(s.mask.sum() < 1 for s in series):
        raise InvalidInputError("grid search needs at least one training observation")
    shifts = candidate_shifts(grid)
    # The series observed at each step, from one scan of the (steps, series) mask.
    rows, cols = np.nonzero(np.array([s.mask for s in series]).T)
    bounds, cols = np.searchsorted(rows, np.arange(len(inputs) + 1)).tolist(), cols.tolist()
    observed = [cols[a:b] for a, b in zip(bounds, bounds[1:])]
    sq_sum = np.zeros((len(series), len(shifts)))
    initial = nn.LstmState.zeros(params.lstm.hidden_size)
    # Extreme shifts can overflow in the linear-gate mode; those candidates
    # come back non-finite and are simply excluded from the argmin.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = nn.lstm_steps(params.lstm, inputs, initial, shifts)
        for t, (_, _, h) in enumerate(steps):
            if observed[t]:
                v = nn.dense_forward(params.dense, h.T)[:, 0]
                for k in observed[t]:
                    sq_sum[k] += (v - series[k].targets[t]) ** 2
        return [np.column_stack([shifts, np.sqrt(sq / s.mask.sum())])
                for sq, s in zip(sq_sum, series)]


def search_key(params: nn.RnnParams, series: SupervisedSeries, grid: GridSpec) -> str:
    """A digest of all a :func:`sweep` surface depends on: the tensors, gate mode
    and dense activations, the series' inputs, targets and mask, and the grid."""
    key = hashlib.sha256(repr((params.lstm.linear_gates,
                               [layer.activation for layer in params.dense], grid)).encode())
    for arr in (*params.tensors().values(), series.inputs, series.targets, series.mask):
        key.update(repr((arr.dtype.str, arr.shape)).encode() + arr.tobytes())
    return key.hexdigest()


def _pick(surface: np.ndarray) -> BiasShift:
    """The shift of a :func:`sweep` surface with the smallest finite RMSE.

    Ties are broken toward the smallest |alpha_f|+|alpha_i|, then the
    smallest alpha_f; no finite candidate raises :class:`SearchFailedError`.
    """
    af, ai, values = surface.T
    finite = np.isfinite(values)
    if not finite.any():
        raise SearchFailedError("every grid candidate produced a non-finite objective")
    af, ai = af[finite], ai[finite]
    # lexsort is stable, so an exact tie on every key keeps the first candidate
    k = np.lexsort((ai, af, np.abs(af) + np.abs(ai), values[finite]))[0]
    return BiasShift(alpha_f=float(af[k]), alpha_i=float(ai[k]))


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
    """Adapted parameters; for a searched warp also the picked shift, the
    objective surface that picked it and the surfaces swept alongside it, by key."""

    params: nn.RnnParams
    shift: BiasShift | None
    surface: np.ndarray | None = None
    alongside: dict[str, np.ndarray] = field(default_factory=dict)


def adapt(method: TransferMethod, starts: list[nn.RnnParams | None], train: SupervisedSeries,
          val: SupervisedSeries, config: TrainConfig, seeds: list[int],
          grid: GridSpec = DEFAULT_GRID, waiting: list[np.ndarray | None] | None = None,
          alongside: list[dict[str, SupervisedSeries]] | None = None
          ) -> list[TransferResult | TrainingDivergedError]:
    """Run one transfer protocol on R realizations using only training and
    validation data: realization r adapts a copy of ``starts[r]``, and
    ``seeds[r]`` orders its segments; a ``None`` start is a
    :class:`ConfigError`. Each searches on its own: it picks from
    ``waiting[r]`` when that is a surface an earlier sweep left for it, and
    else sweeps ``train`` together with the series of ``alongside[r]`` over
    the same inputs, whose surfaces come back under the same keys in its
    result's ``alongside``. The fine-tunes
    share one :func:`fit_lockstep` call, so each realization comes back bit
    for bit as it would alone, and one that diverges as its error.
    """
    protocol = PROTOCOLS[method]
    if any(start is None for start in starts):
        raise ConfigError(f"{method.value} requires a start network")
    results = []
    for r, (start, _) in enumerate(zip(starts, seeds, strict=True)):
        start = start.copy()
        start.freeze_mask = {name: protocol.frozen is not None and name.startswith(protocol.frozen)
                             for name in start.tensor_names()}
        shift = surface = None
        swept = {}
        if protocol.search:  # on the training observations only
            surface = waiting[r] if waiting else None
            if surface is None:
                others = alongside[r] if alongside else {}
                surface, *surfaces = sweep(start, [train, *others.values()], grid)
                swept = dict(zip(others, surfaces))
            shift = _pick(surface)
            start = apply_shift(start, shift)
        results.append(TransferResult(start, shift, surface, swept))
    if not protocol.fine_tune:
        return results
    n = len(results)
    fits = fit_lockstep([r.params for r in results], train, [val] * n, config, seeds, ["full"] * n)
    return [fit if isinstance(fit, TrainingDivergedError) else replace(r, params=fit.trained)
            for r, fit in zip(results, fits)]


def run_method(method: TransferMethod, pretrained: nn.RnnParams | None, train: SupervisedSeries,
               val: SupervisedSeries, config: TrainConfig,
               grid: GridSpec = DEFAULT_GRID) -> TransferResult:
    """One realization of :func:`adapt` from ``pretrained``, seeded by ``config.seed``;
    a fine-tune that diverges raises its :class:`TrainingDivergedError`."""
    [result] = adapt(method, [pretrained], train, val, config, [config.seed], grid)
    if isinstance(result, TrainingDivergedError):
        raise result
    return result
