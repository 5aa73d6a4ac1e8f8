"""Training: masked loss, backpropagation through time, Adam, replication.

Training runs truncated backpropagation through time over non-overlapping
fixed-length segments of a single long series. The hidden state at each
segment boundary is cached and refreshed whenever the preceding segment
is processed, so in chronological order the state is carried exactly and
under shuffling it is at most one visit stale. Gradients never flow
across segment boundaries.

Observations are sparse, so the loss is a mean of squared errors over
masked positions only. Validation loss is computed each epoch from a
clean stateful pass over the training span followed by the validation
span, and is used only for early stopping: the returned snapshot is the
one with the best validation loss.

All randomness flows from integer seeds through named substreams
(init / shuffle / valsplit), so a realization is a pure function of
(seed, data, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fmwarp import nn
from fmwarp.errors import (
    DegenerateMaskError,
    InvalidInputError,
    NumericOverflowError,
    TrainingDivergedError,
)

# Adam moment decay and stabilizer; the gradient global-norm clip guards
# against divergence on rain spikes.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0

# Named substream tags: every RNG in this package derives from
# SeedSequence([seed, tag]).
STREAM_INIT = 0x1A17
STREAM_SHUFFLE = 0x5F1E
STREAM_VALSPLIT = 0x7A15

# Fraction of validation observations each replicated realization keeps.
VAL_KEEP_FRACTION = 0.9


def substream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(tag)]))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_length: int = 72
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidInputError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_length < 2:
            raise InvalidInputError(f"batch_length must be >= 2, got {self.batch_length}")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class SupervisedSeries:
    """A contiguous hourly span: model inputs, targets, and a 0/1 loss mask."""

    inputs: np.ndarray  # (T, n_features)
    targets: np.ndarray  # (T,)
    mask: np.ndarray  # (T,), 1 where an observation exists

    def __post_init__(self):
        t = self.inputs.shape[0]
        if self.targets.shape != (t,) or self.mask.shape != (t,):
            raise InvalidInputError("inputs/targets/mask length mismatch")
        if not np.isin(self.mask, (0.0, 1.0)).all():
            raise InvalidInputError("mask entries must be 0 or 1")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Realization:
    """One seeded training run: the best-validation snapshot plus its history."""

    seed: int
    validation_selection: str
    trained: nn.RnnParams
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss)
    best_epoch: int


def masked_mse(pred, obs, mask) -> float:
    """Mean squared error over masked positions only."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if not (pred.shape == obs.shape == mask.shape):
        raise InvalidInputError("pred/obs/mask must have equal lengths")
    k = mask.sum()
    if k == 0:
        raise DegenerateMaskError("loss mask selects no observations")
    return float(np.sum(mask * (pred - obs) ** 2) / k)


def backward(
    params: nn.RnnParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    initial: nn.LstmState | None = None,
) -> tuple[dict[str, np.ndarray], float, nn.LstmState]:
    """Gradients of the masked MSE over one segment, by backprop through time.

    Returns (gradients keyed like ``params.tensors()``, loss, final state).
    Frozen tensors get zero gradient; gradients do not flow into the
    initial state (truncation boundary). The forward pass is the
    inference kernel itself, so loss and final state match ``nn.forward``
    bit for bit.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    mask = np.asarray(mask, dtype=float)
    lstm = params.lstm
    size = lstm.hidden_size
    if initial is None:
        initial = nn.LstmState.zeros(size)

    # Forward: the recurrence is sequential; the dense stack is batched
    # over time. Row 0 of c_all/h_all is the initial state.
    T = inputs.shape[0]
    gates = np.empty((T, 4 * size))
    c_all = np.empty((T + 1, size))
    h_all = np.empty((T + 1, size))
    c_all[0], h_all[0] = c, h = initial.c, initial.h
    for t, (z, c, h) in enumerate(nn.lstm_steps(lstm, inputs, initial)):
        gates[t], c_all[t + 1], h_all[t + 1] = z, c, h
    dense_cache = []
    preds = nn.dense_forward(params.dense, h_all[1:], dense_cache)[:, 0]
    if not np.isfinite(preds).all():
        raise NumericOverflowError("forward pass produced non-finite predictions")
    loss = masked_mse(preds, targets, mask)

    grads = {}
    k = mask.sum()
    dpred = 2.0 * mask * (preds - targets) / k

    # Dense stack backward, batched over time (no cross-step coupling).
    dv = dpred[:, None]
    for j in range(len(params.dense) - 1, -1, -1):
        layer = params.dense[j]
        v, z = dense_cache[j]
        dz = dv * (z > 0.0) if layer.activation == "relu" else dv
        grads[f"dense{j}.w"] = dz.T @ v
        grads[f"dense{j}.b"] = dz.sum(axis=0)
        dv = dz @ layer.weights
    dh_dense = dv  # (T, hidden)

    # LSTM backward: activation derivatives batched over time, then one
    # recurrent product dz[t] @ W_h per step.
    # Column blocks in nn.GATE_NAMES order (f, i, o, g).
    f, i, o, g = np.split(gates, 4, axis=1)
    if lstm.linear_gates:
        phi = c_all[1:]
        dphi, dact = np.ones_like(phi), np.ones_like(gates)
    else:
        phi = np.tanh(c_all[1:])
        dphi = 1.0 - phi * phi
        dact = gates * (1.0 - gates)  # sigmoid rows; the candidate rows are tanh
        np.split(dact, 4, axis=1)[3][:] = 1.0 - g * g
    dz = np.empty((T, 4 * size))
    dz_f, dz_i, dz_o, dz_g = np.split(dz, 4, axis=1)
    dh_next = np.zeros(size)
    dc_next = np.zeros(size)
    for t in range(T - 1, -1, -1):
        dh = dh_dense[t] + dh_next
        dc = dc_next + dh * o[t] * dphi[t]
        dz_f[t] = dc * c_all[t]
        dz_i[t] = dc * g[t]
        dz_o[t] = dh * phi[t]
        dz_g[t] = dc * i[t]
        dz[t] *= dact[t]
        dh_next = dz[t] @ lstm.w_h
        dc_next = dc * f[t]
    # Row order (f, i, o, g): AdamState.step sums the clip norm in the
    # order of ``grads``, so this order fixes its rounding.
    lstm_grads = nn.gate_blocks(dz.T @ inputs, dz.T @ h_all[:-1], dz.sum(axis=0))
    grads.update({f"lstm.{name}": grad for name, grad in lstm_grads.items()})

    for name, frozen in params.freeze_mask.items():
        if frozen:
            grads[name] = np.zeros_like(grads[name])
    for name, arr in grads.items():
        if not np.isfinite(arr).all():
            raise NumericOverflowError(f"non-finite gradient in {name}")
    return grads, loss, nn.LstmState(c=c, h=h)


class AdamState:
    """Per-tensor Adam moments; frozen tensors are never touched."""

    def __init__(self, params: nn.RnnParams):
        self.m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.t = 0

    def step(self, params: nn.RnnParams, grads: dict[str, np.ndarray], lr: float) -> None:
        live = {k: g for k, g in grads.items() if not params.freeze_mask[k]}
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in live.values()))
        scale = GRAD_CLIP_NORM / norm if norm > GRAD_CLIP_NORM else 1.0
        self.t += 1
        correction = math.sqrt(1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA1**self.t)
        tensors = params.tensors()
        for name, g in live.items():
            g = g * scale
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            tensors[name] -= lr * correction * self.m[name] / (np.sqrt(self.v[name]) + ADAM_EPS)


def _segment_bounds(n: int, batch_length: int) -> list[tuple[int, int]]:
    return [(s, min(s + batch_length, n)) for s in range(0, n, batch_length)]


def validation_loss(params: nn.RnnParams, train: SupervisedSeries, val: SupervisedSeries) -> float:
    """Masked validation MSE after a stateful spin-up over the training span."""
    _, state = nn.forward(params, train.inputs)
    preds, _ = nn.forward(params, val.inputs, initial=state)
    return masked_mse(preds, val.targets, val.mask)


def fit(
    params: nn.RnnParams,
    train: SupervisedSeries,
    val: SupervisedSeries,
    config: TrainConfig,
    val_selection_id: str = "full",
) -> Realization:
    """Truncated-BPTT training with validation-controlled early stopping.

    Returns the snapshot with the best validation loss; stops after
    ``patience`` epochs without improvement. Frozen tensors come back
    bit-identical to their initial values. On divergence the raised
    :class:`TrainingDivergedError` carries that snapshot as ``last_good``.
    """
    if len(train) == 0 or len(val) == 0:
        raise InvalidInputError("training and validation series must be non-empty")
    params = params.copy()
    shuffle_rng = substream(config.seed, STREAM_SHUFFLE)
    adam = AdamState(params)
    bounds = _segment_bounds(len(train), config.batch_length)
    seg_mask_counts = [train.mask[s:e].sum() for s, e in bounds]
    start_states = [nn.LstmState.zeros(params.lstm.hidden_size) for _ in bounds]

    history: list[tuple[int, float, float]] = []
    best_val = math.inf
    best_snapshot = params.copy()
    best_epoch = 0

    def best() -> Realization:
        return Realization(
            seed=config.seed, validation_selection=val_selection_id,
            trained=best_snapshot, history=history, best_epoch=best_epoch,
        )

    since_improve = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(bounds)) if config.shuffle else range(len(bounds))
        sq_sum = 0.0
        n_obs = 0.0
        for k in order:
            s, e = bounds[k]
            if seg_mask_counts[k] == 0:
                continue  # no observations to learn from in this segment
            try:
                grads, seg_loss, final = backward(
                    params, train.inputs[s:e], train.targets[s:e], train.mask[s:e],
                    initial=start_states[k],
                )
            except NumericOverflowError as exc:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: {exc}", last_good=best()
                ) from exc
            adam.step(params, grads, config.learning_rate)
            if k + 1 < len(bounds):
                start_states[k + 1] = final
            sq_sum += seg_loss * seg_mask_counts[k]
            n_obs += seg_mask_counts[k]
        train_loss = sq_sum / n_obs if n_obs else math.nan
        try:
            val_loss = validation_loss(params, train, val)
        except NumericOverflowError as exc:
            raise TrainingDivergedError(
                f"validation diverged at epoch {epoch}: {exc}", last_good=best()
            ) from exc
        history.append((epoch, float(train_loss), float(val_loss)))
        if not math.isfinite(val_loss) or not math.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", last_good=best())
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = params.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= config.patience:
                break
    return best()


def subsample_validation(val: SupervisedSeries, seed: int) -> tuple[SupervisedSeries, str]:
    """Randomly keep VAL_KEEP_FRACTION of the validation observations."""
    rng = substream(seed, STREAM_VALSPLIT)
    idx = np.flatnonzero(val.mask)
    n_keep = max(1, int(math.ceil(VAL_KEEP_FRACTION * idx.size)))
    keep = np.sort(rng.choice(idx, size=n_keep, replace=False))
    mask = np.zeros_like(val.mask)
    mask[keep] = 1.0
    sub = SupervisedSeries(inputs=val.inputs, targets=val.targets, mask=mask)
    return sub, f"val-keep{n_keep}of{idx.size}-seed{seed}"


def replicate(
    input_size: int,
    hidden_size: int,
    dense_sizes: tuple[int, int],
    train: SupervisedSeries,
    val: SupervisedSeries,
    base_config: TrainConfig,
    n: int,
) -> list[Realization]:
    """Train n independently seeded realizations (seeds seed0 .. seed0+n-1).

    Realization k draws every factor from seed ``seed0 + k``: its initial
    weights, its segment order and its random subset of the validation
    observations.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    out = []
    for k in range(n):
        config_k = replace(base_config, seed=base_config.seed + k)
        params = nn.init_params(
            input_size, hidden_size, dense_sizes, rng=substream(config_k.seed, STREAM_INIT)
        )
        val_k, selection = subsample_validation(val, config_k.seed)
        out.append(fit(params, train, val_k, config_k, val_selection_id=selection))
    return out


def write_history_csv(history: list[tuple[int, float, float]], path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{e},{repr(tr)},{repr(vl)}" for e, tr, vl in history]
    Path(path).write_text("\n".join(lines) + "\n")
