"""Training: masked loss, backpropagation through time, Adam.

Training runs truncated backpropagation through time over non-overlapping
fixed-length segments of a single long series. The hidden state at each
segment boundary is cached and refreshed whenever the preceding segment
is processed, so in chronological order the state is carried exactly and
under shuffling it is at most one visit stale. Gradients never flow
across segment boundaries.

Observations are sparse, so the loss is a mean of squared errors over
masked positions only. Validation loss is computed each epoch from a
clean stateful pass over the training span (the kernel alone) followed by
the validation span, and is used only for early stopping: the returned
snapshot is the one with the best validation loss.

Realizations train in lockstep (``fit_lockstep``, the one trainer entry):
their networks are stacked on a leading realization axis (``nn.stack``),
and each lockstep step runs one batched ``backward`` and Adam update.
Every reduction (loss sums, the clip norm) stays per realization and in
the order a lone run uses, so a realization comes out bit for bit as a
``fit_lockstep`` call on it alone trains it.
Divergence is read from each step's gradients: a realization whose
gradients are not all finite drops out and the others take the update;
nothing is re-run.

A step is a few large numpy calls rather than many small ones, with the
arithmetic unchanged: each element goes through the same operations in
the same order, so the outputs are bit for bit those of a per-gate,
per-tensor loop. ``backward`` records the gates and cell states in the
kernel's gate-major layout, so the BPTT loop (``_bptt``) works on one
contiguous gate block per step and runs one product per step on all four
gates. When every LSTM tensor is frozen, the loop is skipped, and the
validation spin-up runs once per lockstep call rather than every epoch.
``AdamState`` keeps its moments flat, one row per realization, and
updates them in place; the same flat gradient gives each realization's
divergence verdict.

All randomness flows from integer seeds through named substreams
(init / shuffle / valsplit), so a realization is a pure function of
(seed, data, config). The trainer trains the starts it is given; the
stages draw every fresh one from its seed's init substream (``cli._starts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fmwarp import data as datamod
from fmwarp import nn
from fmwarp.errors import DegenerateMaskError, InvalidInputError, TrainingDivergedError

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

# Fraction of validation observations each pretrain realization keeps.
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
        if not math.isfinite(self.learning_rate):
            raise InvalidInputError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.batch_length < 2:
            raise InvalidInputError(f"batch_length must be >= 2, got {self.batch_length}")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise InvalidInputError(f"max_epochs must be >= 1, got {self.max_epochs}")


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


def masked_mse(pred, obs, mask):
    """Mean squared error over masked positions only, along the last axis:
    a float for 1-D arrays, one loss per row for (R, T) ones."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if not (pred.shape == obs.shape == mask.shape):
        raise InvalidInputError("pred/obs/mask must have equal lengths")
    k = mask.sum(axis=-1)
    if np.any(k == 0):
        raise DegenerateMaskError("loss mask selects no observations")
    loss = np.sum(mask * (pred - obs) ** 2, axis=-1) / k
    return float(loss) if loss.ndim == 0 else loss


def backward(
    params: nn.RnnParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    initial: nn.LstmState | None = None,
) -> tuple[dict[str, np.ndarray], float, nn.LstmState]:
    """Gradients of the masked MSE over one segment, by backprop through time.

    Returns (gradients keyed like ``params.tensors()``, loss, final state).
    Frozen tensors get zero gradient; when every LSTM tensor is frozen
    the backprop through time is not run at all. Gradients do not flow
    into the initial state (truncation boundary). The forward pass is the
    inference kernel itself, so loss and final state match ``nn.forward``
    bit for bit. A stack of R networks takes (R, T, input) inputs, (R, T)
    targets and masks and (R, H) initial states, and returns stacked
    gradients, R losses and (R, H) final states. Nothing is checked:
    non-finite losses and gradients come back as they are.

    The forward pass is recorded in the kernel's step layout: gates
    (T, 4H, R, 1) and cell states (T + 1, H, R, 1) in a stack, (T, 4H) and
    (T + 1, H) for one network. The hidden states are realization-major,
    as the dense stack and the w_h gradient product read them.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    mask = np.asarray(mask, dtype=float)
    lstm = params.lstm
    size = lstm.hidden_size
    lead = params.stack_shape
    if initial is None:
        initial = nn.LstmState.zeros((*lead, size))

    # Forward: the recurrence is sequential; the dense stack is batched
    # over time. Step 0 of c_all and h_all is the initial state.
    T = inputs.shape[-2]
    tail = (*lead, 1) if lead else ()
    gates = np.empty((T, 4 * size, *tail))
    c_all = np.empty((T + 1, size, *tail))
    h_all = np.empty((*lead, T + 1, size))
    # Step t as the kernel yields it: (R, 4H, 1) and (R, H, 1) in a stack.
    gates_k, c_k = (a.swapaxes(1, 2) if lead else a for a in (gates, c_all))
    h_t = nn.time_major(h_all)
    c_k[0], h_t[0] = (state.reshape(h_t[0].shape) for state in (initial.c, initial.h))
    for t, (z, c, h) in enumerate(nn.lstm_steps(lstm, inputs, initial)):
        gates_k[t], c_k[t + 1], h_t[t + 1] = z, c, h
    dense_cache = []
    preds = nn.dense_forward(params.dense, h_all[..., 1:, :], dense_cache)[..., 0]
    loss = masked_mse(preds, targets, mask)

    grads = {}
    k = mask.sum(axis=-1, keepdims=True)
    dpred = 2.0 * mask * (preds - targets) / k

    # Dense stack backward, batched over time (no cross-step coupling). Each
    # layer's cache entry is dropped once read, and the BPTT below runs
    # without the dense stack's arrays.
    dv = dpred[..., None]
    for j in range(len(params.dense) - 1, -1, -1):
        layer = params.dense[j]
        v, z = dense_cache.pop()
        dz = dv * (z > 0.0) if layer.activation == "relu" else dv
        grads[f"dense{j}.w"] = dz.swapaxes(-1, -2) @ v
        grads[f"dense{j}.b"] = dz.sum(axis=-2)
        dv = dz @ layer.weights
    del v, z, dz

    if _lstm_frozen(params):
        # The recurrence is frozen: its gradients are zeros, with no BPTT.
        stacked = tuple(np.zeros_like(a) for a in (lstm.w_x, lstm.w_h, lstm.b))
    else:
        if lead:  # dh in the states' layout, (T, H, R, 1), in place of dv
            dv = np.ascontiguousarray(dv.transpose(1, 2, 0)[..., None])
        stacked = _bptt(lstm, inputs, gates, c_all, h_all, dv)
    # Row order (f, i, o, g): AdamState.step sums the clip norm in the
    # order of ``grads``, so this order fixes its rounding.
    grads.update({f"lstm.{name}": grad for name, grad in nn.gate_blocks(*stacked).items()})

    for name, frozen in params.freeze_mask.items():
        if frozen:
            grads[name] = np.zeros_like(grads[name])
    return grads, loss, nn.LstmState(c=c_k[-1].reshape(*lead, size), h=h_all[..., -1, :])


def _bptt(lstm, inputs, gates, c_all, h_all, dh_dense):
    """The stacked LSTM gradients (w_x, w_h, b) of one segment, from the
    forward pass's gates (T, 4H) and cell states (T + 1, H), or (T, 4H, R, 1)
    and (T + 1, H, R, 1) in a stack, its realization-major hidden states,
    and dh of the dense stack in the cell states' layout.

    The activation derivatives are batched over time, and ``dz`` takes the
    gates' layout, so every step's gate block is contiguous. Before the
    loop, the gate rows (f, i, o, g) of ``dz`` hold each step's
    multiplicands c_{t-1}, g, tanh(c_t) and i. Each step writes dh into the
    o rows of one gate-sized ``left`` buffer and dc into its other rows,
    multiplies ``dz[t]`` by ``left`` and then by the activation
    derivatives, and runs one recurrent product W_h^T dz[t]: a per-gate
    loop's products, each element's in the same order.
    """
    lead = lstm.b.shape[:-1]
    f, i, o, g = nn.split_gates(gates, 1)
    dz = np.empty_like(gates)
    c_prev, dz_i, phi, dz_g = nn.split_gates(dz, 1)
    c_prev[...], dz_i[...], dz_g[...] = c_all[:-1], g, i
    if lstm.linear_gates:
        phi[...] = c_all[1:]
        dphi, dact = np.ones_like(phi), np.ones_like(gates)
    else:
        # Each derivative is written in place, with no temporary: 1 - phi^2, the
        # sigmoid rows' (1 - s) s and the candidate rows' 1 - g^2.
        np.tanh(c_all[1:], out=phi)
        dphi = np.multiply(phi, phi)
        np.subtract(1.0, dphi, out=dphi)
        dact = np.subtract(1.0, gates)
        dact *= gates
        dact_g = nn.split_gates(dact, 1)[3]
        np.multiply(g, g, out=dact_g)
        np.subtract(1.0, dact_g, out=dact_g)
    left = np.empty(dz.shape[1:])
    dc, dc_i, dh, dc_g = nn.split_gates(left, 0)
    dc_next, tmp = np.zeros(dc.shape), np.empty(dc.shape)
    # The recurrent product reads dz[t] from a C-ordered (R, 4H, 1) copy and
    # writes a C-ordered (R, H, 1) dh_next, the arrays of a per-gate loop,
    # so that it makes the same BLAS call; the loop reads and writes them
    # through their gate-major views.
    size, column = lstm.hidden_size, (1,) if lead else ()
    w_h_t = lstm.w_h.swapaxes(-1, -2)
    operand = np.empty((*lead, 4 * size, *column))
    dh_next = np.zeros((*lead, size, *column))
    operand_by_gate, dh_next_by_gate = (a.swapaxes(0, 1) if lead else a
                                        for a in (operand, dh_next))
    # Step t's views of every per-step array, from the last step back.
    for dense_s, o_s, dphi_s, f_s, dz_s, dact_s in zip(
            *(a[::-1] for a in (dh_dense, o, dphi, f, dz, dact))):
        np.add(dense_s, dh_next_by_gate, out=dh)
        np.multiply(dh, o_s, out=tmp)
        tmp *= dphi_s
        np.add(dc_next, tmp, out=dc)
        dc_i[...] = dc
        dc_g[...] = dc
        np.multiply(dc, f_s, out=dc_next)
        dz_s *= left
        dz_s *= dact_s
        operand_by_gate[...] = dz_s
        np.matmul(w_h_t, operand, out=dh_next)
    # The (4H, T) products and the time sum, one realization at a time
    # through one C-ordered (T, 4H) copy of its dz.
    grads = tuple(map(np.empty_like, (lstm.w_x, lstm.w_h, lstm.b)))
    by_time = np.empty(dz.shape[:2])
    by_realization = dz.reshape(*by_time.shape, -1)  # (T, 4H, R), R = 1 for one network
    for r, (x, h, grad_x, grad_h, grad_b) in enumerate(zip(
            *(a.reshape(-1, *a.shape[len(lead):]) for a in (inputs, h_all, *grads)))):
        by_time[...] = by_realization[..., r]
        np.matmul(by_time.T, x, out=grad_x)
        np.matmul(by_time.T, h[:-1], out=grad_h)
        np.sum(by_time, axis=0, out=grad_b)
    return grads


class AdamState:
    """Adam over the live (not frozen) tensors, kept flat: m and v hold one
    row of P entries per realization (one row for a lone network), each
    live tensor's slice in ``tensors()`` order. A step gathers the
    gradients once into a preallocated row per member and updates m, v and
    the parameters in place, each element through the operations of a
    per-tensor update, in their order. The clip norm adds one sum per
    tensor, over its slice, in the order of ``grads``. Frozen tensors are
    never touched. In a stack each realization keeps its own step count,
    bias correction and clip norm."""

    def __init__(self, params: nn.RnnParams):
        lead = params.stack_shape
        self.parts, size = {}, 0
        for name, tensor in params.tensors().items():
            if not params.freeze_mask[name]:
                count = math.prod(tensor.shape[len(lead):])
                self.parts[name] = slice(size, size + count)
                size += count
        self.m = np.zeros((math.prod(lead), size))
        self.v, self.grad, self.scratch = (np.zeros_like(self.m) for _ in range(3))
        self.t = np.zeros(len(self.m), dtype=int)

    def _norm(self, g: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        """The norm of each row of ``g``: one sum per tensor, in the order of
        ``grads``, which fixes its rounding."""
        sq = np.multiply(g, g, out=self.scratch[: len(g)])
        return np.sqrt(sum(sq[:, self.parts[name]].sum(axis=1)
                           for name in grads if name in self.parts))

    def step(
        self, params: nn.RnnParams, grads: dict[str, np.ndarray], lr: float, rows=None
    ) -> np.ndarray:
        """One update. For a stack, ``grads`` may cover only the realizations
        ``rows`` (an index array); the others stay as they are. A member whose
        gradients are not all finite is left out; returns, per member,
        whether it took the update."""
        n = len(self.t) if rows is None else len(rows)
        if not self.parts:  # every tensor is frozen
            return np.ones(n, dtype=bool)
        g = self.grad[:n]
        np.concatenate([grads[name].reshape(n, -1) for name in self.parts], axis=1, out=g)
        finite = np.isfinite(g).all(axis=1)
        sel = rows
        if not finite.all():
            if not finite.any():
                return finite
            sel = (np.arange(n) if rows is None else rows)[finite]
            g = g[finite]
        index = ... if sel is None else sel
        m, v = self.m[index], self.v[index]  # views of the whole, else copies
        self.t[index] += 1
        # The scale is exactly 1.0 below the clip.
        with np.errstate(over="ignore"):
            norm = self._norm(g, grads)
        scale = GRAD_CLIP_NORM / np.maximum(norm, GRAD_CLIP_NORM)
        huge = np.isinf(norm)
        if huge.any():
            # Finite gradients past about 1e154 overflow their squares: such
            # a row is clipped by way of g / max|g|, whose norm is finite.
            g[huge] /= np.abs(g[huge]).max(axis=1, keepdims=True)
            scale[huge] = GRAD_CLIP_NORM / self._norm(g[huge], grads)
        g *= scale[:, None]
        sq = self.scratch[: len(g)]
        # Python floats: ``**`` on them is libm pow, where numpy's vector
        # power may round differently on another CPU.
        step_size = np.array([lr * (math.sqrt(1.0 - ADAM_BETA2**k) / (1.0 - ADAM_BETA1**k))
                              for k in self.t[index].tolist()])
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=sq)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=sq)
        sq *= g
        v += sq
        if sel is not None:
            self.m[sel], self.v[sel] = m, v
        # The update, step_size m / (sqrt(v) + eps), overwrites g.
        np.sqrt(v, out=sq)
        sq += ADAM_EPS
        np.multiply(m, step_size[:, None], out=g)
        g /= sq
        for name, tensor in params.tensors().items():
            if name in self.parts:
                delta = g[:, self.parts[name]]
                if sel is None:
                    tensor -= delta.reshape(tensor.shape)
                else:
                    tensor[sel] -= delta.reshape(len(sel), *tensor.shape[1:])
        return finite


def _segment_bounds(n: int, batch_length: int) -> list[tuple[int, int]]:
    return [(s, min(s + batch_length, n)) for s in range(0, n, batch_length)]


def _lstm_frozen(params: nn.RnnParams) -> bool:
    """Whether every LSTM tensor is frozen: training never changes the recurrence."""
    return all(frozen for name, frozen in params.freeze_mask.items() if name.startswith("lstm."))


def validation_loss(params: nn.RnnParams, train: SupervisedSeries, val, start=None):
    """Masked validation MSE after a kernel-only spin-up over the training span.

    For a stack of R networks, ``val`` is a list of R series with the same
    inputs, and the result holds one loss per realization. ``start``, when
    given, is the spin-up's end state, and the spin-up is not run.
    """
    series = val if isinstance(val, list) else [val]
    if start is None:
        start = nn.forward(params, train.inputs, from_step=len(train))[1]
    preds, _ = nn.forward(params, series[0].inputs, initial=start)
    targets = np.array([s.targets for s in series]).reshape(preds.shape)
    mask = np.array([s.mask for s in series]).reshape(preds.shape)
    return masked_mse(preds, targets, mask)


def fit_lockstep(
    params: list[nn.RnnParams],
    train: SupervisedSeries,
    vals: list[SupervisedSeries],
    config: TrainConfig,
    seeds: list[int],
    selections: list[str],
) -> list[Realization | TrainingDivergedError]:
    """Train networks of equal shape and freeze mask in lockstep.

    Realization r trains ``params[r]`` under ``config`` with seed
    ``seeds[r]`` (its segment order) and validation series ``vals[r]``
    (all with the same inputs), and comes back bit for bit as a call with
    it alone would return it: the snapshot with the best validation loss,
    its frozen tensors bit-identical to their initial values. Each keeps
    its own segment order, Adam state, early stopping and ``Realization``
    record, updated in place each epoch. At each lockstep step the
    realizations whose segments have the same length share one
    ``backward`` and Adam update. One whose gradients in that step are
    not all finite, or whose epoch losses are not finite, comes back as a
    :class:`TrainingDivergedError` with that record as ``last_good``; the
    others take the step's update as computed, with no re-run. One whose
    segment holds no observations sits the step out, and its next
    segment's start state is not refreshed. A lone network is not
    stacked: it runs the plain layout, whose per-step arrays are smaller.
    """
    if len(train) == 0 or any(len(val) == 0 for val in vals):
        raise InvalidInputError("training and validation series must be non-empty")
    n = len(params)
    stack = nn.stack(params) if n > 1 else params[0].copy()

    def snapshot(r) -> nn.RnnParams:
        return stack.take(r) if n > 1 else stack.copy()

    shuffle_rngs = [substream(seed, STREAM_SHUFFLE) for seed in seeds]
    adam = AdamState(stack)
    bounds = _segment_bounds(len(train), config.batch_length)
    seg_mask_counts = [train.mask[s:e].sum() for s, e in bounds]
    # A realization live at an epoch's end has trained on every observed
    # segment once; the counts are whole numbers, so the sum is exact.
    n_obs = sum(seg_mask_counts)
    # The cached state at each segment start, per realization.
    start_c = np.zeros((n, len(bounds), stack.lstm.hidden_size))
    start_h = np.zeros_like(start_c)

    # With every LSTM tensor frozen, the spin-up of each epoch's validation
    # pass ends in the same state: it runs once, and each epoch takes the
    # rows of the realizations still live.
    with np.errstate(over="ignore", invalid="ignore"):
        spun = (nn.forward(stack, train.inputs, from_step=len(train))[1]
                if _lstm_frozen(stack) else None)

    records = [Realization(seed, selection, trained=snapshot(r), history=[], best_epoch=0)
               for r, (seed, selection) in enumerate(zip(seeds, selections))]
    outcome: list = [None] * n  # set when a realization stops early or diverges

    def diverge(r, message):
        outcome[r] = TrainingDivergedError(message, last_good=records[r])

    def train_step(members, length, epoch):
        """One backward and Adam update for the (realization, segment) pairs
        ``members``, all segments ``length`` long. A member whose gradients
        are not all finite diverges and is left out of the update; returns
        the losses of the others."""
        rows = np.array([r for r, _ in members])
        segs = np.array([k for _, k in members])
        whole = len(members) == n  # then rows are 0 .. n-1 in order
        sub = stack if whole else stack.take(rows)
        steps = np.array([bounds[k][0] for k in segs])[:, None] + np.arange(length)

        def per_row(a):  # one row per member, in the layout of ``sub``
            return a.reshape(*sub.stack_shape, *a.shape[1:])

        with np.errstate(over="ignore", invalid="ignore"):
            grads, losses, final = backward(
                sub, per_row(train.inputs[steps]), per_row(train.targets[steps]),
                per_row(train.mask[steps]),
                initial=nn.LstmState(c=per_row(start_c[rows, segs]),
                                     h=per_row(start_h[rows, segs])),
            )
            finite = adam.step(stack, grads, config.learning_rate, rows=None if whole else rows)
        for r in rows[~finite]:
            diverge(r, f"training diverged at epoch {epoch}: non-finite gradient")
        more = finite & (segs + 1 < len(bounds))
        start_c[rows[more], segs[more] + 1] = final.c.reshape(len(rows), -1)[more]
        start_h[rows[more], segs[more] + 1] = final.h.reshape(len(rows), -1)[more]
        return [(m, loss) for m, loss, ok in zip(members, np.atleast_1d(losses), finite) if ok]

    for epoch in range(1, config.max_epochs + 1):
        live = [r for r in range(n) if outcome[r] is None]
        if not live:
            break
        orders = {
            r: shuffle_rngs[r].permutation(len(bounds)) if config.shuffle else range(len(bounds))
            for r in live
        }
        sq_sum = dict.fromkeys(live, 0.0)
        for j in range(len(bounds)):
            by_length: dict[int, list[tuple[int, int]]] = {}
            for r in live:
                k = orders[r][j]
                if outcome[r] is None and seg_mask_counts[k] > 0:
                    s, e = bounds[k]
                    by_length.setdefault(e - s, []).append((r, k))
            for length, members in by_length.items():
                for (r, k), seg_loss in train_step(members, length, epoch):
                    sq_sum[r] += seg_loss * seg_mask_counts[k]
        live = [r for r in live if outcome[r] is None]
        if not live:
            continue
        index = ... if len(live) == n else np.array(live)
        with np.errstate(over="ignore", invalid="ignore"):
            val_losses = validation_loss(
                stack if len(live) == n else stack.take(index), train,
                [vals[r] for r in live],
                None if spun is None else nn.LstmState(c=spun.c[index], h=spun.h[index]),
            )
        for r, val_loss in zip(live, np.atleast_1d(val_losses).tolist()):
            rec = records[r]
            best_val = rec.history[rec.best_epoch - 1][2] if rec.best_epoch else math.inf
            train_loss = float(sq_sum[r] / n_obs) if n_obs else math.nan
            rec.history.append((epoch, train_loss, val_loss))
            if not math.isfinite(val_loss) or not math.isfinite(train_loss):
                diverge(r, f"training diverged at epoch {epoch}: non-finite loss")
            elif val_loss < best_val:
                rec.trained, rec.best_epoch = snapshot(r), epoch
            elif epoch - rec.best_epoch >= config.patience:
                outcome[r] = rec
    return [rec if done is None else done for rec, done in zip(records, outcome)]


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


def write_history_csv(history: list[tuple[int, float, float]], path) -> None:
    datamod.write_table(path, ("epoch", "train_loss", "val_loss"), history)
