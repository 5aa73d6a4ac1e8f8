"""Recurrent network: one LSTM layer followed by three dense layers.

The LSTM cell follows the standard equations

    f_t = sigma(W_xf x_t + W_hf h_{t-1} + b_f)
    i_t = sigma(W_xi x_t + W_hi h_{t-1} + b_i)
    g_t = tanh (W_xg x_t + W_hg h_{t-1} + b_g)
    o_t = sigma(W_xo x_t + W_ho h_{t-1} + b_o)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

with c_t the long-term cell state and h_t the short-term hidden state.
The hidden state feeds a stack of three dense layers whose final output
is a single scalar (fuel moisture, percent).

One kernel, ``lstm_steps``, runs the cell for inference, training and
the bias-shift search. ``LstmParams`` stores the gates stacked: (4H,
input), (4H, H) and (4H,) arrays with rows in ``GATE_NAMES`` order (f,
i, o, g), so one product gives every gate pre-activation. The kernel
halves the f, i, o rows of its weights once per call, so that one tanh
per step covers all four gates: sigma(z) = 0.5 + 0.5 tanh(z / 2), and
halving is exact. Given B bias-shift candidates, the candidate axis
trails: states are (H, B) and gates (4H, B). The per-gate tensors of the
freeze mask, the optimizer and checkpoints (``lstm.b_f`` ...) are
``gate_blocks`` views.

Two block sizes bound the memory of a long series. ``forward`` streams
the dense stack over blocks of ``PROJECTION_BLOCK`` (1,024) steps: it
writes the hidden state of each step straight into a block buffer laid
out as ``dense_forward`` reads it (realization-major in a stack), and
runs the dense stack on each block that ends after ``from_step``, the
kernel alone on the rest; a block keeps its place, and so its bits.
It copies no block and allocates nothing as long as the series but the
predictions. The kernel projects its inputs ahead of the recurrence,
one product per ``PROJECTION_SUB_BLOCK`` (128) steps of each such block.
Both sizes are fixed, never sized from R or T. The dense stack's
products round differently below about 112 rows (with OpenBLAS), so its
block sets the rows of every product. The input projection rounds a row
alike for any row count but one: a one-row product takes another BLAS
routine (gemv). So a block's lone last row joins the sub-block before
it, and every row comes out as one product over its whole block gives it.

A stack of R networks (``stack``) holds every tensor with a leading
realization axis: (R, 4H, input), (R, 4H, H), (R, out, in) and so on.
The kernel, the dense stack and ``forward`` take either layout. The
kernel's loop holds a stack in the search's layout: states (H, R, B)
and gates (4H, R, B), B = 1 without shifts, so every gate block is one
contiguous leading-axis slice. Each recurrent product runs per
realization as one batched ``np.matmul`` over (R, H, B) views, making
the call a single network makes, so each realization of a stack
computes bit for bit what it computes alone; the kernel yields such
(R, 4H, B) and (R, H, B) views. The kernel allocates its step arrays
(gates, states copied from the initial ones, one scratch) and builds
their views once per call, and writes every step into them: what it
yields is overwritten by the next step. Outside it the hidden states of
``forward`` and ``train.backward`` are realization-major, the layout
``dense_forward`` reads, and are filled step by step through their
``time_major`` view; ``train.backward`` keeps its gates and cell states
in the loop's own layout, (T, 4H, R, 1) and (T + 1, H, R, 1).

``LstmParams.linear_gates`` switches every sigma/tanh above to the
identity. In that mode a single-unit cell with zero gate weights,
b_f = a and b_i = 1 - a reproduces the first-order time-lag recursion
m_t = a m_{t-1} + (1-a) X_t exactly; see ``construct_timelag_lstm``.

Parameters serialize to a flat named-tensor JSON container (one record
per tensor: name, shape, row-major values) shared by training, transfer
and the CLI.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fmwarp.errors import DimensionError, InvalidInputError
from fmwarp.timelag import TimeLagParams

# Row order of the stacked gate tensors: the three sigmoid gates, then the
# tanh candidate.
GATE_NAMES = ("f", "i", "o", "g")
# A per-gate tensor name is the prefix of its stacked tensor plus a gate
# tag; ``tensors()`` and checkpoints list them in CHECKPOINT_NAMES order.
BLOCK_PREFIXES = ("w_x", "w_h", "b_")
CHECKPOINT_NAMES = tuple(prefix + tag for prefix in BLOCK_PREFIXES for tag in ("f", "i", "g", "o"))
CHECKPOINT_FORMAT = "fmwarp-tensors-v1"
# Steps per dense-stack block in ``forward``, and per block of the input
# projection in ``lstm_steps``: a BLAS product's rounding can depend on its
# row count, and the dense stack's does.
PROJECTION_BLOCK = 1024
# Steps per input projection within a block: at H=64 a 128-step projection
# is 0.26 MB, a 1,024-step one 2.1 MB and one over two years of hours 36 MB.
# Any row count but one rounds a row of this product alike (see the module
# docstring; the property tests pin it).
PROJECTION_SUB_BLOCK = 128
# Initial forget-gate bias: the usual trick to favor remembering early in
# training.
FORGET_BIAS = 1.0


def split_gates(a: np.ndarray, axis: int) -> list[np.ndarray]:
    """Views of the four gate blocks of ``a`` along ``axis``, in
    ``GATE_NAMES`` order: ``np.split(a, 4, axis)`` without its overhead."""
    size = a.shape[axis] // 4
    index = [slice(None)] * a.ndim
    blocks = []
    for k in range(4):
        index[axis] = slice(k * size, (k + 1) * size)
        blocks.append(a[tuple(index)])
    return blocks


def gate_blocks(w_x, w_h, b) -> dict[str, np.ndarray]:
    """Views of the per-gate row blocks ``w_xf`` ... ``b_g`` of stacked
    (..., 4H, ·) weights and (..., 4H) biases, in row order."""
    return {
        prefix + tag: block
        for prefix, stacked, axis in zip(BLOCK_PREFIXES, (w_x, w_h, b), (-2, -2, -1))
        for tag, block in zip(GATE_NAMES, split_gates(stacked, axis))
    }


@dataclass
class LstmParams:
    """Weights (4H, input) and (4H, H) and biases (4H,) of one LSTM layer,
    in H-row gate blocks in ``GATE_NAMES`` order, each with the same
    leading realization axes in a stack. ``linear_gates`` replaces all
    gate and candidate activations (and the cell-output tanh) with the
    identity, the mode used by the constructed time-lag unit.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    linear_gates: bool = False

    def __post_init__(self):
        *lead, rows = self.b.shape
        h = rows // 4
        if (self.w_x.shape[:-1] != (*lead, 4 * h) or self.w_h.shape != (*lead, 4 * h, h)
                or rows != 4 * h):
            raise DimensionError(
                f"LSTM tensors must be w_x (4H, input), w_h (4H, H) and b (4H,), got "
                f"{self.w_x.shape}, {self.w_h.shape} and {self.b.shape}"
            )
        for name, arr in self.tensors().items():
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"non-finite entries in lstm.{name}")

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[-1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-1]

    def tensors(self) -> dict[str, np.ndarray]:
        """Live per-gate views, keyed ``w_xf`` ... ``b_o``."""
        blocks = gate_blocks(self.w_x, self.w_h, self.b)
        return {name: blocks[name] for name in CHECKPOINT_NAMES}


@dataclass
class DenseParams:
    """One dense layer: weights (out, in), bias (out,), activation name;
    a stack adds leading realization axes to both."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        if self.weights.ndim < 2 or self.bias.shape != self.weights.shape[:-1]:
            raise DimensionError(
                f"dense bias shape {self.bias.shape} inconsistent with weights {self.weights.shape}"
            )
        if self.activation not in ("identity", "relu"):
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise InvalidInputError("non-finite entries in dense layer")


@dataclass
class RnnParams:
    """Full network: LSTM layer, three dense layers, per-tensor freeze flags.

    ``freeze_mask`` maps tensor names (e.g. ``"lstm.b_f"``, ``"dense0.w"``)
    to True when the tensor is excluded from training.
    """

    lstm: LstmParams
    dense: tuple[DenseParams, ...]
    freeze_mask: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.dense) != 3:
            raise DimensionError(f"expected 3 dense layers, got {len(self.dense)}")
        size = self.lstm.hidden_size
        for k, layer in enumerate(self.dense):
            if (*layer.weights.shape[:-2], layer.weights.shape[-1]) != (*self.stack_shape, size):
                raise DimensionError(
                    f"dense{k} weights {layer.weights.shape} do not take input "
                    f"{(*self.stack_shape, size)}"
                )
            size = layer.weights.shape[-2]
        if size != 1:
            raise DimensionError(f"final dense layer must output a scalar, got {size}")
        full = {name: False for name in self.tensor_names()}
        full.update(self.freeze_mask)
        self.freeze_mask = full

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """The leading realization axes: () for one network, (R,) for a stack."""
        return self.lstm.b.shape[:-1]

    def tensor_names(self) -> list[str]:
        return list(self.tensors())

    def tensors(self) -> dict[str, np.ndarray]:
        """Live views of every tensor, keyed by name."""
        out = {f"lstm.{k}": v for k, v in self.lstm.tensors().items()}
        for k, layer in enumerate(self.dense):
            out[f"dense{k}.w"] = layer.weights
            out[f"dense{k}.b"] = layer.bias
        return out

    def copy(self) -> "RnnParams":
        return copy.deepcopy(self)

    def take(self, rows) -> "RnnParams":
        """A copy of realization ``rows`` of a stack (an int index), or of the
        sub-stack of realizations ``rows`` (an index array)."""
        lstm = LstmParams(self.lstm.w_x[rows].copy(), self.lstm.w_h[rows].copy(),
                          self.lstm.b[rows].copy(), self.lstm.linear_gates)
        dense = tuple(DenseParams(layer.weights[rows].copy(), layer.bias[rows].copy(),
                                  layer.activation) for layer in self.dense)
        return RnnParams(lstm=lstm, dense=dense, freeze_mask=dict(self.freeze_mask))


@dataclass
class LstmState:
    """Cell state c (long-term memory) and hidden state h (short-term memory)."""

    c: np.ndarray
    h: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "LstmState":
        """Zero states of ``shape``: the hidden size, or (R, hidden size)."""
        return cls(c=np.zeros(shape), h=np.zeros(shape))


def stack(nets: list[RnnParams]) -> RnnParams:
    """One network whose tensors stack those of ``nets`` on a leading
    realization axis. The nets share sizes, gate mode, activations and
    freeze mask (those of the first are used)."""
    first = nets[0]
    lstm = LstmParams(
        *(np.stack([getattr(net.lstm, name) for net in nets]) for name in ("w_x", "w_h", "b")),
        linear_gates=first.lstm.linear_gates,
    )
    dense = tuple(
        DenseParams(np.stack([net.dense[k].weights for net in nets]),
                    np.stack([net.dense[k].bias for net in nets]), layer.activation)
        for k, layer in enumerate(first.dense)
    )
    return RnnParams(lstm=lstm, dense=dense, freeze_mask=dict(first.freeze_mask))


def _projection_bounds(steps: int):
    """The (lo, hi) step ranges of the input projections of ``lstm_steps``:
    ``PROJECTION_SUB_BLOCK`` steps at a time within each ``PROJECTION_BLOCK``
    block, a lone last row of a block joining the range before it."""
    for start in range(0, steps, PROJECTION_BLOCK):
        stop = min(start + PROJECTION_BLOCK, steps)
        cuts = range(start, stop - 1, PROJECTION_SUB_BLOCK)[1:]  # none at stop - 1
        yield from itertools.pairwise((start, *cuts, stop))


def lstm_steps(
    lstm: LstmParams,
    inputs: np.ndarray,
    initial: LstmState,
    shifts: np.ndarray | None = None,
):
    """Run the cell over a (T, input) series, yielding (gates, c, h) after
    each step.

    ``gates`` holds the activated gates, rows in ``GATE_NAMES`` order:
    gates are (4H,) and c, h are (H,). With ``shifts`` (B, 2), candidate b
    adds shifts[b] to (b_f, b_i) and a candidate axis trails: gates are
    (4H, B), c and h are (H, B). A stack of R networks takes (R, H) initial
    states and shared (T, input) or per-realization (R, T, input) inputs.
    Its loop runs in the search's layout, gates (4H, R, B) and states
    (H, R, B) with B = 1 without shifts, and yields their (R, 4H, B) and
    (R, H, B) views, each realization's slice bit for bit its own run: the
    (R, H, B) view makes each recurrent product the one a single network runs.
    Input projections are hoisted out of the recurrent loop, one product
    per ``PROJECTION_SUB_BLOCK`` steps of each ``PROJECTION_BLOCK`` block
    (a block's lone last row joins the product before it), into one buffer
    of at most ``PROJECTION_SUB_BLOCK + 1`` rows. Every row comes out bit
    for bit as it would from one product over its whole block. The
    yielded arrays are views of step arrays allocated once per call, valid
    until the next step overwrites them; ``initial`` is copied, never
    written.
    """
    size = lstm.hidden_size
    stacked = lstm.b.ndim > 1
    # Rows lead, then a stack's realization axis, then the candidate axis:
    # states (H,), (H, B) or (H, R, B), with B = 1 until the shifts repeat it.
    # Float copies, as the loop writes them in place.
    c, h = (np.array(state.T, dtype=float, order="C") for state in (initial.c, initial.h))
    if stacked or shifts is not None:
        c, h = c[..., None], h[..., None]
    w_x, w_h, bias = lstm.w_x, lstm.w_h, lstm.b
    bias_shift = None
    if shifts is not None:
        # (2H, B), or (2H, 1, B) in a stack: b_f rows, then b_i.
        bias_shift = np.repeat(shifts.T[:, None] if stacked else shifts.T, size, axis=0)
        c = np.repeat(c, len(shifts), axis=-1)
        h = np.repeat(h, len(shifts), axis=-1)
    if not lstm.linear_gates:
        # sigma(z) = 0.5 + 0.5 tanh(z / 2): with the f, i, o rows halved
        # here, one tanh per step activates every gate. Halving is exact,
        # so every pre-activation is half the unscaled one, bit for bit.
        half = np.where(np.arange(4 * size) < 3 * size, 0.5, 1.0)
        w_x, w_h, bias = w_x * half[:, None], w_h * half[:, None], bias * half
        if bias_shift is not None:
            bias_shift *= 0.5
    w_x_t = w_x.swapaxes(-1, -2)
    bias = bias[..., None, :]
    # The step arrays and every view of them, built once: gate-major z, its
    # sigmoid rows, b_f and b_i rows and gate blocks, and a state scratch.
    z = np.empty((4 * size, *h.shape[1:]))
    fio, shifted, tmp = z[: 3 * size], z[: 2 * size], np.empty_like(c)
    f, i, o, g = split_gates(z, 0)
    # What the loop yields; in a stack, realization-major views, so that
    # each recurrent product is the one a single network makes.
    views = tuple(a.swapaxes(0, 1) for a in (z, c, h)) if stacked else (z, c, h)
    z_out, _, h_in = views
    # One projection buffer, reused sub-block after sub-block, so a stack's
    # R-fold larger sub-block is never allocated twice at once.
    steps = inputs.shape[-2]
    lead = np.broadcast_shapes(inputs.shape[:-2], lstm.b.shape[:-1])
    buffer = np.empty((*lead, min(steps, PROJECTION_SUB_BLOCK + 1), 4 * size))
    for lo, hi in _projection_bounds(steps):
        z_in = np.matmul(inputs[..., lo:hi, :], w_x_t, out=buffer[..., : hi - lo, :])
        z_in += bias
        rows = z_in.transpose(1, 2, 0) if stacked else z_in  # time-major, gate rows lead
        for z_t in rows if c.ndim == 1 else rows[..., None]:  # in the states' layout
            np.matmul(w_h, h_in, out=z_out)
            z += z_t
            if bias_shift is not None:
                shifted += bias_shift
            if not lstm.linear_gates:
                np.tanh(z, out=z)
                fio *= 0.5
                fio += 0.5
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=tmp)
            c += tmp
            if lstm.linear_gates:
                np.multiply(o, c, out=h)
            else:
                np.tanh(c, out=h)
                h *= o
            yield views


def dense_forward(
    dense: tuple[DenseParams, ...], h: np.ndarray, cache: list | None = None
) -> np.ndarray:
    """Dense stack applied to a (rows, hidden) batch, or (R, rows, hidden)
    for a stack.

    With a ``cache`` list, each layer appends its (input, pre-activation)
    pair for the backward pass. Without one, each layer adds its bias and
    applies its ReLU in place, in the array its product returned.
    """
    v = h
    for layer in dense:
        z = v @ layer.weights.swapaxes(-1, -2)
        z += layer.bias[..., None, :]
        if cache is not None:
            cache.append((v, z))
        if layer.activation == "relu":  # in place, unless the cache holds z
            z = np.maximum(z, 0.0, out=z if cache is None else None)
        v = z
    return v


def time_major(a: np.ndarray) -> np.ndarray:
    """The time-major view of a realization-major per-step buffer, (T, n)
    for one network or (R, T, n) for a stack: ``view[t]`` is step t in the
    shape ``lstm_steps`` yields it without shifts, (n,) or (R, n, 1)."""
    view = a.swapaxes(0, -2)
    return view[..., None] if a.ndim > 2 else view


def forward(
    params: RnnParams, inputs: np.ndarray, initial: LstmState | None = None, from_step: int = 0
) -> tuple[np.ndarray, LstmState]:
    """Map a (T, input_size) series to the predictions of steps ``from_step``..T-1.

    The prediction at step t depends only on inputs[0..t], up to its last
    bits: those also depend on the row count of its dense block, because
    BLAS may round a product of few rows (one, say) differently from a
    longer one. The final state is returned so a long series can be
    processed in chunks. A stack of R networks maps the shared series to
    (R, T - from_step) predictions from (R, H) initial states.

    The dense stack streams: the hidden states of each ``PROJECTION_BLOCK``
    steps (fewer in the last block) go straight into one (block, H) or
    (R, block, H) buffer, the layout ``dense_forward`` reads, and through
    one ``dense_forward`` call into the preallocated predictions, the only
    array as long as the series. Blocks ending at or before ``from_step``
    run the kernel alone; the rest keep their places, and so their bits.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise InvalidInputError(f"inputs must be (T>=1, input_size), got {inputs.shape}")
    if inputs.shape[1] != params.lstm.input_size:
        raise DimensionError(
            f"inputs have {inputs.shape[1]} features, network expects {params.lstm.input_size}"
        )
    steps = len(inputs)
    if not 0 <= from_step <= steps:
        raise InvalidInputError(f"from_step must be in 0 .. {steps}, got {from_step}")
    shape = (*params.stack_shape, params.lstm.hidden_size)
    state = initial if initial is not None else LstmState.zeros(shape)
    if state.c.shape != shape or state.h.shape != shape:
        raise DimensionError(f"initial state must have shape {shape}")
    dense_start = steps if from_step == steps else from_step - from_step % PROJECTION_BLOCK
    preds = np.empty((*params.stack_shape, steps - dense_start))
    hidden = np.empty((*params.stack_shape, min(steps - dense_start, PROJECTION_BLOCK), shape[-1]))
    slots = time_major(hidden)  # slots[k] takes step k
    cells = lstm_steps(params.lstm, inputs, state)
    for _, c, h in itertools.islice(cells, dense_start):
        pass  # the kernel alone: these blocks return no prediction
    for start in range(dense_start, steps, PROJECTION_BLOCK):
        rows = min(PROJECTION_BLOCK, steps - start)
        for k, (_, c, h) in enumerate(itertools.islice(cells, rows)):
            slots[k] = h
        if start + rows == steps:
            # The last block runs once the kernel has freed its projection
            # buffer, so a short series peaks no higher than the two phases alone.
            cells.close()
        block = dense_forward(params.dense, hidden[..., :rows, :])
        preds[..., start - dense_start : start - dense_start + rows] = block[..., 0]
    return preds[..., from_step - dense_start :], LstmState(c=c.reshape(shape), h=h.reshape(shape))


def construct_timelag_lstm(tau: float, eq_input_index: int, input_size: int | None = None) -> RnnParams:
    """Build the single-unit linear-gate network that realizes the time-lag recursion.

    All gate weights are zero, so with identity activations the gate
    values are the biases themselves: f = b_f = a, i = b_i = 1 - a, and
    the candidate picks out input column ``eq_input_index``. The cell
    state then satisfies c_t = a c_{t-1} + (1-a) X_t exactly; the output
    gate and dense stack pass it through unchanged.
    """
    if input_size is None:
        input_size = eq_input_index + 1
    if not 0 <= eq_input_index < input_size:
        raise InvalidInputError(
            f"eq_input_index {eq_input_index} out of range for input_size {input_size}"
        )
    a = TimeLagParams.from_tau(tau).a
    # One row per gate, in GATE_NAMES order (f, i, o, g).
    w_x = np.zeros((4, input_size))
    w_x[3, eq_input_index] = 1.0
    b = np.array([a, 1.0 - a, 1.0, 0.0])
    lstm = LstmParams(w_x=w_x, w_h=np.zeros((4, 1)), b=b, linear_gates=True)
    passthrough = lambda: DenseParams(np.ones((1, 1)), np.zeros(1), "identity")
    return RnnParams(lstm=lstm, dense=(passthrough(), passthrough(), passthrough()))


def init_params(
    input_size: int,
    hidden_size: int,
    dense_sizes: tuple[int, int],
    rng: np.random.Generator,
) -> RnnParams:
    """Glorot-uniform initialization of the full network, drawn from ``rng``.

    The forget-gate bias starts at ``FORGET_BIAS``; all other biases start
    at zero.
    """

    def glorot(shape):
        fan_in, fan_out = shape[1], shape[0]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    h, d = hidden_size, input_size
    lstm = LstmParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))
    blocks = lstm.tensors()  # weights are drawn block by block, in checkpoint order
    for name, block in blocks.items():
        if name.startswith("w_"):
            block[:] = glorot(block.shape)
    blocks["b_f"][:] = FORGET_BIAS
    sizes = [hidden_size, *dense_sizes, 1]
    activations = ["relu"] * len(dense_sizes) + ["identity"]
    dense = tuple(
        DenseParams(glorot((sizes[k + 1], sizes[k])), np.zeros(sizes[k + 1]), activations[k])
        for k in range(len(sizes) - 1)
    )
    return RnnParams(lstm=lstm, dense=dense)


def save_params(params: RnnParams, path, extra: dict | None = None) -> None:
    """Write the named-tensor container: one record per tensor with
    name, shape and row-major values, plus structural metadata."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "meta": {
            "linear_gates": params.lstm.linear_gates,
            "dense_activations": [layer.activation for layer in params.dense],
            "freeze_mask": params.freeze_mask,
            "extra": extra or {},
        },
        "tensors": [
            {"name": name, "shape": list(arr.shape), "data": arr.ravel(order="C").tolist()}
            for name, arr in params.tensors().items()
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_params(path) -> tuple[RnnParams, dict]:
    """Read a named-tensor container; returns (params, extra metadata).

    The per-gate LSTM records are stacked once, here. A file that is not
    JSON, lacks a field, or holds tensors whose names, data or shapes do
    not fit together raises :class:`InvalidInputError` that names the
    path.
    """
    try:
        doc = json.loads(Path(path).read_text())
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {doc.get('format')!r}")
        arrays = {
            rec["name"]: np.asarray(rec["data"], dtype=float).reshape(rec["shape"])
            for rec in doc["tensors"]
        }
        meta = doc["meta"]
        lstm = LstmParams(
            *(np.concatenate([arrays[f"lstm.{prefix}{tag}"] for tag in GATE_NAMES])
              for prefix in BLOCK_PREFIXES),
            linear_gates=bool(meta["linear_gates"]),
        )
        dense = tuple(
            DenseParams(arrays[f"dense{k}.w"], arrays[f"dense{k}.b"], meta["dense_activations"][k])
            for k in range(3)
        )
        params = RnnParams(lstm=lstm, dense=dense, freeze_mask=dict(meta["freeze_mask"]))
        shapes = {name: arr.shape for name, arr in arrays.items()}
        if {name: arr.shape for name, arr in params.tensors().items()} != shapes:
            raise ValueError("tensor names or shapes do not fit")
        return params, meta.get("extra", {})
    except (ValueError, LookupError, TypeError, AttributeError, DimensionError,
            InvalidInputError) as exc:
        raise InvalidInputError(f"corrupt checkpoint {path}: {exc!r}") from exc
