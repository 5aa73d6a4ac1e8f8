import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from fmwarp import data, nn, train, transfer
from fmwarp.errors import DegenerateMaskError, InvalidInputError, TrainingDivergedError
from helpers import fit


def random_params(seed, input_size=3, hidden=2, dense=(3, 2), jitter=0.3):
    """Fresh network with every tensor (biases included) jittered off zero,
    so relu pre-activations never sit exactly on the kink."""
    rng = np.random.default_rng(seed)
    params = nn.init_params(input_size, hidden, dense, rng=rng)
    for arr in params.tensors().values():
        arr += rng.normal(0.0, jitter, size=arr.shape)
    return params


def fd_gradient(params, inputs, targets, mask, name, idx, eps=1e-5):
    flat = params.tensors()[name].ravel()
    orig = flat[idx]
    flat[idx] = orig + eps
    lp = train.masked_mse(nn.forward(params, inputs)[0], targets, mask)
    flat[idx] = orig - eps
    lm = train.masked_mse(nn.forward(params, inputs)[0], targets, mask)
    flat[idx] = orig
    return (lp - lm) / (2.0 * eps)


def test_masked_mse_zero_when_equal():
    pred = np.array([1.0, 2.0, 3.0])
    assert train.masked_mse(pred, pred, np.ones(3)) == 0.0


def test_masked_mse_hand_value():
    assert train.masked_mse([1, 2, 3], [0, 0, 0], [1, 0, 1]) == pytest.approx(5.0, abs=0)


def test_masked_mse_dropping_worst_point():
    pred = np.array([1.0, 2.0, 10.0])
    obs = np.zeros(3)
    full = train.masked_mse(pred, obs, np.ones(3))
    dropped = train.masked_mse(pred, obs, np.array([1.0, 1.0, 0.0]))
    assert dropped <= full


def test_masked_mse_degenerate_mask():
    with pytest.raises(DegenerateMaskError):
        train.masked_mse([1.0], [0.0], [0.0])


def test_masked_mse_length_mismatch():
    with pytest.raises(InvalidInputError):
        train.masked_mse([1.0, 2.0], [0.0], [1.0])


def test_backward_zero_loss_gives_zero_gradients():
    params = random_params(2)
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(8, 3))
    preds, _ = nn.forward(params, inputs)
    mask = np.zeros(8)
    mask[5] = 1.0
    targets = np.zeros(8)
    targets[5] = preds[5]  # exact match at the only masked step
    grads, loss, _ = train.backward(params, inputs, targets, mask)
    assert loss == 0.0
    for arr in grads.values():
        assert_array_equal(arr, np.zeros_like(arr))


def test_backward_all_frozen_gives_zero_gradients():
    params = random_params(3)
    params.freeze_mask = {name: True for name in params.tensor_names()}
    rng = np.random.default_rng(1)
    grads, _, _ = train.backward(
        params, rng.normal(size=(10, 3)), rng.normal(size=10), np.ones(10)
    )
    for arr in grads.values():
        assert_array_equal(arr, np.zeros_like(arr))


def test_backward_finite_difference_check():
    # hidden=2, T=10: >= 20 random coordinates spanning every tensor role.
    rng = np.random.default_rng(123)
    params = random_params(123)
    inputs = rng.normal(size=(10, 3))
    targets = rng.normal(size=10)
    mask = np.ones(10)
    mask[2] = 0.0
    grads, _, _ = train.backward(params, inputs, targets, mask)
    checked = 0
    for name, arr in params.tensors().items():
        for _ in range(2):
            idx = int(rng.integers(arr.size))
            fd = fd_gradient(params, inputs, targets, mask, name, idx)
            an = grads[name].ravel()[idx]
            if max(abs(fd), abs(an)) < 1e-7:
                assert abs(fd - an) < 1e-7  # both numerically zero
            else:
                assert abs(fd - an) / max(abs(fd), abs(an)) <= 1e-5, (name, idx)
            checked += 1
    assert checked >= 20


def test_backward_linear_mode_finite_difference():
    # Same check through the constructed-variant (identity activation) path.
    rng = np.random.default_rng(7)
    params = random_params(7, jitter=0.2)
    for arr in params.tensors().values():
        arr *= 0.3  # keep the linear recursion stable over 10 steps
    params.lstm.linear_gates = True
    inputs = rng.normal(size=(10, 3)) * 0.3
    targets = rng.normal(size=10)
    mask = np.ones(10)
    grads, _, _ = train.backward(params, inputs, targets, mask)
    for name, arr in params.tensors().items():
        idx = int(rng.integers(arr.size))
        fd = fd_gradient(params, inputs, targets, mask, name, idx)
        an = grads[name].ravel()[idx]
        if max(abs(fd), abs(an)) < 1e-7:
            assert abs(fd - an) < 1e-7
        else:
            assert abs(fd - an) / max(abs(fd), abs(an)) <= 1e-4, (name, idx)


@pytest.mark.parametrize("linear_gates", [False, True])
def test_backward_matches_forward_bitwise(linear_gates):
    # Training and inference run the same kernel: from a non-zero initial
    # state, backward's loss and final state equal forward's exactly.
    rng = np.random.default_rng(17)
    params = random_params(17, hidden=4)
    if linear_gates:
        for arr in params.tensors().values():
            arr *= 0.3  # keep the linear recursion stable over the segment
        params.lstm.linear_gates = True
    inputs = rng.normal(size=(24, 3))
    targets = rng.normal(size=24)
    mask = (rng.random(24) < 0.6).astype(float)
    mask[0] = 1.0
    initial = nn.LstmState(c=rng.normal(size=4), h=rng.normal(size=4))
    _, loss, final = train.backward(params, inputs, targets, mask, initial=initial)
    preds, state = nn.forward(params, inputs, initial=initial)
    assert loss == train.masked_mse(preds, targets, mask)
    assert_array_equal(final.c, state.c)
    assert_array_equal(final.h, state.h)


def test_backward_respects_freeze_mask():
    params = random_params(9)
    params.freeze_mask["lstm.w_xf"] = True
    params.freeze_mask["dense0.b"] = True
    rng = np.random.default_rng(2)
    grads, _, _ = train.backward(
        params, rng.normal(size=(12, 3)), rng.normal(size=12), np.ones(12)
    )
    assert_array_equal(grads["lstm.w_xf"], np.zeros_like(grads["lstm.w_xf"]))
    assert_array_equal(grads["dense0.b"], np.zeros_like(grads["dense0.b"]))
    assert np.any(grads["lstm.w_xi"] != 0.0)


# The per-step BPTT loop and the per-tensor Adam update that the fused loop
# and the flat in-place update replaced, kept as oracles: the trainer must
# match them bit for bit.


def reference_backward(params, inputs, targets, mask, initial=None):
    """``train.backward`` with one product and one copy per gate and step."""
    lstm, size, lead = params.lstm, params.lstm.hidden_size, params.stack_shape
    if initial is None:
        initial = nn.LstmState.zeros((*lead, size))
    T = inputs.shape[-2]
    gates = np.empty((*lead, T, 4 * size))
    c_all = np.empty((*lead, T + 1, size))
    h_all = np.empty_like(c_all)
    c_all[..., 0, :], h_all[..., 0, :] = initial.c, initial.h
    gates_t, c_t, h_t = map(nn.time_major, (gates, c_all, h_all))
    for t, (z, c, h) in enumerate(nn.lstm_steps(lstm, inputs, initial)):
        gates_t[t], c_t[t + 1], h_t[t + 1] = z, c, h
    dense_cache = []
    preds = nn.dense_forward(params.dense, h_all[..., 1:, :], dense_cache)[..., 0]
    loss = train.masked_mse(preds, targets, mask)
    grads = {}
    dpred = 2.0 * mask * (preds - targets) / mask.sum(axis=-1, keepdims=True)
    dv = dpred[..., None]
    for j in range(len(params.dense) - 1, -1, -1):
        layer = params.dense[j]
        v, z = dense_cache[j]
        dz = dv * (z > 0.0) if layer.activation == "relu" else dv
        grads[f"dense{j}.w"] = dz.swapaxes(-1, -2) @ v
        grads[f"dense{j}.b"] = dz.sum(axis=-2)
        dv = dz @ layer.weights
    dh_dense = nn.time_major(dv)
    gate_axis = 1 + len(lead)
    f, i, o, g = nn.split_gates(gates_t, gate_axis)
    if lstm.linear_gates:
        phi = c_t[1:]
        dphi, dact = np.ones_like(phi), np.ones_like(gates_t)
    else:
        phi = np.tanh(c_t[1:])
        dphi = 1.0 - phi * phi
        dact = gates_t * (1.0 - gates_t)
        nn.split_gates(dact, gate_axis)[3][:] = 1.0 - g * g
    dz = np.empty_like(gates)
    dz_t = nn.time_major(dz)
    dz_f, dz_i, dz_o, dz_g = nn.split_gates(dz_t, gate_axis)
    w_h_t = lstm.w_h.swapaxes(-1, -2)
    dh_next, dc_next = np.zeros_like(h_t[0]), np.zeros_like(c_t[0])
    for t in range(T - 1, -1, -1):
        dh = dh_dense[t] + dh_next
        dc = dc_next + dh * o[t] * dphi[t]
        dz_f[t] = dc * c_t[t]
        dz_i[t] = dc * g[t]
        dz_o[t] = dh * phi[t]
        dz_g[t] = dc * i[t]
        dz_t[t] *= dact[t]
        dh_next = w_h_t @ dz_t[t]
        dc_next = dc * f[t]
    by_gate = dz.swapaxes(-1, -2)
    lstm_grads = nn.gate_blocks(by_gate @ inputs, by_gate @ h_all[..., :-1, :], dz.sum(axis=-2))
    grads.update({f"lstm.{name}": grad for name, grad in lstm_grads.items()})
    for name, frozen in params.freeze_mask.items():
        if frozen:
            grads[name] = np.zeros_like(grads[name])
    return grads, loss, nn.LstmState(c=c_all[..., -1, :], h=h_all[..., -1, :])


class ReferenceAdam:
    """``train.AdamState`` with one moment array and one update per tensor."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.t = np.zeros(params.stack_shape, dtype=int)

    def step(self, params, grads, lr, rows=None):
        sel = Ellipsis if rows is None else rows
        live = {k: g for k, g in grads.items() if not params.freeze_mask[k]}
        self.t[sel] += 1
        t = self.t[sel]
        norm = np.sqrt(sum((g * g).reshape(*t.shape, -1).sum(axis=-1) for g in live.values()))
        scale = train.GRAD_CLIP_NORM / np.maximum(norm, train.GRAD_CLIP_NORM)
        step_size = np.reshape(
            [lr * (math.sqrt(1.0 - train.ADAM_BETA2**n) / (1.0 - train.ADAM_BETA1**n))
             for n in t.ravel().tolist()], t.shape)
        tensors = params.tensors()
        for name, g in live.items():
            per_row = (...,) + (None,) * (g.ndim - t.ndim)
            g = g * scale[per_row]
            m = train.ADAM_BETA1 * self.m[name][sel] + (1.0 - train.ADAM_BETA1) * g
            v = train.ADAM_BETA2 * self.v[name][sel] + (1.0 - train.ADAM_BETA2) * g * g
            self.m[name][sel], self.v[name][sel] = m, v
            tensors[name][sel] -= step_size[per_row] * m / (np.sqrt(v) + train.ADAM_EPS)


TENSOR_NAMES = random_params(0).tensor_names()
LSTM_NAMES = [name for name in TENSOR_NAMES if name.startswith("lstm.")]
DENSE_NAMES = [name for name in TENSOR_NAMES if name not in LSTM_NAMES]


@st.composite
def training_cases(draw, freeze=None):
    """A network or a stack of 1, 2 or 5 (``stack`` None or R), random
    inputs, targets, masks and initial states, and a freeze mask: ``freeze``
    "lstm" freezes every LSTM tensor, "partial" all but one of them, and
    None draws any subset."""
    seed = draw(st.integers(0, 2**16))
    stack = draw(st.sampled_from([None, 1, 2, 5]))
    hidden, T = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    linear = draw(st.booleans())
    if freeze == "lstm":
        frozen = set(LSTM_NAMES) | set(draw(st.sets(st.sampled_from(DENSE_NAMES))))
    elif freeze == "partial":
        frozen = set(LSTM_NAMES) - {draw(st.sampled_from(LSTM_NAMES))}
    else:
        frozen = draw(st.sets(st.sampled_from(TENSOR_NAMES)))
    rng = np.random.default_rng(seed)
    nets = []
    for k in range(stack or 1):
        params = random_params(seed + k, hidden=hidden)
        if linear:
            for arr in params.tensors().values():
                arr *= 0.3  # keep the linear recursion stable over the segment
            params.lstm.linear_gates = True
        params.freeze_mask.update(dict.fromkeys(frozen, True))
        nets.append(params)
    params = nets[0] if stack is None else nn.stack(nets)
    lead = params.stack_shape
    inputs = rng.normal(size=(*lead, T, 3))
    targets = rng.normal(size=(*lead, T))
    mask = (rng.random((*lead, T)) < 0.6).astype(float)
    mask[..., draw(st.integers(0, T - 1))] = 1.0
    initial = None
    if draw(st.booleans()):
        initial = nn.LstmState(c=rng.normal(size=(*lead, hidden)),
                               h=rng.normal(size=(*lead, hidden)))
    return params, inputs, targets, mask, initial


def assert_same_backward(got, want):
    (grads, loss, final), (ref_grads, ref_loss, ref_final) = got, want
    assert list(grads) == list(ref_grads)  # the order fixes the clip norm's rounding
    for name in ref_grads:
        assert_array_equal(grads[name], ref_grads[name])
    assert_array_equal(loss, ref_loss)
    assert_array_equal(final.c, ref_final.c)
    assert_array_equal(final.h, ref_final.h)


def pretrain_shape_case():
    """The shape of the pretrain benchmark: a stack of R = 5 networks with
    H = 16 and dense layers of 16 and 8 over one 72-step segment, with
    random initial states and a sparse mask."""
    rng = np.random.default_rng(72)
    R, T = 5, 72
    params = nn.stack([random_params(72 + k, input_size=data.N_FEATURES, hidden=16,
                                     dense=(16, 8)) for k in range(R)])
    mask = (rng.random((R, T)) < 0.6).astype(float)
    mask[:, 0] = 1.0
    initial = nn.LstmState(c=rng.normal(size=(R, 16)), h=rng.normal(size=(R, 16)))
    return params, rng.normal(size=(R, T, data.N_FEATURES)), rng.normal(size=(R, T)), mask, initial


@settings(max_examples=60, deadline=None)
@given(case=training_cases())
@example(case=pretrain_shape_case())
def test_backward_matches_per_step_reference_loop(case):
    # Under errstate, as backward's callers run it: a linear-gate case may
    # overflow, and its non-finite values must match too.
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_backward(train.backward(*case), reference_backward(*case))


@settings(max_examples=50, deadline=None)
@given(freeze=st.sampled_from(["lstm", "partial"]), draw=st.data())
def test_bptt_is_skipped_only_when_every_lstm_tensor_is_frozen(freeze, draw):
    # With every LSTM tensor frozen, the zero LSTM gradients come without
    # the loop; one live LSTM tensor runs it. Both bit for bit the reference.
    case = draw.draw(training_cases(freeze))
    calls, bptt = [], train._bptt
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(train, "_bptt", lambda *args: calls.append(1) or bptt(*args))
        got = train.backward(*case)
        want = reference_backward(*case)
    assert len(calls) == (freeze == "partial")
    assert_same_backward(got, want)


@settings(max_examples=60, deadline=None)
@given(case=training_cases(), draw=st.data())
def test_adam_matches_per_tensor_reference(case, draw):
    # Several steps, each on the whole stack or a subset of its rows, with
    # gradients that sometimes exceed the clip norm and rows that sometimes
    # are not finite: backward matches the reference loop at every step's
    # parameters, and the flat update moves every tensor as the per-tensor
    # one does and skips exactly the rows that are not all finite.
    params, *data = case
    reference = params.copy()
    adam, ref_adam = train.AdamState(params), ReferenceAdam(reference)
    n = params.stack_shape[0] if params.stack_shape else 1
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**16)))
    for _ in range(draw.draw(st.integers(1, 4))):
        with np.errstate(over="ignore", invalid="ignore"):
            got = train.backward(params, *data)
            assert_same_backward(got, reference_backward(reference, *data))
        grads = got[0]
        rows = None
        if params.stack_shape and draw.draw(st.booleans()):
            rows = np.array(sorted(draw.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        members = n if rows is None else len(rows)
        scale = draw.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        step = {name: g[rows] * scale if rows is not None else g * scale
                for name, g in grads.items()}
        step = {name: g + rng.normal(size=g.shape) * (not params.freeze_mask[name])
                for name, g in step.items()}
        bad = draw.draw(st.sets(st.integers(0, members - 1)))
        live = [name for name in TENSOR_NAMES if not params.freeze_mask[name]]
        for r in bad if live else ():
            name = draw.draw(st.sampled_from(live))
            if params.stack_shape:
                step[name][r].flat[0] = np.nan
            else:
                step[name].flat[0] = np.inf
        lr = draw.draw(st.floats(1e-4, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = adam.step(params, step, lr, rows=rows)
        # The per-tensor verdict: frozen gradients are zeros.
        expected = np.logical_and.reduce(
            [np.isfinite(g).reshape(members, -1).all(axis=1) for g in step.values()])
        assert_array_equal(finite, expected)
        # The reference runs under the flat step's errstate: a finite
        # gradient above about 1e154 overflows both clip norms alike.
        with np.errstate(over="ignore", invalid="ignore"):
            if expected.all():
                ref_adam.step(reference, step, lr, rows=rows)
            elif expected.any():
                ok = np.flatnonzero(expected) if rows is None else rows[expected]
                ref_adam.step(reference, {name: g[expected] for name, g in step.items()}, lr,
                              rows=ok)
        for name, arr in reference.tensors().items():
            assert_array_equal(params.tensors()[name], arr)


def test_stacked_backward_peak_memory():
    # Four H=64 networks over 512 steps. The gates, their derivatives and
    # dz, which also holds tanh(c), are 4H wide each, in the kernel's
    # gate-major layout and read in place. c, h, the derivative of tanh(c)
    # and dh from the dense stack are H wide each; the dense stack's cache
    # and gradients, narrower than 3H in all, are dropped before the BPTT
    # loop. The gradient products copy one realization's dz at a time. A
    # copy of any whole gate-sized buffer breaks it.
    rng = np.random.default_rng(0)
    R, H, T = 4, 64, 512
    params = nn.stack([nn.init_params(12, H, (32, 16), rng) for _ in range(R)])
    inputs = rng.normal(size=(R, T, 12))
    targets = rng.normal(size=(R, T))
    mask = np.ones((R, T))
    tracemalloc.start()
    try:
        grads, losses, _ = train.backward(params, inputs, targets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert losses.shape == (R,) and grads["lstm.w_hf"].shape == (R, H, H)
    bound = (3 * 4 * H + 5 * H + 3 * H) * R * (T + 1) * 8
    assert peak < bound, (peak, bound)


def identity_task(seed=42, T=300):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(T, 3))
    y = 0.8 * x[:, 0] - 0.3
    split = int(T * 0.8)
    return (
        train.SupervisedSeries(inputs=x[:split], targets=y[:split], mask=np.ones(split)),
        train.SupervisedSeries(inputs=x[split:], targets=y[split:], mask=np.ones(T - split)),
    )


def test_fit_learns_linear_function():
    train_s, val_s = identity_task()
    cfg = train.TrainConfig(
        learning_rate=0.02, batch_length=40, max_epochs=200, patience=200, seed=3
    )
    params = nn.init_params(3, 4, (4, 3), rng=train.substream(3, train.STREAM_INIT))
    real = fit(params, train_s, val_s, cfg)
    assert min(h[1] for h in real.history) < 1e-3
    assert len(real.history) <= 200


def test_fit_early_stopping_contract():
    # Validation targets are anti-correlated with training targets, so
    # every epoch of progress worsens validation loss: with patience=1
    # training stops after 2 epochs and returns the epoch-1 snapshot.
    rng = np.random.default_rng(6)
    x = rng.uniform(1.0, 2.0, size=(80, 2))
    train_s = train.SupervisedSeries(inputs=x, targets=2.0 * x[:, 0], mask=np.ones(80))
    xv = rng.uniform(1.0, 2.0, size=(30, 2))
    val_s = train.SupervisedSeries(
        inputs=xv, targets=-2.0 * xv[:, 0] - 10.0, mask=np.ones(30)
    )
    cfg = train.TrainConfig(learning_rate=0.05, batch_length=20, max_epochs=50, patience=1, seed=0)
    params = nn.init_params(2, 3, (3, 2), rng=train.substream(0, train.STREAM_INIT))
    real = fit(params, train_s, val_s, cfg)
    assert len(real.history) == 2
    assert real.best_epoch == 1
    val_losses = [h[2] for h in real.history]
    assert val_losses[1] > val_losses[0]


def test_fit_returns_best_validation_snapshot():
    train_s, val_s = identity_task(seed=11, T=200)
    cfg = train.TrainConfig(learning_rate=0.05, batch_length=40, max_epochs=30, patience=30, seed=1)
    params = nn.init_params(3, 3, (3, 2), rng=train.substream(1, train.STREAM_INIT))
    real = fit(params, train_s, val_s, cfg)
    best_recorded = min(h[2] for h in real.history)
    refit_val = train.validation_loss(real.trained, train_s, val_s)
    assert refit_val == pytest.approx(best_recorded, rel=1e-12)


def test_fit_all_frozen_returns_initial_params():
    train_s, val_s = identity_task(seed=5, T=120)
    params = nn.init_params(3, 3, (3, 2), rng=np.random.default_rng(5))
    params.freeze_mask = {name: True for name in params.tensor_names()}
    cfg = train.TrainConfig(learning_rate=0.05, batch_length=30, max_epochs=10, patience=2, seed=0)
    real = fit(params, train_s, val_s, cfg)
    for name, arr in params.tensors().items():
        assert_array_equal(real.trained.tensors()[name], arr)


def test_fit_frozen_tensors_bitwise_unchanged():
    train_s, val_s = identity_task(seed=8, T=160)
    params = nn.init_params(3, 3, (3, 2), rng=np.random.default_rng(8))
    params.freeze_mask["lstm.w_hf"] = True
    params.freeze_mask["dense1.w"] = True
    before = {k: v.copy() for k, v in params.tensors().items()}
    cfg = train.TrainConfig(learning_rate=0.05, batch_length=40, max_epochs=8, patience=8, seed=2)
    real = fit(params, train_s, val_s, cfg)
    assert_array_equal(real.trained.tensors()["lstm.w_hf"], before["lstm.w_hf"])
    assert_array_equal(real.trained.tensors()["dense1.w"], before["dense1.w"])
    assert np.any(real.trained.tensors()["dense0.w"] != before["dense0.w"])


def test_fit_divergence_carries_last_good():
    # A linear-gate cell with an explosive forget value overflows the
    # forward pass within one segment.
    train_s, val_s = identity_task(seed=4, T=100)
    params = random_params(4, hidden=3)
    params.lstm.linear_gates = True
    params.tensors()["lstm.b_f"][:] = 1e6
    cfg = train.TrainConfig(learning_rate=0.01, batch_length=80, max_epochs=20, patience=20, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError) as err:
        fit(params, train_s, val_s, cfg)
    assert err.value.last_good is not None
    assert isinstance(err.value.last_good.trained, nn.RnnParams)


def assert_same_realization(a, b):
    assert (a.seed, a.validation_selection, a.best_epoch) == (b.seed, b.validation_selection,
                                                              b.best_epoch)
    assert_array_equal(np.array(a.history), np.array(b.history))  # nan rows compare equal
    assert a.trained.freeze_mask == b.trained.freeze_mask
    for name, arr in a.trained.tensors().items():
        assert_array_equal(arr, b.trained.tensors()[name])


def lockstep_task(T=263, batch_length=40):
    """Training and validation series for the lockstep fixtures. T = 263 is
    not a multiple of batch_length 40, so the last segment is short;
    segment 2 holds no observation."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(T + 60, 3)) * 0.5
    y = 0.8 * x[:, 0] - 0.4 * np.roll(x[:, 1], 3) + 0.2 * rng.normal(size=T + 60)
    mask = (rng.random(T + 60) < 0.6).astype(float)
    mask[2 * batch_length : 3 * batch_length] = 0.0
    y = np.where(mask > 0, y, 0.0)
    return (train.SupervisedSeries(x[:T], y[:T], mask[:T]),
            train.SupervisedSeries(x[T:], y[T:], mask[T:]))


def linear_gate_nets():
    """Three small linear-gate networks; realization 1 (b_f = 1e6)
    overflows in its first segment."""
    nets = []
    for k in range(3):
        params = random_params(40 + k, hidden=3)
        for arr in params.tensors().values():
            arr *= 0.2
        params.lstm.linear_gates = True
        nets.append(params)
    nets[1].tensors()["lstm.b_f"][:] = 1e6
    return nets


def lockstep_and_solo(nets, train_s, val_s, cfg, seeds):
    """Train ``nets`` in lockstep and each alone; assert that every outcome
    equals its solo one bit for bit (a diverged one in its message and
    ``last_good``), and return the lockstep outcomes."""
    vals, selections = zip(*(train.subsample_validation(val_s, seed) for seed in seeds))
    with np.errstate(over="ignore", invalid="ignore"):
        lockstep = train.fit_lockstep(nets, train_s, list(vals), cfg, seeds, list(selections))
        solo = []
        for k, seed in enumerate(seeds):
            try:
                solo.append(fit(nets[k], train_s, vals[k], replace(cfg, seed=seed),
                                val_selection_id=selections[k]))
            except TrainingDivergedError as exc:
                solo.append(exc)
    for a, b in zip(lockstep, solo):
        assert isinstance(a, TrainingDivergedError) == isinstance(b, TrainingDivergedError)
        if isinstance(a, TrainingDivergedError):
            assert str(a) == str(b)
            a, b = a.last_good, b.last_good
        assert_same_realization(a, b)
    return lockstep


@pytest.mark.parametrize("linear_gates", [False, True])
def test_fit_lockstep_matches_solo_fits_bitwise(linear_gates):
    # lstm.w_hi is frozen. With sigmoid gates the realizations stop early
    # at different epochs. With linear gates, realization 1 diverges at
    # once and realization 0 later, while realization 2 stops early.
    train_s, val_s = lockstep_task()
    cfg = train.TrainConfig(learning_rate=0.005 if linear_gates else 0.05,
                            batch_length=40, max_epochs=12,
                            patience=1 if linear_gates else 2, seed=0)
    nets = linear_gate_nets() if linear_gates else [random_params(40 + k, hidden=3)
                                                      for k in range(3)]
    for params in nets:
        params.freeze_mask["lstm.w_hi"] = True
    lockstep = lockstep_and_solo(nets, train_s, val_s, cfg, [5, 6, 7])
    diverged = [isinstance(r, TrainingDivergedError) for r in lockstep]
    if linear_gates:
        assert diverged == [True, True, False]
        assert lockstep[1].last_good.history == [] and len(lockstep[0].last_good.history) > 1
    else:
        assert not any(diverged)
        assert len({len(r.history) for r in lockstep}) == 3
    for k, real in enumerate(lockstep):
        real = real.last_good if isinstance(real, TrainingDivergedError) else real
        assert_array_equal(real.trained.tensors()["lstm.w_hi"], nets[k].tensors()["lstm.w_hi"])


@settings(max_examples=20, deadline=None)
@given(freeze=st.sampled_from(["lstm", "partial"]), draw=st.data())
def test_spin_up_runs_once_only_when_every_lstm_tensor_is_frozen(freeze, draw):
    # With every LSTM tensor frozen, the validation spin-up over the training
    # span runs once per lockstep call; with one live LSTM tensor, once per
    # validated epoch. Either way histories and snapshots are bit for bit
    # those of a spin-up run every epoch. Under linear gates realization 1
    # diverges at once, so later epochs validate a sub-stack.
    train_s, val_s = lockstep_task()
    n = draw.draw(st.integers(1, 3))
    linear = draw.draw(st.booleans())
    nets = linear_gate_nets()[:n] if linear else [random_params(40 + k, hidden=3)
                                                  for k in range(n)]
    if freeze == "lstm":
        frozen = set(LSTM_NAMES) | set(draw.draw(st.sets(st.sampled_from(DENSE_NAMES))))
    else:
        frozen = set(LSTM_NAMES) - {draw.draw(st.sampled_from(LSTM_NAMES))}
    for params in nets:
        params.freeze_mask.update(dict.fromkeys(frozen, True))
    cfg = train.TrainConfig(learning_rate=draw.draw(st.sampled_from([0.005, 0.05])),
                            batch_length=40, max_epochs=4,
                            patience=draw.draw(st.integers(1, 3)), seed=0)
    seeds = list(range(5, 5 + n))
    vals, selections = zip(*(train.subsample_validation(val_s, seed) for seed in seeds))

    def train_all():
        return train.fit_lockstep(nets, train_s, list(vals), cfg, seeds, list(selections))

    def record(outcome):
        return outcome.last_good if isinstance(outcome, TrainingDivergedError) else outcome

    calls, lstm_steps = [], nn.lstm_steps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "lstm_steps",
                      lambda lstm, inputs, *args: calls.append(inputs is train_s.inputs)
                      or lstm_steps(lstm, inputs, *args))
        got = train_all()
    epochs = {row[0] for outcome in got for row in record(outcome).history}
    assert sum(calls) == (1 if freeze == "lstm" else len(epochs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "_lstm_frozen", lambda params: False)
        want = train_all()
    for a, b in zip(got, want):
        assert isinstance(a, TrainingDivergedError) == isinstance(b, TrainingDivergedError)
        if isinstance(a, TrainingDivergedError):
            assert str(a) == str(b)
        assert_same_realization(record(a), record(b))


@pytest.mark.parametrize("frozen", sorted({p.frozen for p in transfer.PROTOCOLS.values()
                                           if p.fine_tune}, key=str))
def test_lockstep_divergence_under_each_transfer_freeze_mask(frozen):
    # Divergence is read from the step's gradients. Under the dense freeze
    # the dense gradients are zeroed, so the LSTM gradients alone must carry
    # realization 1's non-finite predictions; under the recurrent freeze
    # the dense ones must.
    train_s, val_s = lockstep_task()
    nets = linear_gate_nets()
    for params in nets:  # as transfer.run_method sets it
        params.freeze_mask = {name: frozen is not None and name.startswith(frozen)
                              for name in params.tensor_names()}
    cfg = train.TrainConfig(learning_rate=0.005, batch_length=40, max_epochs=12, patience=1,
                            seed=0)
    lockstep = lockstep_and_solo(nets, train_s, val_s, cfg, [5, 6, 7])
    assert isinstance(lockstep[1], TrainingDivergedError)
    assert str(lockstep[1]).startswith("training diverged at epoch 1:")
    assert lockstep[1].last_good.history == []


def test_lockstep_epoch_divergence_is_quiet_and_worded_like_a_step_one():
    # Realization 0 of the linear-gate fixture first overflows in the
    # validation pass of epoch 8, outside any caller's errstate.
    train_s, val_s = lockstep_task()
    nets = linear_gate_nets()
    for params in nets:
        params.freeze_mask["lstm.w_hi"] = True
    cfg = train.TrainConfig(learning_rate=0.005, batch_length=40, max_epochs=12, patience=1,
                            seed=0)
    seeds = [5, 6, 7]
    vals, selections = zip(*(train.subsample_validation(val_s, seed) for seed in seeds))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lockstep = train.fit_lockstep(nets, train_s, list(vals), cfg, seeds, list(selections))
    assert isinstance(lockstep[0], TrainingDivergedError)
    assert str(lockstep[0]).startswith("training diverged at epoch 8")


def reference_fit(params, train_s, val_s, config, selection):
    """One realization trained by a plain loop on the unstacked network:
    the reference that lockstep training must match bit for bit."""
    params = params.copy()
    shuffle_rng = train.substream(config.seed, train.STREAM_SHUFFLE)
    m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    v = {k: np.zeros_like(a) for k, a in params.tensors().items()}
    t = 0
    bounds = [(s, min(s + config.batch_length, len(train_s)))
              for s in range(0, len(train_s), config.batch_length)]
    states = [nn.LstmState.zeros(params.lstm.hidden_size) for _ in bounds]
    history, best_val, best, best_epoch, since = [], np.inf, params.copy(), 0, 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(bounds)) if config.shuffle else range(len(bounds))
        sq_sum = n_obs = 0.0
        for k in order:
            s, e = bounds[k]
            count = train_s.mask[s:e].sum()
            if count == 0:
                continue
            grads, loss, final = reference_backward(
                params, train_s.inputs[s:e], train_s.targets[s:e], train_s.mask[s:e],
                initial=states[k])
            live = {n: g for n, g in grads.items() if not params.freeze_mask[n]}
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in live.values()))
            scale = train.GRAD_CLIP_NORM / norm if norm > train.GRAD_CLIP_NORM else 1.0
            t += 1
            correction = (np.sqrt(1.0 - train.ADAM_BETA2**t) / (1.0 - train.ADAM_BETA1**t))
            for name, g in live.items():
                g = g * scale
                m[name] = train.ADAM_BETA1 * m[name] + (1.0 - train.ADAM_BETA1) * g
                v[name] = train.ADAM_BETA2 * v[name] + (1.0 - train.ADAM_BETA2) * g * g
                params.tensors()[name] -= (config.learning_rate * correction * m[name]
                                           / (np.sqrt(v[name]) + train.ADAM_EPS))
            if k + 1 < len(bounds):
                states[k + 1] = final
            sq_sum += loss * count
            n_obs += count
        _, state = nn.forward(params, train_s.inputs)
        preds, _ = nn.forward(params, val_s.inputs, initial=state)
        val_loss = train.masked_mse(preds, val_s.targets, val_s.mask)
        history.append((epoch, float(sq_sum / n_obs), float(val_loss)))
        if val_loss < best_val:
            best_val, best, best_epoch, since = val_loss, params.copy(), epoch, 0
        else:
            since += 1
            if since >= config.patience:
                break
    return train.Realization(config.seed, selection, best, history, best_epoch)


@pytest.mark.parametrize("shuffle", [True, False])
def test_lockstep_training_matches_plain_reference_loop(shuffle):
    # Realizations stop at different epochs; dense1.b is frozen.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(230, 3))
    y = np.tanh(x[:, 0]) - 0.3 * x[:, 2]
    mask = (rng.random(230) < 0.5).astype(float)
    mask[40:70] = 0.0  # one training segment without observations
    y = np.where(mask > 0, y, 0.0)
    train_s = train.SupervisedSeries(x[:170], y[:170], mask[:170])
    val_s = train.SupervisedSeries(x[170:], y[170:], mask[170:])
    cfg = train.TrainConfig(learning_rate=0.05, batch_length=30, max_epochs=10, patience=2,
                            seed=21, shuffle=shuffle)
    nets = [nn.init_params(3, 4, (3, 2), rng=train.substream(21 + k, train.STREAM_INIT))
            for k in range(3)]
    for net in nets:
        net.freeze_mask["dense1.b"] = True
    vals, selections = zip(*(train.subsample_validation(val_s, 21 + k) for k in range(3)))
    lockstep = train.fit_lockstep(nets, train_s, list(vals), cfg, [21, 22, 23], list(selections))
    for k, real in enumerate(lockstep):
        reference = reference_fit(nets[k], train_s, vals[k], replace(cfg, seed=21 + k),
                                  selections[k])
        assert_same_realization(real, reference)
    assert len({len(r.history) for r in lockstep}) > 1


def test_replicate_determinism_and_seed_range():
    train_s, val_s = identity_task(seed=13, T=120)
    cfg = train.TrainConfig(learning_rate=0.03, batch_length=30, max_epochs=4, patience=4, seed=10)
    a = train.replicate(3, 3, (3, 2), train_s, val_s, cfg, n=2)
    b = train.replicate(3, 3, (3, 2), train_s, val_s, cfg, n=2)
    assert [r.seed for r in a] == [10, 11]
    for ra, rb in zip(a, b):
        for name, arr in ra.trained.tensors().items():
            assert_array_equal(arr, rb.trained.tensors()[name])


def test_replicate_varies_initial_weights():
    train_s, val_s = identity_task(seed=14, T=120)
    cfg = train.TrainConfig(learning_rate=0.03, batch_length=30, max_epochs=2, patience=2, seed=20)
    reals = train.replicate(3, 3, (3, 2), train_s, val_s, cfg, n=2)
    diff = any(
        not np.array_equal(reals[0].trained.tensors()[k], reals[1].trained.tensors()[k])
        for k in reals[0].trained.tensors()
    )
    assert diff


def test_replicate_valsplit_selection_recorded():
    train_s, val_s = identity_task(seed=15, T=120)
    cfg = train.TrainConfig(learning_rate=0.03, batch_length=30, max_epochs=2, patience=2, seed=30)
    reals = train.replicate(3, 3, (3, 2), train_s, val_s, cfg, n=2)
    assert all(r.validation_selection.startswith("val-keep") for r in reals)


def test_replicate_reporting_mean_std():
    # mean +- standard deviation across realizations, the reporting convention.
    train_s, val_s = identity_task(seed=16, T=120)
    cfg = train.TrainConfig(learning_rate=0.03, batch_length=30, max_epochs=3, patience=3, seed=0)
    reals = train.replicate(3, 3, (3, 2), train_s, val_s, cfg, n=3)
    finals = np.array([r.history[-1][2] for r in reals])
    assert np.isfinite(finals.mean()) and np.isfinite(finals.std(ddof=1))


def test_history_csv(tmp_path):
    history = [(1, 0.5, 0.6), (2, 0.25, 0.55)]
    path = tmp_path / "h.csv"
    train.write_history_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"


def test_train_config_validation():
    with pytest.raises(InvalidInputError):
        train.TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidInputError):
        train.TrainConfig(batch_length=1)
    with pytest.raises(InvalidInputError):
        train.TrainConfig(patience=0)
