import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fmwarp import nn, timelag, transfer
from fmwarp.errors import DimensionError, InvalidInputError
from helpers import parameter_count, trainable_count


def zero_lstm(hidden, inputs):
    z = np.zeros
    return nn.LstmParams(
        w_x=z((4 * hidden, inputs)), w_h=z((4 * hidden, hidden)), b=z(4 * hidden),
    )


def gates_by_name(gates):
    """Split stacked kernel gates into per-gate rows, keyed by name."""
    return dict(zip(nn.GATE_NAMES, gates.reshape(4, -1)))


def first_step(lstm, initial, x):
    """Gates (by name) and state after one kernel step on input x."""
    gates, c, h = next(nn.lstm_steps(lstm, np.atleast_2d(x), initial))
    return gates_by_name(gates), nn.LstmState(c=c, h=h)


def test_lstm_step_all_zero():
    params = zero_lstm(3, 2)
    gates, state = first_step(params, nn.LstmState.zeros(3), np.zeros(2))
    assert_allclose(gates["f"], 0.5)
    assert_allclose(gates["i"], 0.5)
    assert_allclose(gates["o"], 0.5)
    assert_allclose(gates["g"], 0.0)
    assert_allclose(state.c, 0.0)
    assert_allclose(state.h, 0.0)


def test_lstm_step_bias_determined_gates():
    # Zero weights, biases at logit(0.9)/logit(0.1), saturated g and o:
    # c1 = 0.9 * c0 + 0.1 * 1.
    params = zero_lstm(1, 1)
    params.tensors()["b_f"][:] = math.log(9.0)
    params.tensors()["b_i"][:] = -math.log(9.0)
    params.tensors()["b_g"][:] = 100.0
    params.tensors()["b_o"][:] = 100.0
    gates, state = first_step(params, nn.LstmState(c=np.ones(1), h=np.zeros(1)), np.zeros(1))
    assert gates["f"][0] == pytest.approx(0.9, abs=1e-12)
    assert gates["i"][0] == pytest.approx(0.1, abs=1e-12)
    assert state.c[0] == pytest.approx(1.0, abs=1e-12)


def test_lstm_step_gate_ranges_random_sweep():
    rng = np.random.default_rng(5)
    params = nn.init_params(4, 6, (5, 3), rng=rng).lstm
    x = rng.normal(0, 3, size=(1000, 4))
    for stacked, _, _ in nn.lstm_steps(params, x, nn.LstmState.zeros(6)):
        gates = gates_by_name(stacked)
        for arr in (gates["f"], gates["i"], gates["o"]):
            assert ((arr > 0.0) & (arr < 1.0)).all()
        assert ((gates["g"] > -1.0) & (gates["g"] < 1.0)).all()


def test_lstm_step_shape_mismatch():
    dense = (
        nn.DenseParams(np.zeros((2, 3)), np.zeros(2), "relu"),
        nn.DenseParams(np.zeros((2, 2)), np.zeros(2), "relu"),
        nn.DenseParams(np.zeros((1, 2)), np.zeros(1), "identity"),
    )
    params = nn.RnnParams(lstm=zero_lstm(3, 2), dense=dense)
    with pytest.raises(DimensionError):
        nn.forward(params, np.zeros((1, 5)), initial=nn.LstmState.zeros(3))
    with pytest.raises(DimensionError):
        nn.forward(params, np.zeros((1, 2)), initial=nn.LstmState.zeros(2))


def test_forward_constant_network():
    # Zero LSTM weights and biases give h=0 forever; the dense bias path
    # then fixes every prediction.
    lstm = zero_lstm(2, 3)
    dense = (
        nn.DenseParams(np.zeros((2, 2)), np.array([1.0, 2.0]), "relu"),
        nn.DenseParams(np.zeros((2, 2)), np.array([0.5, 0.0]), "relu"),
        nn.DenseParams(np.array([[2.0, 1.0]]), np.array([0.25]), "identity"),
    )
    params = nn.RnnParams(lstm=lstm, dense=dense)
    preds, _ = nn.forward(params, np.random.default_rng(0).normal(size=(7, 3)))
    assert_allclose(preds, 2.0 * 0.5 + 0.25)


def test_forward_causality():
    rng = np.random.default_rng(12)
    params = nn.init_params(3, 5, (4, 3), rng=rng)
    x = rng.normal(size=(20, 3))
    base, _ = nn.forward(params, x)
    for k in (5, 13):
        bumped = x.copy()
        bumped[k] += 1.0
        out, _ = nn.forward(params, bumped)
        assert_array_equal(out[:k], base[:k])
        assert out[k] != base[k]


def test_forward_stateful_split():
    rng = np.random.default_rng(4)
    params = nn.init_params(3, 4, (4, 2), rng=rng)
    x = rng.normal(size=(16, 3))
    full, full_state = nn.forward(params, x)
    first, mid = nn.forward(params, x[:8])
    second, end = nn.forward(params, x[8:], initial=mid)
    assert_array_equal(np.concatenate([first, second]), full)
    assert_array_equal(end.c, full_state.c)
    assert_array_equal(end.h, full_state.h)


@pytest.mark.parametrize("realizations", [None, 1, 3])
@pytest.mark.parametrize("n_shifts", [None, 5])
def test_kernel_never_writes_the_initial_state(realizations, n_shifts):
    # The kernel updates its states in place; the caller's must stay as given.
    rng = np.random.default_rng(21)
    nets = [nn.init_params(3, 4, (4, 2), rng=rng) for _ in range(realizations or 1)]
    params = nets[0] if realizations is None else nn.stack(nets)
    shape = (*params.stack_shape, 4)
    initial = nn.LstmState(c=rng.normal(size=shape), h=rng.normal(size=shape))
    c, h = initial.c.copy(), initial.h.copy()
    x = rng.normal(size=(40, 3))
    shifts = None if n_shifts is None else rng.uniform(-3.0, 3.0, size=(n_shifts, 2))
    for _ in nn.lstm_steps(params.lstm, x, initial, shifts):
        pass
    if shifts is None:
        nn.forward(params, x, initial)
    assert_array_equal(initial.c, c)
    assert_array_equal(initial.h, h)


def test_forward_rejects_empty():
    params = nn.init_params(3, 4, (4, 2), rng=np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        nn.forward(params, np.zeros((0, 3)))


def test_stacked_forward_peak_memory():
    # Four H=64 networks over 4,096 steps: the kernel projects 128-step
    # sub-blocks, so its buffer is (4, 129, 256), not (4, 1024, 256) (8 MiB).
    rng = np.random.default_rng(0)
    params = nn.stack([nn.init_params(12, 64, (32, 16), rng) for _ in range(4)])
    x = rng.normal(size=(4096, 12))
    tracemalloc.start()
    try:
        preds, _ = nn.forward(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == (4, 4096)
    assert peak < 7 * 2**20, peak


def test_forward_deterministic():
    rng = np.random.default_rng(9)
    params = nn.init_params(4, 6, (5, 3), rng=rng)
    x = rng.normal(size=(30, 4))
    a, _ = nn.forward(params, x)
    b, _ = nn.forward(params, x)
    assert_array_equal(a, b)


def test_forward_agrees_with_manual_stepping():
    # One forward call over the series and T chained one-step calls agree
    rng = np.random.default_rng(14)
    params = nn.init_params(4, 5, (4, 3), rng=rng)
    x = rng.normal(size=(25, 4))
    scan_preds, scan_state = nn.forward(params, x)
    state = nn.LstmState.zeros(5)
    preds = []
    for t in range(25):
        step_preds, state = nn.forward(params, x[t : t + 1], initial=state)
        preds.append(step_preds[0])
    assert_allclose(scan_preds, preds, rtol=1e-12, atol=1e-14)
    assert_allclose(scan_state.c, state.c, rtol=1e-12, atol=1e-14)


def test_constructed_lstm_matches_recursion():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 40, size=(1000, 1))
    net = nn.construct_timelag_lstm(10.0, 0)
    preds, _ = nn.forward(net, x)
    ref = timelag.simulate(0.0, x[:, 0], timelag.TimeLagParams.from_tau(10.0))
    assert np.max(np.abs(preds - ref)) <= 1e-12


def test_constructed_lstm_warp_via_bias_replacement():
    # Replacing b_f <- a^gamma, b_i <- 1 - a^gamma realizes the warped
    # recursion, i.e. the tau/gamma system.
    rng = np.random.default_rng(22)
    x = rng.uniform(0, 40, size=(1000, 1))
    net = nn.construct_timelag_lstm(10.0, 0)
    gamma = 10.0
    a_warped = timelag.TimeLagParams.from_tau(10.0).a ** gamma
    net.tensors()["lstm.b_f"][:] = a_warped
    net.tensors()["lstm.b_i"][:] = 1.0 - a_warped
    preds, _ = nn.forward(net, x)
    ref = timelag.simulate(0.0, x[:, 0], timelag.TimeLagParams.from_tau(1.0))
    assert np.max(np.abs(preds - ref)) <= 1e-12


def test_constructed_lstm_constant_fixed_point():
    net = nn.construct_timelag_lstm(25.0, 0)
    c = 17.5
    state = nn.LstmState(c=np.array([c]), h=np.array([c]))
    preds, _ = nn.forward(net, np.full((50, 1), c), initial=state)
    assert_allclose(preds, c, rtol=0, atol=0)


def test_constructed_lstm_selects_input_column():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 30, size=(200, 4))
    net = nn.construct_timelag_lstm(5.0, 2, input_size=4)
    preds, _ = nn.forward(net, x)
    ref = timelag.simulate(0.0, x[:, 2], timelag.TimeLagParams.from_tau(5.0))
    assert np.max(np.abs(preds - ref)) <= 1e-12


def test_default_architecture_parameter_budget():
    # hidden=64 with the standard feature set: >21,000 trainable weights,
    # of which the two shiftable gate-bias vectors hold 128 entries.
    from fmwarp.data import N_FEATURES

    params = nn.init_params(N_FEATURES, 64, (32, 16), rng=np.random.default_rng(0))
    assert parameter_count(params) > 21_000
    assert params.tensors()["lstm.b_f"].size + params.tensors()["lstm.b_i"].size == 128
    assert trainable_count(params) == parameter_count(params)


def test_per_gate_tensors_are_views_of_stacked_storage():
    params = nn.init_params(5, 4, (4, 3), rng=np.random.default_rng(1))
    lstm = params.lstm
    for name, block in lstm.tensors().items():
        assert any(np.shares_memory(block, whole) for whole in (lstm.w_x, lstm.w_h, lstm.b)), name
    shifted = transfer.apply_shift(params, transfer.BiasShift(alpha_f=0.5, alpha_i=-0.25))
    h = lstm.hidden_size
    assert_array_equal(shifted.lstm.w_x, lstm.w_x)
    assert_array_equal(shifted.lstm.w_h, lstm.w_h)
    assert_array_equal(shifted.lstm.b[:h], lstm.b[:h] + 0.5)
    assert_array_equal(shifted.lstm.b[h : 2 * h], lstm.b[h : 2 * h] - 0.25)
    assert_array_equal(shifted.lstm.b[2 * h :], lstm.b[2 * h :])


def test_save_params_records_follow_checkpoint_order(tmp_path):
    params = nn.init_params(5, 4, (4, 3), rng=np.random.default_rng(2))
    nn.save_params(params, tmp_path / "c.json")
    records = json.loads((tmp_path / "c.json").read_text())["tensors"]
    assert [rec["name"] for rec in records] == [
        "lstm.w_xf", "lstm.w_xi", "lstm.w_xg", "lstm.w_xo",
        "lstm.w_hf", "lstm.w_hi", "lstm.w_hg", "lstm.w_ho",
        "lstm.b_f", "lstm.b_i", "lstm.b_g", "lstm.b_o",
        "dense0.w", "dense0.b", "dense1.w", "dense1.b", "dense2.w", "dense2.b",
    ]
    # Each LSTM record holds the row block of its gate in the stacked tensor.
    lstm = params.lstm
    h = lstm.hidden_size
    stacked = {"w_x": lstm.w_x, "w_h": lstm.w_h, "b_": lstm.b}
    for rec in records[:12]:
        name = rec["name"].removeprefix("lstm.")
        row = nn.GATE_NAMES.index(name[-1]) * h
        whole = stacked[name[:-1]]
        assert_array_equal(np.reshape(rec["data"], rec["shape"]), whole[row : row + h])


def test_freeze_mask_accounting():
    params = nn.init_params(4, 3, (3, 2), rng=np.random.default_rng(0))
    params.freeze_mask["dense2.w"] = True
    params.freeze_mask["dense2.b"] = True
    assert trainable_count(params) == parameter_count(params) - 3


def test_rnn_params_shape_validation():
    lstm = zero_lstm(3, 2)
    bad_dense = (
        nn.DenseParams(np.zeros((2, 3)), np.zeros(2), "relu"),
        nn.DenseParams(np.zeros((2, 2)), np.zeros(2), "relu"),
        nn.DenseParams(np.zeros((2, 2)), np.zeros(2), "identity"),
    )
    with pytest.raises(DimensionError):
        nn.RnnParams(lstm=lstm, dense=bad_dense)


def test_save_load_roundtrip(tmp_path):
    params = nn.init_params(5, 4, (4, 3), rng=np.random.default_rng(8))
    params.freeze_mask["lstm.b_f"] = True
    path = tmp_path / "ckpt.json"
    nn.save_params(params, path, extra={"note": "roundtrip", "seed": 8})
    loaded, extra = nn.load_params(path)
    assert extra == {"note": "roundtrip", "seed": 8}
    assert loaded.freeze_mask == params.freeze_mask
    for name, arr in params.tensors().items():
        assert_array_equal(loaded.tensors()[name], arr)
    again = tmp_path / "again.json"
    nn.save_params(loaded, again, extra=extra)
    assert path.read_bytes() == again.read_bytes()


def test_load_params_rejects_a_saved_stack(tmp_path):
    # A checkpoint holds one network: a saved stack fails the shape check.
    nets = [nn.init_params(5, 4, (4, 3), rng=np.random.default_rng(seed)) for seed in (1, 2)]
    path = tmp_path / "stack.json"
    nn.save_params(nn.stack(nets), path)
    with pytest.raises(InvalidInputError, match=re.escape(f"corrupt checkpoint {path}: ")):
        nn.load_params(path)


def test_save_load_preserves_linear_mode(tmp_path):
    net = nn.construct_timelag_lstm(10.0, 0)
    nn.save_params(net, tmp_path / "c.json")
    loaded, _ = nn.load_params(tmp_path / "c.json")
    assert loaded.lstm.linear_gates
    x = np.random.default_rng(0).uniform(0, 30, size=(50, 1))
    a, _ = nn.forward(net, x)
    b, _ = nn.forward(loaded, x)
    assert_array_equal(a, b)
