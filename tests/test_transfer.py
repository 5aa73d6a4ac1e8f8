import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fmwarp import nn, timelag, train, transfer
from fmwarp.errors import ConfigError, SearchFailedError, TrainingDivergedError
from fmwarp.train import SupervisedSeries, TrainConfig
from fmwarp.transfer import BiasShift, GridSpec, TransferMethod
from helpers import fit, parameter_count, trainable_count
from test_train import linear_gate_nets, lockstep_task


def small_net(seed=0, input_size=3, hidden=4):
    rng = np.random.default_rng(seed)
    params = nn.init_params(input_size, hidden, (4, 3), rng=rng)
    for arr in params.tensors().values():
        arr += rng.normal(0.0, 0.1, size=arr.shape)
    return params


def series_from(inputs, targets, mask=None):
    mask = np.ones(len(targets)) if mask is None else mask
    return SupervisedSeries(inputs=inputs, targets=targets, mask=mask)


def test_apply_shift_zero_is_identity():
    params = small_net()
    out = transfer.apply_shift(params, BiasShift(0.0, 0.0))
    for name, arr in params.tensors().items():
        assert_array_equal(out.tensors()[name], arr)


def test_apply_shift_changes_exactly_128_entries_at_hidden_64():
    params = nn.init_params(12, 64, (32, 16), rng=np.random.default_rng(1))
    out = transfer.apply_shift(params, BiasShift(0.7, -0.3))
    changed = sum(
        int(np.sum(out.tensors()[name] != arr)) for name, arr in params.tensors().items()
    )
    assert changed == 128


def test_apply_shift_additive():
    params = small_net(2)
    once = transfer.apply_shift(transfer.apply_shift(params, BiasShift(0.3, -0.2)), BiasShift(0.5, 0.9))
    combined = transfer.apply_shift(params, BiasShift(0.8, 0.7))
    for name, arr in once.tensors().items():
        np.testing.assert_allclose(arr, combined.tensors()[name], rtol=0, atol=1e-15)


def test_grid_default_has_626_candidates_with_exact_spacing():
    cands = transfer.candidate_shifts(GridSpec())
    assert cands.shape == (626, 2)
    axis = GridSpec().axis_values()
    assert axis[0] == -5.0 and axis[-1] == 5.0
    assert np.allclose(np.diff(axis), 10.0 / 24.0)
    assert_array_equal(cands[-1], [0.0, 0.0])


def test_grid_search_self_transfer_returns_zero_shift():
    params = small_net(5)
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(60, 3))
    targets, _ = nn.forward(params, inputs)
    shift, surface = transfer.grid_search(params, series_from(inputs, targets))
    assert shift == BiasShift(0.0, 0.0)
    assert surface.shape == (626, 3)


def test_grid_search_peak_memory():
    # 626 candidates at H=16 over 300 steps. The search holds one (4H, B)
    # gate array, three (H, B) state arrays (c, h and a scratch), the
    # (2H, B) bias shifts, one step's dense stack (its 16- and 8-wide
    # layer outputs) and the (129, 4H) input projection. Half a gate array
    # of room is left for the candidate table and small arrays; a second
    # gate array breaks the bound.
    rng = np.random.default_rng(0)
    H, T = 16, 300
    params = nn.init_params(8, H, (16, 8), rng)
    series = series_from(rng.normal(size=(T, 8)), rng.normal(size=T))
    tracemalloc.start()
    try:
        _, surface = transfer.grid_search(params, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    B = len(surface)
    assert B == 626
    gates = 4 * H * B
    bound = 8 * (gates + 3 * H * B + 2 * H * B + (16 + 8) * B + 129 * 4 * H + gates // 2)
    assert peak < bound, (peak, bound)


def test_grid_search_optimal_not_worse_than_zero_shot():
    params = small_net(6)
    rng = np.random.default_rng(6)
    inputs = rng.normal(size=(50, 3))
    targets = rng.uniform(0, 20, size=50)
    shift, surface = transfer.grid_search(params, series_from(inputs, targets))
    zero_rows = surface[(surface[:, 0] == 0.0) & (surface[:, 1] == 0.0)]
    best_rows = surface[(surface[:, 0] == shift.alpha_f) & (surface[:, 1] == shift.alpha_i)]
    assert best_rows[:, 2].min() <= zero_rows[:, 2].min()


def test_grid_search_speedup_direction_on_constructed_lstm():
    # tau=10 source, tau=1 targets: speeding the dynamics up must lower
    # the forget activation (alpha_f < 0) and beat the zero-shot RMSE.
    rng = np.random.default_rng(9)
    x = 15.0 + 10.0 * np.sin(2 * np.pi * np.arange(400) / 24.0) + rng.normal(0, 1.0, 400)
    net = nn.construct_timelag_lstm(10.0, 0)
    targets = timelag.simulate(x[0], x, timelag.TimeLagParams.from_tau(1.0))
    series = series_from(x[:, None], targets)
    shift, surface = transfer.grid_search(net, series)
    assert shift.alpha_f < 0.0
    zero_rmse = surface[(surface[:, 0] == 0.0) & (surface[:, 1] == 0.0)][:, 2].min()
    best_rmse = surface[np.isfinite(surface[:, 2]), 2].min()
    assert best_rmse < zero_rmse


def naive_search(params, inputs, targets, mask, grid):
    """Oracle for the batched sweep: shift the biases, run the full forward
    pass per candidate, and pick by the documented tie-break."""
    cands = transfer.candidate_shifts(grid)
    values = []
    for af, ai in cands:
        preds, _ = nn.forward(transfer.apply_shift(params, BiasShift(af, ai)), inputs)
        values.append(float(np.sqrt(np.sum(mask * (preds - targets) ** 2) / mask.sum())))
    best = min(
        range(len(cands)),
        key=lambda k: (values[k], abs(cands[k, 0]) + abs(cands[k, 1]), *cands[k]),
    )
    return BiasShift(float(cands[best, 0]), float(cands[best, 1])), np.array(values)


def test_grid_search_batched_path_matches_naive_objective():
    params = small_net(11)
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=(40, 3))
    targets = rng.uniform(0, 10, size=40)
    mask = (rng.random(40) < 0.5).astype(float)
    mask[0] = 1.0
    series = series_from(inputs, targets, mask)

    grid = GridSpec(-2.0, 2.0, 5)
    fast_shift, fast_surface = transfer.grid_search(params, series, grid)
    slow_shift, slow_values = naive_search(params, inputs, targets, mask, grid)
    np.testing.assert_allclose(fast_surface[:, 2], slow_values, rtol=1e-10)
    assert fast_shift == slow_shift


def test_grid_search_all_non_finite_fails():
    # Linear gates with f = 10 + alpha_f >= 5: the cell state overflows
    # within 500 steps for every candidate.
    net = nn.construct_timelag_lstm(10.0, 0)
    net.tensors()["lstm.b_f"][:] = 10.0
    series = series_from(np.ones((500, 1)), np.ones(500))
    with pytest.raises(SearchFailedError):
        transfer.grid_search(net, series)


def test_grid_search_tie_break_prefers_smallest_shift():
    # A zero output layer makes every candidate's RMSE the same value.
    params = small_net(4)
    params.dense[2].weights[:] = 0.0
    series = series_from(np.zeros((5, 3)), np.zeros(5))
    shift, surface = transfer.grid_search(params, series)
    assert np.unique(surface[:, 2]).size == 1
    assert shift == BiasShift(0.0, 0.0)


def tiny_task(seed=0, T=140):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(T, 3))
    y = 5.0 + 2.0 * x[:, 0]
    cut = int(T * 0.75)
    return (
        series_from(x[:cut], y[:cut]),
        series_from(x[cut:], y[cut:]),
    )


CFG = TrainConfig(learning_rate=0.02, batch_length=35, max_epochs=4, patience=4, seed=7)


def test_run_method_requires_pretrained():
    train_s, val_s = tiny_task()
    with pytest.raises(ConfigError):
        transfer.run_method(TransferMethod.FULL_FINE_TUNE, None, train_s, val_s, CFG)


def test_run_method_no_transfer_ignores_pretrained_weights():
    train_s, val_s = tiny_task(1)
    fresh = transfer.run_method(
        TransferMethod.NO_TRANSFER, None, train_s, val_s, CFG, arch=(3, 4, (4, 3))
    )
    seeded_same = transfer.run_method(
        TransferMethod.NO_TRANSFER, small_net(99), train_s, val_s, CFG, arch=(3, 4, (4, 3))
    )
    for name, arr in fresh.params.tensors().items():
        assert_array_equal(arr, seeded_same.params.tensors()[name])


def test_run_method_freeze_recurrent_keeps_lstm_bitwise():
    train_s, val_s = tiny_task(2)
    pretrained = small_net(2)
    result = transfer.run_method(TransferMethod.FREEZE_RECURRENT, pretrained, train_s, val_s, CFG)
    for name, arr in pretrained.tensors().items():
        if name.startswith("lstm."):
            assert_array_equal(result.params.tensors()[name], arr)
    assert any(
        not np.array_equal(result.params.tensors()[n], pretrained.tensors()[n])
        for n in pretrained.tensors() if n.startswith("dense")
    )


def test_run_method_freeze_dense_keeps_dense_bitwise():
    train_s, val_s = tiny_task(3)
    pretrained = small_net(3)
    result = transfer.run_method(TransferMethod.FREEZE_DENSE, pretrained, train_s, val_s, CFG)
    for name, arr in pretrained.tensors().items():
        if name.startswith("dense"):
            assert_array_equal(result.params.tensors()[name], arr)
    assert any(
        not np.array_equal(result.params.tensors()[n], pretrained.tensors()[n])
        for n in pretrained.tensors() if n.startswith("lstm.")
    )


def test_run_method_time_warp_touches_only_gate_biases():
    # tau=10 constructed source, tau=1 targets: a nonzero shift is selected
    # and only b_f/b_i change (2 x hidden entries).
    rng = np.random.default_rng(13)
    x = 15.0 + 10.0 * np.sin(2 * np.pi * np.arange(300) / 24.0) + rng.normal(0, 1.0, 300)
    targets = timelag.simulate(x[0], x, timelag.TimeLagParams.from_tau(1.0))
    train_s = series_from(x[:220, None], targets[:220])
    val_s = series_from(x[220:, None], targets[220:])
    pretrained = nn.construct_timelag_lstm(10.0, 0)
    result = transfer.run_method(TransferMethod.TIME_WARP, pretrained, train_s, val_s, CFG)
    assert result.shift is not None and result.shift.alpha_f < 0.0
    changed = {
        name
        for name, arr in pretrained.tensors().items()
        if not np.array_equal(result.params.tensors()[name], arr)
    }
    assert changed == {"lstm.b_f", "lstm.b_i"}
    hidden = pretrained.lstm.hidden_size
    n_diff = sum(
        int(np.sum(result.params.tensors()[n] != pretrained.tensors()[n])) for n in changed
    )
    assert n_diff == 2 * hidden
    # The surface is the one from the search that picked the shift.
    assert_array_equal(result.surface, transfer.grid_search(pretrained, train_s)[1])


def test_run_method_warp_finetune_equals_full_finetune_at_zero_shift():
    train_s, val_s = tiny_task(4)
    pretrained = small_net(4)
    full = transfer.run_method(TransferMethod.FULL_FINE_TUNE, pretrained, train_s, val_s, CFG)
    forced = transfer.run_method(
        TransferMethod.TIME_WARP_FINE_TUNE, pretrained, train_s, val_s, CFG,
        forced_shift=BiasShift(0.0, 0.0),
    )
    for name, arr in full.params.tensors().items():
        assert_array_equal(arr, forced.params.tensors()[name])
    assert forced.surface is None


def test_run_method_warp_finetune_composes_search_shift_and_fit():
    # With a real search, run_method is the three phases composed, bit for bit.
    train_s, val_s = tiny_task(5)
    pretrained = small_net(5)
    result = transfer.run_method(
        TransferMethod.TIME_WARP_FINE_TUNE, pretrained, train_s, val_s, CFG
    )
    shift, surface = transfer.grid_search(pretrained, train_s)
    assert shift != BiasShift(0.0, 0.0)
    composed = fit(transfer.apply_shift(pretrained, shift), train_s, val_s, CFG).trained
    assert result.shift == shift
    assert_array_equal(result.surface, surface)
    for name, arr in composed.tensors().items():
        assert_array_equal(result.params.tensors()[name], arr)


ARCH = (3, 4, (4, 3))  # of small_net, for NoTransfer's fresh starts


def adapt_and_run_method(method, nets, train_s, val_s, cfg, seeds, grid=transfer.DEFAULT_GRID):
    """``adapt`` over ``nets`` in one stack, and ``run_method`` on each alone;
    assert that every realization's outcome is its solo one bit for bit (a
    diverged one in its message and ``last_good``), and return the outcomes."""
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = transfer.adapt(method, nets, train_s, val_s, cfg, seeds, grid, ARCH)
        solo = []
        for net, seed in zip(nets, seeds):
            try:
                solo.append(transfer.run_method(method, net, train_s, val_s,
                                                replace(cfg, seed=seed), grid, ARCH))
            except TrainingDivergedError as exc:
                solo.append(exc)
    assert len(stacked) == len(nets)
    for a, b in zip(stacked, solo):
        assert type(a) is type(b)
        if isinstance(a, TrainingDivergedError):
            assert str(a) == str(b)
            assert_array_equal(np.array(a.last_good.history), np.array(b.last_good.history))
            a, b = a.last_good.trained, b.last_good.trained
        else:
            assert a.shift == b.shift
            assert (a.surface is None) == (b.surface is None)
            if a.surface is not None:
                assert_array_equal(a.surface, b.surface)
            a, b = a.params, b.params
        assert a.freeze_mask == b.freeze_mask
        for name, arr in a.tensors().items():
            assert_array_equal(arr, b.tensors()[name])
    return stacked


@pytest.mark.parametrize("method", list(TransferMethod))
def test_adapt_gives_each_realization_its_run_method_result_bitwise(method):
    # Three different pretrained networks: the warps pick a shift each, so
    # TimeWarpFineTune's starts differ in their gate biases as well.
    train_s, val_s = tiny_task(6)
    nets = [small_net(20 + k) for k in range(3)]
    results = adapt_and_run_method(method, nets, train_s, val_s, CFG, [7, 8, 9],
                                   GridSpec(n_per_axis=5))
    assert not any(isinstance(r, TrainingDivergedError) for r in results)
    if transfer.PROTOCOLS[method].search:
        assert len({r.shift for r in results}) > 1


@pytest.mark.parametrize("method, diverged", [
    (TransferMethod.FULL_FINE_TUNE, [True, True, False]),
    (TransferMethod.FREEZE_RECURRENT, [False, True, False]),
    (TransferMethod.FREEZE_DENSE, [True, True, True]),
])
def test_adapt_returns_a_diverged_realization_as_its_error(method, diverged):
    # The linear-gate fixture of the lockstep trainer tests: realization 1
    # (b_f = 1e6) diverges in its first segment, and the others train on in
    # the stack; with no frozen tensor, or the dense ones frozen, some of
    # them diverge too, epochs later.
    train_s, val_s = lockstep_task()
    cfg = TrainConfig(learning_rate=0.005, batch_length=40, max_epochs=12, patience=1, seed=0)
    results = adapt_and_run_method(method, linear_gate_nets(), train_s, val_s, cfg, [5, 6, 7])
    assert [isinstance(r, TrainingDivergedError) for r in results] == diverged
    assert str(results[1]).startswith("training diverged at epoch 1:")


def test_every_method_has_a_protocol():
    assert set(transfer.PROTOCOLS) == set(TransferMethod)


def test_run_method_interface_never_sees_test_data():
    assert "test" not in inspect.signature(transfer.run_method).parameters


def test_trainable_parameter_accounting_per_method():
    pretrained = small_net(8)
    total = parameter_count(pretrained)
    hidden = pretrained.lstm.hidden_size
    masked = pretrained.copy()
    masked.freeze_mask = {n: n.startswith("lstm.") for n in masked.tensor_names()}
    dense_count = trainable_count(masked)
    masked.freeze_mask = {n: n.startswith("dense") for n in masked.tensor_names()}
    lstm_count = trainable_count(masked)
    assert dense_count + lstm_count == total
    # TimeWarp adjusts 2 scalars that land on 2 x hidden tensor entries
    shifted = transfer.apply_shift(pretrained, BiasShift(0.5, 0.5))
    changed = sum(
        int(np.sum(shifted.tensors()[n] != pretrained.tensors()[n]))
        for n in pretrained.tensors()
    )
    assert changed == 2 * hidden


def test_write_surface_csv(tmp_path):
    surface = np.array([[0.0, 0.0, 1.5], [0.5, -0.5, 2.5]])
    transfer.write_surface_csv(surface, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "alpha_f,alpha_i,rmse"
    assert len(lines) == 3


def test_method_parse():
    assert TransferMethod.parse("timewarp") is TransferMethod.TIME_WARP
    assert TransferMethod.parse("FullFineTune") is TransferMethod.FULL_FINE_TUNE
    with pytest.raises(ConfigError):
        TransferMethod.parse("bogus")
