"""Property tests (Hypothesis) over random small shapes."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fmwarp import data, nn, timelag, train, transfer  # noqa: E402
from fmwarp.errors import (InvalidInputError, ParseError, SearchFailedError,  # noqa: E402
                           SplitError)
from helpers import WarpFactor, columns, fit, grid_search, replicate, warp  # noqa: E402


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 4),
    length=st.integers(20, 150),
    batch_length=st.integers(2, 50),
    hidden=st.integers(2, 5),
    epochs=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    shuffle=st.booleans(),
)
def test_replicate_equals_solo_fits_bitwise(n, length, batch_length, hidden, epochs, seed,
                                            shuffle):
    # Lockstep training of n realizations gives, for each, exactly what a
    # lone fit from the same seed gives.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(length + 30, 2))
    y = np.tanh(x[:, 0]) - 0.5 * x[:, 1]
    mask = (rng.random(length + 30) < 0.5).astype(float)
    mask[[0, length]] = 1.0  # train and validation each hold an observation
    y = np.where(mask > 0, y, 0.0)
    train_s = train.SupervisedSeries(x[:length], y[:length], mask[:length])
    val_s = train.SupervisedSeries(x[length:], y[length:], mask[length:])
    config = train.TrainConfig(learning_rate=0.05, batch_length=batch_length,
                               max_epochs=epochs, patience=1, seed=seed, shuffle=shuffle)
    lockstep = replicate(2, hidden, (3, 2), train_s, val_s, config, n=n)
    for k, real in enumerate(lockstep):
        config_k = replace(config, seed=seed + k)
        params = nn.init_params(2, hidden, (3, 2), rng=train.substream(config_k.seed,
                                                                         train.STREAM_INIT))
        val_k, selection = train.subsample_validation(val_s, config_k.seed)
        solo = fit(params, train_s, val_k, config_k, val_selection_id=selection)
        assert (real.seed, real.validation_selection) == (solo.seed, solo.validation_selection)
        assert (real.history, real.best_epoch) == (solo.history, solo.best_epoch)
        for name, arr in real.trained.tensors().items():
            assert_array_equal(arr, solo.trained.tensors()[name])


BLOCK = nn.PROJECTION_BLOCK
# Series lengths on both sides of the dense-stack block edges of ``forward``.
block_steps = st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
                        st.integers(1, 3 * BLOCK))


def random_net(rng, hidden, dense=(3, 2), inputs=3):
    params = nn.init_params(inputs, hidden, dense, rng=rng)
    for arr in params.tensors().values():
        arr += rng.normal(0.0, 0.3, size=arr.shape)
    return params


@settings(max_examples=15, deadline=None)
@given(steps=block_steps, hidden=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_streamed_forward_equals_scan_then_one_dense_pass(steps, hidden, seed):
    # The reference keeps every hidden state and runs the dense stack once.
    rng = np.random.default_rng(seed)
    params = random_net(rng, hidden)
    x = rng.normal(size=(steps, 3))
    initial = nn.LstmState(c=rng.normal(size=hidden), h=rng.normal(size=hidden))
    cells = [tuple(a.copy() for a in step) for step in nn.lstm_steps(params.lstm, x, initial)]
    hidden_states = np.array([h for _, _, h in cells])
    preds, state = nn.forward(params, x, initial=initial)
    assert_array_equal(state.c, cells[-1][1])
    assert_array_equal(state.h, cells[-1][2])
    # Bit for bit, block by block; and so one dense pass over the series
    # wherever that pass makes the BLAS calls of the blocks.
    blocks = [nn.dense_forward(params.dense, hidden_states[start : start + BLOCK])[:, 0]
              for start in range(0, steps, BLOCK)]
    assert_array_equal(preds, np.concatenate(blocks))
    one_pass = nn.dense_forward(params.dense, hidden_states)[:, 0]
    if steps <= BLOCK:
        assert_array_equal(preds, one_pass)
    np.testing.assert_allclose(preds, one_pass, rtol=1e-12, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(steps=block_steps, hidden=st.integers(1, 6), n=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_stacked_forward_rows_equal_solo_forwards(steps, hidden, n, seed):
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, hidden) for _ in range(n)]
    x = rng.normal(size=(steps, 3))
    preds, state = nn.forward(nn.stack(nets), x)
    assert preds.shape == (n, steps)
    for r, net in enumerate(nets):
        solo, solo_state = nn.forward(net, x)
        assert_array_equal(preds[r], solo)
        assert_array_equal(state.c[r], solo_state.c)
        assert_array_equal(state.h[r], solo_state.h)


@settings(max_examples=15, deadline=None)
@given(steps=block_steps, hidden=st.sampled_from([1, 2, 5, 64]),
       n=st.sampled_from([None, 1, 3]), linear=st.booleans(), seed=st.integers(0, 2**16))
def test_forward_from_step_returns_the_tail_of_the_full_forward(steps, hidden, n, linear, seed):
    # From 0, each block edge and its neighbours, T - 1 and T: the
    # predictions are the full forward's from that step on, bit for bit, and
    # so is the final state, for a lone network (n None) and a stack. At
    # H=64 a dense block that moved off its place would round differently.
    rng = np.random.default_rng(seed)
    dense = (32, 16) if hidden == 64 else (3, 2)
    nets = [random_net(rng, hidden, dense) for _ in range(n or 1)]
    for net in nets if linear else ():
        for arr in net.tensors().values():
            arr *= 0.2 / hidden  # keep the linear recursion in range
        net.lstm.linear_gates = True
    params = nets[0] if n is None else nn.stack(nets)
    x = rng.normal(size=(steps, 3))
    initial = nn.LstmState(c=rng.normal(size=(*params.stack_shape, hidden)),
                           h=rng.normal(size=(*params.stack_shape, hidden)))
    with np.errstate(over="ignore", invalid="ignore"):
        full, full_state = nn.forward(params, x, initial)
        edges = [edge + d for edge in range(BLOCK, steps + 1, BLOCK) for d in (-1, 0, 1)]
        for from_step in sorted({0, *edges, steps - 1, steps} & set(range(steps + 1))):
            preds, state = nn.forward(params, x, initial, from_step)
            assert_array_equal(preds, full[..., from_step:])
            assert_array_equal(state.c, full_state.c)
            assert_array_equal(state.h, full_state.h)
    for from_step in (-1, steps + 1):
        with pytest.raises(InvalidInputError):
            nn.forward(params, x, initial, from_step)


@settings(max_examples=20, deadline=None)
@given(steps=st.integers(1, 300), hidden=st.integers(1, 6), n=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_stacked_rows_from_own_nonzero_states_equal_solo_runs(steps, hidden, n, seed):
    # Zero initial states read the same in any layout, so only random ones
    # show a transposed state; with n = hidden it even keeps its shape.
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, hidden) for _ in range(n)]
    x = rng.normal(size=(steps, 3))
    initial = nn.LstmState(c=rng.normal(size=(n, hidden)), h=rng.normal(size=(n, hidden)))
    preds, state = nn.forward(nn.stack(nets), x, initial)
    mask = (rng.random(steps) < 0.5).astype(float)
    mask[-1] = 1.0
    vals = [train.SupervisedSeries(x, rng.normal(size=steps) * mask, mask) for _ in range(n)]
    train_s = train.SupervisedSeries(x[::-1].copy(), np.zeros(steps), np.ones(steps))
    losses = np.atleast_1d(train.validation_loss(nn.stack(nets), train_s, vals))
    for r, net in enumerate(nets):
        solo, solo_state = nn.forward(net, x, nn.LstmState(c=initial.c[r], h=initial.h[r]))
        assert_array_equal(preds[r], solo)
        assert_array_equal(state.c[r], solo_state.c)
        assert_array_equal(state.h[r], solo_state.h)
        assert losses[r] == train.validation_loss(net, train_s, vals[r])


@settings(max_examples=15, deadline=None)
@given(steps=st.integers(1, 40), hidden=st.integers(1, 6), n=st.integers(1, 4),
       n_shifts=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_stacked_steps_with_shifts_equal_solo_runs(steps, hidden, n, n_shifts, seed):
    # A stack takes bias shifts too: each realization's (4H, B) gates and
    # (H, B) states are those of its own run with the same shifts.
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, hidden) for _ in range(n)]
    x = rng.normal(size=(steps, 3))
    shifts = rng.uniform(-3.0, 3.0, size=(n_shifts, 2))
    initial = nn.LstmState(c=rng.normal(size=(n, hidden)), h=rng.normal(size=(n, hidden)))
    stacked = [tuple(a.copy() for a in step)
               for step in nn.lstm_steps(nn.stack(nets).lstm, x, initial, shifts)]
    for r, net in enumerate(nets):
        solo = nn.lstm_steps(net.lstm, x, nn.LstmState(c=initial.c[r], h=initial.h[r]), shifts)
        for stacked_step, solo_step in zip(stacked, solo, strict=True):
            for stacked_arr, solo_arr in zip(stacked_step, solo_step):
                assert stacked_arr.shape == (n, *solo_arr.shape)
                assert_array_equal(stacked_arr[r], solo_arr)


def check_sub_block_projection(steps, hidden, n, inputs, seed):
    # The kernel projects its inputs PROJECTION_SUB_BLOCK steps at a time;
    # the reference, one product per PROJECTION_BLOCK block. Every output
    # of the forward pass (one network and a stack) and of the kernel with
    # shifts is the same, bit for bit.
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, hidden, inputs=inputs) for _ in range(n)]
    x = rng.normal(size=(steps, inputs))
    initial = nn.LstmState(c=rng.normal(size=(n, hidden)), h=rng.normal(size=(n, hidden)))
    shifts = rng.uniform(-3.0, 3.0, size=(3, 2))

    def run():
        solo = nn.forward(nets[0], x)
        stacked = nn.forward(nn.stack(nets), x, initial)
        shifted = nn.lstm_steps(nn.stack(nets).lstm, x, initial, shifts)
        steps_out = np.array([np.concatenate([a.ravel() for a in out]) for out in shifted])
        return [solo[0], solo[1].c, solo[1].h, stacked[0], stacked[1].c, stacked[1].h,
                steps_out]

    got = run()
    sub_block = nn.PROJECTION_SUB_BLOCK
    nn.PROJECTION_SUB_BLOCK = BLOCK
    try:
        reference = run()
    finally:
        nn.PROJECTION_SUB_BLOCK = sub_block
    for got_arr, ref_arr in zip(got, reference, strict=True):
        assert_array_equal(got_arr, ref_arr)


@pytest.mark.parametrize("steps", [1, 2, 127, 128, 129, 130, 255, 256, 257, 258,
                                   BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, BLOCK + 129])
@settings(max_examples=3, deadline=None)
@given(hidden=st.integers(1, 8), n=st.integers(1, 4), inputs=st.integers(1, 12),
       seed=st.integers(0, 2**16))
def test_sub_block_projection_equals_one_product_per_block_at_edges(steps, hidden, n, inputs,
                                                                    seed):
    check_sub_block_projection(steps, hidden, n, inputs, seed)


@settings(max_examples=10, deadline=None)
@given(steps=st.integers(1, 3 * BLOCK), hidden=st.integers(1, 8), n=st.integers(1, 4),
       inputs=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_sub_block_projection_equals_one_product_per_block(steps, hidden, n, inputs, seed):
    check_sub_block_projection(steps, hidden, n, inputs, seed)


@settings(max_examples=20, deadline=None)
@given(steps=st.integers(5, 60), hidden=st.integers(1, 5), n_per_axis=st.integers(2, 5),
       seed=st.integers(0, 2**16))
def test_grid_search_picks_the_naive_oracle_minimum(steps, hidden, n_per_axis, seed):
    # The oracle shifts the biases and runs the plain forward pass per
    # candidate; the search's pick must be (near) the oracle's minimum.
    rng = np.random.default_rng(seed)
    params = random_net(rng, hidden)
    x = rng.normal(size=(steps, 3))
    mask = (rng.random(steps) < 0.5).astype(float)
    mask[-1] = 1.0
    targets = np.where(mask > 0, rng.normal(size=steps), 0.0)
    series = train.SupervisedSeries(x, targets, mask)
    grid = transfer.GridSpec(lo=-3.0, hi=3.0, n_per_axis=n_per_axis)
    shift, surface = grid_search(params, series, grid)

    def oracle(alpha_f, alpha_i):
        preds, _ = nn.forward(transfer.apply_shift(params, transfer.BiasShift(alpha_f, alpha_i)),
                              x)
        return float(np.sqrt(np.sum(mask * (preds - targets) ** 2) / mask.sum()))

    values = np.array([oracle(af, ai) for af, ai in transfer.candidate_shifts(grid)])
    np.testing.assert_allclose(surface[:, 2], values, rtol=1e-9)
    picked = oracle(shift.alpha_f, shift.alpha_i)
    assert picked <= values.min() * (1.0 + 1e-9)


SUB = nn.PROJECTION_SUB_BLOCK


@settings(max_examples=25, deadline=None)
@given(steps=st.one_of(st.sampled_from([1, 2, SUB - 1, SUB, SUB + 1, SUB + 2, 2 * SUB,
                                        2 * SUB + 1]), st.integers(1, 2 * SUB + 2)),
       hidden=st.integers(1, 8), n_series=st.integers(1, 4),
       masks=st.sampled_from(["disjoint", "overlapping", "one step"]),
       linear=st.booleans(), seed=st.integers(0, 2**16))
def test_one_sweep_gives_each_series_its_solo_surface(steps, hidden, n_series, masks, linear,
                                                      seed):
    # Several series over the same inputs: each surface of one sweep is
    # the one grid_search gives that series alone, NaNs included, whichever
    # series share the sweep and in whatever order.
    rng = np.random.default_rng(seed)
    params = random_net(rng, hidden)
    params = replace(params, lstm=replace(params.lstm, linear_gates=linear))
    x = rng.normal(size=(steps, 3))
    if masks == "disjoint":
        n_series = min(n_series, steps)
        owner = rng.integers(-1, n_series, size=steps)  # -1: no series observes the step
        owner[rng.permutation(steps)[:n_series]] = np.arange(n_series)
        observed = [owner == k for k in range(n_series)]
    elif masks == "overlapping":
        shared = rng.integers(steps)
        observed = [(rng.random(steps) < 0.5) | (np.arange(steps) == shared)
                    for _ in range(n_series)]
    else:
        observed = [np.arange(steps) == rng.integers(steps) for _ in range(n_series)]
    series = [train.SupervisedSeries(x, np.where(m, rng.normal(size=steps), 0.0), m.astype(float))
              for m in observed]
    grid = transfer.GridSpec(lo=-3.0, hi=3.0, n_per_axis=3)
    surfaces = transfer.sweep(params, series, grid)
    for surface, reordered in zip(surfaces, transfer.sweep(params, series[::-1], grid)[::-1],
                                  strict=True):
        assert np.array_equal(surface, reordered, equal_nan=True)
    for surface, one in zip(surfaces, series, strict=True):
        try:
            _, alone = grid_search(params, one, grid)
        except SearchFailedError:
            assert not np.isfinite(surface[:, 2]).any()
        else:
            assert np.array_equal(surface, alone, equal_nan=True)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_days=st.integers(1, 5), draw=st.data())
def test_write_csv_load_csv_round_trip(tmp_path_factory, seed, n_days, draw):
    frame = data.synth_weather(seed, n_days)
    n = len(frame)
    series = []
    for cls in data.FUEL_CLASSES:
        obs = draw.draw(st.dictionaries(st.integers(0, n - 1), st.floats(0.0, 100.0),
                                        max_size=12), label=cls)
        rows = np.array(sorted(obs), dtype=int)
        series.append(data.FmcSeries(cls, frame.times[rows],
                                     np.array([obs[k] for k in sorted(obs)], dtype=float)))
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    data.write_csv(path, frame, series)
    frame2, series2 = data.load_csv(path)
    assert_array_equal(frame2.times, frame.times)
    for name, column in columns(frame).items():
        assert_array_equal(getattr(frame2, name), column)
    observed = {s.fuel_class: s for s in series if len(s)}
    assert [s.fuel_class for s in series2] == list(observed)
    for s in series2:
        assert_array_equal(s.times, observed[s.fuel_class].times)
        assert_array_equal(s.values, observed[s.fuel_class].values)


# Cells of one table: comma-free single-line text, ints, finite floats
# (with -0.0 and subnormals always in reach) and None.
table_cells = st.one_of(
    st.none(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=",")),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, -1.0e-320]),
)


@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 6), draw=st.data())
def test_write_table_read_table_round_trip(tmp_path_factory, width, draw):
    header = [f"c{k}" for k in range(width)]
    rows = draw.draw(st.lists(st.lists(table_cells, min_size=width, max_size=width),
                              max_size=10))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    data.write_table(path, header, rows)
    back = data.read_table(path, header, [str] * width)
    assert len(back) == len(rows)
    for row, cells in zip(rows, back):
        for x, cell in zip(row, cells):
            if x is None:
                assert cell == ""
            elif isinstance(x, float):
                assert bits(float(cell)) == bits(x)
            elif isinstance(x, int):
                assert int(cell) == x
            else:
                assert cell == x


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16),
       runs=st.lists(st.tuples(st.integers(1, 46), st.integers(1, 5)), min_size=1, max_size=3))
def test_load_csv_hold_fills_gaps_of_up_to_three_hours(tmp_path_factory, seed, runs):
    frame = data.synth_weather(seed, 2)
    targets = data.synth_targets(frame, tau=10.0)  # an fm10 observation every hour
    path = tmp_path_factory.mktemp("gaps") / "d.csv"
    data.write_csv(path, frame, [targets])
    header, *lines = path.read_text().splitlines()
    n = len(lines)
    kept = np.ones(n, dtype=bool)
    for start, length in runs:  # never the first or last row
        kept[start : min(start + length, n - 1)] = False
    path.write_text("\n".join([header] + [line for line, k in zip(lines, kept) if k]) + "\n")
    # Length of the run of deleted rows that ends before each row.
    run_before = np.zeros(n, dtype=int)
    for i in range(1, n):
        run_before[i] = 0 if kept[i - 1] else run_before[i - 1] + 1
    first_gap = np.flatnonzero(kept & (run_before > 0))[0]
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == kept[:first_gap].sum() + 2
    if run_before.max() > 3:
        first_long = np.flatnonzero(run_before > 3)[0]
        with pytest.raises(ParseError) as err:
            data.load_csv(path, fill="hold")
        assert err.value.row == kept[:first_long].sum() + 2
        return
    held, series = data.load_csv(path, fill="hold")
    assert held.times.tobytes() == frame.times.tobytes()
    # Each row is the last kept row at or before it, with its own hour
    # (a synth hour is the hour of its timestamp).
    previous = np.maximum.accumulate(np.where(kept, np.arange(n), 0))
    for name, column in columns(frame).items():
        expected = column if name == "hour" else column[previous]
        assert getattr(held, name).tobytes() == expected.tobytes(), name
    assert [s.fuel_class for s in series] == ["fm10"]
    assert series[0].times.tobytes() == frame.times[kept].tobytes()
    assert series[0].values.tobytes() == targets.values[kept].tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_days=st.integers(1, 3), draw=st.data())
def test_split_partition_laws(seed, n_days, draw):
    frame = data.synth_weather(seed, n_days)
    t0 = frame.times[0]
    span = int((frame.times[-1] - t0) / np.timedelta64(1, "s"))
    a, b = sorted(draw.draw(st.lists(st.integers(0, span), min_size=2, max_size=2,
                                     unique=True), label="boundaries"))
    spec = data.SplitSpec(train_end=t0 + np.timedelta64(a, "s"),
                          val_end=t0 + np.timedelta64(b, "s"))
    series = []
    for cls in data.FUEL_CLASSES:
        offsets = sorted(draw.draw(st.sets(st.integers(0, span), max_size=15), label=cls))
        times = t0 + np.array(offsets, dtype="timedelta64[s]")
        series.append(data.FmcSeries(cls, times, np.full(len(offsets), 12.5)))
    t_last = frame.times[-1]
    bounds = {"train": (t0 - np.timedelta64(1, "s"), spec.train_end),
              "val": (spec.train_end, spec.val_end), "test": (spec.val_end, t_last)}

    def within(times, name):
        lo, hi = bounds[name]
        return (times > lo) & (times <= hi)

    names = ("train", "val", "test")
    if not all(within(frame.times, name).any() for name in names):
        with pytest.raises(SplitError):
            data.split(frame, series, spec)
        return
    parts = data.split(frame, series, spec)
    weather = [getattr(parts, name).weather.times for name in names]
    # Disjoint, covering and in order: the partitions concatenate to the frame.
    assert_array_equal(np.concatenate(weather), frame.times)
    for name, times in zip(names, weather):
        assert within(times, name).all()
    for s in series:
        obs = [getattr(parts, name).observations[s.fuel_class] for name in names]
        assert_array_equal(np.concatenate([o.times for o in obs]), s.times)
        for name, o in zip(names, obs):
            assert within(o.times, name).all()


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(0.5, 2000.0), gamma=st.integers(1, 24), steps=st.integers(1, 40),
       m0=st.floats(0.0, 60.0), seed=st.integers(0, 2**16))
def test_warp_equals_the_recursion_on_a_held_series(tau, gamma, steps, m0, seed):
    # Warping by an integer gamma is gamma plain steps per input: every
    # gamma-th state of the recursion over each input held gamma times.
    x = np.random.default_rng(seed).uniform(0.0, 60.0, size=steps)
    params = timelag.TimeLagParams.from_tau(tau)
    warped = timelag.simulate(m0, x, warp(params, WarpFactor(gamma)))
    held = timelag.simulate(m0, np.repeat(x, gamma), params)
    np.testing.assert_allclose(warped, held[gamma - 1 :: gamma], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(rh=st.floats(0.0, 100.0),
       temp_k=st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False))
def test_equilibria_drying_at_least_wetting_at_least_zero(rh, temp_k):
    drying, wetting = timelag.equilibria_arrays([temp_k], [rh])
    assert drying[0] >= wetting[0] >= 0.0
