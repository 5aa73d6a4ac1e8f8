"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 4 and 8 share a synthetic transfer fixture: a source network is
trained on fast-equilibrium dynamics with a 10-hour lag and adapted by
bias-shift grid search toward 1-hour and 100-hour targets. The same
fixture checks the warp toward a 1000-hour target as well.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fmwarp import data, evaluation, nn, timelag, train, transfer
from helpers import WarpFactor, from_retention, grid_search, replicate, warp


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


def test_criterion_1_warp_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        tau = rng.uniform(0.5, 300.0)
        gamma = rng.uniform(0.1, 20.0)
        m0 = rng.uniform(0.0, 50.0)
        x = rng.uniform(0.0, 50.0, size=48)
        params = timelag.TimeLagParams.from_tau(tau)
        warped = timelag.simulate(m0, x, warp(params, WarpFactor(gamma)))
        direct = timelag.simulate(
            m0, x, from_retention(math.exp(-gamma / tau))
        )
        worst = max(worst, float(np.max(np.abs(warped - direct))))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"100 random (tau, gamma) cases, max abs diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_constructed_lstm_exactness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 40.0, size=(1000, 1))
    net = nn.construct_timelag_lstm(10.0, 0)
    preds, _ = nn.forward(net, x)
    ref10 = timelag.simulate(0.0, x[:, 0], timelag.TimeLagParams.from_tau(10.0))
    err10 = float(np.max(np.abs(preds - ref10)))
    assert err10 <= 1e-12

    gamma = 10.0
    a_warped = timelag.TimeLagParams.from_tau(10.0).a ** gamma
    net.tensors()["lstm.b_f"][:] = a_warped
    net.tensors()["lstm.b_i"][:] = 1.0 - a_warped
    preds_w, _ = nn.forward(net, x)
    ref1 = timelag.simulate(0.0, x[:, 0], timelag.TimeLagParams.from_tau(1.0))
    err1 = float(np.max(np.abs(preds_w - ref1)))
    elapsed = time.time() - t0
    assert err1 <= 1e-12
    assert elapsed < 1.0
    report(2, f"construction err {err10:.2e}, bias-replacement warp err {err1:.2e}, {elapsed:.2f}s")


def test_criterion_3_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(123)
    params = nn.init_params(3, 2, (3, 2), rng=rng)
    for arr in params.tensors().values():
        arr += rng.normal(0.0, 0.3, size=arr.shape)
    inputs = rng.normal(size=(10, 3))
    targets = rng.normal(size=10)
    mask = np.ones(10)
    grads, _, _ = train.backward(params, inputs, targets, mask)

    def loss_at():
        preds, _ = nn.forward(params, inputs)
        return train.masked_mse(preds, targets, mask)

    eps = 1e-5
    checked = 0
    worst = 0.0
    for name, arr in params.tensors().items():
        flat = arr.ravel()
        for _ in range(2):
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_at()
            flat[idx] = orig - eps
            lm = loss_at()
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            an = grads[name].ravel()[idx]
            if max(abs(fd), abs(an)) < 1e-7:
                continue  # below finite-difference resolution
            rel = abs(fd - an) / max(abs(fd), abs(an))
            worst = max(worst, rel)
            assert rel <= 1e-5, (name, idx, an, fd)
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 20
    assert elapsed < 10.0
    report(3, f"{checked} coordinates across all tensor roles, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Synthetic transfer fixture shared by criteria 4 and 8.
# ---------------------------------------------------------------------------

FIXTURE_HIDDEN = 16
FIXTURE_REALIZATIONS = 5


@pytest.fixture(scope="module")
def synthetic_transfer():
    """Pretrain on 10-hour-lag targets, warp toward 1-, 100- and 1000-hour
    targets.

    Stationary climate (no seasonal ramp) so the 180-day window stands in
    for a full training year; the targets are the pure time-lag recursion
    on the drying equilibrium.
    """
    t0 = time.time()
    profile = data.SynthProfile(
        temp_seasonal_amp=0.0,
        temp_synoptic_amp=2.5,
        temp_synoptic_tau_h=72.0,
        temp_diurnal_amp=5.0,
        temp_noise=0.8,
        rh_noise=4.0,
        rain_rate=0.0,
    )
    frame = data.synth_weather(seed=101, n_days=180, profile=profile)
    targets = {
        tau: data.synth_targets(frame, tau=tau, fuel_class=cls)
        for tau, cls in ((10.0, "fm10"), (1.0, "fm1"), (100.0, "fm100"), (1000.0, "fm1000"))
    }
    spec = data.fraction_split_spec(frame, 0.6)
    parts = data.split(frame, list(targets.values()), spec)
    scaler = data.TargetScaler.fit(parts.train.observations["fm10"].values)

    # Mechanism-isolating feature set: the dynamical drivers only.
    tr_w = parts.train.weather
    x_stats = (tr_w.drying_eq.mean(), tr_w.drying_eq.std())
    r_stats = (tr_w.rain.mean(), max(tr_w.rain.std(), 1e-6))

    def inputs_of(weather):
        return np.column_stack(
            [
                (weather.drying_eq - x_stats[0]) / x_stats[1],
                (weather.rain - r_stats[0]) / r_stats[1],
            ]
        )

    def series(partition, cls):
        obs = partition.observations[cls]
        y, mask = data.nearest_hour_mask(partition.weather.times, obs.times, obs.values)
        y = np.where(mask > 0, scaler.scale(y), 0.0)
        return train.SupervisedSeries(inputs_of(partition.weather), y, mask)

    config = train.TrainConfig(
        learning_rate=0.01, batch_length=72, max_epochs=150, patience=25, seed=500
    )
    realizations = replicate(
        2, FIXTURE_HIDDEN, (16, 8),
        series(parts.train, "fm10"), series(parts.val, "fm10"),
        config, n=FIXTURE_REALIZATIONS,
    )
    return {
        "frame": frame,
        "targets": targets,
        "parts": parts,
        "scaler": scaler,
        "inputs_of": inputs_of,
        "series": series,
        "realizations": realizations,
        "test_sel": frame.times > spec.val_end,
        "train_time": time.time() - t0,
        "outcome_cache": {},
    }


def _warp_outcomes(fx, tau):
    """Zero-shot and warped test RMSE plus the selected shift, per realization."""
    if tau in fx["outcome_cache"]:
        return fx["outcome_cache"][tau]
    cls = {1.0: "fm1", 100.0: "fm100", 1000.0: "fm1000"}[tau]
    target = fx["targets"][tau]
    train_series = fx["series"](fx["parts"].train, cls)
    full_inputs = fx["inputs_of"](fx["frame"])
    sel = fx["test_sel"]
    obs_test = target.values[sel]
    out = []
    for real in fx["realizations"]:
        zero_preds, _ = nn.forward(real.trained, full_inputs)
        zero_rmse = float(np.sqrt(np.mean((fx["scaler"].unscale(zero_preds)[sel] - obs_test) ** 2)))
        shift, _ = grid_search(real.trained, train_series)
        warped = transfer.apply_shift(real.trained, shift)
        warp_preds, _ = nn.forward(warped, full_inputs)
        warp_rmse = float(np.sqrt(np.mean((fx["scaler"].unscale(warp_preds)[sel] - obs_test) ** 2)))
        out.append((zero_rmse, warp_rmse, shift, warped))
    fx["outcome_cache"][tau] = out
    return out


def test_criterion_4_synthetic_transfer(synthetic_transfer):
    t0 = time.time()
    fx = synthetic_transfer
    lines = []
    for tau in (1.0, 100.0):
        outcomes = _warp_outcomes(fx, tau)
        zero = np.array([o[0] for o in outcomes])
        warp = np.array([o[1] for o in outcomes])
        shifts = [o[2] for o in outcomes]
        # (a) halved test RMSE, per realization
        ratios = warp / zero
        assert (ratios <= 0.5).all(), (tau, ratios.tolist())
        # (b) shift direction matches the dynamics change
        if tau == 100.0:
            assert all(s.alpha_f > 0.0 for s in shifts), [s.alpha_f for s in shifts]
        else:
            assert all(s.alpha_f < 0.0 for s in shifts), [s.alpha_f for s in shifts]
        lines.append(
            f"tau={tau:g}: ratios {np.round(ratios, 3).tolist()}, "
            f"alpha_f {[round(s.alpha_f, 2) for s in shifts]}"
        )
        # (c) exactly 2 x hidden entries modified
        pre = fx["realizations"][0].trained
        post = outcomes[0][3]
        changed = sum(
            int(np.sum(post.tensors()[name] != arr)) for name, arr in pre.tensors().items()
        )
        assert changed == 2 * FIXTURE_HIDDEN
    elapsed = fx["train_time"] + (time.time() - t0)
    assert elapsed < 600.0
    report(4, "; ".join(lines) + f"; 2x{FIXTURE_HIDDEN} entries modified; {elapsed:.0f}s total")


def test_fm1000_warp_slows_and_beats_zero_shot(synthetic_transfer):
    # The paper's claim for the 1000-hour class: per realization, the
    # searched shift slows the forget gate (alpha_f > 0) and the warped
    # network beats the zero-shot one on the test span.
    outcomes = _warp_outcomes(synthetic_transfer, 1000.0)
    alpha_f = [o[2].alpha_f for o in outcomes]
    ratios = [o[1] / o[0] for o in outcomes]
    assert all(a > 0.0 for a in alpha_f), alpha_f
    assert all(r < 1.0 for r in ratios), ratios
    print(f"\n[fm1000] PASS: ratios {np.round(ratios, 3).tolist()}, "
          f"alpha_f {[round(a, 2) for a in alpha_f]}")


def test_criterion_5_method_matrix_contracts(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(77)
    x = rng.normal(size=(140, 3))
    y = 5.0 + 2.0 * x[:, 0]
    train_s = train.SupervisedSeries(x[:105], y[:105], np.ones(105))
    val_s = train.SupervisedSeries(x[105:], y[105:], np.ones(35))
    config = train.TrainConfig(
        learning_rate=0.02, batch_length=35, max_epochs=4, patience=4, seed=11
    )
    pretrained = nn.init_params(3, 4, (4, 3), rng=np.random.default_rng(3))
    for arr in pretrained.tensors().values():
        arr += np.random.default_rng(4).normal(0.0, 0.1, size=arr.shape)

    frozen_rec = transfer.run_method(
        transfer.TransferMethod.FREEZE_RECURRENT, pretrained, train_s, val_s, config
    )
    for name, arr in pretrained.tensors().items():
        if name.startswith("lstm."):
            assert np.array_equal(frozen_rec.params.tensors()[name], arr), name

    frozen_dense = transfer.run_method(
        transfer.TransferMethod.FREEZE_DENSE, pretrained, train_s, val_s, config
    )
    for name, arr in pretrained.tensors().items():
        if name.startswith("dense"):
            assert np.array_equal(frozen_dense.params.tensors()[name], arr), name

    full = transfer.run_method(
        transfer.TransferMethod.FULL_FINE_TUNE, pretrained, train_s, val_s, config
    )
    # The search runs, and its pick is forced to the zero shift.
    monkeypatch.setattr(transfer, "_pick", lambda surface: transfer.BiasShift(0.0, 0.0))
    forced = transfer.run_method(
        transfer.TransferMethod.TIME_WARP_FINE_TUNE, pretrained, train_s, val_s, config
    )
    for name, arr in full.params.tensors().items():
        assert np.array_equal(arr, forced.params.tensors()[name]), name
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(5, f"freeze contracts bitwise, forced-zero warp+finetune == full finetune, {elapsed:.1f}s")


def test_criterion_6_metrics_oracle():
    m = evaluation.metrics([1.0, 1.0, 1.0], [0.0, 0.0, 4.0])
    assert abs(m.r2 - (-0.03125)) <= 1e-12
    assert abs(m.bias - (-1.0 / 3.0)) <= 1e-12
    assert abs(m.rmse - math.sqrt(11.0 / 3.0)) <= 1e-12
    rng = np.random.default_rng(6)
    pred = rng.normal(10.0, 4.0, size=1000)
    obs = rng.normal(9.0, 3.0, size=1000)
    m2 = evaluation.metrics(pred, obs)
    resid = pred - obs
    var = float(np.mean((resid - resid.mean()) ** 2))
    assert abs(m2.rmse**2 - (m2.bias**2 + var)) <= 1e-12
    report(6, "hand-computed r2/bias/rmse to 1e-12; rmse^2 = bias^2 + var on 1000 samples")


def test_criterion_7_acf_pacf_oracle():
    t0 = time.time()
    phi, n = 0.9, 50_000
    rng = np.random.default_rng(2)
    eps = rng.normal(size=n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    res = evaluation.acf(x, 10)
    worst = max(abs(res.values[k] - phi**k) for k in range(1, 11))
    assert worst <= 0.02
    p = evaluation.pacf(x, 10)
    assert abs(p.values[1] - phi) <= 0.02
    assert np.abs(p.values[2:]).max() < 0.02
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(7, f"AR(1) acf err {worst:.4f}, pacf[1] err {abs(p.values[1]-phi):.4f}, "
              f"max |pacf[k>=2]| {np.abs(p.values[2:]).max():.4f}, {elapsed:.1f}s")


def test_criterion_8_dynamics_reproduction(synthetic_transfer):
    fx = synthetic_transfer
    full_inputs = fx["inputs_of"](fx["frame"])
    sel = fx["test_sel"]
    preds = {}
    for tau in (1.0, 100.0):
        outcomes = _warp_outcomes(fx, tau)
        # hourly test predictions of the median-RMSE warped realization
        warp_rmses = np.array([o[1] for o in outcomes])
        order = np.argsort(warp_rmses, kind="stable")
        median = int(order[(warp_rmses.size - 1) // 2])
        p, _ = nn.forward(outcomes[median][3], full_inputs)
        preds[tau] = fx["scaler"].unscale(p)[sel]
    acf_fast = evaluation.acf(preds[1.0], 48).values
    acf_slow = evaluation.acf(preds[100.0], 48).values
    assert acf_fast[24] < acf_slow[24]
    near_12 = acf_fast[10:15]
    assert near_12.min() < 0.0, near_12.tolist()
    assert (acf_slow[1:] > 0.0).all()
    report(8, f"warped-fast acf[24] {acf_fast[24]:.3f} < warped-slow acf[24] {acf_slow[24]:.3f}; "
              f"fast sign change near lag 12 (min {near_12.min():.3f}); slow stays positive")


OKLAHOMA_CSV = os.environ.get("FMWARP_OKLAHOMA_CSV", "data/oklahoma.csv")


@pytest.mark.skipif(not Path(OKLAHOMA_CSV).exists(),
                    reason="Oklahoma-format CSV not supplied (set FMWARP_OKLAHOMA_CSV)")
def test_criterion_9_real_data_protocol():
    frame, series = data.load_csv(OKLAHOMA_CSV)
    spec = data.default_split_spec(frame)
    assert str(spec.train_end) == "1997-03-26T23:00:00"
    assert str(spec.val_end) == "1997-08-13T11:00:00"
    parts = data.split(frame, series, spec)
    assert len(parts.train.weather) == 8761
    assert len(parts.val.weather) == 3348
    assert len(parts.test.weather) == 3347
    counts = {
        cls: tuple(len(p.observations[cls]) for p in (parts.train, parts.val, parts.test))
        for cls in ("fm1", "fm10", "fm100", "fm1000")
    }
    assert counts["fm1"] == (704, 258, 271)
    assert counts["fm10"] == (704, 258, 270)
    assert counts["fm100"] == (481, 184, 206)
    assert counts["fm1000"] == (482, 183, 209)
    report(9, f"split boundaries and per-split counts match: {counts}")
