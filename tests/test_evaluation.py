import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fmwarp import evaluation
from fmwarp.errors import EvaluationError, InvalidInputError, ZeroVarianceError
from fmwarp.evaluation import MetricSet


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


def test_metrics_perfect_prediction():
    m = evaluation.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert m.r2 == 1.0 and m.bias == 0.0 and m.rmse == 0.0 and m.n == 3


def test_metrics_hand_computed_example():
    # SS_tot = 32/3, SS_res = 11, bias = -1/3, rmse = sqrt(11/3).
    m = evaluation.metrics([1.0, 1.0, 1.0], [0.0, 0.0, 4.0])
    assert m.r2 == pytest.approx(-0.03125, abs=1e-12)
    assert m.bias == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert m.rmse == pytest.approx(math.sqrt(11.0 / 3.0), abs=1e-12)


def test_metrics_translation_shifts_bias_exactly():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=50)
    obs = rng.normal(size=50)
    base = evaluation.metrics(pred, obs)
    shifted = evaluation.metrics(pred + 2.5, obs)
    assert shifted.bias == pytest.approx(base.bias + 2.5, abs=1e-12)


def test_metrics_zero_variance_carries_partials():
    with pytest.raises(ZeroVarianceError) as err:
        evaluation.metrics([1.0, 2.0], [3.0, 3.0])
    assert err.value.bias == pytest.approx(-1.5)
    assert err.value.rmse == pytest.approx(math.sqrt((4.0 + 1.0) / 2.0))
    assert err.value.n == 2
    with pytest.raises(ZeroVarianceError):
        evaluation.metrics([1.0], [2.0])  # n=1: variance undefined


def test_metrics_rmse_bias_variance_decomposition():
    rng = np.random.default_rng(1)
    pred = rng.normal(5, 2, size=1000)
    obs = rng.normal(4, 1, size=1000)
    m = evaluation.metrics(pred, obs)
    resid = pred - obs
    var = float(np.mean((resid - resid.mean()) ** 2))
    assert m.rmse**2 == pytest.approx(m.bias**2 + var, abs=1e-12)


def test_filter_le_keeps_by_observed_value():
    pred = np.array([50.0, 10.0, 20.0])
    obs = np.array([35.0, 29.9, 30.0])
    p, o = evaluation.filter_le(pred, obs, 30.0)
    assert o.tolist() == [29.9, 30.0]
    assert p.tolist() == [10.0, 20.0]


def test_filter_le_identity_and_idempotent():
    rng = np.random.default_rng(2)
    pred = rng.uniform(0, 60, 40)
    obs = rng.uniform(0, 60, 40)
    p1, o1 = evaluation.filter_le(pred, obs, np.inf)
    assert_allclose(p1, pred)
    p2, o2 = evaluation.filter_le(*evaluation.filter_le(pred, obs, 30.0), 30.0)
    p3, o3 = evaluation.filter_le(pred, obs, 30.0)
    assert_allclose(p2, p3)
    assert_allclose(o2, o3)


def test_filter_le_empty_result_breaks_metrics():
    pred, obs = evaluation.filter_le(np.array([1.0]), np.array([50.0]), 30.0)
    assert pred.size == 0
    with pytest.raises(InvalidInputError):
        evaluation.metrics(pred, obs)


def test_acf_white_noise_stays_small():
    rng = np.random.default_rng(1)
    res = evaluation.acf(rng.normal(size=10_000), 48)
    assert res.values[0] == 1.0
    assert np.abs(res.values[1:]).max() < 0.05
    assert res.band == pytest.approx(1.96 / 100.0)


def test_acf_pacf_ar1_oracle():
    # acf_k ~ phi^k and pacf cuts off after lag 1, the AR(1) signature.
    x = ar1(0.9, 50_000, seed=2)
    res = evaluation.acf(x, 10)
    for k in range(1, 11):
        assert res.values[k] == pytest.approx(0.9**k, abs=0.02)
    p = evaluation.pacf(x, 10)
    assert p.values[1] == pytest.approx(0.9, abs=0.02)
    assert np.abs(p.values[2:]).max() < 0.02


def test_pacf_ar2_second_coefficient():
    rng = np.random.default_rng(3)
    n = 60_000
    eps = rng.normal(size=n)
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = 0.5 * x[t - 1] + 0.3 * x[t - 2] + eps[t]
    p = evaluation.pacf(x[500:], 6)
    assert p.values[2] == pytest.approx(0.3, abs=0.02)
    assert np.abs(p.values[3:]).max() < 0.02


def test_acf_sinusoid_periodicity():
    t = np.arange(24 * 60)
    res = evaluation.acf(np.sin(2 * np.pi * t / 24.0), 30)
    assert res.values[12] < 0.0
    assert res.values[24] > 0.9


def test_acf_constant_series_errors():
    with pytest.raises(EvaluationError):
        evaluation.acf(np.full(100, 3.0), 10)


def test_acf_bounds_and_short_series():
    rng = np.random.default_rng(4)
    res = evaluation.acf(rng.normal(size=500), 40)
    assert (np.abs(res.values) <= 1.0 + 1e-12).all()
    with pytest.raises(InvalidInputError):
        evaluation.acf(np.arange(10.0), 10)


def test_aggregate_hand_example():
    sets = [
        MetricSet(r2=0.5, bias=0.1, rmse=1.0, n=7),
        MetricSet(r2=0.6, bias=0.2, rmse=2.0, n=7),
        MetricSet(r2=0.7, bias=0.3, rmse=3.0, n=7),
    ]
    rep = evaluation.aggregate(sets, "TimeWarp", "fm1", "all")
    assert rep.mean["rmse"] == pytest.approx(2.0)
    assert rep.std["rmse"] == pytest.approx(1.0)
    assert rep.median_realization == 1


def test_aggregate_single_realization_flagged():
    rep = evaluation.aggregate([MetricSet(0.5, 0.1, 1.0, 5)], "NoTransfer", "fm10", "all")
    assert rep.std["rmse"] == 0.0


def test_aggregate_permutation_invariant_statistics():
    rng = np.random.default_rng(5)
    sets = [
        MetricSet(r2=float(r), bias=float(b), rmse=float(e), n=9)
        for r, b, e in rng.normal(size=(6, 3))
    ]
    a = evaluation.aggregate(sets, "m", "fm1", "all")
    b = evaluation.aggregate(sets[::-1], "m", "fm1", "all")
    assert a.mean == b.mean and a.std == b.std
    assert a.per_realization[a.median_realization].rmse == pytest.approx(
        b.per_realization[b.median_realization].rmse
    )


def test_report_csv_schema(tmp_path):
    rep = evaluation.aggregate([MetricSet(0.5, 0.1, 1.0, 5)], "TimeWarp", "fm1", "le30")
    path = tmp_path / "report.csv"
    evaluation.write_report_csv([rep], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,class,filter,r2_mean,r2_std,bias_mean,bias_std,rmse_mean,rmse_std,n"
    assert lines[1].startswith("TimeWarp,fm1,le30,")


def test_report_text_table():
    rep = evaluation.aggregate(
        [MetricSet(0.5, 0.1, 1.0, 5), MetricSet(0.6, 0.0, 1.2, 5)], "TimeWarp", "fm1", "all"
    )
    text = evaluation.format_report_table([rep])
    assert "TimeWarp" in text and "fm1" in text


def test_per_realization_csv_roundtrips_aggregates(tmp_path):
    sets = [MetricSet(0.5, 0.1, 1.0, 7), MetricSet(0.7, -0.1, 2.0, 7)]
    rep = evaluation.aggregate(sets, "FullFineTune", "fm100", "all")
    path = tmp_path / "per.csv"
    evaluation.write_per_realization_csv([rep], path)
    lines = path.read_text().splitlines()
    parsed = []
    for line in lines[1:]:
        _, _, _, _, r2, bias, rmse, n = line.split(",")
        parsed.append(MetricSet(float(r2), float(bias), float(rmse), int(n)))
    again = evaluation.aggregate(parsed, "FullFineTune", "fm100", "all")
    assert again.mean == rep.mean and again.std == rep.std
