"""Accuracy metrics, moisture filtering, aggregation, ACF/PACF diagnostics.

Metrics are R^2 (about the observation mean), bias (mean of pred - obs)
and RMSE, computed on interpolation-aligned prediction/observation pairs.
The <=30% filter keeps pairs by their OBSERVED value, the convention for
excluding fuels beyond the moisture of extinction.

The autocorrelation function uses the biased (divide-by-n) autocovariance
estimator, the usual correlogram convention; partial autocorrelations
come from the Durbin-Levinson recursion on those estimates. Both are
meant to be run on hourly model predictions, which are dense enough to
resolve short-lag structure, and carry a 95% significance band of
+-1.96/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fmwarp import data as datamod
from fmwarp.errors import EvaluationError, InvalidInputError, ZeroVarianceError

FILTER_ALL = "all"
FILTER_LE30 = "le30"
LE30_CLASSES = ("fm1", "fm10")  # the fine fuel classes, the only ones FILTER_LE30 scores
MOISTURE_FILTER_THRESHOLD = 30.0  # percent; moisture-of-extinction convention
METRIC_NAMES = ("r2", "bias", "rmse")


@dataclass(frozen=True)
class MetricSet:
    r2: float
    bias: float
    rmse: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics for one (method, fuel class, filter) cell."""

    method: str
    fuel_class: str
    filter: str
    mean: dict[str, float]
    std: dict[str, float]
    n: int  # pairs per realization
    per_realization: tuple[MetricSet, ...]
    median_realization: int  # index of the realization with median rmse


def metrics(pred, obs) -> MetricSet:
    """R^2, bias and RMSE for paired predictions and observations.

    Raises :class:`ZeroVarianceError` when R^2 is undefined (fewer than
    two pairs or constant observations).
    """
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1:
        raise InvalidInputError("pred and obs must be equal-length 1-d arrays")
    n = pred.size
    if n < 1:
        raise InvalidInputError("metrics need at least one pair")
    resid = pred - obs
    bias = float(resid.mean())
    rmse = float(np.sqrt(np.mean(resid**2)))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if n < 2 or ss_tot == 0.0:
        raise ZeroVarianceError("R^2 undefined: observations have no variance")
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return MetricSet(r2=r2, bias=bias, rmse=rmse, n=n)


def filter_le(pred, obs, threshold: float = MOISTURE_FILTER_THRESHOLD):
    """Keep pairs whose observed value is <= threshold."""
    if not threshold > 0:
        raise InvalidInputError(f"threshold must be > 0, got {threshold}")
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    keep = obs <= threshold
    return pred[keep], obs[keep]


@dataclass(frozen=True)
class CorrelogramResult:
    values: np.ndarray  # index 0 is lag 0
    band: float  # 95% significance band half-width, 1.96/sqrt(n)


def acf(series, max_lag: int) -> CorrelogramResult:
    """Autocorrelation function with the biased covariance estimator."""
    x = np.asarray(series, dtype=float)
    if x.size <= max_lag + 2:
        raise InvalidInputError(f"series of length {x.size} too short for max_lag {max_lag}")
    x = x - x.mean()
    c0 = float(np.dot(x, x)) / x.size
    if c0 == 0.0:
        raise EvaluationError("autocorrelation undefined for a constant series")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(x[k:], x[:-k])) / x.size / c0
    return CorrelogramResult(values=out, band=1.96 / math.sqrt(x.size))


def pacf(series, max_lag: int) -> CorrelogramResult:
    """Partial autocorrelation by the Durbin-Levinson recursion."""
    correlogram = acf(series, max_lag)
    rho = correlogram.values
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if max_lag >= 1:
        phi = np.zeros((max_lag + 1, max_lag + 1))
        phi[1, 1] = rho[1]
        out[1] = rho[1]
        for k in range(2, max_lag + 1):
            prev = phi[k - 1, 1:k]
            num = rho[k] - float(np.dot(prev, rho[k - 1 : 0 : -1]))
            den = 1.0 - float(np.dot(prev, rho[1:k]))
            phi[k, k] = num / den
            phi[k, 1:k] = prev - phi[k, k] * prev[::-1]
            out[k] = phi[k, k]
    return CorrelogramResult(values=out, band=correlogram.band)


def aggregate(
    per_realization: list[MetricSet], method: str, fuel_class: str, filter_label: str
) -> EvalReport:
    """Sample mean and standard deviation (n-1 denominator, 0 for one
    realization) per metric, plus the median-RMSE realization's index."""
    if not per_realization:
        raise InvalidInputError("aggregate needs at least one realization")
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in METRIC_NAMES:
        # Sorted reduction makes the statistics exactly permutation invariant.
        vals = np.sort([getattr(m, name) for m in per_realization])
        mean[name] = float(vals.mean())
        std[name] = 0.0 if len(per_realization) == 1 else float(vals.std(ddof=1))
    rmses = np.array([m.rmse for m in per_realization])
    # Lower-median convention keeps the pick well defined for even counts.
    order = np.argsort(rmses, kind="stable")
    median_idx = int(order[(rmses.size - 1) // 2])
    return EvalReport(
        method=method,
        fuel_class=fuel_class,
        filter=filter_label,
        mean=mean,
        std=std,
        n=per_realization[0].n,
        per_realization=tuple(per_realization),
        median_realization=median_idx,
    )


REPORT_COLUMNS = (
    "method", "class", "filter",
    "r2_mean", "r2_std", "bias_mean", "bias_std", "rmse_mean", "rmse_std", "n",
)
PER_REALIZATION_COLUMNS = ("method", "class", "filter", "realization", "r2", "bias", "rmse", "n")


def write_report_csv(reports: list[EvalReport], path) -> None:
    datamod.write_table(path, REPORT_COLUMNS, (
        (r.method, r.fuel_class, r.filter,
         *(s[name] for name in METRIC_NAMES for s in (r.mean, r.std)), r.n)
        for r in reports
    ))


def format_report_table(reports: list[EvalReport]) -> str:
    """Human-readable table, one row per (method, class, filter)."""
    header = f"{'method':<18} {'class':<7} {'filter':<6} " + " ".join(
        f"{name + ' (mean+-sd)':<22}" for name in METRIC_NAMES
    ) + f" {'n':>5}"
    rows = [header, "-" * len(header)]
    for r in reports:
        cells = " ".join(
            f"{r.mean[name]:>9.4f} +- {r.std[name]:<8.4f}" for name in METRIC_NAMES
        )
        rows.append(f"{r.method:<18} {r.fuel_class:<7} {r.filter:<6} {cells} {r.n:>5}")
    return "\n".join(rows)


def write_per_realization_csv(reports: list[EvalReport], path) -> None:
    datamod.write_table(path, PER_REALIZATION_COLUMNS, (
        (r.method, r.fuel_class, r.filter, k, m.r2, m.bias, m.rmse, m.n)
        for r in reports for k, m in enumerate(r.per_realization)
    ))


def group_reports(rows) -> list[EvalReport]:
    """One :func:`aggregate` report per cell of (method, class, filter,
    MetricSet) rows, cells sorted, realizations in row order."""
    groups: dict[tuple[str, str, str], list[MetricSet]] = {}
    for method, fuel_class, filter_label, m in rows:
        groups.setdefault((method, fuel_class, filter_label), []).append(m)
    return [aggregate(ms, *cell) for cell, ms in sorted(groups.items())]
