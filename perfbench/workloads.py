"""The benchmark's workloads: shape, set-up, timed stage and output checks.

Every workload drives the public ``fmwarp.cli`` stage functions on a
synthetic dataset made from the run's seed, with ``jobs = 1`` (one process).

* ``pretrain`` -- ``cmd_pretrain`` with a fixed epoch count (patience above
  it, so every run does the same work).  Costs BPTT, Adam and the per-epoch
  validation forward pass; never calls the grid search.
* ``warp`` -- ``cmd_transfer --method TimeWarp`` for fm1 and fm100 from
  checkpoints pretrained in set-up.  Costs the 626-candidate bias-shift grid
  search; no training.
* ``evaluate`` -- ``cmd_evaluate`` + ``cmd_report`` over two years of hourly
  data and several H=64 checkpoints.  Costs the per-row CSV parse,
  checkpoint reads and the plain forward pass over the whole span.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from fmwarp import cli, evaluation, nn, train, transfer
from fmwarp import data as datamod


@dataclass(frozen=True)
class Shape:
    n_days: int
    train_frac: float
    hidden: int
    dense: str
    realizations: int
    epochs: int  # pretraining epochs: timed in pretrain, set-up elsewhere
    classes: tuple[str, ...] = ()
    grid_n: int = 25  # grid.n_per_axis of the transfer runs

    @property
    def hours(self) -> int:
        return self.n_days * 24

    @property
    def train_hours(self) -> int:
        return int(round(self.hours * self.train_frac))

    @property
    def candidates(self) -> int:
        return self.grid_n**2 + 1


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def digest(paths: list[Path], extra: str = "") -> str:
    """SHA-256 over the files (relative name + bytes) under ``paths``."""
    h = hashlib.sha256(extra.encode())
    for root in paths:
        for f in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(root.parent)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, shape: Shape):
        self.shape = shape

    def config(self, seed: int, work: Path) -> cli.Config:
        s = self.shape
        return cli.Config({
            "seed": str(seed),
            "out": str(work / "run"),
            "jobs": "1",
            "data.path": str(work / "synth.csv"),
            "split.rule": "fraction",
            "split.train_frac": repr(s.train_frac),
            "arch.hidden_size": str(s.hidden),
            "arch.dense_sizes": s.dense,
            "train.max_epochs": str(s.epochs),
            "train.patience": str(s.epochs + 1),
            "realizations": str(s.realizations),
            "grid.n_per_axis": str(s.grid_n),
            "synth.n_days": str(s.n_days),
        })

    def describe(self) -> dict:
        return {"name": self.name, **asdict(self.shape), "cell_steps": self.cell_steps(),
                "units": self.units()}

    # Overridden per workload -------------------------------------------------
    def setup(self, cfg: cli.Config) -> None:
        cli.cmd_synth(cfg)

    def setup_outputs(self, cfg: cli.Config) -> list[Path]:
        return [Path(cfg.get("data.path"))]

    def stage(self, cfg: cli.Config) -> str:
        """Run the timed stage; returns text output to include in the digest."""
        raise NotImplementedError

    def stage_outputs(self, cfg: cli.Config) -> list[Path]:
        raise NotImplementedError

    def units(self) -> int:
        """Operations one stage run attempts."""
        raise NotImplementedError

    def unit_statuses(self, cfg: cli.Config) -> list[bool]:
        return [True] * self.units()

    def cell_steps(self) -> int:
        """Useful LSTM cell-steps one stage run does, from the shape."""
        raise NotImplementedError

    def check(self, cfg: cli.Config) -> tuple[list[bool], list[tuple[str, bool, str]], float]:
        """Gate the last stage run's outputs.

        Returns (per-unit pass flags, run-level gates as (name, ok, detail),
        the quality figure rmse_pct).
        """
        raise NotImplementedError

    def identities(self) -> dict[str, float]:
        """Per-layer counters implied by the shape for the code the benchmark
        was written against; a change that alters the work on purpose
        alters these."""
        raise NotImplementedError


def _history(path: Path) -> list[tuple[int, float, float]]:
    return [(int(e), float(tr), float(vl)) for e, tr, vl in _rows(path)]


def _parts(cfg: cli.Config) -> datamod.Split:
    frame, series = cli.load_dataset(cfg)
    return cli.split_dataset(cfg, frame, series)


def _series(parts: datamod.Split, extra: dict, fuel_class: str):
    """Training and validation series of ``fuel_class`` as a checkpoint saw them."""
    normalizer = datamod.Normalizer.from_dict(extra["normalizer"])
    scaler = datamod.TargetScaler.from_dict(extra["target_scaler"])
    train_s = cli.build_series(parts.train, normalizer, fuel_class, scaler)
    val_s = cli.build_series(parts.val, normalizer, fuel_class, scaler)
    return train_s, val_s, scaler


def _rmse_pct(params: nn.RnnParams, series: train.SupervisedSeries, scaler) -> float:
    """Masked RMSE of ``params`` on ``series`` in percent moisture, through
    the plain forward pass."""
    preds, _ = nn.forward(params, series.inputs)
    sel = series.mask > 0
    return evaluation.metrics(scaler.unscale(preds[sel]), scaler.unscale(series.targets[sel])).rmse


def _close(a: float, b: float, rel: float = 1e-8) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def _shift_contract(parent: nn.RnnParams, child: nn.RnnParams, shift: transfer.BiasShift) -> tuple[bool, str]:
    """A TimeWarp checkpoint differs from its parent only in lstm.b_f and
    lstm.b_i, each by exactly the chosen shift: 2 x H entries when both
    shifts are non-zero."""
    before, after = parent.tensors(), child.tensors()
    h = parent.lstm.hidden_size
    changed = {k: int(np.sum(before[k] != after[k])) for k in before}
    expected = h * (shift.alpha_f != 0.0) + h * (shift.alpha_i != 0.0)
    exact = (np.array_equal(after["lstm.b_f"], before["lstm.b_f"] + shift.alpha_f)
             and np.array_equal(after["lstm.b_i"], before["lstm.b_i"] + shift.alpha_i))
    moved = sum(changed.values())
    others = sum(v for k, v in changed.items() if k not in ("lstm.b_f", "lstm.b_i"))
    ok = exact and others == 0 and moved == expected
    return ok, f"{moved} entries changed, expected {expected}"


class Pretrain(Workload):
    name = "pretrain"

    def stage(self, cfg):
        cli.cmd_pretrain(cfg, jobs=1)
        return ""

    def stage_outputs(self, cfg):
        return [Path(cfg.get("out")) / "pretrain"]

    def units(self):
        return self.shape.realizations

    def unit_statuses(self, cfg):
        manifest = json.loads((Path(cfg.get("out")) / "pretrain" / "manifest.json").read_text())
        return [s == "ok" for s in manifest["statuses"]]

    def cell_steps(self):
        return self.shape.realizations * self.shape.epochs * self.shape.train_hours

    def check(self, cfg):
        s = self.shape
        out = Path(cfg.get("out")) / "pretrain"
        unit_ok, rmses = [], []
        base_seed = cfg.get_int("seed")
        parts = _parts(cfg)
        for k in range(s.realizations):
            history = _history(out / f"history_{k:04d}.csv")
            params, extra = nn.load_params(out / f"ckpt_{k:04d}.json")
            train_s, val_s, scaler = _series(parts, extra, extra["source_class"])
            val_k, _ = train.subsample_validation(val_s, base_seed + k)
            best = min(v for _, _, v in history)
            # The checkpoint must be the best-validation snapshot.
            ok = (len(history) == s.epochs
                  and all(math.isfinite(tr) and math.isfinite(v) for _, tr, v in history)
                  and _close(train.validation_loss(params, train_s, val_k), best))
            unit_ok.append(ok)
            rmses.append(math.sqrt(best) * scaler.std)
        # Warp on the source class with a small grid: the search's pick is
        # no worse than no shift, measured by the plain forward pass, and
        # moves only the two gate biases.
        params, extra = nn.load_params(out / "ckpt_0000.json")
        train_s, val_s, scaler = _series(parts, extra, extra["source_class"])
        result = transfer.run_method(
            transfer.TransferMethod.TIME_WARP, params, train_s, val_s, cfg.train_config(),
            grid=transfer.GridSpec(n_per_axis=2))
        contract, detail = _shift_contract(params, result.params, result.shift)
        picked, unshifted = _rmse_pct(result.params, train_s, scaler), _rmse_pct(params, train_s, scaler)
        gates = [("source_warp_contract", contract and picked <= unshifted * (1 + 1e-9),
                  f"{detail}; rmse {picked:.6f} vs unshifted {unshifted:.6f}")]
        return unit_ok, gates, float(np.median(rmses))

    def identities(self):
        s = self.shape
        segments = math.ceil(s.train_hours / 72)
        return {
            "train.backward.calls": s.realizations * s.epochs * segments,
            "nn.forward.calls": 2 * s.realizations * s.epochs,
            "train.fit.epochs": s.realizations * s.epochs,
            "transfer.grid_search.calls": 0,
            "data.load_csv.calls": 1,
            "nn.save_params.calls": s.realizations,
        }


class Warp(Workload):
    name = "warp"

    def setup(self, cfg):
        cli.cmd_synth(cfg)
        cli.cmd_pretrain(cfg, jobs=1)

    def setup_outputs(self, cfg):
        return [Path(cfg.get("data.path")), Path(cfg.get("out")) / "pretrain"]

    def stage(self, cfg):
        for cls in self.shape.classes:
            cli.cmd_transfer(cfg, "TimeWarp", cls, jobs=1)
        return ""

    def stage_outputs(self, cfg):
        return [Path(cfg.get("out")) / "transfer"]

    def units(self):
        return self.shape.realizations * len(self.shape.classes)

    def cell_steps(self):
        s = self.shape
        return s.realizations * len(s.classes) * s.candidates * s.train_hours

    def check(self, cfg):
        s = self.shape
        base = Path(cfg.get("out"))
        parts = _parts(cfg)
        unit_ok, rmses = [], []
        for cls in s.classes:
            out = base / "transfer" / "TimeWarp" / cls
            for k in range(s.realizations):
                parent, parent_extra = nn.load_params(base / "pretrain" / f"ckpt_{k:04d}.json")
                warped, extra = nn.load_params(out / f"ckpt_{k:04d}.json")
                shift = transfer.BiasShift(**extra["shift"])
                rows = [tuple(float(v) for v in r) for r in _rows(out / f"surface_{k:04d}.csv")]
                finite = [r for r in rows if math.isfinite(r[2])]
                # Tie-broken argmin: smallest value, then |af|+|ai|, then af.
                best = min(finite, key=lambda r: (r[2], abs(r[0]) + abs(r[1]), r[0], r[1]))
                contract, _ = _shift_contract(parent, warped, shift)
                train_s, _, scaler = _series(parts, extra, cls)
                # The search kernel's value at the pick equals the plain
                # forward pass of the saved warped checkpoint.
                forward_rmse = _rmse_pct(warped, train_s, scaler)
                unit_ok.append(
                    len(rows) == s.candidates
                    and (best[0], best[1]) == (shift.alpha_f, shift.alpha_i)
                    and contract and _close(best[2], forward_rmse)
                    and parent_extra["normalizer"] == extra["normalizer"])
                rmses.append(best[2])
        return unit_ok, [], float(np.median(rmses))

    def identities(self):
        s = self.shape
        return {
            "transfer.grid_search.calls": 2 * s.realizations * len(s.classes),
            "transfer.grid_search.useful_ratio": 0.5,
            "nn.load_params.per_ckpt": 2,
            "train.backward.calls": 0,
            "data.load_csv.calls": len(s.classes),
            "nn.save_params.calls": s.realizations * len(s.classes),
        }


class Evaluate(Workload):
    name = "evaluate"

    def setup(self, cfg):
        cli.cmd_synth(cfg)
        cli.cmd_pretrain(cfg, jobs=1)
        for cls in self.shape.classes:
            cli.cmd_transfer(cfg, "TimeWarp", cls, jobs=1)

    def setup_outputs(self, cfg):
        return [Path(cfg.get("data.path")), Path(cfg.get("out")) / "pretrain",
                Path(cfg.get("out")) / "transfer"]

    def stage(self, cfg):
        cli.cmd_evaluate(cfg)
        return cli.cmd_report(cfg)

    def stage_outputs(self, cfg):
        return [Path(cfg.get("out")) / "evaluate"]

    def units(self):
        return self.shape.realizations * len(self.shape.classes)

    def cell_steps(self):
        return self.units() * self.shape.hours

    def _filters(self, cls):
        return [evaluation.FILTER_ALL] + ([evaluation.FILTER_LE30] if cls in ("fm1", "fm10") else [])

    def check(self, cfg):
        s = self.shape
        eval_dir = Path(cfg.get("out")) / "evaluate"
        frame, series = cli.load_dataset(cfg)
        parts = cli.split_dataset(cfg, frame, series)
        test_sel = frame.times > parts.val.weather.times[-1]
        threshold = cfg.get_float("filter.threshold")
        expected = {}
        for cls in s.classes:
            obs = parts.test.observations[cls]
            _, paired = datamod.align_for_eval(
                frame.times[test_sel], np.zeros(int(test_sel.sum())), obs.times, obs.values)
            counts = {evaluation.FILTER_ALL: paired.size,
                      evaluation.FILTER_LE30: int(np.sum(paired <= threshold))}
            for f in self._filters(cls):
                expected["TimeWarp", cls, f] = counts[f]
        lines = (eval_dir / "report.csv").read_text().splitlines()
        rows = {(r[0], r[1], r[2]): r for r in (line.split(",") for line in lines[1:])}
        schema = (lines[0] == ",".join(evaluation.REPORT_COLUMNS) and len(rows) == len(lines) - 1
                  and all(len(r) == len(evaluation.REPORT_COLUMNS) for r in rows.values()))
        n_ok = set(rows) == set(expected) and all(
            int(rows[key][-1]) == n for key, n in expected.items())
        finite = all(math.isfinite(float(v)) for r in rows.values() for v in r[3:-1])
        per_real = _rows(eval_dir / "per_realization.csv")
        per_real_ok = len(per_real) == s.realizations * sum(len(self._filters(c)) for c in s.classes)
        # cmd_report re-aggregates per_realization.csv; it must reproduce
        # the table evaluate wrote.
        table_ok = cli.cmd_report(cfg) + "\n" == (eval_dir / "report.txt").read_text()
        gates = [("report_schema", schema, f"{len(rows)} rows"),
                 ("report_n_matches_test_observations", n_ok, str(expected)),
                 ("report_finite", finite, ""),
                 ("per_realization_rows", per_real_ok, f"{len(per_real)} rows"),
                 ("report_table_reproduced", table_ok, "")]
        rmse = float(np.mean([float(r[evaluation.REPORT_COLUMNS.index("rmse_mean")])
                              for r in rows.values()])) if rows else math.nan
        return [True] * self.units(), gates, rmse

    def identities(self):
        s = self.shape
        return {
            "nn.forward.calls": self.units(),
            "nn.forward.steps": self.units() * s.hours,
            "nn.load_params.per_ckpt": 1,
            "data.load_csv.calls": 1,
            "evaluation.metrics.calls": s.realizations * sum(len(self._filters(c)) for c in s.classes),
            "transfer.grid_search.calls": 0,
        }


SHAPES = {
    "pretrain": Shape(n_days=180, train_frac=0.6, hidden=16, dense="16,8", realizations=5, epochs=1),
    "warp": Shape(n_days=180, train_frac=0.6, hidden=16, dense="16,8", realizations=1, epochs=2,
                  classes=("fm1", "fm100")),
    "evaluate": Shape(n_days=730, train_frac=0.1, hidden=64, dense="32,16", realizations=2,
                      epochs=1, classes=("fm1", "fm100"), grid_n=2),
}

# Tiny shapes for the self-check: same code paths, seconds instead of minutes.
TINY = {
    "pretrain": Shape(n_days=20, train_frac=0.6, hidden=4, dense="4,3", realizations=2, epochs=2),
    "warp": Shape(n_days=20, train_frac=0.6, hidden=4, dense="4,3", realizations=1, epochs=1,
                  classes=("fm1", "fm100")),
    "evaluate": Shape(n_days=30, train_frac=0.3, hidden=8, dense="4,3", realizations=1,
                      epochs=1, classes=("fm1", "fm100"), grid_n=2),
}

CLASSES = {"pretrain": Pretrain, "warp": Warp, "evaluate": Evaluate}


def make(name: str, tiny: bool = False) -> Workload:
    return CLASSES[name]((TINY if tiny else SHAPES)[name])

