"""Command-line pipeline: synth -> pretrain -> transfer -> evaluate -> report.

Configuration is a flat text file of dotted keys (``train.learning_rate =
0.01``); command-line flags override file values. All randomness flows
from one root seed through named substreams, so a full pipeline run with
fixed seeds is byte-identical across invocations, regardless of --jobs.

Exit codes: 0 success, 2 configuration, 3 data (parse/split/alignment),
4 training, 5 search/evaluation (each ``FmwarpError`` carries its own),
6 I/O, 1 anything else, such as a size too large to allocate; every
failure is one ``error:`` line, never a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from fmwarp import data as datamod
from fmwarp import evaluation, nn, train, transfer
from fmwarp.errors import (
    ConfigError,
    EvaluationError,
    FmwarpError,
    InvalidInputError,
    TrainingDivergedError,
    ZeroVarianceError,
)


def _finite(kind, low=-math.inf):
    """A parser of ``kind`` that refuses a value below ``low`` or not finite."""
    def parse(text: str):
        value = kind(text)
        if not (-math.inf < value < math.inf and value >= low):
            raise ValueError(text)
        return value
    return parse


def _listed(parse, count: int | None = None):
    """A parser of comma-separated items that refuses no items, or not ``count``."""
    def parse_list(text: str) -> tuple:
        items = tuple(parse(item.strip()) for item in text.split(",") if item.strip())
        if not items or count not in (None, len(items)):
            raise ValueError(text)
        return items
    return parse_list


def _distinct(parse):
    def parse_distinct(text: str) -> tuple:
        if len(set(items := parse(text))) < len(items):  # a repeat is a typo, e.g. fm1 for fm1000
            raise ValueError(text)
        return items
    return parse_distinct


def _optional(parse):
    return lambda text: None if text.strip().lower() in ("", "none") else parse(text)


def _one_of(*options: str):
    return lambda text: options[options.index(text)]


def _path(text: str) -> Path:
    if not text:
        raise ValueError(text)
    return Path(text)


# A "#" at the start of a line or after whitespace starts a comment; inside a value it is text.
_COMMENT = re.compile(r"(?:^|\s)#.*")
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_INT, _COUNT, _NUMBER = "an integer", "an integer >= 1", "a number"

# key: (default text, parser, what the parser accepts). A stage parses a
# key when it reads it. Where the library checks a range (TrainConfig,
# GridSpec, the split specs, synth_weather, load_csv, filter_le), the
# parser takes only the kind, so those errors keep their own exit code.
KEYS = {
    "seed": ("0", _finite(int, 0), "an integer >= 0"),
    "out": ("runs/exp", Path, "a path"),
    "jobs": ("1", _finite(int, 1), _COUNT),
    "realizations": ("1", _finite(int, 1), _COUNT),
    "methods": ("TimeWarp", _distinct(_listed(lambda m: transfer.TransferMethod.parse(m).value)),
                "distinct names from " + ", ".join(m.value for m in transfer.TransferMethod)),
    "classes": ("fm1,fm100,fm1000", _distinct(_listed(_one_of(*datamod.FUEL_CLASSES))),
                "distinct names from " + ", ".join(datamod.FUEL_CLASSES)),
    "data.path": ("", _path, "a non-empty path"),
    "data.fill": ("", lambda text: text or None, "a fill mode, or empty"),
    "split.rule": ("year", _one_of("year", "fraction"), "year or fraction"),
    "split.train_rows": (str(datamod.TRAIN_ROWS_ONE_YEAR), int, _INT),
    "split.train_frac": ("0.6", float, _NUMBER),
    "arch.hidden_size": ("64", _finite(int, 1), _COUNT),
    "arch.dense_sizes": ("32,16", _listed(_finite(int, 1), 2), "two integers >= 1"),
    "train.learning_rate": ("0.01", float, _NUMBER),
    "train.batch_length": ("72", int, _INT),
    "train.max_epochs": ("100", int, _INT),
    "train.patience": ("10", int, _INT),
    "train.shuffle": ("true", lambda text: _BOOLS[text.lower()], "true or false"),
    "grid.lo": ("-5", float, _NUMBER),
    "grid.hi": ("5", float, _NUMBER),
    "grid.n_per_axis": ("25", int, _INT),
    "source.class": ("fm10", _one_of(*datamod.FUEL_CLASSES),
                     "one of " + ", ".join(datamod.FUEL_CLASSES)),
    "synth.n_days": ("30", int, _INT),
    "synth.rain_rate": ("0.08", _finite(float, 0.0), "a finite number >= 0"),
    "synth.cap": ("27", _optional(_finite(float)), "a finite number, or empty or none"),
    "filter.threshold": ("30", float, _NUMBER),
}

# Checkpoints per stacked forward in ``cmd_evaluate``: bounds the networks
# and block buffers held at once (at H=64 with dense sizes 32,16, 8 x ~1.4
# MB besides the predictions); past 8 the per-step overhead is already
# spread thin.
LOCKSTEP_MAX = 8


class Config:
    """Flat dotted-key configuration; every key must be one of ``KEYS``, so
    a misspelled key fails instead of training on the default. ``values``
    holds the texts, as the manifests echo them."""

    def __init__(self, values: dict[str, str]):
        unknown = sorted(values.keys() - KEYS.keys())
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        self.values = {key: default for key, (default, _, _) in KEYS.items()}
        self.values.update(values)

    @classmethod
    def load(cls, path: str | None, overrides: dict[str, str] | None = None) -> "Config":
        values: dict[str, str] = {}
        if path:
            try:
                text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is no key
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
            for lineno, raw in enumerate(text.splitlines(), start=1):
                line = _COMMENT.sub("", raw).strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = str(value)
        return cls(values)

    def get(self, key: str, text: str | int | None = None):
        """``key`` parsed from ``text``, or else from its configured text;
        a text its parser refuses is a :class:`ConfigError`."""
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        _, parse, accepts = KEYS[key]
        text = self.values[key] if text is None else str(text)
        try:
            return parse(text)
        except (ValueError, LookupError, FmwarpError):
            raise ConfigError(f"config key {key!r} must be {accepts}, got {text!r}") from None

    get_int = get_float = get  # old names, still called by perfbench

    def train_config(self) -> train.TrainConfig:
        return train.TrainConfig(seed=self.get("seed"), **{
            name: self.get(f"train.{name}")
            for name in ("learning_rate", "batch_length", "max_epochs", "patience", "shuffle")})

    def grid_spec(self) -> transfer.GridSpec:
        return transfer.GridSpec(**{name: self.get(f"grid.{name}")
                                    for name in ("lo", "hi", "n_per_axis")})


def kept_dataset(cfg: Config) -> Path:
    """``<out>/dataset/<key>.npy``, where ``pretrain`` keeps the parse of the
    dataset for every later :func:`load_dataset` (see ``data.kept_path``)."""
    return datamod.kept_path(cfg.get("out") / "dataset", cfg.get("data.path"),
                             cfg.get("data.fill"))


def load_dataset(cfg: Config, kept: Path | None = None
                 ) -> tuple[datamod.WeatherFrame, list[datamod.FmcSeries]]:
    """The dataset, read from ``kept`` (by default :func:`kept_dataset`)
    when that holds its parse, else parsed."""
    kept = kept_dataset(cfg) if kept is None else kept
    return datamod.load_csv(cfg.get("data.path"), fill=cfg.get("data.fill"), kept=kept)


def split_dataset(cfg: Config, frame, series) -> datamod.Split:
    if cfg.get("split.rule") == "year":
        spec = datamod.default_split_spec(frame, train_rows=cfg.get("split.train_rows"))
    else:
        spec = datamod.fraction_split_spec(frame, train_frac=cfg.get("split.train_frac"))
    return datamod.split(frame, series, spec)


def _observations(partition: datamod.Partition, fuel_class: str) -> datamod.FmcSeries:
    """The ``fuel_class`` observations of ``partition``; none is a :class:`ConfigError`."""
    obs = partition.observations.get(fuel_class)
    if obs is None or len(obs) == 0:
        raise ConfigError(f"no {fuel_class} observations in the {partition.span} span")
    return obs


def fit_scalers(parts: datamod.Split, fuel_class: str):
    """The input normalizer and ``fuel_class`` target scaler of the training span."""
    normalizer = datamod.Normalizer.fit(parts.train.weather)
    return normalizer, datamod.TargetScaler.fit(_observations(parts.train, fuel_class).values)


def build_series(
    partition: datamod.Partition,
    normalizer: datamod.Normalizer,
    fuel_class: str,
    scaler: datamod.TargetScaler,
) -> train.SupervisedSeries:
    """Supervised series for one partition: normalized inputs plus
    nearest-hour targets, in the units of ``scaler``, and mask for the
    requested fuel class, which must have an observation there."""
    obs = _observations(partition, fuel_class)
    targets, mask = datamod.nearest_hour_mask(partition.weather.times, obs.times, obs.values)
    targets = np.where(mask > 0, scaler.scale(targets), 0.0)
    return train.SupervisedSeries(
        inputs=normalizer.transform(partition.weather), targets=targets, mask=mask
    )


def _pid_gone(pid: int) -> bool:
    """Whether no process has id ``pid``. One we may not signal counts as
    alive, and so does a number too large to be a pid."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        return False
    return False


@contextmanager
def stage_dir(cfg: Config, *parts: str):
    """A fresh directory under ``<out>/.partial/`` for one stage's files.
    It replaces ``<out>/<parts>`` whole when the block ends, or is removed
    if the block raises, leaving the old one as it was; the error then
    names its files under ``<out>/<parts>``. No fsync: this survives a
    killed process, not a power loss. On entry it removes what killed
    runs of the same stage left under ``.partial/``: the directories of
    pids no longer alive, and of its own pid."""
    out = cfg.get("out")
    final = out.joinpath(*parts)
    stem = ".".join(parts)
    tmp = out / ".partial" / f"{stem}.{os.getpid()}"
    old = tmp.with_name(tmp.name + ".old")
    leftover = re.compile(re.escape(stem) + r"\.(\d+)(\.old)?")
    for stale in tmp.parent.iterdir() if tmp.parent.is_dir() else ():
        match = leftover.fullmatch(stale.name)
        if match and (int(match[1]) == os.getpid() or _pid_gone(int(match[1]))):
            shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        yield tmp
        final.parent.mkdir(parents=True, exist_ok=True)
        if final.exists():  # a directory cannot be renamed over a full one
            final.rename(old)
        tmp.rename(final)
        shutil.rmtree(old, ignore_errors=True)
    except FmwarpError as exc:  # tmp is gone when the message prints
        exc.args = (str(exc).replace(str(tmp), str(final)),)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_manifest(out: Path, cfg: Config, command: str, **fields) -> None:
    """The stage's ``manifest.json``. The config echo drops the keys that say
    only how a run is executed and grouped, ``jobs`` and ``classes``, so
    outputs stay byte-identical regardless of parallelism and grouping."""
    config = {k: v for k, v in cfg.values.items() if k not in ("jobs", "classes")}
    manifest = {"command": command, **fields, "config": config}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def cmd_synth(cfg: Config) -> Path:
    """Generate the ``data.path`` dataset CSV: weather plus dense hourly
    targets for all four fuel classes, with the sensor cap applied to fm10."""
    out, seed, n_days, rain_rate, cap = map(cfg.get, ("data.path", "seed", "synth.n_days",
                                                      "synth.rain_rate", "synth.cap"))
    frame = datamod.synth_weather(seed, n_days, datamod.SynthProfile(rain_rate=rain_rate))
    series = [
        datamod.synth_targets(
            frame,
            tau=datamod.NOMINAL_TAU[cls],
            sensor_cap=cap if cls == "fm10" else None,
            fuel_class=cls,
        )
        for cls in datamod.FUEL_CLASSES
    ]
    out.parent.mkdir(parents=True, exist_ok=True)
    datamod.write_csv(out, frame, series)
    return out


def save_checkpoint(path, params, normalizer, scaler, **extra) -> None:
    """Write ``params`` with the normalizer and target scaler that
    :func:`load_checkpoint` reads back, plus ``extra`` metadata."""
    extra.update(normalizer=normalizer.to_dict(), target_scaler=scaler.to_dict())
    nn.save_params(params, path, extra=extra)


def load_checkpoint(path) -> tuple[nn.RnnParams, datamod.Normalizer, datamod.TargetScaler]:
    """A checkpoint with the input normalizer and target scaler stored in
    its extra metadata; a missing or invalid one raises
    :class:`InvalidInputError` that names the path."""
    params, extra = nn.load_params(path)
    if params.lstm.input_size != datamod.N_FEATURES:
        raise InvalidInputError(
            f"{path}: network takes {params.lstm.input_size} inputs, "
            f"the data have {datamod.N_FEATURES} features"
        )
    try:
        return (params, datamod.Normalizer.from_dict(extra["normalizer"]),
                datamod.TargetScaler.from_dict(extra["target_scaler"]))
    except (LookupError, TypeError, ValueError, InvalidInputError) as exc:
        raise InvalidInputError(
            f"no valid normalizer and target scaler in {path}: {exc!r}"
        ) from exc


def _chunks(items: list, jobs: int) -> list[list]:
    """``items`` in ``min(jobs, len(items))`` contiguous runs of near equal
    length, in order: the realizations of one lockstep call per worker."""
    n = min(jobs, len(items))
    return [items[len(items) * c // n:len(items) * (c + 1) // n] for c in range(n)]


def _map(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, run in ``jobs`` worker processes,
    but never more than there are tasks, when that is above 1; results come
    back in task order either way."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _starts(cfg: Config, seeds) -> list[nn.RnnParams]:
    """A fresh network of the configured sizes drawn from each seed: the
    start of pretrain or NoTransfer realization k, whose seed is ``seed + k``."""
    sizes = (datamod.N_FEATURES, cfg.get("arch.hidden_size"), cfg.get("arch.dense_sizes"))
    return [nn.init_params(*sizes, rng=train.substream(seed, train.STREAM_INIT))
            for seed in seeds]


def cmd_pretrain(cfg: Config, jobs: int | None = None) -> Path:
    """Train per-realization source-task checkpoints plus manifest, and keep
    the parse of the dataset they trained on. The kept file is written
    before training, so that the parse need not be held through it, but
    committed only after the checkpoints."""
    jobs = cfg.get("jobs", jobs)
    kept = kept_dataset(cfg)
    dataset = load_dataset(cfg, kept)
    parts = split_dataset(cfg, *dataset)
    source_class = cfg.get("source.class")
    normalizer, scaler = fit_scalers(parts, source_class)
    train_s, val_s = (build_series(part, normalizer, source_class, scaler)
                      for part in (parts.train, parts.val))
    config = cfg.train_config()
    seeds = [config.seed + k for k in range(cfg.get("realizations"))]
    with stage_dir(cfg, "dataset") as kept_dir:
        datamod.keep_dataset(kept_dir / kept.name, *dataset)
        del dataset
        members = [(start, *train.subsample_validation(val_s, seed), seed)
                   for start, seed in zip(_starts(cfg, seeds), seeds)]
        tasks = [(starts, train_s, vals, config, chunk_seeds, selections)
                 for starts, vals, selections, chunk_seeds in
                 (map(list, zip(*chunk)) for chunk in _chunks(members, jobs))]
        results = []
        for k, real in enumerate(itertools.chain.from_iterable(
                _map(train.fit_lockstep, tasks, jobs))):
            if isinstance(real, TrainingDivergedError):
                print(f"realization {k}: {real}", file=sys.stderr)
                results.append(("diverged", real.last_good))
            else:
                results.append(("ok", real))
        with stage_dir(cfg, "pretrain") as out:
            for k, (_, real) in enumerate(results):
                save_checkpoint(out / f"ckpt_{k:04d}.json", real.trained, normalizer, scaler,
                                source_class=source_class, seed=real.seed,
                                validation_selection=real.validation_selection)
                train.write_history_csv(real.history, out / f"history_{k:04d}.csv")
            write_manifest(out, cfg, "pretrain", source_class=source_class, seeds=seeds,
                           statuses=[status for status, _ in results])
    return cfg.get("out") / "pretrain"


def _pretrained_checkpoints(pretrain_dir: Path) -> list[tuple[int, Path]]:
    """(k, path) of each pretrained realization k to adapt, in order.

    When ``manifest.json`` lists ``statuses``, only the realizations marked
    ``ok`` are taken; each other one gets a stderr line, and none ``ok``
    raises :class:`TrainingDivergedError`. Without them every checkpoint
    is taken. A manifest that is not JSON, or whose ``statuses`` is not one
    ``ok`` or ``diverged`` per checkpoint, raises :class:`InvalidInputError`."""
    ckpts = list(enumerate(sorted(pretrain_dir.glob("ckpt_*.json"))))
    if not ckpts:
        raise ConfigError(f"no pretrained checkpoints under {pretrain_dir}")
    manifest = pretrain_dir / "manifest.json"
    try:
        statuses = json.loads(manifest.read_text()).get("statuses") if manifest.is_file() else None
        if statuses is not None and not (isinstance(statuses, list) and len(statuses) == len(ckpts)
                                         and all(s in ("ok", "diverged") for s in statuses)):
            raise ValueError(f"statuses {statuses!r} are not one 'ok' or 'diverged' for each of "
                             f"{len(ckpts)} checkpoints")
    except (ValueError, TypeError, AttributeError) as exc:
        raise InvalidInputError(f"corrupt pretrain manifest {manifest}: {exc!r}") from exc
    if statuses is None:
        return ckpts
    for k, status in enumerate(statuses):
        if status != "ok":
            print(f"realization {k}: skipped, pretrain diverged", file=sys.stderr)
    ckpts = [(k, path) for k, path in ckpts if statuses[k] == "ok"]
    if not ckpts:
        raise TrainingDivergedError(
            f"training diverged in every pretrained realization under {pretrain_dir}")
    return ckpts


# Surfaces a sweep made for another class of the run, by transfer.search_key,
# each waiting for the one transfer call of its class that takes it.
_WAITING: dict[str, np.ndarray] = {}


def cmd_transfer(cfg: Config, method_name: str, fuel_class: str, jobs: int | None = None,
                 parts: datamod.Split | None = None) -> Path:
    """Adapt each pretrained realization that trained (NoTransfer: a fresh one) to a class.

    Each checkpoint is read once. Consecutive realizations that share a
    ``_lockstep_key`` and target scaler share their series and are cut into
    contiguous chunks, one ``transfer.adapt`` call per worker: each searches
    alone, and the chunk fine-tunes in lockstep. The first realization whose
    fine-tune diverges fails the stage. A realization keeps its pretrain
    index in its file names, its shifts row and its seed.

    A realization's search takes the surface that an earlier call in this
    process left waiting for it and this class, and that surface is then
    gone. Otherwise one sweep scores this class together with every other
    class of the ``classes`` key that has training observations and no
    waiting surface, and leaves theirs waiting. ``parts``, when given, is
    the split dataset, which is then not read again.
    """
    if fuel_class not in datamod.FUEL_CLASSES:
        raise ConfigError(f"unknown fuel class {fuel_class!r}")
    jobs = cfg.get("jobs", jobs)
    method = transfer.TransferMethod.parse(method_name)
    protocol = transfer.PROTOCOLS[method]
    ckpts = _pretrained_checkpoints(cfg.get("out") / "pretrain") if protocol.pretrained else []

    parts = split_dataset(cfg, *load_dataset(cfg)) if parts is None else parts
    config = cfg.train_config()
    grid = cfg.grid_spec()
    others = [cls for cls in cfg.get("classes") if protocol.search and cls != fuel_class
              and len(parts.train.observations.get(cls, ())) > 0]

    # (k, start, normalizer, target scaler) per realization.
    if protocol.pretrained:
        sources = [(k, *load_checkpoint(path)) for k, path in ckpts]
    else:
        scalers = fit_scalers(parts, fuel_class)
        sources = [(k, start, *scalers) for k, start in enumerate(
            _starts(cfg, range(config.seed, config.seed + cfg.get("realizations"))))]
    tasks = []
    for _, run in itertools.groupby(sources, key=lambda src: (_lockstep_key(*src[1:3]),
                                                              src[3].to_dict())):
        run = list(run)
        _, _, normalizer, scaler = run[0]
        series = [build_series(part, normalizer, fuel_class, scaler)
                  for part in (parts.train, parts.val)]
        alongside = [replace(build_series(parts.train, normalizer, cls, scaler),
                             inputs=series[0].inputs) for cls in others]
        for chunk in _chunks(run, jobs):
            waiting = [_WAITING.pop(transfer.search_key(src[1], series[0], grid), None)
                       if protocol.search else None for src in chunk]
            tasks.append((method, [src[1] for src in chunk], *series, config,
                          [config.seed + src[0] for src in chunk], grid, waiting,
                          [{} if surface is not None else {
                              key: s for s in alongside
                              if (key := transfer.search_key(src[1], s, grid)) not in _WAITING}
                           for src, surface in zip(chunk, waiting)]))
    results = list(itertools.chain.from_iterable(_map(transfer.adapt, tasks, jobs)))
    if diverged := [result for result in results if isinstance(result, TrainingDivergedError)]:
        raise diverged[0]
    for result in results:
        _WAITING.update(result.alongside)

    shift_rows = []
    with stage_dir(cfg, "transfer", method.value, fuel_class) as out:
        for (k, _, normalizer, scaler), result in zip(sources, results):
            extra = {"method": method.value, "fuel_class": fuel_class}
            if result.shift is not None:
                extra["shift"] = asdict(result.shift)
                shift_rows.append({"realization": k, **extra["shift"]})
            save_checkpoint(out / f"ckpt_{k:04d}.json", result.params, normalizer, scaler,
                            **extra)
            if result.surface is not None:
                # surface objective back in percent units for plotting
                transfer.write_surface_csv(result.surface * [1.0, 1.0, scaler.std],
                                           out / f"surface_{k:04d}.csv")
        if shift_rows:
            datamod.write_table(out / "shifts.csv", tuple(shift_rows[0]),
                                [tuple(row.values()) for row in shift_rows])
        write_manifest(out, cfg, "transfer", method=method.value, fuel_class=fuel_class,
                       realizations=len(sources))
    return cfg.get("out") / "transfer" / method.value / fuel_class


def _lockstep_key(params: nn.RnnParams, normalizer: datamod.Normalizer):
    """What checkpoints must share to run in one stacked forward: tensor
    shapes, gate mode, dense activations and input normalizer."""
    return ([arr.shape for arr in params.tensors().values()], params.lstm.linear_gates,
            [layer.activation for layer in params.dense], normalizer.to_dict())


def cmd_evaluate(
    cfg: Config,
    method_name: str | None = None,
    fuel_class: str | None = None,
    filter_name: str | None = None,
) -> Path:
    """Evaluate adapted checkpoints on the test partition.

    Hourly predictions of the test span, from a state spun up through train
    and validation by the kernel alone, are interpolated to the exact test
    observation times, and scored per (method, class, filter) with the
    <=30% filter applied only to the fine fuel classes. Only the filter
    ``filter_name``, if given, is scored; a cell without pairs, or whose
    observations do not vary, raises :class:`EvaluationError` naming it.

    Checkpoints are read in directory, then file order. Each run of up to
    ``LOCKSTEP_MAX`` consecutive checkpoints that share a ``_lockstep_key``
    goes through one stacked forward, then is scored row by row and
    dropped; every row is bit for bit the checkpoint's solo forward.
    """
    transfer_root = cfg.get("out") / "transfer"
    if not transfer_root.is_dir():
        raise EvaluationError(f"no transfer outputs under {transfer_root}")
    frame, series = load_dataset(cfg)
    parts = split_dataset(cfg, frame, series)
    threshold = cfg.get("filter.threshold")

    # Of the split, only the test observations and where the test span
    # starts outlive it: the forward pass runs without the partitions.
    test_start = len(parts.train.weather) + len(parts.val.weather)
    test_obs = parts.test.observations
    del series, parts

    def checkpoints():
        """(method, class, observations, params, normalizer, scaler) per
        checkpoint; a directory is checked before its first checkpoint loads."""
        for cdir in sorted(p for p in transfer_root.glob("*/*") if p.is_dir()):
            method, cls = cdir.parent.name, cdir.name
            if method_name and method.lower() != method_name.lower():
                continue
            if fuel_class and cls != fuel_class:
                continue
            obs = test_obs.get(cls)
            if obs is None or len(obs) == 0:
                raise EvaluationError(f"no {cls} observations in the test span")
            ckpts = sorted(cdir.glob("ckpt_*.json"))
            if not ckpts:
                raise EvaluationError(f"no checkpoints under {cdir}")
            for ckpt in ckpts:
                yield (method, cls, obs, *load_checkpoint(ckpt))

    metric_rows = []  # (method, class, filter, MetricSet), realizations in order
    for _, group in itertools.groupby(checkpoints(), key=lambda ckpt: _lockstep_key(*ckpt[3:5])):
        while run := list(itertools.islice(group, LOCKSTEP_MAX)):
            _, _, _, nets, normalizers, _ = zip(*run)
            preds, _ = nn.forward(nn.stack(nets), normalizers[0].transform(frame),
                                  from_step=test_start)
            for (method, cls, obs, _, _, scaler), row in zip(run, preds):
                pred_pairs, obs_pairs = datamod.align_for_eval(
                    frame.times[test_start:], scaler.unscale(row), obs.times, obs.values
                )
                filtered = [(evaluation.FILTER_ALL, pred_pairs, obs_pairs)]
                if cls in evaluation.LE30_CLASSES:
                    filtered.append((evaluation.FILTER_LE30,
                                     *evaluation.filter_le(pred_pairs, obs_pairs, threshold)))
                for fname, p, m in filtered:
                    if filter_name and fname != filter_name:
                        continue
                    try:
                        metric_rows.append((method, cls, fname, evaluation.metrics(p, m)))
                    except (InvalidInputError, ZeroVarianceError) as exc:
                        raise EvaluationError(
                            f"cannot score {method} {cls} {fname}: {exc}") from None
    reports = evaluation.group_reports(metric_rows)
    if not reports:
        raise EvaluationError("nothing to evaluate (check --method/--class filters)")
    with stage_dir(cfg, "evaluate") as eval_dir:
        evaluation.write_report_csv(reports, eval_dir / "report.csv")
        evaluation.write_per_realization_csv(reports, eval_dir / "per_realization.csv")
        (eval_dir / "report.txt").write_text(evaluation.format_report_table(reports) + "\n")
        datamod.write_table(
            eval_dir / "medians.csv", ("method", "class", "filter", "median_realization"),
            ((r.method, r.fuel_class, r.filter, r.median_realization) for r in reports),
        )
    return cfg.get("out") / "evaluate"


def cmd_report(cfg: Config) -> str:
    """Re-aggregate the per-realization table and print the text report."""
    path = cfg.get("out") / "evaluate" / "per_realization.csv"
    if not path.exists():
        raise EvaluationError(f"no per-realization table at {path}; run evaluate first")
    rows = datamod.read_table(path, evaluation.PER_REALIZATION_COLUMNS,
                              (str, str, str, int, float, float, float, int))
    return evaluation.format_report_table(evaluation.group_reports(
        (method, cls, fname, evaluation.MetricSet(*metrics))
        for method, cls, fname, _, *metrics in rows
    ))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints it as one error line and exits 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmwarp",
        description="Time-warping transfer learning pipeline for fuel-moisture RNNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "pretrain", "transfer", "evaluate", "report"):
        p = sub.add_parser(name)  # a _Parser too
        p.add_argument("--config", default=None, help="flat dotted-key config file")
        if name in ("synth", "pretrain", "transfer"):
            p.add_argument("--seed", type=int, default=None, help="root seed override")
        if name in ("pretrain", "transfer"):
            p.add_argument("--jobs", type=int, default=None, help="realization-level parallelism")
        p.add_argument("--out", default=None, help="sets the out key (data.path for synth)")
        if name in ("transfer", "evaluate"):
            p.add_argument("--method", default=None, help="transfer method name")
            p.add_argument("--class", dest="fuel_class", default=None,
                           help="target fuel class (for transfer, sets the classes key)")
        if name == "evaluate":
            p.add_argument("--filter", dest="filter_name", default=None,
                           choices=[evaluation.FILTER_ALL, evaluation.FILTER_LE30])
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    out_key = "data.path" if args.command == "synth" else "out"
    overrides = {"seed": getattr(args, "seed", None), "jobs": getattr(args, "jobs", None),
                 out_key: args.out}
    if args.command == "transfer":
        overrides["classes"] = args.fuel_class
    cfg = Config.load(args.config, overrides)
    if args.command == "synth":
        print(f"wrote {cmd_synth(cfg)}")
    elif args.command == "pretrain":
        print(f"wrote {cmd_pretrain(cfg)}")
    elif args.command == "transfer":
        methods = [args.method] if args.method else cfg.get("methods")
        classes = cfg.get("classes")
        parts = split_dataset(cfg, *load_dataset(cfg))
        for fuel_class, partition in itertools.product(classes, (parts.train, parts.val)):
            _observations(partition, fuel_class)
        for method, fuel_class in itertools.product(methods, classes):
            print(f"wrote {cmd_transfer(cfg, method, fuel_class, parts=parts)}")
    elif args.command == "evaluate":
        print(f"wrote {cmd_evaluate(cfg, args.method, args.fuel_class, args.filter_name)}")
    elif args.command == "report":
        print(cmd_report(cfg))
    return 0


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except Exception as exc:  # every failure is one error line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code if isinstance(exc, FmwarpError)
                 else 6 if isinstance(exc, OSError) else 1)


if __name__ == "__main__":
    main()
