"""Span tracer that times fmwarp's public functions from outside the package.

``Tracer.install`` rebinds every public function of the fmwarp modules, and
every public method of the classes they define, to a wrapper that records a
span.  Every name a caller can look a function up by is rebound: the module
attribute, name-imported copies in other modules (``transfer.fit`` is
``train.fit``) and methods on classes (``train.AdamState.step``).  A call
made inside fmwarp to another public fmwarp function therefore becomes a
child span of its caller.

Spans are kept in memory as ``[name, start, end, parent, run_id, work]``
rows and written out once, by ``write_spans``, after the run.  ``work``
holds the units of work a call did (time steps, candidate steps, rows,
bytes), read from its arguments or result at the boundary.

Functions invoked once per time step or per CSV row from inside another
fmwarp function are per-element primitives, not layer boundaries.  They
stay unwrapped (``PER_ELEMENT``) so the tracer's per-call cost does not land
on every step of the kernels it would be measuring.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "data", "timelag", "nn", "train", "transfer", "evaluation")
PER_ELEMENT = frozenset({"nn.sigmoid", "data.parse_timestamp", "data.format_timestamp"})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _steps(index, name):
    return lambda args, kwargs, result: int(len(_arg(args, kwargs, index, name)))


def _file_bytes(index, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, index, name))


def _dense_rows(args, kwargs, result):
    h = _arg(args, kwargs, 1, "h")
    return int(h.shape[0]) if h.ndim == 2 else 1


def _search_work(args, kwargs, result):
    """Candidate steps, finite candidates, candidates, and a key that is equal
    for two searches over the same network and training series."""
    params, series = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "train")
    surface = result[1]
    key = hashlib.blake2b(digest_size=12)
    for arr in (*params.tensors().values(), series.inputs, series.targets, series.mask):
        key.update(arr.tobytes())
    finite = int(np.isfinite(surface[:, 2]).sum())
    return [int(surface.shape[0]) * len(series), finite, int(surface.shape[0]), key.hexdigest()]


# Units of work recorded at the boundary of selected functions.
WORK = {
    "train.backward": _steps(1, "inputs"),
    "train.fit": lambda args, kwargs, result: len(result.history),
    "nn.forward": _steps(1, "inputs"),
    "nn.lstm_scan": _steps(1, "inputs"),
    "nn.dense_forward": _dense_rows,
    "transfer.grid_search": _search_work,
    "data.load_csv": lambda args, kwargs, result: len(result[0]),
    "data.write_csv": _steps(1, "frame"),
    "timelag.simulate": _steps(1, "x_series"),
    "nn.load_params": lambda args, kwargs, result: [
        os.path.getsize(_arg(args, kwargs, 0, "path")), str(_arg(args, kwargs, 0, "path"))
    ],
    "nn.save_params": _file_bytes(1, "path"),
}


class Tracer:
    """In-memory span recorder; ``run_id`` tags the spans of one phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{obj.__qualname__}"
                    if name not in PER_ELEMENT:
                        wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{short}.{obj.__qualname__}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._rebind(obj, meth, type(raw)(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._rebind(obj, meth, self._wrap(name, raw))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._rebind(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id, "work": work}) + "\n")


class SpanStats:
    """Per-name totals over the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, run_id, work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)  # (name, run_id) -> calls
        self.total = defaultdict(float)  # name -> seconds, every phase
        self.self_time = defaultdict(float)  # name -> seconds, every phase
        self.stage_self = defaultdict(float)  # name -> seconds, stage phase
        self.work = defaultdict(list)  # (name, run_id) -> work records
        self.work_roots = defaultdict(list)  # (name, run_id) -> outermost span of each
        self.total_under = defaultdict(float)  # (parent name, name) -> seconds
        root = []
        for i, (name, start, end, parent, run_id, work) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])  # parents come first
            dur = end - start
            self.calls[name, run_id] += 1
            self.total[name] += dur
            if parent >= 0:
                self.total_under[spans[parent][0], name] += dur
            self.self_time[name] += dur - child_time[i]
            if run_id == "stage":
                self.stage_self[name] += dur - child_time[i]
            if work is not None:
                self.work[name, run_id].append(work)
                self.work_roots[name, run_id].append(root[i])
        self.root_time = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)

    def work_all(self, name: str) -> list:
        return [w for (n, _), ws in self.work.items() if n == name for w in ws]

    def module_self(self, module: str, stage_only: bool = False) -> float:
        table = self.stage_self if stage_only else self.self_time
        return sum(t for name, t in table.items() if name.split(".", 1)[0] == module)


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    """The per-layer metrics, by name.

    Counts of work (``calls``, ``steps``, ``epochs``, ``per_ckpt``,
    ``useful_ratio``, ``finite_share``) cover the timed stage only, so they
    equal the counts implied by the workload's shape.  Costs derived from
    time (``us_per_*``, ``*_per_s``, ``self_s``, ``share``) cover the whole
    traced run -- one set-up, the stage and the output checks -- so every
    layer's cost is measured on every workload wherever that layer runs.
    ``cli.stage.self_s`` is the exception: it covers the stage only.
    A ratio over no work reads 0.
    """

    def ratio(num, den):
        return num / den if den else 0.0

    def stage_calls(name):
        return stats.calls[name, "stage"]

    def per_unit(name, units, scale=1e6):
        return ratio(stats.total[name] * scale, units)

    m = {}
    backward_steps = sum(stats.work_all("train.backward"))
    m["train.backward.calls"] = stage_calls("train.backward")
    m["train.backward.us_per_step"] = per_unit("train.backward", backward_steps)
    adam_calls = sum(n for (name, _), n in stats.calls.items() if name == "train.AdamState.step")
    m["train.AdamState.step.us_per_call"] = per_unit("train.AdamState.step", adam_calls)
    m["train.fit.epochs"] = sum(stats.work["train.fit", "stage"])
    m["train.fit.self_s"] = stats.self_time["train.fit"]
    m["train.validation_loss.share"] = ratio(
        stats.total_under["train.fit", "train.validation_loss"], stats.total["train.fit"])

    m["nn.forward.calls"] = stage_calls("nn.forward")
    m["nn.forward.steps"] = sum(stats.work["nn.forward", "stage"])
    m["nn.lstm_scan.us_per_step"] = per_unit("nn.lstm_scan", sum(stats.work_all("nn.lstm_scan")))
    m["nn.dense_forward.us_per_step"] = per_unit(
        "nn.dense_forward", sum(stats.work_all("nn.dense_forward")))

    searches = stats.work["transfer.grid_search", "stage"]
    m["transfer.grid_search.calls"] = stage_calls("transfer.grid_search")
    m["transfer.grid_search.us_per_cand_step"] = per_unit(
        "transfer.grid_search", sum(w[0] for w in stats.work_all("transfer.grid_search")))
    m["transfer.grid_search.useful_ratio"] = ratio(len({w[3] for w in searches}), len(searches))
    m["transfer.grid_search.finite_share"] = ratio(sum(w[1] for w in searches),
                                                   sum(w[2] for w in searches))
    m["transfer.run_method.self_s"] = stats.self_time["transfer.run_method"]

    m["data.load_csv.calls"] = stage_calls("data.load_csv")
    m["data.load_csv.rows_per_s"] = ratio(sum(stats.work_all("data.load_csv")),
                                          stats.total["data.load_csv"])
    m["data.load_csv.self_s"] = stats.self_time["data.load_csv"]

    # Reads of each checkpoint within one outermost call (one CLI stage).
    loads = zip(stats.work["nn.load_params", "stage"], stats.work_roots["nn.load_params", "stage"])
    load_keys = [(w[1], r) for w, r in loads]
    m["nn.load_params.calls"] = stage_calls("nn.load_params")
    m["nn.load_params.per_ckpt"] = ratio(len(load_keys), len(set(load_keys)))
    m["nn.load_params.mb_per_s"] = ratio(
        sum(w[0] for w in stats.work_all("nn.load_params")) / 2**20, stats.total["nn.load_params"])
    m["nn.save_params.calls"] = stage_calls("nn.save_params")
    m["nn.save_params.mb_per_s"] = ratio(
        sum(stats.work_all("nn.save_params")) / 2**20, stats.total["nn.save_params"])

    m["data.write_csv.rows_per_s"] = ratio(sum(stats.work_all("data.write_csv")),
                                           stats.total["data.write_csv"])
    m["data.synth_weather.self_s"] = stats.self_time["data.synth_weather"]
    m["timelag.simulate.us_per_step"] = per_unit(
        "timelag.simulate", sum(stats.work_all("timelag.simulate")))

    m["evaluation.metrics.calls"] = stage_calls("evaluation.metrics")
    m["evaluation.self_s"] = stats.module_self("evaluation")
    m["cli.stage.self_s"] = stats.module_self("cli", stage_only=True)
    return m
