"""Child process of the benchmark: runs one workload's timed stage.

    python3 perfbench/stage.py SPEC.json

SPEC names the workload, seed, work directory, time budget and whether to
trace.  The stage runs in this one process, repeated while the budget
allows, so ``peak_rss_mb`` is the peak of the process that ran it.  The
reference kernel of ``clock.py`` is timed before the first repetition and
after each one.  The outputs are checked after the last repetition.  The
last line of standard output is one JSON object with the wall times,
calibrations, output digests, unit statuses, gate results and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import fmwarp

    import tracer as tracing
    import workloads
    from clock import calibrate

    wl = workloads.make(spec["workload"], spec["tiny"])
    cfg = wl.config(spec["seed"], Path(spec["work"]))
    out: dict = {"walls": [], "cals": [], "digests": [], "statuses": [], "errors": []}
    tr = None
    if spec["trace"]:
        tr = tracing.Tracer()
        tr.install(fmwarp)
        wl.setup(cfg)
        out["setup_digest"] = workloads.digest(wl.setup_outputs(cfg))
        tr.run_id = "stage"

    start = time.perf_counter()
    out["cals"].append(calibrate())
    while True:
        t0 = time.perf_counter()
        try:
            text, error = wl.stage(cfg), None
        except Exception as exc:  # a failed stage is counted, not fatal
            text, error = "", _failure(exc)
        out["walls"].append(time.perf_counter() - t0)
        out["errors"].append(error)
        out["statuses"].append(wl.unit_statuses(cfg) if error is None else [False] * wl.units())
        out["digests"].append(workloads.digest(wl.stage_outputs(cfg), text) if error is None else None)
        out["cals"].append(calibrate())
        elapsed = time.perf_counter() - start
        if (len(out["walls"]) >= spec["reps_max"]
                or elapsed + statistics.median(out["walls"]) > spec["seconds"]):
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tr is not None:
        tr.run_id = "check"
    out["unit_ok"], out["gates"], out["rmse_pct"] = [False] * wl.units(), [], None
    if out["errors"][-1] is None:
        try:
            unit_ok, gates, rmse = wl.check(cfg)
            out["unit_ok"], out["gates"], out["rmse_pct"] = unit_ok, gates, rmse
        except Exception as exc:  # a check that cannot read the outputs fails them
            out["gates"] = [("check_completed", False, _failure(exc))]

    if tr is not None:
        tr.uninstall()
        stats = tracing.SpanStats(tr.spans)
        out["layers"] = tracing.layer_metrics(stats)
        out["spans"] = len(tr.spans)
        out["self_time_sum"] = sum(stats.self_time.values())
        out["root_time"] = stats.root_time
        tr.write_spans(spec["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
