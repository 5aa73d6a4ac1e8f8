"""fmwarp benchmark.

    python3 perfbench/run.py --workload pretrain|warp|evaluate --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  The seed makes the synthetic dataset and
the training seeds; the program sees only the generated CSV and
checkpoints.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run (see ``tracer.py``).  The last line
of standard output is the result object; a run record with the machine,
shapes, seeds and gate details is written beside the work directory.

``--selfcheck`` runs every workload at a tiny size, traced and untraced,
and checks the result schema against BENCHMARK.json and the per-layer
counters against the counts implied by each workload's shape.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# The default seed, and one held out for re-checking a claim on a seed its
# author did not tune on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
# Set-up runs at least SETUP_MIN times and, while it is cheap, until
# SETUP_BUDGET_S seconds are spent, so sub-second set-ups get a median of
# more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
DEADLINE_S = 170.0
# One BLAS thread: the recurrent matmuls are small, and on a shared
# 2-core machine a second thread made the grid search slower and noisier.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_describe": describe,
        "src_fmwarp_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "fmwarp").glob("*.py"))),
    }


def run_child(spec: dict, deadline: float) -> dict:
    spec_path = Path(spec["work"]).parent / f"spec-{os.getpid()}-{spec['trace']}.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "stage.py"), str(spec_path)],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, **BLAS_ENV}, timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        spec_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"stage process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(wl, children: list[dict], setup_digests: list[str]):
    """Attempted and failed operations, and the gate table.

    Each stage repetition attempts ``wl.units()`` operations; one fails when
    the stage raised, its status is not ok, its outputs' digest differs from
    the first repetition's, or the checks on the last repetition reject it.
    Each run-level gate is one more attempted operation.
    """
    units = wl.units()
    attempted = failed = 0
    gates = [("setup_deterministic", len(set(setup_digests)) == 1,
              f"{len(setup_digests)} set-ups")]
    first_digest = next((d for c in children for d in c["digests"] if d), None)
    for child in children:
        reps = len(child["walls"])
        for r in range(reps):
            bad = {u for u, ok in enumerate(child["statuses"][r]) if not ok}
            if child["digests"][r] != first_digest:
                bad = set(range(units))
            if r == reps - 1:
                bad |= {u for u, ok in enumerate(child["unit_ok"]) if not ok}
            attempted += units
            failed += len(bad)
        gates += [tuple(g) for g in child["gates"]]
    attempted += len(gates)
    failed += sum(1 for _, ok, _ in gates if not ok)
    return attempted, failed, gates


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, run and check one workload; returns (result, record)."""
    import workloads
    from clock import calibrate, normalize

    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.make(name, tiny)
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = wl.config(seed, work / "data")
    base = {"workload": name, "seed": seed, "work": str(work / "data"), "src": str(SRC),
            "tiny": tiny, "seconds": seconds,
            "spans": str(WORK_ROOT / f"spans-{name}-seed{seed}.jsonl")}
    try:
        setup_times, setup_digests, setup_cals = [], [], [calibrate()]
        while not setup_times or (not trace and (
                len(setup_times) < SETUP_MIN
                or (len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S))):
            shutil.rmtree(work, ignore_errors=True)
            (work / "data").mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup(cfg)
            setup_times.append(time.perf_counter() - t0)
            setup_cals.append(calibrate())
            setup_digests.append(workloads.digest(wl.setup_outputs(cfg)))
        if trace:
            plain = run_child({**base, "trace": False, "reps_max": 1}, deadline)
            traced = run_child({**base, "trace": True, "reps_max": 1}, deadline)
            children = [plain, traced]
            setup_digests.append(traced["setup_digest"])
        else:
            children = [run_child({**base, "trace": False, "reps_max": 1000}, deadline)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, gates = tally(wl, children, setup_digests)
    walls = [normalize(c["walls"], c["cals"]) for c in children]
    if trace:
        metrics = dict(children[1]["layers"])
        metrics["trace.overhead_s"] = walls[1][0] - walls[0][0]
    else:
        wall = statistics.median(walls[0])
        metrics = {
            "setup_s": statistics.median(normalize(setup_times, setup_cals)),
            "wall_s": wall,
            "steps_per_s": wl.cell_steps() / wall,
            "peak_rss_mb": children[0]["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
        }
    record = {
        "workload": wl.describe(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        # Raw wall times and the calibrations around them; the metrics are
        # the normalized medians (see clock.py).
        "setup_s": setup_times,
        "setup_calibration_s": setup_cals,
        "stage_walls_s": dict(zip(("plain", "traced"), (c["walls"] for c in children))),
        "stage_calibration_s": dict(zip(("plain", "traced"), (c["cals"] for c in children))),
        "stage_errors": [e for c in children for e in c["errors"] if e],
        "output_digests": [c["digests"] for c in children],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        # Result quality, recorded but not gated: across seeds its spread is
        # wider than any bound a regression gate could use.
        "rmse_pct": children[-1]["rmse_pct"],
        "gates": [{"name": n, "ok": ok, "detail": d} for n, ok, d in gates],
        "metrics": metrics,
    }
    if trace:
        layers = children[1]["layers"]
        record["identities"] = {
            key: {"expected": want, "measured": layers[key]}
            for key, want in wl.identities().items()}
        record["tracer"] = {key: children[1][key]
                            for key in ("spans", "self_time_sum", "root_time")}
        record["spans_file"] = base["spans"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def units_of(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def selfcheck() -> int:
    """Tiny runs of every workload: schema, gates and counter identities."""
    import workloads

    problems = []
    for name in workloads.CLASSES:
        for trace in (False, True):
            before = len(problems)
            result, record = run_workload(name, DEFAULT_SEED, 1.0, trace, tiny=True)
            where = f"{name} trace={int(trace)}"
            units = units_of("per_layer" if trace else "end_to_end")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if set(result["metrics"]) != set(units):
                problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ set(units))}")
            for key, value in result["metrics"].items():
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{where}: {key} = {value!r} is not a finite number")
            if not result["correct"]:
                problems.append(f"{where}: gates failed: {record['gates']}, "
                                f"errors {record['stage_errors']}")
            if trace:
                for key, pair in record["identities"].items():
                    if abs(pair["measured"] - pair["expected"]) > 1e-9:
                        problems.append(f"{where}: {key} measured {pair['measured']}, "
                                        f"shape gives {pair['expected']}")
                t = record["tracer"]
                if abs(t["self_time_sum"] - t["root_time"]) > 1e-6 * max(1.0, t["root_time"]):
                    problems.append(f"{where}: self times sum to {t['self_time_sum']}, "
                                    f"root spans cover {t['root_time']}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pretrain", "warp", "evaluate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held "
                             "out for re-checking a claim)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "fmwarp" / "__init__.py").is_file():
        print(f"error: no fmwarp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    os.environ.update(BLAS_ENV)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck()
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record_path = WORK_ROOT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    units = units_of("per_layer" if args.trace else "end_to_end")
    for key, value in result["metrics"].items():
        print(f"{key:<40} {value:>16.6g} {units.get(key, '')}")
    print(f"fail_share {record['fail_share']:.6g} ({result['failed']}/{result['attempted']}); "
          f"rmse_pct {record['rmse_pct']} %; record {record_path.relative_to(ROOT)}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
