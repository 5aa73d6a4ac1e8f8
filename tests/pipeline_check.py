"""The pipeline check: every stage on one fixed tiny config, and the sha256
of every file it writes.

    python tests/pipeline_check.py OUT [--jobs N]

Into the new or empty directory OUT it runs, each as its own ``fmwarp``
process from the ``src`` beside this file: synth; pretrain with 3
realizations; one transfer of the six methods on fm1 and fm100; TimeWarp
and FreezeRecurrent on fm1000; evaluate; report, whose text goes to
``report.txt``. ``--jobs`` goes to pretrain and every transfer. Then it
prints one ``sha256  path`` line per file under OUT, sorted by path: the
config, the dataset and its kept parse, every stage's files and the
manifests.

Every stage runs in OUT with relative paths, so the ``out`` and
``data.path`` that the manifests echo are the same whatever OUT is. The
lists of two source trees, of two ``--jobs`` values and of two BLAS thread
counts (``OPENBLAS_NUM_THREADS``) must be equal.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
seed = 3
out = run
data.path = synth.csv
split.rule = fraction
arch.hidden_size = 4
arch.dense_sizes = 4,3
train.max_epochs = 2
train.batch_length = 48
realizations = 3
grid.n_per_axis = 5
synth.n_days = 12
methods = NoTransfer,FullFineTune,FreezeRecurrent,FreezeDense,TimeWarp,TimeWarpFineTune
classes = fm1,fm100
"""


def run_pipeline(out: Path, jobs: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    (out / "pipeline.cfg").write_text(CONFIG)
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def fmwarp(*argv, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, "-m", "fmwarp.cli", *argv, "--config", "pipeline.cfg"],
                       cwd=out, env=env, stdout=stdout, check=True)

    fmwarp("synth")
    fmwarp("pretrain", "--jobs", str(jobs))
    fmwarp("transfer", "--jobs", str(jobs))
    for method in ("TimeWarp", "FreezeRecurrent"):
        fmwarp("transfer", "--jobs", str(jobs), "--method", method, "--class", "fm1000")
    fmwarp("evaluate")
    with open(out / "report.txt", "wb") as report:
        fmwarp("report", stdout=report)


def sha_lines(out: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="a new or empty directory")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    run_pipeline(args.out, args.jobs)
    print("\n".join(sha_lines(args.out)))


if __name__ == "__main__":
    main()
