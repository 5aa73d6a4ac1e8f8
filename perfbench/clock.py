"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same code can run up to ~1.7x slower for seconds to
minutes at a time, and process CPU time slows in step with wall time.  A
run that falls in a slow phase would then read as a regression.
``calibrate`` times a fixed reference kernel of the same kind as fmwarp's
hot loops: an LSTM-style recurrence of small numpy operations driven from
Python, for one sequence and for a batch of 626 candidates.  It imports
nothing from fmwarp, so no change to the program moves it.  A timing taken
between two calibrations is rescaled to the speed at which the kernel takes
``CAL_REF_S`` seconds:

    normalized = wall * CAL_REF_S / mean(calibration before, calibration after)
"""

from __future__ import annotations

import time

import numpy as np

# calibrate() in a quiet phase of a 2-core Xeon VM at 2.1 GHz, one OpenBLAS
# thread.
CAL_REF_S = 0.14


def _lstm_kernel(steps: int, hidden: int, batch: int) -> float:
    rng = np.random.default_rng(5)
    w = rng.normal(0.0, 0.3, (4 * hidden, hidden))
    xp = rng.normal(0.0, 1.0, (64, 4 * hidden))  # small, so peak memory stays put
    h = np.zeros((batch, hidden))
    c = np.zeros_like(h)
    t0 = time.perf_counter()
    for t in range(steps):
        z = xp[t % 64] + h @ w.T
        f = 1.0 / (1.0 + np.exp(-np.clip(z[:, :hidden], -500.0, 500.0)))
        i = 1.0 / (1.0 + np.exp(-np.clip(z[:, hidden:2 * hidden], -500.0, 500.0)))
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = 1.0 / (1.0 + np.exp(-np.clip(z[:, 3 * hidden:], -500.0, 500.0)))
        c = f * c + i * g
        h = o * np.tanh(c)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the reference kernel takes now."""
    return _lstm_kernel(3000, 24, 1) + _lstm_kernel(300, 16, 626)


def normalize(walls: list[float], cals: list[float]) -> list[float]:
    """Rescale each wall time by the calibrations taken just before and
    after it; ``cals`` has one more entry than ``walls``."""
    return [w * CAL_REF_S / (0.5 * (before + after))
            for w, before, after in zip(walls, cals, cals[1:])]
