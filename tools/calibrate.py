"""Time the fixed calibration loop that goes beside every recorded run time.

The same code can run at different speeds on one machine at different
moments, so a run time means little without a measure of the machine's
speed taken at about the same time.  This script times 30 iterations of
``a = tanh(a @ a.T / 400)`` on a seeded 400 x 400 array with one BLAS
thread and prints one JSON line:

    python3 tools/calibrate.py
    {"calibration_s": 0.061, "loop": "30 x tanh(a @ a.T / 400), 400 x 400, one BLAS thread"}

Record ``calibration_s`` beside the run times measured with it; a lower
value is a faster machine.
"""

from __future__ import annotations

import json
import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import numpy as np  # noqa: E402

N, ITERATIONS = 400, 30


def calibration_seconds() -> float:
    a = np.random.default_rng(0).standard_normal((N, N))
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        a = np.tanh(a @ a.T / N)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"calibration_s": round(calibration_seconds(), 4),
                      "loop": f"{ITERATIONS} x tanh(a @ a.T / {N}), {N} x {N}, one BLAS thread"}))
