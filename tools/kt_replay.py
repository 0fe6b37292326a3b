"""Time this checkout's KT solver against another checkout's on the same batches.

    python3 tools/kt_replay.py OTHER_CHECKOUT [CONFIG]
    {"config": "benchmark-inferred", "batches": 25, "rows": 218524, "rounds": 15,
     "this_s": 0.081, "other_s": 0.103, "ratio": 0.79, "wins": 15, "identical": true}

``CONFIG`` names a shipped log config (default ``benchmark-inferred``).  The
script simulates it at 10,000 paths and 25 steps, the size of the perfbench
log workloads, runs the active investor's evolve once and records the
arguments of every ``solve_kt_batch`` call it makes.  It then loads
``OTHER_CHECKOUT/src/contagionopt/logopt.py`` beside this checkout's
``logopt`` and replays the recorded batches through both solvers, one
solver after the other in each round, the first alternating by round.
``this_s`` and ``other_s`` are the medians of the round totals, ``ratio``
is ``this_s / other_s``, ``wins`` counts the rounds this checkout took less
time, and ``identical`` says whether the two solvers returned the same
arrays, bit for bit, on every batch.  Both solvers run in one process on one
BLAS thread, so machine noise shared by a round falls on both.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from contagionopt import logopt  # noqa: E402
from contagionopt.dynamics import evolve_wealth, simulate_paths  # noqa: E402
from contagionopt.experiments import builtin_config, config_from_dict  # noqa: E402

N_PATHS, N_STEPS, ROUNDS = 10_000, 25, 15


def capture(name: str, n_paths: int = N_PATHS, n_steps: int = N_STEPS):
    """The problem and the ``(hS, hP, start)`` batches of the active evolve of
    config ``name`` at ``n_paths`` paths and ``n_steps`` steps."""
    doc = copy.deepcopy(builtin_config(name).raw)
    doc["paths"]["n_steps"] = n_steps
    cfg = config_from_dict(doc, n_paths=n_paths)
    problem = logopt.LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    batches = []
    solve = logopt.solve_kt_batch

    def recording(prob, hS, hP, start=None):
        batches.append(tuple(None if a is None else np.array(a) for a in (hS, hP, start)))
        return solve(prob, hS, hP, start)

    logopt.solve_kt_batch = recording
    try:
        evolve_wealth(bundle, [logopt.LogStrategy(problem)], cfg.x0)
    finally:
        logopt.solve_kt_batch = solve
    return problem, batches


def load_other(checkout, module: str = "logopt") -> object:
    """``module``'s file (``logopt.py`` by default) of the checkout at
    ``checkout``, as a module of its own that imports the rest of the
    package from this checkout."""
    path = Path(checkout) / "src" / "contagionopt" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(f"replay_other_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = loaded  # dataclasses look their module up here
    spec.loader.exec_module(loaded)
    return loaded


def alternate(calls, rounds: int):
    """Run the two ``calls`` once each per round, one after the other, the
    first alternating by round.  Returns each call's last result and the
    timing fields: ``rounds``; ``this_s`` and ``other_s``, the medians of
    the two calls' times; ``ratio``, ``this_s / other_s``; and ``wins``,
    the rounds the first call took less time."""
    times, results = ([], []), [None, None]
    for k in range(rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            out = calls[side]()
            times[side].append(time.perf_counter() - start)
            results[side] = out
    this_s, other_s = (statistics.median(t) for t in times)
    return results, {"rounds": rounds, "this_s": round(this_s, 4), "other_s": round(other_s, 4),
                     "ratio": round(this_s / other_s, 3),
                     "wins": sum(a < b for a, b in zip(*times))}


def _solve_all(solve, problem, batches):
    for batch in batches:
        solve(problem, *batch)


def replay(other_checkout, name: str = "benchmark-inferred", n_paths: int = N_PATHS,
           n_steps: int = N_STEPS, rounds: int = ROUNDS) -> dict:
    """Replay the active KT batches of config ``name`` through this checkout's
    solver and ``other_checkout``'s; see the module docstring."""
    problem, batches = capture(name, n_paths, n_steps)
    solvers = (logopt.solve_kt_batch, load_other(other_checkout).solve_kt_batch)
    identical = all(
        all(np.array_equal(a, b) for a, b in zip(*(solve(problem, *batch) for solve in solvers)))
        for batch in batches)
    _, timing = alternate([partial(_solve_all, solve, problem, batches) for solve in solvers],
                          rounds)
    return {"config": name, "batches": len(batches), "rows": sum(b[0].size for b in batches),
            **timing, "identical": identical}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        sys.exit("usage: python3 tools/kt_replay.py OTHER_CHECKOUT [CONFIG]")
    print(json.dumps(replay(*args)))


if __name__ == "__main__":
    main()
