"""One experiment call in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode time|trace|prep

``time``  sets up (package import, config load and, for ``power-replay``,
          the grid load), then times one experiment call.
``trace`` does the same with the per-layer tracer installed first.
``prep``  runs the ``power-dp`` call, saves the two value grids it solved
          for ``power-replay`` and reports the ``power-dp`` table.

The last line of standard output is one JSON object.  ``ready_at`` is the
``time.perf_counter`` reading (a system-wide monotonic clock on Linux) at
the end of set-up, so the parent can time set-up from before it started
this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from workloads import BUILD_DIR, GRID_FILES, SRC, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n-paths", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("time", "trace", "prep"))
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import numpy
    from contagionopt import experiments, powergrid

    if not experiments.__file__.startswith(str(SRC)):
        raise SystemExit(f"contagionopt imported from {experiments.__file__}, not from {SRC}")
    cfg = experiments.config_from_dict(w.config_doc(), seed=args.seed, n_paths=args.n_paths)
    runner = getattr(experiments, w.runner)
    kwargs = {}
    if w.grids == "load" and args.mode != "prep":
        kwargs["value_grid"], kwargs["value_grid_const"] = (
            powergrid.ValueGrid.load(str(BUILD_DIR / f)) for f in GRID_FILES)

    solved = []
    if args.mode == "prep":
        solve = experiments.solve_power_value

        def capture(*a, **k):
            solved.append(solve(*a, **k))
            return solved[-1]
        experiments.solve_power_value = capture
    ready_at = time.perf_counter()

    t0 = time.perf_counter()
    if tracer is None:
        result = runner(cfg, **kwargs)
    else:
        result = tracer.call("experiments.run", runner, cfg, **kwargs)
    wall = time.perf_counter() - t0
    out = {
        "ready_at": ready_at,
        "wall_s": wall,
        "csv": result.to_csv(),
        "rng_digest": result.rng_digest,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, "experiments.run")
    if args.mode == "prep":
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        for grid, name in zip(solved, GRID_FILES, strict=True):
            grid.save(str(BUILD_DIR / name))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
