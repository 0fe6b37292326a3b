"""Workload and metric tables shared by the benchmark's parent and child.

This module imports neither numpy nor contagionopt, so the parent process
stays light and its own memory never mixes with a workload's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "contagionopt" / "configs"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    """One shipped config run through one public experiment call.

    The shipped runs take 20 to 40 s each, so the workloads cut them
    down.  The log workloads keep the shipped horizon, so their
    default-fraction band and cohort patterns still apply, and 10,000 paths,
    so every per-step KT batch has the shipped row count, but take 25
    steps.  The power workloads keep the shipped step length, price lattice
    and control lattice but stop at ``horizon``: 50 DP slices and 25 path
    steps.
    """

    name: str
    config: str
    runner: str          # public function of contagionopt.experiments
    n_paths: int
    n_steps: int
    horizon: float | None = None
    grids: str = "solve"  # "solve": the call solves its value grids; "load": ValueGrid.load

    def config_doc(self) -> dict:
        """The shipped config document with this workload's sizes applied."""
        doc = json.loads((CONFIG_DIR / f"{self.config}.json").read_text())
        doc["paths"]["n_steps"] = self.n_steps
        if self.horizon is not None:
            doc["paths"]["horizon"] = self.horizon
        return doc

    def default_seed(self) -> int:
        return int(self.config_doc()["paths"]["master_seed"])


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("log-interior", "benchmark-inferred", "run_comparison",
                 n_paths=10_000, n_steps=25),
        Workload("log-corner", "crisis-reciprocal", "run_crisis", n_paths=10_000, n_steps=25),
        Workload("power-dp", "power-benchmark", "run_power_comparison",
                 n_paths=10_000, n_steps=25, horizon=0.1),
        Workload("power-replay", "power-benchmark", "run_power_comparison",
                 n_paths=10_000, n_steps=25, horizon=0.1, grids="load"),
    )
}

# grids solved by the power-replay preparation step and loaded by its calls
GRID_FILES = ("value_grid.npz", "value_grid_const.npz")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# printed in the report; they are 0 on correct code, so the machine-readable
# result carries them as ``correct`` and ``failed`` instead
REPORT_ONLY = {
    "table_max_rel_err": "ratio",
    "ops_failed_frac": "ratio",
}

PER_LAYER = {
    "logopt.kt_batch_s": "s",
    "logopt.kt_us_per_row": "us",
    "logopt.query_active_s": "s",
    "logopt.query_passive_s": "s",
    "logopt.query_active_ms_p50": "ms",
    "logopt.query_active_ms_p95": "ms",
    "logopt.kt_rows": "count",
    "logopt.kt_unique_rows": "count",
    "logopt.kt_case_interior": "count",
    "logopt.kt_case_edge": "count",
    "logopt.kt_case_corner": "count",
    "logopt.kt_case_fallback": "count",
    "powergrid.dp_solve_s": "s",
    "powergrid.dp_slice_ms": "ms",
    "powergrid.dp_candidate_evals": "count",
    "powergrid.dp_candidate_evals_per_s": "1/s",
    "powergrid.query_s": "s",
    "powergrid.out_of_domain_frac": "ratio",
    "powergrid.grid_load_s": "s",
    "dynamics.simulate_s": "s",
    "dynamics.simulate_path_steps_per_s": "1/s",
    "dynamics.wealth_update_s": "s",
    "dynamics.bundle_mb": "MB",
    "dynamics.default_frac": "ratio",
    "model.rates_s": "s",
    "experiments.digest_s": "s",
    "stats.cohort_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}

# per-layer values that depend only on the inputs, never on timing; two
# traced calls of one workload and seed must agree on them exactly
DETERMINISTIC = (
    "logopt.kt_rows",
    "logopt.kt_unique_rows",
    "logopt.kt_case_interior",
    "logopt.kt_case_edge",
    "logopt.kt_case_corner",
    "logopt.kt_case_fallback",
    "powergrid.dp_candidate_evals",
    "powergrid.out_of_domain_frac",
    "dynamics.bundle_mb",
    "dynamics.default_frac",
)
