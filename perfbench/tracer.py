"""Per-layer spans around contagionopt's public functions, patched from outside.

``install`` replaces functions and methods by timing wrappers; no source
file changes.  ``experiments`` binds ``simulate_paths``, ``evolve_wealth``,
``solve_power_value`` and ``cohort_report`` by name, and ``LogStrategy``
calls ``solve_kt_batch`` through the ``logopt`` module namespace, so those
names are patched where they are looked up.  Methods are patched on their
classes.

Spans are kept in memory: name, start, end and the index of the enclosing
span.  Counts are taken after a span closes, so their cost shows as
tracing overhead rather than as layer time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

from contagionopt import dynamics, experiments, logopt, model, powergrid

# solve_power_value refines on a 9 x 9 sub-lattice around each coarse argmax,
# minus its centre, which the coarse pass already evaluated
REFINE_OFFSETS = 9 * 9 - 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.bundle_bytes = 0
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name) -> float:
        return float(sum(self.durations(name)))

    def self_time(self, name, child_names=None) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        out = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        for n, start, end, parent in self.spans:
            if parent in own and (child_names is None or n in child_names):
                out -= end - start
        return float(out)


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: Tracer):
    """Wrap the public layer entry points with ``tracer`` spans."""
    c = tracer.counts

    def simulate(orig):
        def wrapper(*args, **kwargs):
            bundle = tracer.call("dynamics.simulate", orig, *args, **kwargs)
            c["path_steps"] += bundle.cfg.n_paths * bundle.cfg.n_steps
            c["paths"] += bundle.n_paths
            c["defaulted_paths"] += int(bundle.default_mask().sum())
            tracer.bundle_bytes = max(tracer.bundle_bytes, sum(
                v.nbytes for v in vars(bundle).values() if isinstance(v, np.ndarray)))
            return bundle
        return wrapper

    def evolve(orig):
        return lambda *a, **k: tracer.call("dynamics.evolve", orig, *a, **k)

    def cohort(orig):
        return lambda *a, **k: tracer.call("stats.cohort", orig, *a, **k)

    def dp_solve(orig):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            out = tracer.call("powergrid.dp_solve", orig, *args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            grid = a["grid"]
            nodes = grid.s_nodes().size * grid.p_nodes().size
            lattice = powergrid.control_lattice(a["box"], a["params"].L, grid.n_control)
            controls = lattice.shape[0] + (REFINE_OFFSETS if grid.refine else 0)
            c["dp_slices"] += grid.n_slices
            c["dp_candidate_evals"] += nodes * controls * grid.n_slices
            return out
        return wrapper

    def kt_batch(orig):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            out = tracer.call("logopt.kt_batch", orig, *args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            hS = np.atleast_1d(np.asarray(a["hS"], dtype=float))
            hP = np.atleast_1d(np.asarray(a["hP"], dtype=float))
            c["kt_rows"] += hS.size
            c["kt_unique_rows"] += np.unique(hS + 1j * hP).size
            cases = np.bincount(out[1], minlength=len(logopt.CASE_NAMES))
            for name, n in zip(logopt.CASE_NAMES, cases):
                kind = ("interior" if name == "interior" else "fallback" if "fallback" in name
                        else "corner" if "/" in name else "edge")
                c[f"kt_case_{kind}"] += int(n)
            return out
        return wrapper

    def log_query(orig):
        def wrapper(self, *args, **kwargs):
            side = "active" if self.hbar is None else "passive"
            return tracer.call(f"logopt.query_{side}", orig, self, *args, **kwargs)
        return wrapper

    def grid_query(orig):
        def wrapper(self, t, x, prices, states):
            before = self.out_of_domain
            out = tracer.call("powergrid.query", orig, self, t, x, prices, states)
            c["out_of_domain"] += self.out_of_domain - before
            c["pre_default_queries"] += int((np.asarray(states) == 0).all(axis=1).sum())
            return out
        return wrapper

    def grid_load(orig):
        func = orig.__func__
        return classmethod(lambda cls, *a, **k: tracer.call("powergrid.grid_load", func, cls, *a, **k))

    def rates(orig):
        return lambda *a, **k: tracer.call("model.rates", orig, *a, **k)

    def digest(orig):
        return lambda *a, **k: tracer.call("experiments.digest", orig, *a, **k)

    _patch(experiments, "simulate_paths", simulate)
    _patch(experiments, "evolve_wealth", evolve)
    _patch(experiments, "cohort_report", cohort)
    _patch(experiments, "solve_power_value", dp_solve)
    _patch(logopt, "solve_kt_batch", kt_batch)
    _patch(logopt.LogStrategy, "allocations", log_query)
    _patch(powergrid.PowerGridStrategy, "allocations", grid_query)
    powergrid.ValueGrid.load = grid_load(inspect.getattr_static(powergrid.ValueGrid, "load"))
    for cls in (model.PowerClampIntensity, model.ReciprocalIntensity, model.ConstantIntensity):
        _patch(cls, "rates_matrix", rates)
    _patch(dynamics.PathBundle, "rng_digest", digest)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, top: str) -> dict:
    """Per-layer values (every name in ``workloads.PER_LAYER`` except the
    overhead, which needs the untraced calls); ``top`` is the span around
    the experiment call."""
    c = tracer.counts
    kt_s = tracer.total("logopt.kt_batch")
    dp_s = tracer.total("powergrid.dp_solve")
    sim_s = tracer.total("dynamics.simulate")
    active_ms = np.asarray(tracer.durations("logopt.query_active")) * 1e3
    queries = ("logopt.query_active", "logopt.query_passive", "powergrid.query")
    return {
        "logopt.kt_batch_s": kt_s,
        "logopt.kt_us_per_row": _ratio(kt_s * 1e6, c["kt_rows"]),
        "logopt.query_active_s": tracer.total("logopt.query_active"),
        "logopt.query_passive_s": tracer.total("logopt.query_passive"),
        "logopt.query_active_ms_p50": float(np.percentile(active_ms, 50)) if active_ms.size else 0.0,
        "logopt.query_active_ms_p95": float(np.percentile(active_ms, 95)) if active_ms.size else 0.0,
        "logopt.kt_rows": c["kt_rows"],
        "logopt.kt_unique_rows": c["kt_unique_rows"],
        "logopt.kt_case_interior": c["kt_case_interior"],
        "logopt.kt_case_edge": c["kt_case_edge"],
        "logopt.kt_case_corner": c["kt_case_corner"],
        "logopt.kt_case_fallback": c["kt_case_fallback"],
        "powergrid.dp_solve_s": dp_s,
        "powergrid.dp_slice_ms": _ratio(dp_s * 1e3, c["dp_slices"]),
        "powergrid.dp_candidate_evals": c["dp_candidate_evals"],
        "powergrid.dp_candidate_evals_per_s": _ratio(c["dp_candidate_evals"], dp_s),
        "powergrid.query_s": tracer.total("powergrid.query"),
        "powergrid.out_of_domain_frac": _ratio(c["out_of_domain"], c["pre_default_queries"]),
        "powergrid.grid_load_s": tracer.total("powergrid.grid_load"),
        "dynamics.simulate_s": sim_s,
        "dynamics.simulate_path_steps_per_s": _ratio(c["path_steps"], sim_s),
        "dynamics.wealth_update_s": tracer.self_time("dynamics.evolve", queries),
        "dynamics.bundle_mb": tracer.bundle_bytes / 2**20,
        "dynamics.default_frac": _ratio(c["defaulted_paths"], c["paths"]),
        "model.rates_s": tracer.total("model.rates"),
        "experiments.digest_s": tracer.total("experiments.digest"),
        "stats.cohort_s": tracer.total("stats.cohort"),
        "experiments.self_s": tracer.self_time(top),
    }
