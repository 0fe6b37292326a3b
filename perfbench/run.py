"""Time-to-table benchmark of contagionopt's public experiment API.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload log-interior [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Each experiment call runs in a fresh single-threaded interpreter
(``worker.py``), one process at a time, so that set-up time and peak memory
belong to that call alone.  ``--seed`` is the workload's ``master_seed``
(default: the shipped config's).  For ``--seconds`` the benchmark repeats
the call at that seed, at least three times, and reports medians.

Every call's table is checked (``oracles.py``): cohort conservation, the
active-versus-passive patterns, and one table and bundle digest per seed
within a run.  At a seed other than the default, one extra call at the
default seed is checked against the reference table recorded at the seed
commit.  ``power-replay`` first solves and saves its value grids with the
code under test; that call's ``power-dp`` table must equal every replayed
table byte for byte.

``--trace 1`` adds two calls with per-layer spans (``tracer.py``), checks
that their deterministic counts and tables repeat exactly, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a call fails if it raises or if
any oracle fails.  ``--smoke`` runs every workload at a tiny path count,
checks that every metric is emitted with its unit, and that every oracle
rejects a tampered input.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from workloads import (DETERMINISTIC, END_TO_END, PER_LAYER, REPORT_ONLY, ROOT, SRC,
                       WORKLOADS)

WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_CALLS = 3          # timed calls per run, so set-up time has a median
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SMOKE_PATHS = 128


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    ref = git / head.removeprefix("ref: ")
    return ref.read_text().strip() if head.startswith("ref: ") and ref.is_file() else head


def determinism_errors(a: dict, b: dict) -> list:
    return [f"{k} differs between traced calls: {a[k]!r} != {b[k]!r}"
            for k in DETERMINISTIC if a[k] != b[k]]


class Run:
    """The calls of one workload in one benchmark run, with the oracle
    verdict on each."""

    def __init__(self, workload, n_paths: int, references: dict):
        self.w = workload
        self.n_paths = n_paths
        self.ref = references.get(workload.name)
        if self.ref is not None and self.ref["n_paths"] != n_paths:
            self.ref = None
        self.calls = []
        self.first = {}  # seed -> (mode, csv, rng_digest) of the first call
        self.table_err = None
        self.env = child_env()

    def call(self, mode: str, seed: int) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.w.name, "--seed", str(seed),
               "--n-paths", str(self.n_paths), "--mode", mode]
        rec = {"mode": mode, "seed": seed, "errors": [], "result": None}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec["errors"].append(f"call timed out after {CHILD_TIMEOUT_S:g} s")
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-3:]
                rec["errors"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            else:
                res = json.loads(proc.stdout.splitlines()[-1])
                res["setup_s"] = res["ready_at"] - t0
                rec["result"] = res
                rec["errors"] += self.check(mode, seed, res)
        self.calls.append(rec)
        return rec

    def check(self, mode: str, seed: int, res: dict) -> list:
        csv, digest = res["csv"], res["rng_digest"]
        try:
            table = oracles.parse_table(csv)
        except ValueError as exc:
            return [str(exc)]
        errs = (oracles.check_conservation(table, self.n_paths)
                + oracles.check_patterns(self.w.name, table, self.n_paths))
        first = self.first.setdefault(seed, (mode, csv, digest))
        if csv != first[1]:
            errs.append(f"table differs from the {first[0]} call at the same seed")
        if digest != first[2]:
            errs.append(f"rng_digest differs from the {first[0]} call at the same seed")
        if self.ref is not None and seed == self.ref["seed"]:
            err, ref_errs = oracles.check_reference(csv, digest, self.ref)
            self.table_err = max(err, self.table_err or 0.0)
            errs += ref_errs
        return errs

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c["errors"])


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 n_paths: int | None = None, references: dict | None = None,
                 min_calls: int = MIN_CALLS) -> tuple:
    """Run one workload; returns ``(run, metrics)`` with metrics as
    ``{name: (value, unit, sample count)}``."""
    w = WORKLOADS[name]
    seed = w.default_seed() if seed is None else seed
    run = Run(w, n_paths or w.n_paths, oracles.load_references() if references is None
              else references)
    if w.grids == "load":
        run.call("prep", seed)
    if run.ref is not None and seed != run.ref["seed"]:
        run.call("time", run.ref["seed"])

    start = time.perf_counter()
    traced = [run.call("trace", seed) for _ in range(2)] if trace else []
    timed = []
    while len(timed) < min_calls or time.perf_counter() - start < seconds:
        timed.append(run.call("time", seed))

    def results(calls):
        return [c["result"] for c in calls if c["result"] is not None]

    plain = results(timed)
    if not plain:
        raise RuntimeError("no call of the workload completed")
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {}
    if trace:
        layers = [r["layers"] for r in results(traced)]
        if len(layers) != 2:
            raise RuntimeError("a traced call did not complete")
        traced[1]["errors"] += determinism_errors(*layers)
        for key in PER_LAYER:
            if key != "trace.overhead_s":
                metrics[key] = (statistics.median(x[key] for x in layers), PER_LAYER[key], 2)
        overhead = statistics.median(r["wall_s"] for r in results(traced)) - wall
        metrics["trace.overhead_s"] = (overhead, "s", 2)
    else:
        for key in END_TO_END:
            metrics[key] = (statistics.median(r[key] for r in plain), END_TO_END[key],
                            len(plain))
    return run, metrics


def report(run: Run, metrics: dict, seed: int, trace: bool):
    """Human-readable lines; the final JSON line is the machine-readable result."""
    res = next(c["result"] for c in run.calls if c["result"] is not None)
    print(f"# machine: nproc={len(os.sched_getaffinity(0))} python={res['python']} "
          f"numpy={res['numpy']} revision={git_revision()}")
    print(f"# workload {run.w.name}: config {run.w.config}, seed {seed}, "
          f"{run.n_paths} paths, trace {int(trace)}")
    for c in run.calls:
        r = c["result"] or {}
        status = "ok" if not c["errors"] else "FAIL " + "; ".join(c["errors"])
        print(f"# call {c['mode']:5s} seed {c['seed']}: wall {r.get('wall_s', float('nan')):.4f} s,"
              f" setup {r.get('setup_s', float('nan')):.4f} s,"
              f" peak {r.get('peak_rss_mb', float('nan')):.1f} MB: {status}")
    for key, (value, unit, n) in metrics.items():
        print(f"{key} {value:.6g} {unit} (median of {n})")
    err = "n/a (no reference at this path count)" if run.table_err is None else f"{run.table_err:.6g}"
    print(f"table_max_rel_err {err} {REPORT_ONLY['table_max_rel_err']}")
    print(f"ops_failed_frac {run.failed / len(run.calls):.6g} "
          f"{REPORT_ONLY['ops_failed_frac']} ({run.failed} of {len(run.calls)} calls)")


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.calls),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    })


def smoke() -> int:
    """The benchmark's own checks, at SMOKE_PATHS paths per workload."""
    bad = []

    def expect(ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            bad.append(what)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([x["name"] for x in bench["workloads"]] == list(WORKLOADS)
           and {x["name"]: x["unit"] for x in bench["end_to_end"]} == END_TO_END
           and {x["name"]: x["unit"] for x in bench["per_layer"]} == PER_LAYER,
           "BENCHMARK.json names these workloads and metrics with these units")
    refs = oracles.load_references()
    expect(set(refs) == set(WORKLOADS), "a reference table is stored for every workload")
    for name, ref in refs.items():
        expect(oracles.sha256(ref["csv"]) == ref["csv_sha256"],
               f"{name}: stored reference CSV matches its sha256")

    tables = {}
    for name in WORKLOADS:
        for trace, want in ((False, END_TO_END), (True, PER_LAYER)):
            run, metrics = run_workload(name, None, 0.0, trace, SMOKE_PATHS, {}, 1)
            json_metrics = json.loads(result_line(run, metrics))["metrics"]
            expect({k: m["unit"] for k, m in json_metrics.items()} == want,
                   f"{name} trace {int(trace)}: every metric emitted with its unit")
            expect(run.failed == 0, f"{name} trace {int(trace)}: no call failed "
                   f"{[c['errors'] for c in run.calls if c['errors']]}")
            tables[name] = run.calls[-1]["result"]

    # a reference that matches passes; a tampered one fails the run
    name = "log-interior"
    w, res = WORKLOADS[name], tables[name]
    good = {"seed": w.default_seed(), "n_paths": SMOKE_PATHS, "csv": res["csv"],
            "csv_sha256": oracles.sha256(res["csv"]), "rng_digest": res["rng_digest"]}
    lines = res["csv"].splitlines(keepends=True)
    lines[1] = lines[1][:-2] + ("1" if lines[1][-2] != "1" else "2") + "\n"
    tampered_csv = "".join(lines)
    for label, ref, want_ok, want_err in (
            ("matching reference", good, True, False),
            ("tampered reference CSV", dict(good, csv=tampered_csv,
                                            csv_sha256=oracles.sha256(tampered_csv)), False, True),
            ("reference CSV not matching its sha256", dict(good, csv=tampered_csv), False, True),
            ("tampered reference rng_digest", dict(good, rng_digest="0" * 64), False, False)):
        run = Run(w, SMOKE_PATHS, {name: ref})
        run.call("time", w.default_seed())
        expect((run.failed == 0) == want_ok, f"{label}: run counted as "
               f"{'passed' if want_ok else 'failed'}")
        expect(run.table_err is not None and (run.table_err > 0) == want_err,
               f"{label}: table_max_rel_err {run.table_err} is {'> 0' if want_err else '0'}")

    # every table oracle rejects a tampered table
    table = oracles.parse_table(res["csv"])
    A, P = oracles.ACTIVE, oracles.PASSIVE
    swapped = {(c, A if s == P else P): row for (c, s), row in table.items()}
    lost = {k: dict(v) for k, v in table.items()}
    lost["Default", A]["n"] += 1
    expect(bool(oracles.check_conservation(lost, SMOKE_PATHS)), "conservation rejects a lost path")
    ordered = oracles.check_patterns("log-interior", table, SMOKE_PATHS)
    flipped = oracles.check_patterns("log-interior", swapped, SMOKE_PATHS)
    expect(bool(ordered) != bool(flipped), "log-interior pattern rejects swapped sides")
    crisis = oracles.parse_table(tables["log-corner"]["csv"])
    swapped = {(c, A if s == P else P): row for (c, s), row in crisis.items()}
    expect(bool(oracles.check_patterns("log-corner", swapped, SMOKE_PATHS)),
           "log-corner cohort ordering rejects swapped sides")
    expect(bool(oracles.check_patterns("log-corner", crisis, 10 * SMOKE_PATHS)),
           "log-corner default band rejects a fraction outside 0.8542 +- 0.05")

    run = Run(WORKLOADS["power-replay"], SMOKE_PATHS, {})
    other = tables["power-dp"]
    other_csv = other["csv"].replace("\n", "\n#", 1)
    run.check("prep", 1, other)
    expect(bool(run.check("time", 1, dict(other, csv=other_csv))),
           "power-replay cross-check rejects a table differing from power-dp's")
    expect(bool(run.check("time", 1, dict(other, rng_digest="0" * 64))),
           "rng_digest check rejects a changed digest at the same seed")
    layers = dict.fromkeys(DETERMINISTIC, 1)
    expect(all(determinism_errors(layers, dict(layers, **{k: 2})) for k in DETERMINISTIC),
           "determinism check rejects every changed count")

    print(f"smoke: {len(bad)} failed check(s)")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload master_seed (default: the shipped config's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "contagionopt" / "experiments.py").is_file():
        print(f"perfbench: no contagionopt source under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    seed = WORKLOADS[args.workload].default_seed() if args.seed is None else args.seed
    try:
        run, metrics = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(run, metrics, seed, bool(args.trace))
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
