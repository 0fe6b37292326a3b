"""Config-driven experiment runner.

Experiments are described by a JSON document with sections ``market``,
``intensity``, ``utility``, ``box``, ``paths``, ``experiment`` and, for
the power utility, ``grid``.  The runners reproduce the statistical
comparisons of active (price-dependent hazard) versus passive (constant
proxy hazard) strategies, the robustness sweeps, the depressed-initial-
price crisis comparison, and the power-utility comparison.

The experiment's ``kind`` picks the utility the ``utility`` section must
name and the output table (:data:`KINDS`), and the runner
(:data:`RUNNERS`), which rejects a config of another kind.  The ``box``,
``paths``, ``grid`` and ``experiment`` sections and each sweep entry map
onto their dataclass fields by name (:func:`~contagionopt.model.from_section`):
a field with a default may be left out, and an unknown or missing key
raises ``ValueError`` naming it.

Every comparison evaluates both strategies on one simulated path bundle
(common random numbers), asserted by digesting the bundle's Gaussian
increments and exponential clocks.  Output CSVs are byte-identical for a
given config and seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from contagionopt.dynamics import PathConfig, evolve_wealth, simulate_paths
from contagionopt.logopt import CASE_NAMES, LogControlProblem, LogStrategy
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    ReciprocalIntensity,
    from_section,
    intensity_from_config,
)
from contagionopt.powergrid import GridSpec, PowerGridStrategy, solve_power_value, validate_cfl
from contagionopt.stats import CSV_HEADER, cohort_report, csv_row, summarize

__all__ = [
    "KINDS",
    "RUNNERS",
    "ExperimentConfig",
    "SweepEntry",
    "ComparisonResult",
    "SweepResult",
    "config_from_dict",
    "load_config",
    "builtin_config",
    "builtin_config_names",
    "run_comparison",
    "run_sweep",
    "run_crisis",
    "run_power_comparison",
    "run_experiment",
]

ACTIVE_LABEL = "h(S,P)"
PASSIVE_LABEL = "constant h"

# experiment kind -> (utility, output table)
KINDS = {
    "compare": ("log", "comparison.csv"),
    "crisis": ("log", "crisis.csv"),
    "sweep": ("log", "sweep.csv"),
    "power-compare": ("power", "power_comparison.csv"),
}
SWEEP_MODES = ("misspecified-investor", "perturbed-world")

_MARKET_FIELDS = ("r", "mu_s", "mu_p", "sigma_s", "sigma_p", "rho", "loss_s", "loss_p")
# intensity fields a sweep may set; k1 and k2 are the two power-clamp weights
_INTENSITY_FIELDS = ("h0", "k1", "k2", "alpha", "h_min", "h_max", "c")


@dataclass(frozen=True)
class SweepEntry:
    """One perturbation row: its label and the parameters it overrides."""

    label: str
    set: dict

    def __post_init__(self):
        for name in self.set:
            if name not in _MARKET_FIELDS + _INTENSITY_FIELDS:
                raise ValueError(f"unknown sweep parameter: {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; its ``kind`` (a key of :data:`KINDS`) picks the
    runner, the utility and the output table.

    ``sweep_mode`` applies to every sweep entry: ``misspecified-investor``
    keeps the simulated world at the config's values and hands the
    perturbed values to the investor's solver; ``perturbed-world``
    changes both.
    """

    name: str
    kind: str
    market: MarketParams
    s0: np.ndarray
    intensity: object
    box: AdmissibleBox
    paths: PathConfig
    gamma: float | None = None  # power utility only
    x0: float = 100.0
    hbar: float | None = None  # constant comparator hazard of the passive side
    sweep_mode: str = "misspecified-investor"
    entries: tuple = ()  # SweepEntry rows of a sweep
    grid: GridSpec | None = None
    raw: dict = None  # original document, echoed into the run manifest

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}; have {list(KINDS)}")
        if self.kind == "crisis" and not isinstance(self.intensity, ReciprocalIntensity):
            raise ValueError("crisis experiment requires the reciprocal intensity family")
        if self.kind == "power-compare":
            if self.gamma is None:
                raise ValueError("power utility requires gamma")
            if self.grid is None:
                raise ValueError("power-compare requires a grid section")
        if self.kind != "sweep" and self.hbar is None:
            raise ValueError(f"{self.kind} requires a comparator hbar")
        if self.sweep_mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode: {self.sweep_mode!r}; have {list(SWEEP_MODES)}")


def _market_from_dict(m: dict) -> tuple[MarketParams, np.ndarray]:
    mu = np.asarray(m["mu"], dtype=float)
    n = mu.shape[0]
    rho = m["rho"]
    rho = np.array([[1.0, rho], [rho, 1.0]]) if np.isscalar(rho) else np.asarray(rho)
    params = MarketParams(r=m["r"], mu=mu, sigma=np.asarray(m["sigma"], dtype=float),
                          rho=rho, L=np.asarray(m["L"], dtype=float))
    s0 = np.asarray(m["s0"], dtype=float)
    if s0.shape != (n,):
        raise ValueError("s0 length must match mu")
    return params, s0


def config_from_dict(doc: dict, seed: int | None = None,
                     n_paths: int | None = None) -> ExperimentConfig:
    """Build a validated config; ``seed``/``n_paths`` override the document.

    A missing required key raises ``ValueError`` naming it.
    """
    try:
        return _config(doc, seed, n_paths)
    except KeyError as exc:  # every subscript in _config reads a required key
        raise ValueError(f"config is missing the required key {exc.args[0]!r}") from None


def _config(doc: dict, seed: int | None, n_paths: int | None) -> ExperimentConfig:
    market, s0 = _market_from_dict(doc["market"])
    overrides = {k: v for k, v in (("n_paths", n_paths), ("master_seed", seed)) if v is not None}
    paths = from_section(PathConfig, {**doc["paths"], **overrides}, "paths")
    grid = None
    if "grid" in doc:
        grid = from_section(GridSpec, doc["grid"], "grid", horizon=paths.horizon)
    exp = doc["experiment"]
    entries = tuple(from_section(SweepEntry, e, f"sweep entry {i}")
                    for i, e in enumerate(exp.get("entries", ())))
    cfg = from_section(
        ExperimentConfig, {**exp, "entries": entries}, "experiment",
        name=doc.get("name", "unnamed"),
        market=market,
        s0=s0,
        intensity=intensity_from_config(doc["intensity"]),
        box=from_section(AdmissibleBox, doc["box"], "box"),
        paths=paths,
        gamma=doc["utility"].get("gamma"),
        grid=grid,
        raw=doc,
    )
    utility, _ = KINDS[cfg.kind]
    if doc["utility"]["kind"] != utility:
        raise ValueError(f"a {cfg.kind!r} experiment takes the {utility!r} utility, "
                         f"not {doc['utility']['kind']!r}")
    return cfg


def load_config(path: str, seed: int | None = None,
                n_paths: int | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh), seed=seed, n_paths=n_paths)


def builtin_config_names() -> list:
    root = resources.files("contagionopt") / "configs"
    return sorted(f.name[:-5] for f in root.iterdir() if f.name.endswith(".json"))


def builtin_config(name: str, seed: int | None = None,
                   n_paths: int | None = None) -> ExperimentConfig:
    """Load one of the configs shipped with the package."""
    ref = resources.files("contagionopt") / "configs" / f"{name}.json"
    if not ref.is_file():
        raise ValueError(f"unknown builtin config {name!r}; have {builtin_config_names()}")
    return config_from_dict(json.loads(ref.read_text()), seed=seed, n_paths=n_paths)


def _apply_param_overrides(market: MarketParams, intensity, overrides: dict):
    """Rebuild market and intensity with selected fields replaced."""
    m = dict(r=market.r, mu_s=market.mu[0], mu_p=market.mu[1],
             sigma_s=market.sigma[0], sigma_p=market.sigma[1],
             rho=market.rho[0, 1], loss_s=market.L[0, 1], loss_p=market.L[1, 0])
    for k in _MARKET_FIELDS:
        if k in overrides:
            m[k] = float(overrides[k])
    new_market = MarketParams.two_stock(**m)

    changes = {k: v for k, v in overrides.items() if k not in _MARKET_FIELDS}
    if "k1" in changes or "k2" in changes:
        k1, k2 = getattr(intensity, "weights", (None, None))
        changes["weights"] = (changes.pop("k1", k1), changes.pop("k2", k2))
    try:
        new_intensity = replace(intensity, **changes)
    except TypeError:  # a field the intensity family does not have
        names = [k for k in overrides if k not in _MARKET_FIELDS]
        raise ValueError(f"overrides {names} do not apply to "
                         f"{type(intensity).__name__}") from None
    return new_market, new_intensity


@dataclass
class ComparisonResult:
    """Six-row table: All / Default / No-default for both strategies,
    evaluated on one common path bundle."""

    active: object    # CohortReport
    passive: object   # CohortReport
    n_default: int
    n_paths: int
    rng_digest: str
    health: dict

    def rows(self):
        cohorts = (("all", "All samples"), ("default", "Default"),
                   ("no_default", "No-default"))
        return [(f"{name} + {rep.label}", getattr(rep, cohort))
                for cohort, name in cohorts for rep in (self.active, self.passive)]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [csv_row(label, stats) for label, stats in self.rows()]
        return "\n".join(lines) + "\n"


def _kt_cases(*strategies) -> dict:
    """Summed Kuhn-Tucker case counts of log strategies, keyed by case name."""
    counts = sum(s.kt_cases for s in strategies)
    return {name: int(n) for name, n in zip(CASE_NAMES, counts)}


def _require_kind(cfg: ExperimentConfig, kind: str):
    if cfg.kind != kind:
        raise ValueError(f"config {cfg.name!r} is a {cfg.kind!r} experiment, not {kind!r}")


def _compare(cfg: ExperimentConfig, out_dir: str | None, t0: float,
             active, passive, health) -> ComparisonResult:
    """Evaluate ``active`` and ``passive`` on one simulated path bundle and
    tabulate both by default cohort; ``health(active, passive)`` gives the
    manifest's solver-health section, and ``t0`` is when the run began."""
    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    digest = bundle.rng_digest()
    terminal = []
    for strategy in (active, passive):
        terminal.append(evolve_wealth(bundle, strategy, cfg.x0).terminal)
        if bundle.rng_digest() != digest:  # common-random-number discipline
            raise RuntimeError("path bundle mutated during strategy evaluation")

    mask = bundle.default_mask()
    result = ComparisonResult(
        active=cohort_report(ACTIVE_LABEL, terminal[0], mask),
        passive=cohort_report(PASSIVE_LABEL, terminal[1], mask),
        n_default=int(mask.sum()),
        n_paths=cfg.paths.n_paths,
        rng_digest=digest,
        health=health(active, passive),
    )
    for rep in (result.active, result.passive):
        n_def = rep.default.n if rep.default else 0
        n_no = rep.no_default.n if rep.no_default else 0
        if n_def + n_no != result.n_paths or n_def != result.n_default:
            raise RuntimeError("cohort sizes do not conserve the path count")
    if out_dir:
        _emit(cfg, out_dir, result.to_csv(), result.health, digest,
              time.perf_counter() - t0)
    return result


def _log_comparison(cfg: ExperimentConfig, out_dir: str | None) -> ComparisonResult:
    """Active-versus-passive log-utility comparison."""
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    return _compare(cfg, out_dir, t0, LogStrategy(problem),
                    LogStrategy(problem, hbar=cfg.hbar),
                    lambda *sides: {"kt_cases": _kt_cases(*sides)})


def run_comparison(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Active-versus-passive comparison under the log utility."""
    _require_kind(cfg, "compare")
    return _log_comparison(cfg, out_dir)


def run_crisis(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Comparison with depressed initial prices and reciprocal hazard."""
    _require_kind(cfg, "crisis")
    return _log_comparison(cfg, out_dir)


@dataclass
class SweepResult:
    """Benchmark row plus one row per perturbation, with percent deltas."""

    benchmark: object  # SampleStats
    entries: tuple     # (label, SampleStats, {stat: pct-string})
    rng_digest: str
    health: dict

    def to_csv(self) -> str:
        lines = ["label,n,mean,mean_pct,std,std_pct,q023,q023_pct,q977,q977_pct"]
        b = self.benchmark
        lines.append(f"benchmark,{b.n},{b.mean:.6g},,{b.std:.6g},,"
                     f"{b.q_low:.6g},,{b.q_high:.6g},")
        for label, s, pct in self.entries:
            lines.append(f"{label},{s.n},{s.mean:.6g},{pct['mean']},{s.std:.6g},"
                         f"{pct['std']},{s.q_low:.6g},{pct['q023']},"
                         f"{s.q_high:.6g},{pct['q977']}")
        return "\n".join(lines) + "\n"


def _pct(value: float, base: float) -> str:
    return f"({100.0 * (value - base) / base + 0.0:.2f}%)"


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> SweepResult:
    """Robustness sweep of the active strategy's terminal-wealth statistics.

    Each entry perturbs named parameters; in ``misspecified-investor``
    mode only the investor's solver sees the perturbed values, in
    ``perturbed-world`` mode the simulated market changes too.  The world
    (and hence the benchmark row) always uses the config's own values.
    """
    _require_kind(cfg, "sweep")
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    bench_bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    digest = bench_bundle.rng_digest()
    bench_strategy = LogStrategy(problem)
    bench_stats = summarize(evolve_wealth(bench_bundle, bench_strategy, cfg.x0).terminal)

    strategies = [bench_strategy]
    entries = []
    for entry in cfg.entries:
        market2, intensity2 = _apply_param_overrides(cfg.market, cfg.intensity, entry.set)
        problem2 = LogControlProblem(params=market2, intensity=intensity2, box=cfg.box)
        strategy2 = LogStrategy(problem2)
        if cfg.sweep_mode == "misspecified-investor":
            bundle = bench_bundle
        else:  # the world itself is perturbed; same seed keeps draws common
            bundle = simulate_paths(market2, intensity2, cfg.paths, cfg.s0)
        stats = summarize(evolve_wealth(bundle, strategy2, cfg.x0).terminal)
        pct = {"mean": _pct(stats.mean, bench_stats.mean),
               "std": _pct(stats.std, bench_stats.std),
               "q023": _pct(stats.q_low, bench_stats.q_low),
               "q977": _pct(stats.q_high, bench_stats.q_high)}
        entries.append((entry.label, stats, pct))
        strategies.append(strategy2)

    health = {"kt_cases": _kt_cases(*strategies)}
    result = SweepResult(benchmark=bench_stats, entries=tuple(entries),
                         rng_digest=digest, health=health)
    if out_dir:
        _emit(cfg, out_dir, result.to_csv(), health, digest, time.perf_counter() - t0)
    return result


def run_power_comparison(cfg: ExperimentConfig, out_dir: str | None = None,
                         value_grid=None, value_grid_const=None) -> ComparisonResult:
    """Active-versus-passive comparison under the power utility.

    The active strategy extracts controls from the value grid solved with
    the price-dependent hazard; the passive one from a grid solved with
    the constant comparator.  Grids are solved from the config unless
    supplied; a supplied grid must have been solved for the config's
    ``gamma`` and grid, or ``ValueError`` is raised.
    """
    _require_kind(cfg, "power-compare")
    t0 = time.perf_counter()
    gamma = cfg.gamma
    for vg in (value_grid, value_grid_const):
        if vg is not None and (vg.gamma != gamma or vg.grid != cfg.grid):
            raise ValueError(f"value grid solved for gamma {vg.gamma} on {vg.grid} does not "
                             f"match the config's gamma {gamma} on {cfg.grid}")
    if value_grid is None:
        value_grid = solve_power_value(cfg.grid, cfg.market, cfg.intensity, gamma, cfg.box)
    if value_grid_const is None:
        value_grid_const = solve_power_value(cfg.grid, cfg.market,
                                             ConstantIntensity(cfg.hbar), gamma, cfg.box)

    def health(active, passive):
        queries = active.pre_default_queries + passive.pre_default_queries
        return {
            "cfl_margin": validate_cfl(cfg.grid, cfg.market, gamma, cfg.box),
            "out_of_domain_frac": (active.out_of_domain + passive.out_of_domain)
                                  / max(queries, 1),
        }

    active, passive = (PowerGridStrategy(vg, cfg.market, gamma, cfg.box)
                       for vg in (value_grid, value_grid_const))
    return _compare(cfg, out_dir, t0, active, passive, health)


# experiment kind -> its runner
RUNNERS = {"compare": run_comparison, "crisis": run_crisis, "sweep": run_sweep,
           "power-compare": run_power_comparison}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Run the config with its kind's runner."""
    return RUNNERS[cfg.kind](cfg, out_dir=out_dir)


def _emit(cfg: ExperimentConfig, out_dir: str, text: str, health: dict,
          rng_digest: str, wall_time: float):
    """Write the kind's output CSV plus a JSON manifest with its content hash."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    _, name = KINDS[cfg.kind]
    data = text.encode()
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(data)
    manifest = {
        "name": cfg.name,
        "kind": cfg.kind,
        "seed": cfg.paths.master_seed,
        "n_paths": cfg.paths.n_paths,
        "config": cfg.raw,
        "outputs": {name: "sha256:" + hashlib.sha256(data).hexdigest()},
        "rng_digest": rng_digest,
        "solver_health": health,
        "wall_time_s": round(wall_time, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
