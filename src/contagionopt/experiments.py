"""Config-driven experiment runner.

Experiments are described by a JSON document with sections ``market``,
``intensity``, ``utility``, ``box``, ``paths``, and ``experiment``; the
runner reproduces the statistical comparisons of active (price-dependent
hazard) versus passive (constant proxy hazard) strategies, the
robustness sweeps, the depressed-initial-price crisis comparison, and
the power-utility comparison.

Every comparison evaluates both strategies on one simulated path bundle
(common random numbers), asserted by digesting the bundle's Gaussian
increments and exponential clocks.  Output CSVs are byte-identical for a
given config and seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from contagionopt.dynamics import PathConfig, evolve_wealth, simulate_paths
from contagionopt.logopt import CASE_NAMES, LogControlProblem, make_log_strategy
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    PowerClampIntensity,
    ReciprocalIntensity,
    intensity_from_config,
)
from contagionopt.powergrid import GridSpec, make_power_strategy, solve_power_value
from contagionopt.stats import CSV_HEADER, cohort_report, csv_row, summarize

__all__ = [
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

_MARKET_FIELDS = ("r", "mu_s", "mu_p", "sigma_s", "sigma_p", "rho", "loss_s", "loss_p")
_INTENSITY_FIELDS = {
    "power_clamp": ("h0", "k1", "k2", "alpha", "h_min", "h_max"),
    "reciprocal": ("c",),
    "constant": ("c",),
}


@dataclass(frozen=True)
class SweepEntry:
    """One perturbation row: label, parameter overrides, and semantics.

    ``misspecified-investor`` keeps the simulated world at benchmark
    values and hands the perturbed values to the investor's solver;
    ``perturbed-world`` changes both.
    """

    label: str
    set: dict
    mode: str

    def __post_init__(self):
        if self.mode not in ("misspecified-investor", "perturbed-world"):
            raise ValueError(f"unknown sweep mode: {self.mode!r}")
        known = set(_MARKET_FIELDS) | {f for fs in _INTENSITY_FIELDS.values() for f in fs}
        for name in self.set:
            if name not in known:
                raise ValueError(f"unknown sweep parameter: {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    kind: str  # compare | sweep | crisis | power-compare
    market: MarketParams
    s0: np.ndarray
    intensity: object
    utility: str  # log | power
    gamma: float | None
    box: AdmissibleBox
    paths: PathConfig
    x0: float
    hbar: float | None
    sweep_entries: tuple = ()
    grid: GridSpec | None = None
    raw: dict = None  # original document, echoed into the run manifest

    def __post_init__(self):
        if self.kind not in ("compare", "sweep", "crisis", "power-compare"):
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.utility not in ("log", "power"):
            raise ValueError(f"unknown utility: {self.utility!r}")
        if self.utility == "power" and self.gamma is None:
            raise ValueError("power utility requires gamma")
        if self.kind == "power-compare" and self.grid is None:
            raise ValueError("power-compare requires a grid section")
        if self.kind in ("compare", "crisis", "power-compare") and self.hbar is None:
            raise ValueError(f"{self.kind} requires a comparator hbar")


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
    """Build a validated config; ``seed``/``n_paths`` override the document."""
    market, s0 = _market_from_dict(doc["market"])
    intensity = intensity_from_config(doc["intensity"])
    box_doc = doc["box"]
    box = AdmissibleBox(lower=box_doc["lower"], upper=box_doc["upper"],
                        eps_a=box_doc.get("eps_a", 0.01))
    p = doc["paths"]
    paths = PathConfig(horizon=p["horizon"], n_steps=p["n_steps"],
                       n_paths=n_paths if n_paths is not None else p["n_paths"],
                       master_seed=seed if seed is not None else p["master_seed"])
    util = doc["utility"]
    exp = doc["experiment"]
    entries = tuple(
        SweepEntry(label=e["label"], set=dict(e["set"]),
                   mode=e.get("mode", exp.get("sweep_mode", "misspecified-investor")))
        for e in exp.get("entries", ())
    )
    grid = None
    if "grid" in doc:
        g = doc["grid"]
        grid = GridSpec(horizon=p["horizon"], delta=g["delta"], dt=g["dt"],
                        s_max=g["s_max"], p_max=g["p_max"],
                        n_control=g.get("n_control", 41),
                        refine=g.get("refine", True))
    return ExperimentConfig(
        name=doc.get("name", "unnamed"),
        kind=exp["kind"],
        market=market,
        s0=s0,
        intensity=intensity,
        utility=util["kind"],
        gamma=util.get("gamma"),
        box=box,
        paths=paths,
        x0=exp.get("x0", 100.0),
        hbar=exp.get("hbar"),
        sweep_entries=entries,
        grid=grid,
        raw=doc,
    )


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

    if isinstance(intensity, PowerClampIntensity):
        family = "power_clamp"
        f = dict(h0=intensity.h0, k1=intensity.weights[0], k2=intensity.weights[1],
                 alpha=intensity.alpha, h_min=intensity.h_min, h_max=intensity.h_max)
        for k in _INTENSITY_FIELDS[family]:
            if k in overrides:
                f[k] = float(overrides[k])
        new_intensity = PowerClampIntensity(h0=f["h0"], weights=(f["k1"], f["k2"]),
                                            alpha=f["alpha"], h_min=f["h_min"],
                                            h_max=f["h_max"])
    elif isinstance(intensity, ReciprocalIntensity):
        family = "reciprocal"
        new_intensity = ReciprocalIntensity(c=float(overrides.get("c", intensity.c)),
                                            cap=intensity.cap)
    elif isinstance(intensity, ConstantIntensity):
        family = "constant"
        new_intensity = ConstantIntensity(c=overrides.get("c", intensity.c),
                                          cap=None)
    else:
        raise TypeError(f"cannot apply overrides to {type(intensity).__name__}")
    bad = [k for k in overrides
           if k not in _MARKET_FIELDS and k not in _INTENSITY_FIELDS[family]]
    if bad:
        raise ValueError(f"overrides {bad} do not apply to {type(intensity).__name__}")
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
        out = []
        for cohort in ("all", "default", "no_default"):
            label = {"all": "All samples", "default": "Default",
                     "no_default": "No-default"}[cohort]
            out.append((f"{label} + {ACTIVE_LABEL}", getattr(self.active, cohort)))
            out.append((f"{label} + {PASSIVE_LABEL}", getattr(self.passive, cohort)))
        return out

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [csv_row(label, stats) for label, stats in self.rows()]
        return "\n".join(lines) + "\n"


def _kt_cases(*strategies) -> dict:
    """Summed Kuhn-Tucker case counts of log strategies, keyed by case name."""
    counts = sum(s.kt_cases for s in strategies)
    return {name: int(n) for name, n in zip(CASE_NAMES, counts)}


def _log_comparison(cfg: ExperimentConfig, out_dir: str | None,
                    table: str) -> ComparisonResult:
    """Active-versus-passive log-utility comparison, written to ``table``."""
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    active = make_log_strategy(problem, "state-dependent")
    passive = make_log_strategy(problem, "fixed-intensity", hbar=cfg.hbar)

    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    digest = bundle.rng_digest()
    wealth_active = evolve_wealth(bundle, active, cfg.x0)
    if bundle.rng_digest() != digest:  # common-random-number discipline
        raise RuntimeError("path bundle mutated during strategy evaluation")
    wealth_passive = evolve_wealth(bundle, passive, cfg.x0)
    if bundle.rng_digest() != digest:
        raise RuntimeError("path bundle mutated during strategy evaluation")

    mask = bundle.default_mask()
    result = ComparisonResult(
        active=cohort_report(ACTIVE_LABEL, wealth_active.terminal, mask),
        passive=cohort_report(PASSIVE_LABEL, wealth_passive.terminal, mask),
        n_default=int(mask.sum()),
        n_paths=cfg.paths.n_paths,
        rng_digest=digest,
        health={"kt_cases": _kt_cases(active, passive)},
    )
    _check_conservation(result)
    if out_dir:
        _emit(cfg, out_dir, {table: result.to_csv()},
              result.health, result.rng_digest, time.perf_counter() - t0)
    return result


def _check_conservation(result: ComparisonResult):
    for rep in (result.active, result.passive):
        n_def = rep.default.n if rep.default else 0
        n_no = rep.no_default.n if rep.no_default else 0
        if n_def + n_no != result.n_paths or n_def != result.n_default:
            raise RuntimeError("cohort sizes do not conserve the path count")


def run_comparison(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Active-versus-passive comparison under the log utility."""
    if cfg.utility != "log":
        raise ValueError("run_comparison is the log-utility experiment")
    return _log_comparison(cfg, out_dir, "comparison.csv")


def run_crisis(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Comparison with depressed initial prices and reciprocal hazard."""
    if not isinstance(cfg.intensity, ReciprocalIntensity):
        raise ValueError("crisis experiment requires the reciprocal intensity family")
    return _log_comparison(cfg, out_dir, "crisis.csv")


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
    if cfg.utility != "log":
        raise ValueError("run_sweep is specified for the log utility")
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    bench_bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    digest = bench_bundle.rng_digest()
    bench_strategy = make_log_strategy(problem, "state-dependent")
    bench_stats = summarize(evolve_wealth(bench_bundle, bench_strategy, cfg.x0).terminal)

    strategies = [bench_strategy]
    entries = []
    for entry in cfg.sweep_entries:
        market2, intensity2 = _apply_param_overrides(cfg.market, cfg.intensity, entry.set)
        problem2 = LogControlProblem(params=market2, intensity=intensity2, box=cfg.box)
        strategy2 = make_log_strategy(problem2, "state-dependent")
        if entry.mode == "misspecified-investor":
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
        _emit(cfg, out_dir, {"sweep.csv": result.to_csv()}, health, digest,
              time.perf_counter() - t0)
    return result


def run_power_comparison(cfg: ExperimentConfig, out_dir: str | None = None,
                         value_grid=None, value_grid_const=None) -> ComparisonResult:
    """Active-versus-passive comparison under the power utility.

    The active strategy extracts controls from the value grid solved with
    the price-dependent hazard; the passive one from a grid solved with
    the constant comparator.  Grids are solved from the config unless
    supplied.
    """
    if cfg.utility != "power":
        raise ValueError("run_power_comparison requires the power utility")
    t0 = time.perf_counter()
    gamma = cfg.gamma
    if value_grid is None:
        value_grid = solve_power_value(cfg.grid, cfg.market, cfg.intensity, gamma, cfg.box)
    if value_grid_const is None:
        value_grid_const = solve_power_value(cfg.grid, cfg.market,
                                             ConstantIntensity(cfg.hbar), gamma, cfg.box)
    active = make_power_strategy(value_grid, cfg.market, gamma, cfg.box)
    passive = make_power_strategy(value_grid_const, cfg.market, gamma, cfg.box)

    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    digest = bundle.rng_digest()
    wealth_active = evolve_wealth(bundle, active, cfg.x0)
    wealth_passive = evolve_wealth(bundle, passive, cfg.x0)
    if bundle.rng_digest() != digest:
        raise RuntimeError("path bundle mutated during strategy evaluation")

    mask = bundle.default_mask()
    result = ComparisonResult(
        active=cohort_report(ACTIVE_LABEL, wealth_active.terminal, mask),
        passive=cohort_report(PASSIVE_LABEL, wealth_passive.terminal, mask),
        n_default=int(mask.sum()),
        n_paths=cfg.paths.n_paths,
        rng_digest=digest,
        health={"out_of_domain": active.out_of_domain + passive.out_of_domain},
    )
    _check_conservation(result)
    if out_dir:
        _emit(cfg, out_dir, {"power_comparison.csv": result.to_csv()},
              result.health, digest, time.perf_counter() - t0)
    return result


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Dispatch on the config's experiment kind."""
    runner = {"compare": run_comparison, "sweep": run_sweep, "crisis": run_crisis,
              "power-compare": run_power_comparison}[cfg.kind]
    return runner(cfg, out_dir=out_dir)


def _emit(cfg: ExperimentConfig, out_dir: str, files: dict, health: dict,
          rng_digest: str, wall_time: float):
    """Write output CSVs plus a JSON manifest with content hashes."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    hashes = {}
    for name, text in files.items():
        data = text.encode()
        hashes[name] = "sha256:" + hashlib.sha256(data).hexdigest()
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    manifest = {
        "name": cfg.name,
        "kind": cfg.kind,
        "seed": cfg.paths.master_seed,
        "n_paths": cfg.paths.n_paths,
        "config": cfg.raw,
        "outputs": hashes,
        "rng_digest": rng_digest,
        "solver_health": health,
        "wall_time_s": round(wall_time, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
