"""Config-driven experiment runner.

Experiments are described by a JSON document with sections ``market``,
``intensity``, ``utility``, ``box``, ``paths``, ``experiment`` and, for
the power utility, ``grid``.  The runners reproduce the statistical
comparisons of active (price-dependent hazard) versus passive (constant
proxy hazard) strategies, the robustness sweeps, the depressed-initial-
price crisis comparison, and the power-utility comparison.

The experiment's ``kind`` picks its row of :data:`KINDS`, the one table
of experiment kinds: the utility the ``utility`` section must name, the
output table, the runner (which rejects a config of another kind) and
the kind-only keys the kind takes, of ``hbar``, ``gamma``, ``grid``,
``entries`` and ``sweep_mode``; a config naming one it does not take is
rejected.  The ``market`` (besides ``s0``), ``box``, ``paths``, ``grid``
and ``experiment`` sections and each sweep entry map onto their dataclass
fields by name (:func:`~contagionopt.model.from_section`): a field with a
default may be left out, an unknown or missing key raises ``ValueError``
naming it, and so does a value that is not the integer or number its
field takes; ``utility`` holds ``kind`` and, for the power
utility only, a ``gamma`` in (0, 1).  A sweep entry's ``set`` is a
partial config document, such as ``{"market": {"mu": [0.12, 0.15]}}``:
its ``market`` and ``intensity`` keys (but ``s0``) replace the document's
own, and the merged sections are read as the document's are.

Every comparison evaluates both strategies on one simulated path bundle
(common random numbers).  The bundle is read-only, so no strategy can
change the market the other sees, and it is digested once: the digest of
its Gaussian increments and exponential clocks goes into the manifest.
A sweep's misspecified investors share the benchmark's bundle the same
way.  Output CSVs are byte-identical for a given config and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from importlib import resources
from numbers import Real

import numpy as np

from contagionopt.dynamics import (PathConfig, _admissibility_error, _simulate_worlds,
                                   evolve_wealth, simulate_paths)
from contagionopt.logopt import CASE_NAMES, LogControlProblem, LogStrategy
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    ReciprocalIntensity,
    from_section,
    intensity_from_config,
)
from contagionopt.powergrid import (GridSpec, PowerGridStrategy, _check_gamma, solve_power_value,
                                   validate_cfl)
from contagionopt.stats import CSV_HEADER, cohort_report, csv_row, summarize

__all__ = [
    "KINDS",
    "Kind",
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
]

ACTIVE_LABEL = "h(S,P)"
PASSIVE_LABEL = "constant h"

SWEEP_MODES = ("misspecified-investor", "perturbed-world")

_NUMERIC = ("market", "intensity")  # the sections a sweep entry sets
_NUMBERS = (*_NUMERIC, "box")  # sections whose values, but ``family``, are numbers
_SECTIONS = (*_NUMBERS, "utility", "paths", "grid", "experiment", "set")


@dataclass(frozen=True)
class SweepEntry:
    """A sweep entry as written: its label and ``set``, a partial config document."""

    label: str
    set: dict


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
    entries: tuple = ()  # (label, LogControlProblem) of each sweep entry's merged sections
    grid: GridSpec | None = None
    raw: dict = None  # original document, echoed into the run manifest

    def __post_init__(self):
        kind = KINDS[self.kind]
        if self.kind == "crisis" and not isinstance(self.intensity, ReciprocalIntensity):
            raise ValueError("crisis experiment requires the reciprocal intensity family")
        if "gamma" in kind.keys:
            _check_gamma(self.gamma, "utility.gamma")
        for key, what in (("grid", "a grid section"), ("hbar", "a comparator hbar")):
            if key in kind.keys and getattr(self, key) is None:
                raise ValueError(f"{self.kind} requires {what}")
        if not 0.0 < self.x0 < np.inf:
            raise ValueError(f"experiment.x0 must be finite and > 0, not {self.x0!r}")
        if self.hbar is not None and not 0.0 <= self.hbar < np.inf:
            raise ValueError(f"experiment.hbar must be finite and >= 0, not {self.hbar!r}")
        if self.sweep_mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode: {self.sweep_mode!r}; have {list(SWEEP_MODES)}")


def _market_from_dict(m: dict) -> tuple[MarketParams, np.ndarray]:
    """The ``market`` section: ``MarketParams`` fields and ``s0``."""
    fields = dict(m)
    s0 = np.asarray(fields.pop("s0"), dtype=float)
    rho = fields.get("rho")
    if np.isscalar(rho):
        fields["rho"] = [[1.0, rho], [rho, 1.0]]
    params = from_section(MarketParams, fields, "market")
    if s0.shape != (params.n,):
        raise ValueError("s0 length must match mu")
    return params, s0


def config_from_dict(doc: dict, seed: int | None = None,
                     n_paths: int | None = None) -> ExperimentConfig:
    """Build a validated config; ``seed``/``n_paths`` override the document.

    A missing key or a bad value (:func:`_check_values`) raises ``ValueError`` naming it.
    """
    _check_values(doc, "")
    try:
        return _config(doc, seed, n_paths)
    except KeyError as exc:  # every subscript in _config reads a required key
        raise ValueError(f"config is missing the required key {exc.args[0]!r}") from None


def _check_values(node, path: str, numeric: bool = False):
    """Raise ``ValueError`` naming the key path, such as ``market.mu[0]``, of the
    first bad value in config document ``node``: a section that is not an object,
    ``experiment.entries`` that is not a list of objects, a ``market``,
    ``intensity`` or ``box`` value (a sweep entry's too) other than ``family``
    that is not a number (a bool is not one) or a list of numbers, or a NaN or
    inf.  With ``numeric``, ``node`` itself must be a number or a list of
    numbers.  The scalar values of the other sections are typed by
    :func:`~contagionopt.model.from_section`, after their keys."""
    if isinstance(node, dict) and not numeric:
        for key, value in node.items():
            at = f"{path}.{key}" if path else str(key)
            if key in _SECTIONS and not isinstance(value, dict):
                raise ValueError(f"{at} must be an object, not {value!r}")
            if at == "experiment.entries" and not (
                    isinstance(value, (list, tuple)) and all(isinstance(e, dict) for e in value)):
                raise ValueError(f"{at} must be a list of objects, not {value!r}")
            if key in _NUMBERS:
                for name, v in value.items():
                    _check_values(v, f"{at}.{name}", name != "family")
            else:
                _check_values(value, at)
    elif isinstance(node, (list, tuple)):
        for k, value in enumerate(node):
            _check_values(value, f"{path}[{k}]", numeric)
    elif numeric and (isinstance(node, bool) or not isinstance(node, Real)):
        raise ValueError(f"{path} must be a number, not {node!r}")
    elif isinstance(node, float) and not np.isfinite(node):
        raise ValueError(f"{path} must be a finite number, not {node}")


def _intensity(section: dict, market: MarketParams):
    """The intensity model of an ``intensity`` section, whose ``weights``, if
    its family has them, must hold one weight per stock of ``market``."""
    intensity = intensity_from_config(section)
    weights = getattr(intensity, "weights", None)
    if weights is not None and len(weights) != market.n:
        raise ValueError(f"intensity.weights must hold one weight per stock ({market.n}), "
                         f"not {list(weights)}")
    return intensity


def _config(doc: dict, seed: int | None, n_paths: int | None) -> ExperimentConfig:
    market, s0 = _market_from_dict(doc["market"])
    utility = doc["utility"]
    unknown = sorted(utility.keys() - {"kind", "gamma"})
    if unknown:
        raise ValueError(f"utility: unknown keys {unknown}")
    overrides = {k: v for k, v in (("n_paths", n_paths), ("master_seed", seed)) if v is not None}
    paths = from_section(PathConfig, {**doc["paths"], **overrides}, "paths")
    exp = doc["experiment"]
    name = exp["kind"]
    if not isinstance(name, str) or name not in KINDS:
        raise ValueError(f"unknown experiment kind: {name!r}; have {list(KINDS)}")
    kind = KINDS[name]
    if utility["kind"] != kind.utility:
        raise ValueError(f"a {name!r} experiment takes the {kind.utility!r} utility, "
                         f"not {utility['kind']!r}")
    # each kind-only key, in the section that holds it
    held = {"hbar": exp, "gamma": utility, "grid": doc, "entries": exp, "sweep_mode": exp}
    foreign = [key for key, section in held.items() if key in section and key not in kind.keys]
    if foreign:
        raise ValueError(f"a {name!r} experiment does not take {foreign}")
    grid = (from_section(GridSpec, doc["grid"], "grid", horizon=paths.horizon)
            if "grid" in doc else None)
    intensity = _intensity(doc["intensity"], market)
    box = from_section(AdmissibleBox, doc["box"], "box")
    entries = tuple(_sweep_row(doc, box, from_section(SweepEntry, e, f"sweep entry {i}"))
                    for i, e in enumerate(exp.get("entries", ())))
    return from_section(
        ExperimentConfig, {**exp, "entries": entries}, "experiment",
        name=doc.get("name", "unnamed"),
        market=market,
        s0=s0,
        intensity=intensity,
        box=box,
        paths=paths,
        gamma=utility.get("gamma"),
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


def _sweep_row(doc: dict, box: AdmissibleBox, entry: SweepEntry) -> tuple:
    """The ``(label, LogControlProblem)`` row of a sweep entry: the document's
    ``market`` and ``intensity`` sections with the keys the entry sets."""
    part = entry.set
    try:
        foreign = sorted({*part} - {*_NUMERIC}) + sorted({"s0"} & part.get("market", {}).keys())
        if foreign:
            raise ValueError(f"can set only market (not s0) and intensity keys, not {foreign}")
        market, _ = _market_from_dict({**doc["market"], **part.get("market", {})})
        intensity = _intensity({**doc["intensity"], **part.get("intensity", {})}, market)
        return entry.label, LogControlProblem(params=market, intensity=intensity, box=box)
    except ValueError as exc:
        raise ValueError(f"sweep entry {entry.label!r}: {exc}") from None


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


def _log_health(*strategies) -> dict:
    """Solver health of log strategies: their summed Kuhn-Tucker case
    counts, keyed by case name, and their Newton work."""
    counts = sum(s.kt_cases for s in strategies)
    newton = [s.kt_newton_iters for s in strategies]
    return {"kt_cases": {name: int(n) for name, n in zip(CASE_NAMES, counts)},
            "kt_newton_iters": {"rows": sum(c["rows"] for c in newton),
                                "total": sum(c["total"] for c in newton),
                                "max": max(c["max"] for c in newton)}}


def _require_kind(cfg: ExperimentConfig, kind: str):
    if cfg.kind != kind:
        raise ValueError(f"config {cfg.name!r} is a {cfg.kind!r} experiment, not {kind!r}")


def _compare(cfg: ExperimentConfig, out_dir: str | None, t0: float,
             active, passive, health) -> ComparisonResult:
    """Evolve ``active`` and ``passive`` on one replay of one simulated path
    bundle and tabulate both by default cohort; ``health(active, passive)``
    gives the manifest's solver-health section, and ``t0`` is when the run
    began."""
    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    mask = bundle.default_mask()
    active_x, passive_x = evolve_wealth(bundle, (active, passive), cfg.x0)
    result = ComparisonResult(
        active=cohort_report(ACTIVE_LABEL, active_x, mask),
        passive=cohort_report(PASSIVE_LABEL, passive_x, mask),
        n_default=int(mask.sum()),
        n_paths=cfg.paths.n_paths,
        rng_digest=bundle.rng_digest(),
        health=health(active, passive),
    )
    if out_dir:
        _emit(cfg, out_dir, result, time.perf_counter() - t0)
    return result


def _log_comparison(cfg: ExperimentConfig, out_dir: str | None, kind: str) -> ComparisonResult:
    """Active-versus-passive log-utility comparison of a ``kind`` config."""
    _require_kind(cfg, kind)
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    return _compare(cfg, out_dir, t0, LogStrategy(problem),
                    LogStrategy(problem, hbar=cfg.hbar), _log_health)


def run_comparison(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Active-versus-passive comparison under the log utility."""
    return _log_comparison(cfg, out_dir, "compare")


def run_crisis(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonResult:
    """Comparison with depressed initial prices and reciprocal hazard."""
    return _log_comparison(cfg, out_dir, "crisis")


@dataclass
class SweepResult:
    """Benchmark row plus one ``(label, SampleStats)`` row per sweep entry."""

    benchmark: object  # SampleStats
    entries: tuple     # (label, SampleStats)
    rng_digest: str
    health: dict

    def to_csv(self) -> str:
        lines = ["label,n,mean,mean_pct,std,std_pct,q023,q023_pct,q977,q977_pct"]
        b = self.benchmark
        for k, (label, s) in enumerate((("benchmark", b), *self.entries)):
            cells = [label, str(s.n)]
            for value, base in ((s.mean, b.mean), (s.std, b.std), (s.q_low, b.q_low),
                                (s.q_high, b.q_high)):
                pct = f"({100.0 * (value - base) / base + 0.0:.2f}%)" if k else ""
                cells += [f"{value:.6g}", pct]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> SweepResult:
    """Robustness sweep of the active strategy's terminal-wealth statistics.

    Each ``(label, problem)`` row of ``cfg.entries`` was built when the config
    loaded.  In ``misspecified-investor`` mode only the investor's solver sees
    its problem, and all investors step on one replay of one bundle; in
    ``perturbed-world`` mode the world is the problem's too, simulated on the
    benchmark's random numbers, drawn once.  The benchmark row always uses
    the config's own values, and the digest is the benchmark bundle's.  At
    most one world's bundle is held beside the shared draws: each is freed
    before the next world is simulated.
    """
    _require_kind(cfg, "sweep")
    t0 = time.perf_counter()
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    strategies = [LogStrategy(p) for p in (problem, *(p for _, p in cfg.entries))]
    perturbed = cfg.sweep_mode == "perturbed-world"
    groups = [[s] for s in strategies] if perturbed else [strategies]
    bundles = _simulate_worlds([(g[0].problem.params, g[0].problem.intensity) for g in groups],
                               cfg.paths, cfg.s0)
    bundle = next(bundles)
    rng_digest = bundle.rng_digest()
    stats = []
    for k, group in enumerate(groups):
        if k:
            bundle = None  # free the last world before the next one is built
            bundle = next(bundles)
        stats += [summarize(x) for x in evolve_wealth(bundle, group, cfg.x0)]

    result = SweepResult(benchmark=stats[0],
                         entries=tuple(zip((label for label, _ in cfg.entries), stats[1:])),
                         rng_digest=rng_digest, health=_log_health(*strategies))
    if out_dir:
        _emit(cfg, out_dir, result, time.perf_counter() - t0)
    return result


def run_power_comparison(cfg: ExperimentConfig, out_dir: str | None = None,
                         value_grid=None, value_grid_const=None) -> ComparisonResult:
    """Active-versus-passive comparison under the power utility.

    The active strategy extracts controls from the value grid solved with
    the price-dependent hazard; the passive one from a grid solved with
    the constant comparator.  Grids are solved from the config unless
    supplied; a supplied grid must have been solved for the config's
    ``gamma`` and grid, with controls that pass the evolve's admissibility
    check in ``cfg.box`` before any default, or ``ValueError`` is raised.  A
    grid solved here is freed, but for its controls, before the paths are
    simulated; a supplied grid stays the caller's, unchanged.
    """
    _require_kind(cfg, "power-compare")
    t0 = time.perf_counter()
    gamma = cfg.gamma
    alive = np.zeros((1, 2), dtype=np.uint8)
    for side, vg in (("active", value_grid), ("passive", value_grid_const)):
        if vg is not None and (vg.gamma != gamma or vg.grid != cfg.grid):
            raise ValueError(f"value grid solved for gamma {vg.gamma} on {vg.grid} does not "
                             f"match the config's gamma {gamma} on {cfg.grid}")
        # a slice at a time: reshaping a one-node grid's broadcast view copies it
        for k, pi in enumerate(() if vg is None else vg.controls):
            if error := _admissibility_error(pi.reshape(-1, 2), alive, cfg.market.L, cfg.box, k):
                raise ValueError(f"{side} value grid (slices as steps, nodes as paths): {error}")

    def strategy(vg, intensity):
        # no name keeps a grid solved here, so its f is freed on return
        if vg is None:
            vg = solve_power_value(cfg.grid, cfg.market, intensity, gamma, cfg.box)
        return PowerGridStrategy(vg, cfg.market, cfg.box)

    def health(active, passive):
        queries = active.pre_default_queries + passive.pre_default_queries
        return {
            "cfl_margin": validate_cfl(cfg.grid, cfg.market, gamma, cfg.box),
            "out_of_domain_frac": (active.out_of_domain + passive.out_of_domain)
                                  / max(queries, 1),
        }

    return _compare(cfg, out_dir, t0, strategy(value_grid, cfg.intensity),
                    strategy(value_grid_const, ConstantIntensity(cfg.hbar)), health)


@dataclass(frozen=True)
class Kind:
    """A row of :data:`KINDS`; a kind requires each of ``hbar``, ``gamma``
    and ``grid`` that it takes."""

    utility: str
    table: str
    runner: object
    keys: tuple


KINDS = {
    "compare": Kind("log", "comparison.csv", run_comparison, ("hbar",)),
    "crisis": Kind("log", "crisis.csv", run_crisis, ("hbar",)),
    "sweep": Kind("log", "sweep.csv", run_sweep, ("entries", "sweep_mode")),
    "power-compare": Kind("power", "power_comparison.csv", run_power_comparison,
                          ("hbar", "gamma", "grid")),
}


def _emit(cfg: ExperimentConfig, out_dir: str, result, wall_time: float):
    """Write the result's CSV table plus a JSON manifest with its content hash."""
    os.makedirs(out_dir, exist_ok=True)
    name = KINDS[cfg.kind].table
    data = result.to_csv().encode()
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(data)
    manifest = {
        "name": cfg.name,
        "kind": cfg.kind,
        "seed": cfg.paths.master_seed,
        "n_paths": cfg.paths.n_paths,
        "config": cfg.raw,
        "outputs": {name: "sha256:" + hashlib.sha256(data).hexdigest()},
        "rng_digest": result.rng_digest,
        "solver_health": result.health,
        "wall_time_s": round(wall_time, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
