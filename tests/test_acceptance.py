"""End-to-end acceptance gate.

Each test enforces one advertised guarantee at its stated tolerance and
runtime budget and prints a PASS/FAIL line (run with ``pytest -v -s``).
"""

import time

import numpy as np
import pytest

from contagionopt.dynamics import ConstantAllocation, PathConfig, evolve_wealth, simulate_paths
from contagionopt.experiments import builtin_config, config_from_dict, run_comparison, run_crisis, run_sweep
from contagionopt.logopt import make_log_strategy, single_survivor_formula, solve_kt
from contagionopt.model import AdmissibleBox, ConstantIntensity, DefaultState, MarketParams
from contagionopt.powergrid import GridSpec, control_lattice, solve_power_value, transition_probs

from test_experiments import base_doc
from test_logopt import g_reference, random_problem
from test_model import benchmark_params


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_transition_probability_normalization():
    t0 = time.perf_counter()
    params = benchmark_params()
    grid = GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)
    rng = np.random.default_rng(101)
    n = 100_000
    s = rng.uniform(0.0, grid.s_max, n)
    p = rng.uniform(0.0, grid.p_max, n)
    piS = rng.uniform(-1.0, 1.0, n)
    piP = rng.uniform(-1.0, 1.0, n)
    probs = transition_probs((s, p), (piS, piP), grid, params, 0.5)
    in_range = bool(np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12))
    sum_err = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = in_range and sum_err <= 1e-12 and elapsed < 5.0
    _report("transition-probability normalization", ok,
            f"{n} node/control pairs, max |sum-1| = {sum_err:.2e}, "
            f"in [0,1]: {in_range}, {elapsed:.2f}s (< 5s)")


def test_02_dp_closed_form_oracle_without_hazard():
    t0 = time.perf_counter()
    params = benchmark_params()
    box = AdmissibleBox(lower=[-1.0, -1.0], upper=[1.0, 1.0], eps_a=0.01)
    gamma = 0.5
    grid = GridSpec(horizon=1.0, delta=1.0, dt=0.01, s_max=12.0, p_max=12.0,
                    n_control=41)
    vg = solve_power_value(grid, params, ConstantIntensity(0.0), gamma, box)
    lattice = control_lattice(box, params.L, grid.n_control)
    growth = (params.r * gamma + gamma * lattice @ params.theta
              - 0.5 * gamma * (1 - gamma)
              * np.einsum("ij,jk,ik->i", lattice, params.cov, lattice))
    best = growth.max()
    worst = 0.0
    for k in range(grid.n_slices + 1):
        want = np.exp(best * (grid.horizon - k * grid.dt))
        inner = vg.f[k][1:-1, 1:-1]
        worst = max(worst, float(np.max(np.abs(inner / want - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 120.0
    _report("dynamic-programming closed-form oracle (h=0)", ok,
            f"max relative error at interior nodes {worst:.2e} (< 1e-2), "
            f"{elapsed:.1f}s (< 120s)")


def test_03_kt_solver_matches_brute_force_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_cells = 0.0
    worst_res = 0.0
    for _ in range(100):
        prob, (hS, hP) = random_problem(rng, with_zero_hazard=True)
        sol = solve_kt(prob, hS, hP)
        lo, hi = prob.box.lower, prob.box.upper
        s = np.linspace(lo[0], hi[0], 401)
        p = np.linspace(lo[1], hi[1], 401)
        S, P = np.meshgrid(s, p, indexing="ij")
        vals = g_reference(prob, hS, hP, S, P)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        cell = (hi - lo) / 400.0
        worst_cells = max(worst_cells,
                          abs(sol.pi[0] - S[i, j]) / cell[0],
                          abs(sol.pi[1] - P[i, j]) / cell[1])
        worst_res = max(worst_res, sol.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_cells <= 1.0 + 1e-6 and worst_res <= 1e-8 and elapsed < 60.0
    _report("pointwise control vs 401x401 grid argmax", ok,
            f"100 random problems, worst offset {worst_cells:.3f} cells (<= 1), "
            f"worst KKT residual {worst_res:.1e} (<= 1e-8), "
            f"{elapsed:.1f}s (< 60s)")


def test_04_single_survivor_closed_form_reductions():
    mu, sigma, r = 0.15, 0.40, 0.05
    merton = single_survivor_formula(mu, sigma, r, 0.0)
    err_merton = abs(merton - (mu - r) / sigma**2)
    zero = abs(single_survivor_formula(mu, sigma, r, mu - r))
    # a second parameter set, premium above the variance
    mu2, sigma2 = 0.30, 0.25
    err2 = abs(single_survivor_formula(mu2, sigma2, r, mu2 - r))
    ok = err_merton <= 1e-12 and zero <= 1e-12 and err2 <= 1e-12
    _report("single-survivor closed-form reductions", ok,
            f"|pi(h=0) - merton| = {err_merton:.1e}, |pi(h=mu-r)| = "
            f"{max(zero, err2):.1e} (both <= 1e-12)")


def test_05_default_frequency_oracle():
    t0 = time.perf_counter()
    cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=10_000, master_seed=105)
    bundle = simulate_paths(benchmark_params(), ConstantIntensity(0.1), cfg,
                            [100.0, 100.0])
    frac = float(bundle.default_mask().mean())
    p = 1.0 - np.exp(-0.2)
    se = np.sqrt(p * (1.0 - p) / cfg.n_paths)
    elapsed = time.perf_counter() - t0
    ok = abs(frac - p) <= 3.0 * se and elapsed < 30.0
    _report("default-frequency oracle", ok,
            f"fraction {frac:.4f} vs {p:.4f} +- {3*se:.4f} (3 s.e.), "
            f"{elapsed:.1f}s (< 30s)")


def test_06_bank_account_exactness():
    params = benchmark_params()
    cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=2_000, master_seed=106)
    from test_model import benchmark_intensity
    bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
    wealth = evolve_wealth(bundle, ConstantAllocation([0.0, 0.0]), x0=100.0)
    target = 100.0 * np.exp(params.r * cfg.horizon)
    worst = float(np.max(np.abs(wealth.terminal / target - 1.0)))
    ok = worst <= 1e-12
    _report("bank-account exactness", ok,
            f"max relative error {worst:.2e} over every path (<= 1e-12)")


def test_07_benchmark_comparison_pattern():
    t0 = time.perf_counter()
    cfg = builtin_config("benchmark-inferred")
    assert cfg.paths.n_paths == 10_000
    result = run_comparison(cfg)

    from contagionopt.logopt import LogControlProblem
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity,
                                box=cfg.box)
    active = make_log_strategy(problem, "state-dependent")
    passive = make_log_strategy(problem, "fixed-intensity", hbar=cfg.hbar)
    s0 = np.asarray(cfg.s0, dtype=float)
    pi_a = active.allocation(0.0, cfg.x0, s0, DefaultState((0, 0)))
    pi_p = passive.allocation(0.0, cfg.x0, s0, DefaultState((0, 0)))
    controls_equal = bool(np.array_equal(pi_a, pi_p))

    elapsed = time.perf_counter() - t0
    mean_ok = result.active.all.mean >= result.passive.all.mean
    std_ok = result.active.all.std >= result.passive.all.std
    ok = mean_ok and std_ok and controls_equal and elapsed < 300.0
    _report("benchmark active-vs-passive dominance", ok,
            f"mean {result.active.all.mean:.2f} >= {result.passive.all.mean:.2f}: "
            f"{mean_ok}; std {result.active.all.std:.2f} >= "
            f"{result.passive.all.std:.2f}: {std_ok}; initial controls equal: "
            f"{controls_equal}; {elapsed:.0f}s (< 300s)")


def test_08_crisis_band_and_cohort_ordering():
    t0 = time.perf_counter()
    cfg = builtin_config("crisis-reciprocal")
    assert cfg.paths.n_paths == 10_000
    result = run_crisis(cfg)
    frac = result.n_default / result.n_paths
    band_ok = abs(frac - 0.8542) <= 0.05
    default_ok = result.active.default.mean > result.passive.default.mean
    no_default_ok = result.active.no_default.mean < result.passive.no_default.mean
    elapsed = time.perf_counter() - t0
    ok = band_ok and default_ok and no_default_ok and elapsed < 300.0
    _report("crisis default band and cohort ordering", ok,
            f"default fraction {frac:.4f} in 0.8542 +- 0.05: {band_ok}; "
            f"Default cohort {result.active.default.mean:.1f} > "
            f"{result.passive.default.mean:.1f}: {default_ok}; No-default "
            f"{result.active.no_default.mean:.1f} < "
            f"{result.passive.no_default.mean:.1f}: {no_default_ok}; "
            f"{elapsed:.0f}s (< 300s)")


def test_09_noop_sweep_reports_exact_zeros():
    doc = base_doc()
    doc["paths"]["n_paths"] = 500
    doc["experiment"] = {
        "kind": "sweep", "x0": 100.0, "sweep_mode": "misspecified-investor",
        "entries": [{"label": "noop", "set": {"h0": 10.0, "k1": 0.7, "k2": 0.3}}],
    }
    result = run_sweep(config_from_dict(doc))
    _, stats, pct = result.entries[0]
    ok = all(v == "(0.00%)" for v in pct.values()) and stats == result.benchmark
    _report("no-op sweep reports exact zero deltas", ok,
            f"pct columns = {sorted(set(pct.values()))}")


def test_10_rerun_determinism(tmp_path):
    doc = base_doc()
    doc["paths"]["n_paths"] = 2500
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_comparison(config_from_dict(doc), out_dir=str(out))
        outputs.append((out / "comparison.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _report("re-run determinism", ok,
            f"CSV bytes identical across two runs of one config: {ok}")
