import numpy as np
import pytest

from contagionopt.dynamics import (
    ConstantAllocation,
    PathConfig,
    WealthBundle,
    dump_paths_csv,
    estimate_log_value,
    evolve_wealth,
    simulate_paths,
)
from contagionopt.model import AdmissibleBox, ConstantIntensity, MarketParams

from test_model import benchmark_intensity, benchmark_params

ZERO_H = ConstantIntensity(0.0)


def single_stock(mu=0.10, sigma=0.25, r=0.03):
    return MarketParams(r=r, mu=[mu], sigma=[sigma], rho=[[1.0]], L=[[1.0]])


class TestSimulatePaths:
    def test_deterministic_drift_no_hazard(self):
        params = MarketParams.two_stock(r=0.05, mu_s=0.05, mu_p=0.05, sigma_s=0.0,
                                        sigma_p=0.0, rho=0.0, loss_s=0.2, loss_p=0.3)
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=16, master_seed=1)
        bundle = simulate_paths(params, ZERO_H, cfg, [100.0, 100.0])
        assert not bundle.default_mask().any()
        assert np.allclose(bundle.prices[:, -1], 100.0 * np.exp(0.05), rtol=1e-12)

    def test_zero_intensity_never_defaults(self):
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=500, master_seed=2)
        bundle = simulate_paths(benchmark_params(), ZERO_H, cfg, [100.0, 100.0])
        assert not bundle.default_mask().any()
        assert np.all(bundle.default_step == -1)

    def test_default_fraction_matches_poisson_superposition(self):
        # two independent constant hazards 0.1 -> P(any default by 1) = 1 - e^-0.2
        cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=5000, master_seed=3)
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(0.1), cfg,
                                [100.0, 100.0])
        frac = bundle.default_mask().mean()
        p = 1.0 - np.exp(-0.2)
        se = np.sqrt(p * (1.0 - p) / cfg.n_paths)
        assert abs(frac - p) <= 3.0 * se

    def test_jump_bookkeeping_to_machine_precision(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=400, master_seed=4)
        bundle = simulate_paths(params, ConstantIntensity(1.0), cfg, [100.0, 100.0])
        dt = cfg.dt
        growth = np.exp((params.mu - 0.5 * params.sigma**2) * dt
                        + params.sigma * np.sqrt(dt) * bundle.normals)
        checked = 0
        for path, stock in zip(*np.nonzero(bundle.default_step >= 0)):
            k = bundle.default_step[path, stock]
            pre = bundle.prices[path, k] * growth[path, k]
            assert bundle.prices[path, k + 1, stock] == 0.0
            other = 1 - stock
            if bundle.states[path, k, other] == 0:
                expect = pre[other] * (1.0 - params.L[other, stock])
                assert bundle.prices[path, k + 1, other] == pytest.approx(expect, rel=1e-13, abs=0)
                checked += 1
        assert checked > 10

    def test_no_simultaneous_defaults(self):
        # huge hazard forces both clocks to cross in the first steps
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=300, master_seed=5)
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(30.0), cfg,
                                [100.0, 100.0])
        both = (bundle.default_step >= 0).all(axis=1)
        assert both.mean() > 0.9
        same_step = both & (bundle.default_step[:, 0] == bundle.default_step[:, 1])
        assert not same_step.any()

    def test_path_prefix_does_not_depend_on_path_count(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=0.5, n_steps=40, n_paths=2500, master_seed=6)
        full = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        for k in (1000, 1024, 1500):  # inside, at and across a simulation block edge
            part = simulate_paths(params, benchmark_intensity(),
                                  PathConfig(horizon=0.5, n_steps=40, n_paths=k,
                                             master_seed=6), [100.0, 100.0])
            for name in ("prices", "states", "normals", "clocks", "default_step"):
                a, b = getattr(full, name)[:k], getattr(part, name)
                assert a.tobytes() == b.tobytes(), (k, name)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            MarketParams.two_stock(0.05, 0.1, 0.15, 0.3, 0.4, 1.0 + 1e-9, 0.2, 0.3)


class TestEvolveWealth:
    def test_bank_account_is_exact(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=200, master_seed=7)
        bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        wealth = evolve_wealth(bundle, ConstantAllocation([0.0, 0.0]), x0=100.0)
        target = 100.0 * np.exp(params.r * 1.0)
        assert np.allclose(wealth.terminal, target, rtol=1e-12)

    def test_fully_invested_deterministic_single_stock(self):
        params = single_stock(mu=0.08, sigma=0.0)
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=8, master_seed=8)
        bundle = simulate_paths(params, ZERO_H, cfg, [50.0])
        wealth = evolve_wealth(bundle, ConstantAllocation([1.0]), x0=10.0)
        assert np.allclose(wealth.terminal, 10.0 * np.exp(0.08), rtol=1e-12)

    def test_default_step_wealth_ratio(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=300, master_seed=9)
        bundle = simulate_paths(params, ConstantIntensity(1.0), cfg, [100.0, 100.0])
        pi = np.array([0.3, 0.2])
        wealth = evolve_wealth(bundle, ConstantAllocation(pi), x0=100.0)
        dt = cfg.dt
        checked = 0
        for path in range(cfg.n_paths):
            steps = bundle.default_step[path]
            if (steps < 0).any() or steps[0] == steps[1]:
                continue
            first = int(steps.min())
            j = int(np.argmin(steps))
            if first > 0:
                quad = pi @ params.cov @ pi
                diffusion = (pi * params.sigma * bundle.normals[path, first]).sum() * np.sqrt(dt)
                diff_factor = np.exp((params.r + pi @ params.theta - 0.5 * quad) * dt
                                     + diffusion)
                jump = 1.0 - pi @ params.L[:, j]
                ratio = wealth.values[path, first + 1] / wealth.values[path, first]
                assert ratio == pytest.approx(diff_factor * jump, rel=1e-12, abs=0)
                checked += 1
        assert checked > 5

    def test_wealth_scales_linearly_in_x0(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=100, master_seed=10)
        bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        strat = ConstantAllocation([0.2, -0.3])
        w1 = evolve_wealth(bundle, strat, x0=100.0)
        w2 = evolve_wealth(bundle, strat, x0=200.0)
        assert np.array_equal(w2.values, 2.0 * w1.values)
        # second moment therefore scales exactly as x0^2
        m1 = np.mean(w1.terminal**2)
        m2 = np.mean(w2.terminal**2)
        assert np.isfinite(m1) and m2 == pytest.approx(4.0 * m1, rel=1e-15, abs=0)

    def test_defaulted_allocation_aborts(self):
        class Bad(ConstantAllocation):
            def allocations(self, t, x, prices, states):
                return np.broadcast_to(self.pi, prices.shape).copy()

        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=60, n_paths=200, master_seed=11)
        bundle = simulate_paths(params, ConstantIntensity(2.0), cfg, [100.0, 100.0])
        with pytest.raises(RuntimeError):
            evolve_wealth(bundle, Bad([0.3, 0.3]), x0=100.0)

    def test_box_violation_aborts(self):
        params = benchmark_params()
        box = AdmissibleBox(lower=[-0.1, -0.1], upper=[0.1, 0.1], eps_a=0.01)
        cfg = PathConfig(horizon=0.5, n_steps=10, n_paths=20, master_seed=12)
        bundle = simulate_paths(params, ZERO_H, cfg, [100.0, 100.0])
        strat = ConstantAllocation([0.3, 0.0], box=box)
        with pytest.raises(RuntimeError):
            evolve_wealth(bundle, strat, x0=100.0)


class TestEstimateLogValue:
    def test_bank_account_value_is_exact(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=64, master_seed=13)
        mean, se = estimate_log_value(params, benchmark_intensity(),
                                      ConstantAllocation([0.0, 0.0]), cfg,
                                      [100.0, 100.0], x0=100.0)
        assert mean == pytest.approx(np.log(100.0) + params.r, rel=1e-12, abs=0)
        assert se == pytest.approx(0.0, abs=1e-13)

    def test_merton_log_control_beats_alternatives_without_hazard(self):
        params = single_stock(mu=0.08, sigma=0.30, r=0.03)
        merton = (0.08 - 0.03) / 0.30**2  # 0.556, inside the unit-loss floor
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=4000, master_seed=14)
        best, se_best = estimate_log_value(params, ZERO_H, ConstantAllocation([merton]),
                                           cfg, [100.0], x0=100.0)
        for alt in (0.0, 0.5 * merton, 1.5 * merton, 0.99):
            other, se_other = estimate_log_value(params, ZERO_H,
                                                 ConstantAllocation([alt]), cfg,
                                                 [100.0], x0=100.0)
            assert best >= other - 3.0 * (se_best + se_other)

    def test_doubling_x0_shifts_by_log_two(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=500, master_seed=15)
        strat = ConstantAllocation([0.2, 0.1])
        m1, _ = estimate_log_value(params, benchmark_intensity(), strat, cfg,
                                   [100.0, 100.0], x0=100.0)
        m2, _ = estimate_log_value(params, benchmark_intensity(), strat, cfg,
                                   [100.0, 100.0], x0=200.0)
        assert m2 - m1 == pytest.approx(np.log(2.0), abs=1e-12)


class TestPathDump:
    def test_csv_roundtrip_columns(self, tmp_path):
        params = benchmark_params()
        cfg = PathConfig(horizon=0.2, n_steps=4, n_paths=3, master_seed=16)
        bundle = simulate_paths(params, ConstantIntensity(0.5), cfg, [100.0, 100.0])
        wealth = evolve_wealth(bundle, ConstantAllocation([0.1, 0.1]), x0=100.0)
        out = tmp_path / "paths.csv.gz"
        dump_paths_csv(bundle, wealth, str(out))
        import csv as _csv
        import gzip as _gzip
        with _gzip.open(out, "rt") as fh:
            rows = list(_csv.reader(fh))
        assert rows[0] == ["path_id", "step", "t", "S_1", "S_2", "z_bits", "X"]
        assert len(rows) == 1 + 3 * 5
        assert rows[1][2] == "0" and rows[1][5] == "00"
