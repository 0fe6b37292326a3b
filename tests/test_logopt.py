import numpy as np
import pytest

from contagionopt import logopt
from contagionopt.dynamics import PathConfig, evolve_wealth, simulate_paths
from contagionopt.logopt import (
    CASE_NAMES,
    LogControlProblem,
    LogStrategy,
    g_objective,
    single_survivor_formula,
    solve_kt,
    solve_kt_batch,
    solve_pre_default_control,
    solve_single_survivor_control,
)
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    DefaultState,
    MarketParams,
    eval_intensity,
    validate_box,
)

from test_model import benchmark_intensity, benchmark_params


def benchmark_problem(eps_a=0.01):
    return LogControlProblem(params=benchmark_params(),
                             intensity=benchmark_intensity(),
                             box=AdmissibleBox(lower=[-1.0, -1.0],
                                               upper=[0.5, 0.5], eps_a=eps_a))


def random_problem(rng, with_zero_hazard=False):
    """Random admissible two-stock problem plus a hazard pair."""
    r = rng.uniform(0.0, 0.06)
    mu = r + rng.uniform(-0.05, 0.15, size=2)
    sigma = rng.uniform(0.15, 0.6, size=2)
    rho = rng.uniform(-0.6, 0.6)
    loss_s, loss_p = rng.uniform(0.0, 0.6, size=2)
    params = MarketParams.two_stock(r, mu[0], mu[1], sigma[0], sigma[1],
                                    rho, loss_s, loss_p)
    lower = rng.uniform(-2.0, -0.2, size=2)
    upper = rng.uniform(0.1, 0.9, size=2)
    box = AdmissibleBox(lower=lower, upper=upper, eps_a=0.01)
    while not validate_box(box, params).ok:
        upper = 0.85 * upper
        box = AdmissibleBox(lower=lower, upper=upper, eps_a=0.01)
    if with_zero_hazard and rng.uniform() < 0.2:
        hazards = (0.0, 0.0)
    else:
        hazards = tuple(rng.uniform(0.0, 1.5, size=2))
    prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0), box=box)
    return prob, hazards


def g_reference(prob, hS, hP, piS, piP):
    """Independent term-by-term evaluation of the growth objective."""
    p = prob.params
    sS, sP = p.sigma
    rho = p.rho[0, 1]
    LS, LP = p.L[0, 1], p.L[1, 0]
    quad = 0.5 * (sS**2 * piS**2 + 2 * rho * sS * sP * piS * piP + sP**2 * piP**2)
    lin = (p.mu[0] - p.r) * piS + (p.mu[1] - p.r) * piP
    return (lin - quad + hS * np.log(1 - piS - LP * piP)
            + hP * np.log(1 - LS * piS - piP))


class TestGObjective:
    def test_zero_allocation_gives_zero(self):
        prob = benchmark_problem()
        assert g_objective(prob, 100.0, 100.0, [0.0, 0.0]) == 0.0

    def test_reduces_to_decoupled_merton_quadratics(self):
        params = benchmark_params()
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-1.0, -1.0], [0.5, 0.5]))
        pi = np.array([0.3, -0.4])
        want = sum((params.mu[i] - params.r) * pi[i] - 0.5 * params.sigma[i]**2 * pi[i]**2
                   for i in range(2))
        assert g_objective(prob, 50.0, 70.0, pi) == pytest.approx(want, rel=1e-14, abs=0)

    def test_matches_independent_arithmetic(self):
        prob = benchmark_problem()
        rng = np.random.default_rng(21)
        for _ in range(50):
            s, p = rng.uniform(5.0, 300.0, size=2)
            pi = rng.uniform([-1.0, -1.0], [0.5, 0.5])
            hS = eval_intensity(prob.intensity, 0, DefaultState((0, 0)), [s, p])
            hP = eval_intensity(prob.intensity, 1, DefaultState((0, 0)), [s, p])
            assert g_objective(prob, s, p, pi) == pytest.approx(
                g_reference(prob, hS, hP, pi[0], pi[1]), rel=1e-13, abs=0)

    def test_domain_error_outside_log_domain(self):
        prob = benchmark_problem()
        with pytest.raises(ValueError):
            g_objective(prob, 100.0, 100.0, [1.2, 0.5])


class TestPreDefaultControl:
    def test_merton_reduction_without_hazard(self):
        params = benchmark_params()
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-2.0, -2.0], [0.7, 0.7]))
        sol = solve_pre_default_control(prob, 100.0, 100.0)
        assert sol.case == "interior"
        assert sol.pi[0] == pytest.approx(0.05 / 0.09, abs=1e-10)
        assert sol.pi[1] == pytest.approx(0.10 / 0.16, abs=1e-10)

    def test_symmetric_problem_gives_symmetric_control(self):
        params = MarketParams.two_stock(0.04, 0.11, 0.11, 0.35, 0.35, 0.2, 0.25, 0.25)
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-1.5, -1.5], [0.6, 0.6]))
        sol = solve_kt(prob, 0.3, 0.3)
        assert sol.pi[0] == pytest.approx(sol.pi[1], abs=1e-10)

    def test_matches_brute_force_grid_argmax(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            prob, (hS, hP) = random_problem(rng, with_zero_hazard=True)
            sol = solve_kt(prob, hS, hP)
            lo, hi = prob.box.lower, prob.box.upper
            s = np.linspace(lo[0], hi[0], 401)
            p = np.linspace(lo[1], hi[1], 401)
            S, P = np.meshgrid(s, p, indexing="ij")
            vals = g_reference(prob, hS, hP, S, P)
            i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
            cell = (hi - lo) / 400.0
            assert abs(sol.pi[0] - S[i, j]) <= cell[0] + 1e-9
            assert abs(sol.pi[1] - P[i, j]) <= cell[1] + 1e-9
            assert sol.residual <= 1e-8

    def test_kkt_certificates(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            prob, (hS, hP) = random_problem(rng)
            sol = solve_kt(prob, hS, hP)
            assert sol.residual <= 1e-8
            assert np.all(sol.multipliers >= 0.0)
            lo, hi = prob.box.lower, prob.box.upper
            slack = np.array([sol.pi[0] - lo[0], hi[0] - sol.pi[0],
                              sol.pi[1] - lo[1], hi[1] - sol.pi[1]])
            assert np.all(slack >= -1e-12)
            assert np.all(np.abs(sol.multipliers * slack) <= 1e-8)

        # an edge solution that an enumeration of the nine KT cases with a
        # separate 1-D Newton per edge missed
        params = MarketParams.two_stock(
            0.013946156958952025, -0.013871287193438978, 0.05383877038014553,
            0.16813716119192837, 0.5858446762350805, -0.07268364703676788,
            0.21016068270669555, 0.5572990166623726)
        box = AdmissibleBox(lower=[-0.4553201521564927, -1.605270189086358],
                            upper=[0.16170069463173276, 0.6751137714530698])
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0), box=box)
        sol = solve_kt(prob, 1.2414559625003632, 0.5679453842716127)
        assert sol.case == "S-low"
        assert sol.pi[0] == box.lower[0]
        assert sol.multipliers[0] == pytest.approx(0.6223, abs=1e-4)
        assert np.all(sol.multipliers[1:] == 0.0)
        assert sol.residual <= 1e-12

    def test_probabilistic_optimality(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            prob, (hS, hP) = random_problem(rng)
            sol = solve_kt(prob, hS, hP)
            pis = rng.uniform(prob.box.lower, prob.box.upper, size=(10_000, 2))
            vals = g_reference(prob, hS, hP, pis[:, 0], pis[:, 1])
            best = g_reference(prob, hS, hP, sol.pi[0], sol.pi[1])
            assert best >= vals.max() - 1e-9

    def test_scaling_up_hazards_never_raises_interior_controls(self):
        rng = np.random.default_rng(25)
        done = 0
        while done < 40:
            prob, _ = random_problem(rng)
            if prob.params.rho[0, 1] < 0.0:
                continue  # claim is for nonnegatively correlated stocks
            hS, hP = rng.uniform(0.02, 0.8, size=2)
            lam = rng.uniform(1.2, 3.0)
            a = solve_kt(prob, hS, hP)
            b = solve_kt(prob, lam * hS, lam * hP)
            if a.case == "interior":
                assert b.pi[0] <= a.pi[0] + 1e-9
                assert b.pi[1] <= a.pi[1] + 1e-9
                done += 1

    def test_zero_volatility_market_still_solved(self):
        # no diffusion: G is concave purely through the hazard log terms
        params = MarketParams.two_stock(0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.3)
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.1),
                                 box=AdmissibleBox([-1.0, -1.0], [0.5, 0.5]))
        for hS, hP in ((0.1, 0.1), (0.8, 0.05), (0.0, 0.0)):
            sol = solve_kt(prob, hS, hP)
            lo, hi = prob.box.lower, prob.box.upper
            s = np.linspace(lo[0], hi[0], 401)
            p = np.linspace(lo[1], hi[1], 401)
            S, P = np.meshgrid(s, p, indexing="ij")
            vals = g_reference(prob, hS, hP, S, P)
            i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
            cell = (hi - lo) / 400.0
            assert abs(sol.pi[0] - S[i, j]) <= cell[0] + 1e-9
            assert abs(sol.pi[1] - P[i, j]) <= cell[1] + 1e-9

    def test_unconverged_row_raises_naming_its_hazards(self, monkeypatch):
        monkeypatch.setattr(logopt, "_MAX_ITER", 0)  # rows stay at the Merton start
        with pytest.raises(RuntimeError, match=r"\(0\.25, 0\.5\): residual"):
            solve_kt(benchmark_problem(), 0.25, 0.5)

    def test_batch_matches_scalar(self):
        prob = benchmark_problem()
        rng = np.random.default_rng(26)
        hS = rng.uniform(0.05, 1.0, size=40)
        hP = rng.uniform(0.05, 1.0, size=40)
        pi, case_id, mult, res = solve_kt_batch(prob, hS, hP)
        for k in range(40):
            sol = solve_kt(prob, hS[k], hP[k])
            assert np.array_equal(sol.pi, pi[k])


class TestSingleSurvivor:
    def test_zero_hazard_reduces_to_merton(self):
        assert single_survivor_formula(0.15, 0.4, 0.05, 0.0) == pytest.approx(
            0.10 / 0.16, abs=1e-12)

    def test_hazard_equal_excess_drift_gives_zero(self):
        assert abs(single_survivor_formula(0.15, 0.4, 0.05, 0.10)) <= 1e-12

    def test_clamped_to_box(self):
        prob = benchmark_problem()
        # enormous hazard drives the formula far below the lower bound
        state = DefaultState((1, 0))
        crisis = LogControlProblem(params=prob.params,
                                   intensity=ConstantIntensity(50.0),
                                   box=prob.box)
        assert solve_single_survivor_control(crisis, 10.0, state) == -1.0

    def test_uses_surviving_stock_parameters(self):
        prob = benchmark_problem()
        # stock P survives: post-default hazard is h(p, 0) = 10/(0.7 p)
        p = 40.0
        h = 10.0 / (0.7 * p)
        want = np.clip(single_survivor_formula(0.15, 0.40, 0.05, h), -1.0, 0.5)
        got = solve_single_survivor_control(prob, p, DefaultState((1, 0)))
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)
        with pytest.raises(ValueError):
            solve_single_survivor_control(prob, p, DefaultState((0, 0)))


class TestLogStrategy:
    def test_all_defaulted_gives_zero(self):
        strat = LogStrategy(benchmark_problem())
        pi = strat.allocation(0.0, 100.0, np.array([0.0, 0.0]), DefaultState((1, 1)))
        assert np.array_equal(pi, [0.0, 0.0])

    def test_fixed_mode_matches_state_dependent_at_equal_hazard(self):
        prob = benchmark_problem()
        state_dep = LogStrategy(prob)
        # at (60, 60) both weighted totals are 60, so both hazards are 10/60
        # and the comparator at that value feeds the solver identical inputs
        s, p = 60.0, 60.0
        hS = eval_intensity(prob.intensity, 0, DefaultState((0, 0)), [s, p])
        fixed = LogStrategy(prob, hbar=hS)
        hP = eval_intensity(prob.intensity, 1, DefaultState((0, 0)), [s, p])
        assert hS == hP
        a = state_dep.allocation(0.0, 100.0, np.array([s, p]), DefaultState((0, 0)))
        b = fixed.allocation(0.0, 100.0, np.array([s, p]), DefaultState((0, 0)))
        assert np.array_equal(a, b)

    def test_benchmark_initial_controls_coincide_with_hbar_point_one(self):
        # at (100, 100) the clamped power law evaluates to exactly 0.1
        prob = benchmark_problem()
        state_dep = LogStrategy(prob)
        fixed = LogStrategy(prob, hbar=0.1)
        s0 = np.array([100.0, 100.0])
        a = state_dep.allocation(0.0, 100.0, s0, DefaultState((0, 0)))
        b = fixed.allocation(0.0, 100.0, s0, DefaultState((0, 0)))
        assert np.array_equal(a, b)

    def test_mixed_state_batch(self):
        prob = benchmark_problem()
        strat = LogStrategy(prob)
        states = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        prices = np.array([[100.0, 100.0], [0.0, 80.0], [120.0, 0.0], [0.0, 0.0]])
        pi = strat.allocations(0.0, np.full(4, 100.0), prices, states)
        assert pi[1, 0] == 0.0 and pi[2, 1] == 0.0
        assert np.array_equal(pi[3], [0.0, 0.0])
        # pre-default row reproduces the scalar solver
        sol = solve_pre_default_control(prob, 100.0, 100.0)
        assert np.array_equal(pi[0], sol.pi)

    def test_passive_strategy_solves_its_constant_pair_once(self, monkeypatch):
        prob = benchmark_problem()
        cfg = PathConfig(horizon=1.0, n_steps=20, n_paths=400, master_seed=41)
        bundle = simulate_paths(prob.params, prob.intensity, cfg, [100.0, 100.0])
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_kt_batch(*args, **kwargs)

        monkeypatch.setattr(logopt, "solve_kt_batch", counting)
        strat = LogStrategy(prob, hbar=0.1)
        evolve_wealth(bundle, strat, 100.0)
        assert len(calls) <= 1
        # against the per-row solve of every pre-default path-step
        pre = (bundle.states[:, :-1] == 0).all(axis=2)
        n = int(pre.sum())
        _, case_id, _, _ = solve_kt_batch(prob, np.full(n, 0.1), np.full(n, 0.1))
        assert np.array_equal(strat.kt_cases, np.bincount(case_id, minlength=len(CASE_NAMES)))
        # after one default the constant, not the model hazard, enters the
        # single-survivor closed form
        post = [float(np.clip(single_survivor_formula(prob.params.mu[i], prob.params.sigma[i],
                                                      prob.params.r, 0.1), -1.0, 0.5))
                for i in (0, 1)]
        n_alone = 0
        for k in range(cfg.n_steps):
            states, prices = bundle.states[:, k], bundle.prices[:, k]
            rows = pre[:, k]
            pi_rows, _, _, _ = solve_kt_batch(prob, np.full(rows.sum(), 0.1),
                                              np.full(rows.sum(), 0.1))
            got = strat.allocations(k * cfg.dt, np.full(cfg.n_paths, 100.0), prices, states)
            assert np.array_equal(got[rows], pi_rows)
            for i in (0, 1):
                alone = (states[:, i] == 0) & (states[:, 1 - i] == 1)
                assert np.allclose(got[alone, i], post[i], rtol=1e-13, atol=0.0)
                assert np.all(got[alone, 1 - i] == 0.0)
                n_alone += int(alone.sum())
        assert n_alone > 0  # some rows took the single-survivor branch
