import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagionopt import logopt
from contagionopt.dynamics import PathConfig, Strategy, evolve_wealth, simulate_paths
from contagionopt.logopt import (
    CASE_NAMES,
    LogControlProblem,
    LogStrategy,
    single_survivor_formula,
    solve_kt_batch,
)
from contagionopt.model import AdmissibleBox, ConstantIntensity, MarketParams, validate_box

from test_dynamics import one_row, price_history, state_bits, traced_peak, wealth_paths
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
    while validate_box(box, params) < 0.0:
        upper = 0.85 * upper
        box = AdmissibleBox(lower=lower, upper=upper, eps_a=0.01)
    if with_zero_hazard and rng.uniform() < 0.2:
        hazards = (0.0, 0.0)
    else:
        hazards = tuple(rng.uniform(0.0, 1.5, size=2))
    prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0), box=box)
    return prob, hazards


def pre_default_hazards(prob, s, p):
    """``(h_S, h_P)`` at prices ``(s, p)`` with neither stock defaulted."""
    rates = prob.intensity.rates_matrix(np.zeros((1, 2), dtype=np.uint8), np.array([[s, p]]))
    return rates[0, 0], rates[0, 1]


def solve_one(prob, hS, hP):
    """One hazard pair through the batch solver."""
    pi, case_id, mult, res, _ = solve_kt_batch(prob, [hS], [hP])
    return SimpleNamespace(pi=pi[0], case=CASE_NAMES[case_id[0]], multipliers=mult[0],
                           residual=float(res[0]))


def g_value(prob, hS, hP, pi):
    """The solver's own G at one allocation."""
    return float(logopt._g(prob.market, hS, hP, pi[0], pi[1]))


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
        hS, hP = pre_default_hazards(prob, 100.0, 100.0)
        assert g_value(prob, hS, hP, [0.0, 0.0]) == 0.0

    def test_reduces_to_decoupled_merton_quadratics(self):
        params = benchmark_params()
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-1.0, -1.0], [0.5, 0.5]))
        pi = np.array([0.3, -0.4])
        want = sum((params.mu[i] - params.r) * pi[i] - 0.5 * params.sigma[i]**2 * pi[i]**2
                   for i in range(2))
        hS, hP = pre_default_hazards(prob, 50.0, 70.0)
        assert g_value(prob, hS, hP, pi) == pytest.approx(want, rel=1e-14, abs=0)

    def test_matches_independent_arithmetic(self):
        prob = benchmark_problem()
        rng = np.random.default_rng(21)
        for _ in range(50):
            s, p = rng.uniform(5.0, 300.0, size=2)
            pi = rng.uniform([-1.0, -1.0], [0.5, 0.5])
            hS, hP = pre_default_hazards(prob, s, p)
            assert g_value(prob, hS, hP, pi) == pytest.approx(
                g_reference(prob, hS, hP, pi[0], pi[1]), rel=1e-13, abs=0)


class TestPreDefaultControl:
    def test_merton_reduction_without_hazard(self):
        params = benchmark_params()
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-2.0, -2.0], [0.7, 0.7]))
        sol = solve_one(prob, *pre_default_hazards(prob, 100.0, 100.0))
        assert sol.case == "interior"
        assert sol.pi[0] == pytest.approx(0.05 / 0.09, abs=1e-10)
        assert sol.pi[1] == pytest.approx(0.10 / 0.16, abs=1e-10)

    def test_symmetric_problem_gives_symmetric_control(self):
        params = MarketParams.two_stock(0.04, 0.11, 0.11, 0.35, 0.35, 0.2, 0.25, 0.25)
        prob = LogControlProblem(params=params, intensity=ConstantIntensity(0.0),
                                 box=AdmissibleBox([-1.5, -1.5], [0.6, 0.6]))
        sol = solve_one(prob, 0.3, 0.3)
        assert sol.pi[0] == pytest.approx(sol.pi[1], abs=1e-10)

    def test_matches_brute_force_grid_argmax(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            prob, (hS, hP) = random_problem(rng, with_zero_hazard=True)
            sol = solve_one(prob, hS, hP)
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
            sol = solve_one(prob, hS, hP)
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
        sol = solve_one(prob, 1.2414559625003632, 0.5679453842716127)
        assert sol.case == "S-low"
        assert sol.pi[0] == box.lower[0]
        assert sol.multipliers[0] == pytest.approx(0.6223, abs=1e-4)
        assert np.all(sol.multipliers[1:] == 0.0)
        assert sol.residual <= 1e-12

    def test_probabilistic_optimality(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            prob, (hS, hP) = random_problem(rng)
            sol = solve_one(prob, hS, hP)
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
            a = solve_one(prob, hS, hP)
            b = solve_one(prob, lam * hS, lam * hP)
            if a.case == "interior":
                assert b.pi[0] <= a.pi[0] + 1e-9
                assert b.pi[1] <= a.pi[1] + 1e-9
                done += 1

    def test_zero_volatility_rejected(self):
        for sigma, name in (((0.0, 0.4), "S"), ((0.3, 0.0), "P")):
            params = MarketParams.two_stock(0.05, 0.10, 0.15, *sigma, 0.0, 0.2, 0.3)
            with pytest.raises(ValueError, match=f"stock {name} has volatility 0; "):
                LogControlProblem(params=params, intensity=ConstantIntensity(0.1),
                                  box=AdmissibleBox([-1.0, -1.0], [0.5, 0.5]))

    def test_unconverged_row_raises_naming_its_hazards(self, monkeypatch):
        monkeypatch.setattr(logopt, "_MAX_ITER", 0)  # rows stay at the Merton start
        with pytest.raises(RuntimeError, match=r"\(0\.25, 0\.5\): residual"):
            solve_one(benchmark_problem(), 0.25, 0.5)

    def test_batch_matches_scalar(self):
        prob = benchmark_problem()
        rng = np.random.default_rng(26)
        hS = rng.uniform(0.05, 1.0, size=40)
        hP = rng.uniform(0.05, 1.0, size=40)
        pi, case_id, mult, res, _ = solve_kt_batch(prob, hS, hP)
        for k in range(40):  # a row's control does not depend on the rest of its batch
            sol = solve_one(prob, hS[k], hP[k])
            assert np.array_equal(sol.pi, pi[k])

    def test_hazard_arrays_of_different_shape_rejected(self):
        with pytest.raises(ValueError, match=r"h_S \(2,\), h_P \(3,\)"):
            solve_kt_batch(benchmark_problem(), [0.1, 0.2], [0.1, 0.2, 0.3])


class TestSingleSurvivor:
    def test_zero_hazard_reduces_to_merton(self):
        assert single_survivor_formula(0.15, 0.4, 0.05, 0.0) == pytest.approx(
            0.10 / 0.16, abs=1e-12)

    def test_hazard_equal_excess_drift_gives_zero(self):
        assert abs(single_survivor_formula(0.15, 0.4, 0.05, 0.10)) <= 1e-12

    def test_clamped_to_box(self):
        prob = benchmark_problem()
        # enormous hazard drives the formula far below the lower bound
        crisis = LogControlProblem(params=prob.params,
                                   intensity=ConstantIntensity(50.0),
                                   box=prob.box)
        pi = one_row(LogStrategy(crisis), 0.0, 100.0, np.array([0.0, 10.0]), (1, 0))
        assert np.array_equal(pi, [0.0, -1.0])

    def test_uses_surviving_stock_parameters(self):
        prob = benchmark_problem()
        # stock P survives: post-default hazard is h(p, 0) = 10/(0.7 p)
        p = 40.0
        h = 10.0 / (0.7 * p)
        want = np.clip(single_survivor_formula(0.15, 0.40, 0.05, h), -1.0, 0.5)
        got = one_row(LogStrategy(prob), 0.0, 100.0, np.array([0.0, p]), (1, 0))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(float(want), rel=1e-13, abs=0)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(excess=st.floats(-0.2, 0.3), sigma=st.floats(0.1, 0.8), h=st.floats(0.0, 3.0),
           lower=st.floats(-2.0, 0.0), upper=st.floats(0.05, 0.95))
    def test_clipped_formula_is_the_grid_maximum_within_one_cell(self, excess, sigma, h,
                                                                 lower, upper):
        # the one-stock log growth rate (mu-r) pi - sigma^2 pi^2 / 2 + h ln(1-pi)
        # is strictly concave on pi < 1, so the box's grid maximum sits in a
        # cell next to the clipped stationary point
        r = 0.05
        grid = np.linspace(lower, upper, 2001)
        rate = excess * grid - 0.5 * sigma**2 * grid**2 + h * np.log1p(-grid)
        want = grid[np.argmax(rate)]
        got = np.clip(single_survivor_formula(r + excess, sigma, r, h), lower, upper)
        assert abs(got - want) <= (upper - lower) / 2000 * (1 + 1e-9)


class TestLogStrategy:
    def test_all_defaulted_gives_zero(self):
        strat = LogStrategy(benchmark_problem())
        pi = one_row(strat, 0.0, 100.0, np.array([0.0, 0.0]), (1, 1))
        assert np.array_equal(pi, [0.0, 0.0])

    def test_fixed_mode_matches_state_dependent_at_equal_hazard(self):
        prob = benchmark_problem()
        state_dep = LogStrategy(prob)
        # at (60, 60) both weighted totals are 60, so both hazards are 10/60
        # and the comparator at that value feeds the solver identical inputs
        s, p = 60.0, 60.0
        hS, hP = pre_default_hazards(prob, s, p)
        fixed = LogStrategy(prob, hbar=hS)
        assert hS == hP
        a = one_row(state_dep, 0.0, 100.0, np.array([s, p]), (0, 0))
        b = one_row(fixed, 0.0, 100.0, np.array([s, p]), (0, 0))
        assert np.array_equal(a, b)

    def test_benchmark_initial_controls_coincide_with_hbar_point_one(self):
        # at (100, 100) the clamped power law evaluates to exactly 0.1
        prob = benchmark_problem()
        state_dep = LogStrategy(prob)
        fixed = LogStrategy(prob, hbar=0.1)
        s0 = np.array([100.0, 100.0])
        a = one_row(state_dep, 0.0, 100.0, s0, (0, 0))
        b = one_row(fixed, 0.0, 100.0, s0, (0, 0))
        assert np.array_equal(a, b)

    def test_mixed_state_batch(self):
        prob = benchmark_problem()
        strat = LogStrategy(prob)
        states = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        prices = np.array([[100.0, 100.0], [0.0, 80.0], [120.0, 0.0], [0.0, 0.0]])
        pi = strat.allocations(0.0, np.full(4, 100.0), prices, states)
        assert pi[1, 0] == 0.0 and pi[2, 1] == 0.0
        assert np.array_equal(pi[3], [0.0, 0.0])
        # pre-default row reproduces a one-row solve at its own hazards
        sol = solve_one(prob, *pre_default_hazards(prob, 100.0, 100.0))
        assert np.array_equal(pi[0], sol.pi)

    def test_rows_posing_one_problem_are_solved_once(self, monkeypatch):
        # six pre-default rows at one price share a hazard pair; two
        # defaulted rows ride along
        prob = benchmark_problem()
        states = np.array([[0, 0]] * 6 + [[1, 0], [1, 1]], dtype=np.uint8)
        prices = np.array([[80.0, 120.0]] * 6 + [[0.0, 90.0], [0.0, 0.0]])
        pre = (states == 0).all(axis=1)
        hS, hP = (np.full(6, h) for h in pre_default_hazards(prob, 80.0, 120.0))
        same = np.tile([0.2, -0.3], (8, 1))
        mixed = same.copy()
        mixed[3] = [-0.5, 0.1]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return solve_kt_batch(*args, **kwargs)

        monkeypatch.setattr(logopt, "solve_kt_batch", counting)
        for start, rows in ((None, 1), (same, 1), (mixed, 6)):
            calls.clear()
            strat = LogStrategy(prob)
            got = strat.allocations(0.0, np.full(8, 100.0), prices, states, start=start)
            assert calls == [rows]
            pi, case_id, _, _, _ = solve_kt_batch(
                prob, hS, hP, None if start is None else start[pre])
            assert np.array_equal(got[pre], pi)
            assert np.array_equal(strat.kt_cases,
                                  np.bincount(case_id, minlength=len(CASE_NAMES)))
            assert strat.kt_newton_iters["rows"] == rows

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
        evolve_wealth(bundle, [strat], 100.0)
        # every pre-default row of a query poses the same problem, solved
        # once per step on one row
        assert [len(hS) for _, hS, _, _ in calls] == [1] * cfg.n_steps
        assert strat.kt_newton_iters["rows"] == cfg.n_steps
        # against the per-row solve of every pre-default path-step
        bits = state_bits(bundle)
        pre = (bits[:, :-1] == 0).all(axis=2)
        n = int(pre.sum())
        _, case_id, _, _, _ = solve_kt_batch(prob, np.full(n, 0.1), np.full(n, 0.1))
        assert np.array_equal(strat.kt_cases, np.bincount(case_id, minlength=len(CASE_NAMES)))
        # after one default the constant, not the model hazard, enters the
        # single-survivor closed form
        post = [float(np.clip(single_survivor_formula(prob.params.mu[i], prob.params.sigma[i],
                                                      prob.params.r, 0.1), -1.0, 0.5))
                for i in (0, 1)]
        n_alone = 0
        history = price_history(bundle)
        for k in range(cfg.n_steps):
            states, prices = bits[:, k], history[:, k]
            rows = pre[:, k]
            pi_rows, _, _, _, _ = solve_kt_batch(prob, np.full(rows.sum(), 0.1),
                                              np.full(rows.sum(), 0.1))
            got = strat.allocations(k * cfg.dt, np.full(cfg.n_paths, 100.0), prices, states)
            assert np.array_equal(got[rows], pi_rows)
            for i in (0, 1):
                alone = (states[:, i] == 0) & (states[:, 1 - i] == 1)
                assert np.allclose(got[alone, i], post[i], rtol=1e-13, atol=0.0)
                assert np.all(got[alone, 1 - i] == 0.0)
                n_alone += int(alone.sum())
        assert n_alone > 0  # some rows took the single-survivor branch


def mixed_batch():
    """Benchmark hazard pairs, two thirds started from the answer at nearby
    hazards (as a simulation step starts them) and one third from the
    origin, so the rows end interior, on an edge and in a corner after 0
    to 6 Newton iterations."""
    prob = benchmark_problem()
    rng = np.random.default_rng(5)
    hS, hP = rng.uniform(0.02, 0.6, size=(2, 60))
    start = solve_kt_batch(prob, hS * 1.01, hP * 0.99)[0]
    start[::3] = 0.0
    return prob, hS, hP, start


class TestSolverPaths:
    def test_mixed_batch_rows_equal_their_solo_solves(self):
        # rows leave the batch at different iterations, so its filters run
        # on some iterations and not on others; no output may depend on that
        prob, hS, hP, start = mixed_batch()
        batch = solve_kt_batch(prob, hS, hP, start)
        assert {"interior", "S-low", "P-low", "S-low/P-low"} <= {CASE_NAMES[c] for c in batch[1]}
        assert np.unique(batch[4]).size >= 4
        for k in range(hS.size):
            solo = solve_kt_batch(prob, hS[k:k + 1], hP[k:k + 1], start[k:k + 1])
            for got, want in zip(batch, solo):
                assert np.array_equal(got[k:k + 1], want), k

    def test_a_stuck_row_counts_the_step_that_did_not_move_it(self, monkeypatch):
        # with no stationarity target a row leaves before the cap only when
        # a step no longer moves it, and its count takes in that step:
        # capped one step earlier it ends at the same x, two steps earlier
        # it does not
        prob, hS, hP, start = mixed_batch()
        monkeypatch.setattr(logopt, "_GRAD_TOL", -1.0)
        monkeypatch.setattr(logopt, "_ACCEPT_TOL", np.inf)
        x, _, _, _, iters = solve_kt_batch(prob, hS, hP, start)
        stuck = np.flatnonzero(iters < logopt._MAX_ITER)
        assert stuck.size >= 30 and (iters[stuck] >= 2).sum() >= 20
        for k in stuck:
            for back in (1, 2) if iters[k] >= 2 else (1,):
                monkeypatch.setattr(logopt, "_MAX_ITER", iters[k] - back)
                capped = solve_kt_batch(prob, hS[k:k + 1], hP[k:k + 1], start[k:k + 1])[0]
                assert np.array_equal(capped[0], x[k]) == (back == 1), (k, back)

    def test_rows_moving_at_the_iteration_cap_read_a_fresh_gradient(self, monkeypatch):
        # a row that moved on the last allowed iteration carries a gradient
        # from before that move; its read-out must come from its final x,
        # here held set, residual and multipliers written out in the test
        prob, hS, hP, start = mixed_batch()
        warm = np.arange(hS.size) % 3 > 0  # converged within the cap
        hS, hP, start = hS[warm], hP[warm], start[warm]
        monkeypatch.setattr(logopt, "_MAX_ITER", 3)
        x, case_id, mult, residual, iters = solve_kt_batch(prob, hS, hP, start)
        assert (iters == 3).sum() >= 10 and (iters < 3).any()
        g = np.column_stack(logopt._derivs(prob.market, hS, hP, x[:, 0], x[:, 1])[0])
        low = (x == prob.box.lower) & (g < 0.0)
        high = (x == prob.box.upper) & (g > 0.0)
        fresh = np.where(low | high, 0.0, np.abs(g)).max(axis=1)
        assert np.array_equal(residual, fresh)
        sides = logopt._CASE_OF_SIDES[low[:, 0] + 2 * high[:, 0], low[:, 1] + 2 * high[:, 1]]
        assert np.array_equal(case_id, sides)
        want = np.stack([np.where(low, -g, 0.0), np.where(high, g, 0.0)], axis=2)
        assert np.array_equal(mult, want.reshape(-1, 4))


def test_a_kt_pass_holds_only_the_arrays_the_loop_carries():
    # between passes the loop carries eleven arrays of m numbers: x and the
    # gradient (two columns each), the counts, the remaining rows' indices,
    # their two hazards, the two iterate columns and G.  A pass adds one
    # derivative call's working set, and the boolean masks add less than one
    # more array.  A pass that held its Hessian diagonal and Newton
    # numerators (four arrays) into the trial step would exceed the bound
    prob = benchmark_problem()
    m = 4000
    prices = np.random.default_rng(21).uniform(40.0, 200.0, (m, 2))
    rates = prob.intensity.rates_matrix(np.zeros((m, 2), dtype=np.uint8), prices)
    hS, hP = rates[:, 0].copy(), rates[:, 1].copy()
    x = (np.full(m, -0.4), np.full(m, -0.05))
    _, derivs = traced_peak(lambda: logopt._derivs(prob.market, hS, hP, *x))
    out, peak = traced_peak(lambda: solve_kt_batch(prob, hS, hP))
    # rows leave on several passes, so the loop's filters run
    assert np.unique(out[4]).size >= 2 and out[4].max() >= 4
    assert peak < derivs + 12 * 8 * m


def former_solve_kt(prob, hS, hP, start=None):
    """``solve_kt_batch`` as first written with one row exit, for inputs it
    accepts: every pass takes G at the iterate, the epsilon-active test and
    the per-coordinate step on all rows."""
    hS = np.atleast_1d(np.asarray(hS, dtype=float))
    hP = np.atleast_1d(np.asarray(hP, dtype=float))
    c, box = prob.market, prob.box
    lo, hi = box.lower, box.upper
    width = hi - lo
    if start is not None:
        x = np.clip(np.asarray(start, dtype=float), lo, hi)
    else:
        det = c.S00 * c.S11 - c.S01**2
        merton = np.array([c.S11 * c.t0 - c.S01 * c.t1, c.S00 * c.t1 - c.S01 * c.t0]) / det
        x = np.tile(np.clip(merton, lo, hi), (hS.size, 1))
    n = hS.size
    iters = np.empty(n, dtype=np.int64)
    grad = np.empty((n, 2))
    rows, hs, hp, xa = np.arange(n), hS, hP, (x[:, 0], x[:, 1])
    stuck = False
    for it in range(logopt._MAX_ITER + 1):
        g, hd, hoff = logopt._derivs(c, hs, hp, *xa)
        done = (stuck | ~(logopt._held(xa, g, box)[2] > logopt._GRAD_TOL)
                | (it == logopt._MAX_ITER))
        if done.any():
            out = rows[done]
            logopt._put_cols(x, out, [a[done] for a in xa])
            logopt._put_cols(grad, out, [a[done] for a in g])
            iters[out] = it
            keep = ~done
            rows, hs, hp, hoff = (a[keep] for a in (rows, hs, hp, hoff))
            xa, g, hd = ([a[keep] for a in pair] for pair in (xa, g, hd))
        if rows.size == 0:
            break
        step = [gj / np.maximum(-hj, np.abs(gj) / wj) for gj, hj, wj in zip(g, hd, width)]
        dist = [np.abs(xj - logopt._clip(xj + gj, lj, uj)) for xj, gj, lj, uj in zip(xa, g, lo, hi)]
        eps = np.minimum(logopt._EPS_ACTIVE, np.maximum(dist[0], dist[1]))
        near = [((xj <= lj + eps) & (gj < 0.0)) | ((xj >= uj - eps) & (gj > 0.0))
                for xj, gj, lj, uj in zip(xa, g, lo, hi)]
        det = hd[0] * hd[1] - hoff**2
        full = ~(near[0] | near[1]) & (det > 0.0)
        np.divide(hoff * g[1] - hd[1] * g[0], det, out=step[0], where=full)
        np.divide(hoff * g[0] - hd[0] * g[1], det, out=step[1], where=full)
        g0 = logopt._g(c, hs, hp, *xa)
        floor = g0 - logopt._G_ROUNDING * (1.0 + np.abs(g0))
        new = [logopt._clip(xj + sj, lj, uj) for xj, sj, lj, uj in zip(xa, step, lo, hi)]
        ok = logopt._g(c, hs, hp, *new) >= floor
        if not ok.all():
            search = np.flatnonzero(~ok)
            for nj, xj in zip(new, xa):
                nj[search] = xj[search]
            alpha = 0.5
            for _ in range(logopt._MAX_HALVINGS - 1):
                trial = [logopt._clip(xj[search] + alpha * sj[search], lj, uj)
                         for xj, sj, lj, uj in zip(xa, step, lo, hi)]
                ok = logopt._g(c, hs[search], hp[search], *trial) >= floor[search]
                for nj, tj in zip(new, trial):
                    nj[search[ok]] = tj[ok]
                search = search[~ok]
                if search.size == 0:
                    break
                alpha *= 0.5
        stuck = (new[0] == xa[0]) & (new[1] == xa[1])
        xa = new
    low, high, residual = logopt._held(x.T, grad.T, box)
    case_id = logopt._CASE_OF_SIDES[low[0] + 2 * high[0], low[1] + 2 * high[1]]
    gS, gP = grad.T
    mult = np.column_stack([np.where(low[0], -gS, 0.0), np.where(high[0], gS, 0.0),
                            np.where(low[1], -gP, 0.0), np.where(high[1], gP, 0.0)])
    return x, case_id, mult, residual, iters


def kt_loop_batches():
    """``(problem, hS, hP, start)`` batches that take every branch of the
    KT loop:

    - ``mixed_batch``: warm and origin starts ending interior, on an edge
      and in a corner;
    - one box per Kuhn-Tucker case around the benchmark answer at hazards
      (0.1, 0.1), each started from the answer nudged, from the box centre
      and from every corner, and cold;
    - a box whose upper bounds lie 5e-4 beyond that answer, so some rows
      end free within 1e-3 of a bound and the rest on it, started inside
      that distance of a bound and never on one, so that at first the
      epsilon-active test alone finds them;
    - a market whose answers lie near the log singularity of G, started
      from the corners, where full Newton steps fail the G test, some on
      consecutive passes.
    """
    batches = [mixed_batch()]
    rng = np.random.default_rng(11)
    hS, hP = 0.1 + rng.uniform(-0.01, 0.01, size=(2, 12))
    star = np.array([-0.41556246, -0.05505623])  # the answer at (0.1, 0.1)
    spans = {"low": (0.05, 0.4), "free": (-0.3, 0.3), "high": (-0.4, -0.05)}
    for sides in itertools.product(spans, repeat=2):
        lower, upper = (star + np.array([spans[s][k] for s in sides]) for k in (0, 1))
        prob = LogControlProblem(benchmark_params(), benchmark_intensity(),
                                 AdmissibleBox(lower=lower, upper=upper, eps_a=0.01))
        corners = np.array([[a, b] for a in (lower[0], upper[0]) for b in (lower[1], upper[1])])
        start = np.concatenate([star + rng.uniform(-1e-3, 1e-3, size=(6, 2)),
                                [(lower + upper) / 2.0], corners, corners[:1]])
        batches += [(prob, hS, hP, start), (prob, hS[:3], hP[:3], None)]
    lower, upper = star - 0.3, star + 5e-4
    prob = LogControlProblem(benchmark_params(), benchmark_intensity(),
                             AdmissibleBox(lower=lower, upper=upper, eps_a=0.01))
    inside = upper - rng.uniform(1e-4, 9e-4, size=(12, 2))
    inside[::3, 1] = star[1] - 0.1
    batches.append((prob, hS, hP, inside))
    params = MarketParams.two_stock(0.02, 0.8, 1.1, 0.25, 0.3, 0.2, 0.3, 0.2)
    u = 0.999 * (1.0 - 1e-3) / 1.3
    prob = LogControlProblem(params, ConstantIntensity(0.0),
                             AdmissibleBox(lower=[-2.0, -2.0], upper=[u, u], eps_a=1e-3))
    hS, hP = rng.uniform(0.0, 0.05, size=(2, 40))
    start = rng.choice([-2.0, 0.0, u], size=(40, 2))
    batches.append((prob, hS, hP, start))
    return batches


@pytest.mark.parametrize("stationarity", ["target", "none"])
def test_kt_loop_equals_the_former_loop_bit_for_bit(monkeypatch, stationarity):
    # with no stationarity target every row runs until its step no longer
    # moves it or the cap stops it, so stuck rows leave among moving ones
    if stationarity == "none":
        monkeypatch.setattr(logopt, "_GRAD_TOL", -1.0)
        monkeypatch.setattr(logopt, "_ACCEPT_TOL", np.inf)
    batches = kt_loop_batches()
    cases, halved = set(), 0
    for prob, hS, hP, start in batches:
        got = solve_kt_batch(prob, hS, hP, start)
        want = former_solve_kt(prob, hS, hP, start)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        cases.update(got[1].tolist())
        with monkeypatch.context() as m:
            m.setattr(logopt, "_MAX_HALVINGS", 1)  # a failed full step leaves the row stuck
            m.setattr(logopt, "_ACCEPT_TOL", np.inf)
            halved += not np.array_equal(solve_kt_batch(prob, hS, hP, start)[0], got[0])
    assert cases == set(range(len(CASE_NAMES)))
    assert halved
    if stationarity == "none":
        stuck = [solve_kt_batch(*b)[4] for b in batches]
        assert any(((it < logopt._MAX_ITER).any() and (it == logopt._MAX_ITER).any())
                   for it in stuck)


@st.composite
def warm_start_cases(draw):
    """A random admissible problem (market and box), a batch of hazard
    pairs and one start row per pair inside the box, bounds included."""
    prob, _ = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    m = draw(st.integers(1, 6))
    pairs = st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
    hazards = np.array(draw(st.lists(pairs, min_size=m, max_size=m)))
    fracs = np.array(draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                   min_size=m, max_size=m)))
    lo, hi = prob.box.lower, prob.box.upper
    start = np.clip(lo + fracs * (hi - lo), lo, hi)
    return prob, hazards[:, 0], hazards[:, 1], start


class TestWarmStart:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(warm_start_cases())
    def test_lands_on_the_cold_start_answer(self, case):
        prob, hS, hP, start = case
        cold, cold_case, _, _, _ = solve_kt_batch(prob, hS, hP)
        warm, warm_case, _, res, _ = solve_kt_batch(prob, hS, hP, start)
        assert np.array_equal(warm_case, cold_case)
        assert np.max(np.abs(warm - cold)) <= 1e-10
        assert np.all(res <= 1e-8)

    def test_start_at_the_answer_saves_iterations(self):
        prob = benchmark_problem()
        rng = np.random.default_rng(44)
        hS, hP = rng.uniform(0.05, 1.0, size=(2, 30))
        pi, _, _, _, cold = solve_kt_batch(prob, hS, hP)
        again, _, _, _, warm = solve_kt_batch(prob, hS, hP, pi)
        assert np.max(np.abs(again - pi)) <= 1e-12
        assert warm.sum() < cold.sum() and warm.max() <= 1

    def test_start_is_clipped_into_the_box(self):
        prob = benchmark_problem()
        hS, hP = [0.3, 0.05], [0.2, 0.9]
        outside = np.array([[5.0, -7.0], [-3.0, 0.2]])
        got = solve_kt_batch(prob, hS, hP, outside)[0]
        clipped = np.clip(outside, prob.box.lower, prob.box.upper)
        assert np.array_equal(got, solve_kt_batch(prob, hS, hP, clipped)[0])

    @pytest.mark.parametrize("start, needle", [
        (np.zeros((2, 3)), r"start has shape \(2, 3\), need \(2, 2\)"),
        (np.zeros((1, 2)), r"start has shape \(1, 2\)"),
        (np.zeros(4), r"start has shape \(4,\)"),
        (np.array([[0.0, np.nan], [0.0, 0.0]]), "finite"),
        (np.array([[0.0, 0.0], [-np.inf, 0.0]]), "finite"),
    ], ids=["columns", "rows", "flat", "nan", "inf"])
    def test_bad_start_rejected(self, start, needle):
        with pytest.raises(ValueError, match=needle):
            solve_kt_batch(benchmark_problem(), [0.1, 0.2], [0.1, 0.2], start)

    def test_evolution_warm_start_saves_newton_iterations(self):
        # the same run with every step started from Merton, as the base
        # Strategy.step_allocations does: same cases, same wealth up to
        # solver rounding, strictly fewer Newton iterations warm
        class ColdLogStrategy(LogStrategy):
            step_allocations = Strategy.step_allocations

        prob = benchmark_problem()
        cfg = PathConfig(horizon=1.0, n_steps=25, n_paths=500, master_seed=43)
        bundle = simulate_paths(prob.params, prob.intensity, cfg, [100.0, 100.0])
        warm, cold = LogStrategy(prob), ColdLogStrategy(prob)
        xw = wealth_paths(bundle, warm, 100.0)
        xc = wealth_paths(bundle, cold, 100.0)
        assert np.max(np.abs(xw / xc - 1.0)) <= 1e-10
        assert np.array_equal(warm.kt_cases, cold.kt_cases)
        # at step 0 every path sits at s0, so its rows pose one problem
        pre = int((state_bits(bundle)[:, :-1] == 0).all(axis=2).sum())
        assert warm.kt_newton_iters["rows"] == cold.kt_newton_iters["rows"] \
            == pre - cfg.n_paths + 1
        assert warm.kt_newton_iters["total"] < cold.kt_newton_iters["total"]
        assert 0 < warm.kt_newton_iters["max"] <= logopt._MAX_ITER
