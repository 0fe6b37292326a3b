import numpy as np
import pytest

from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    DefaultState,
    MarketParams,
    PowerClampIntensity,
    eval_intensity,
)
from contagionopt.powergrid import (
    CFLViolationError,
    GridSpec,
    PowerGridStrategy,
    PowerParams,
    TRANSITION_MOVES,
    ValueGrid,
    control_lattice,
    discount_and_source,
    g1,
    merton_power_control,
    solve_power_value,
    transition_probs,
    validate_cfl,
)

from test_model import benchmark_intensity, benchmark_params

GAMMA = 0.5


def power_box(upper=1.0):
    return AdmissibleBox(lower=[-1.0, -1.0], upper=[upper, upper], eps_a=0.01)


class TestClosedForms:
    def test_g1_terminal_is_one(self):
        assert g1(1.0, 1.0, benchmark_params(), GAMMA) == 1.0

    def test_g1_zero_exponent(self):
        params = MarketParams.two_stock(0.0, 0.0, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3)
        for t in (0.0, 0.25, 0.9):
            assert g1(t, 1.0, params, GAMMA) == 1.0

    def test_g1_direct_evaluation(self):
        # r=0.05, mu=0.10, sigma=0.3, gamma=0.5 over one year
        got = g1(0.0, 1.0, benchmark_params(), 0.5, stock=0)
        want = np.exp(0.025 + 0.5 * (1.0 / 6.0) ** 2)
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert got == pytest.approx(1.03965, abs=5e-6)

    def test_merton_power_zero_premium(self):
        params = MarketParams.two_stock(0.05, 0.05, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3)
        assert merton_power_control(params, GAMMA, -1.0, 1.0) == 0.0

    def test_merton_power_recovers_log_control_as_gamma_vanishes(self):
        params = benchmark_params()
        log_ctrl = 0.05 / 0.09
        assert merton_power_control(params, 1e-10, -5.0, 5.0) == pytest.approx(
            log_ctrl, rel=1e-8)

    def test_merton_power_clamped_by_unit_box(self):
        # 0.05 / (0.09 * 0.5) = 1.11..., clamped to the upper bound 1.0
        assert merton_power_control(benchmark_params(), 0.5, -1.0, 1.0) == 1.0


class TestTransitionProbs:
    def grid(self):
        return GridSpec(horizon=1.0, delta=5.0, dt=0.1, s_max=100.0, p_max=100.0)

    def test_hand_derived_nine_formulas(self):
        params = MarketParams.two_stock(0.10, 0.10, 0.15, 0.30, 0.40, 0.25, 0.2, 0.3)
        # independent re-derivation, term by term
        s, p, piS, piP, dt, dl, gamma = 10.0, 5.0, 0.3, -0.2, 0.1, 5.0, 0.5
        m_pi = 0.30 * piS + 0.25 * 0.40 * piP
        n_pi = 0.25 * 0.30 * piS + 0.40 * piP
        b1 = (0.10 + gamma * m_pi * 0.30) * s
        b2 = (0.15 + gamma * n_pi * 0.40) * p
        d1 = (0.30 * s) ** 2
        d2 = (0.40 * p) ** 2
        cx = 0.30 * 0.40 * s * p
        stay = 1 - dt / dl * (abs(b1) + abs(b2)) - dt / dl**2 * (d1 + d2 - 0.25 * cx)
        side = {
            (1, 0): dt / dl * max(b1, 0) + dt / (2 * dl**2) * (d1 - 0.25 * cx),
            (-1, 0): dt / dl * max(-b1, 0) + dt / (2 * dl**2) * (d1 - 0.25 * cx),
            (0, 1): dt / dl * max(b2, 0) + dt / (2 * dl**2) * (d2 - 0.25 * cx),
            (0, -1): dt / dl * max(-b2, 0) + dt / (2 * dl**2) * (d2 - 0.25 * cx),
            (1, 1): dt / (2 * dl**2) * 0.25 * cx,
            (-1, -1): dt / (2 * dl**2) * 0.25 * cx,
            (1, -1): 0.0,
            (-1, 1): 0.0,
        }
        probs = transition_probs((s, p), (piS, piP), self.grid(), params, gamma)
        assert probs[0] == pytest.approx(stay, rel=1e-12, abs=0)
        for move, want in side.items():
            got = probs[TRANSITION_MOVES.index(move)]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)
        rng = np.random.default_rng(31)
        # with correlation the side moves stay nonnegative only while the
        # prices are within a factor 7.5 of each other, so those draws start at 3
        for rho, lo in ((0.0, 0.0), (-0.1, 3.0), (0.1, 3.0)):
            params = MarketParams.two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
            s = rng.uniform(lo, 20.0, 5000)
            p = rng.uniform(lo, 20.0, 5000)
            piS = rng.uniform(-1.0, 1.0, 5000)
            piP = rng.uniform(-1.0, 1.0, 5000)
            probs = transition_probs((s, p), (piS, piP), grid, params, GAMMA)
            assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
            assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12
            # (+,+) and (-,-) carry positive correlation, (+,-) and (-,+) negative
            assert np.all((probs[5:7] > 0.0) == (rho > 0.0))
            assert np.all((probs[7:] > 0.0) == (rho < 0.0))

    def test_zero_correlation_kills_diagonals(self):
        probs = transition_probs((10.0, 5.0), (0.3, -0.2),
                                 GridSpec(1.0, 1.0, 0.005, 20.0, 20.0),
                                 benchmark_params(), GAMMA)
        assert np.all(probs[5:] == 0.0)

    def test_cfl_violation_raises_with_location(self):
        with pytest.raises(CFLViolationError, match="s=100"):
            transition_probs((100.0, 100.0), (0.0, 0.0), self.grid(),
                             benchmark_params(), GAMMA)

    def test_validate_cfl_rejects_large_domain_with_coarse_dt(self):
        grid = GridSpec(horizon=1.0, delta=5.0, dt=0.1, s_max=400.0, p_max=400.0)
        with pytest.raises(CFLViolationError):
            validate_cfl(grid, benchmark_params(), GAMMA, power_box())

    def test_validate_cfl_margin_is_the_smallest_stay_probability(self):
        params, box = benchmark_params(), power_box()
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)
        margin = validate_cfl(grid, params, GAMMA, box)
        S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
        stays = [transition_probs((S, P), pi, grid, params, GAMMA)[0].min()
                 for pi in box.vertices()]
        # the check bounds the drift coefficients by their box extremes
        assert 0.0 < margin <= min(stays)
        # the stay probability is 1 - dt * (rate), so halving dt halves 1 - margin
        half = GridSpec(horizon=1.0, delta=1.0, dt=0.0025, s_max=20.0, p_max=20.0)
        assert 1.0 - validate_cfl(half, params, GAMMA, box) == pytest.approx(
            0.5 * (1.0 - margin), rel=1e-12, abs=0)


class TestDiscountAndSource:
    def grid(self):
        return GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)

    def test_zero_hazard(self):
        params = benchmark_params()
        pi = np.array([0.3, -0.4])
        beta, g = discount_and_source(10.0, 10.0, pi, 0.2, self.grid(), params,
                                      ConstantIntensity(0.0), GAMMA)
        quad = pi @ params.cov @ pi
        want = (-0.05 * GAMMA - GAMMA * (pi @ params.theta)
                + 0.5 * GAMMA * (1.0 - GAMMA) * quad)
        assert float(beta) == pytest.approx(want, rel=1e-13, abs=0)
        assert float(g) == 0.0

    def test_zero_allocation_symmetric_stocks(self):
        params = MarketParams.two_stock(0.05, 0.10, 0.10, 0.30, 0.30, 0.0, 0.2, 0.2)
        h = ConstantIntensity(0.3)
        beta, g = discount_and_source(10.0, 10.0, (0.0, 0.0), 0.4, self.grid(),
                                      params, h, GAMMA)
        assert float(beta) == pytest.approx(-0.05 * GAMMA + 0.6, rel=1e-13, abs=0)
        assert float(g) == pytest.approx(0.6 * float(g1(0.4, 1.0, params, GAMMA)),
                                         rel=1e-13)

    def test_matches_independent_arithmetic(self):
        params = benchmark_params()
        h = benchmark_intensity()
        s, p, t = 14.0, 6.0, 0.3
        pi = (0.25, -0.5)
        beta, g = discount_and_source(s, p, pi, t, self.grid(), params, h, GAMMA)
        hS = eval_intensity(h, 0, DefaultState((0, 0)), [s, p])
        hP = eval_intensity(h, 1, DefaultState((0, 0)), [s, p])
        quad = (0.09 * pi[0]**2 + 0.16 * pi[1]**2)
        want_beta = (-0.05 * GAMMA + hS + hP
                     - GAMMA * (0.05 * pi[0] + 0.10 * pi[1] + 0.5 * (GAMMA - 1) * quad))
        jS = 1 - pi[0] - 0.3 * pi[1]
        jP = 1 - 0.2 * pi[0] - pi[1]
        want_g = (hS * float(g1(t, 1.0, params, GAMMA, stock=1)) * jS**GAMMA
                  + hP * float(g1(t, 1.0, params, GAMMA, stock=0)) * jP**GAMMA)
        assert float(beta) == pytest.approx(want_beta, rel=1e-13, abs=0)
        assert float(g) == pytest.approx(want_g, rel=1e-13, abs=0)

    def test_infeasible_allocation_rejected(self):
        with pytest.raises(ValueError):
            discount_and_source(10.0, 10.0, (1.2, 0.2), 0.0, self.grid(),
                                benchmark_params(), ConstantIntensity(0.0), GAMMA)


class TestSolvePowerValue:
    def test_terminal_slice_is_one(self):
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=10.0, p_max=10.0,
                        n_control=11)
        vg = solve_power_value(grid, benchmark_params(), ConstantIntensity(0.0),
                               GAMMA, power_box())
        assert np.all(vg.f[-1] == 1.0)
        assert np.all(vg.f > 0.0)

    def test_zero_hazard_matches_lattice_closed_form(self):
        params = benchmark_params()
        box = power_box()
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.01, s_max=12.0, p_max=12.0,
                        n_control=41)
        vg = solve_power_value(grid, params, ConstantIntensity(0.0), GAMMA, box)
        lattice = control_lattice(box, params.L, grid.n_control)
        rates = (params.r * GAMMA + GAMMA * lattice @ params.theta
                 - 0.5 * GAMMA * (1 - GAMMA)
                 * np.einsum("ij,jk,ik->i", lattice, params.cov, lattice))
        best = rates.max()
        for k in (0, grid.n_slices // 2):
            want = np.exp(best * (grid.horizon - k * grid.dt))
            inner = vg.f[k][1:-1, 1:-1]
            assert np.all(np.abs(inner / want - 1.0) < 0.01)
            # no hazard and no source: the value is price-independent
            assert np.ptp(vg.f[k]) <= 1e-12 * want

    def test_single_active_stock_recovers_merton(self):
        params = MarketParams.two_stock(0.05, 0.10, 0.15, 0.40, 0.40, 0.0, 0.2, 0.3)
        box = AdmissibleBox(lower=[-1.0, 0.0], upper=[1.0, 0.0], eps_a=0.01)
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.01, s_max=12.0, p_max=12.0,
                        n_control=41)
        vg = solve_power_value(grid, params, ConstantIntensity(0.0), GAMMA, box)
        merton = (0.10 - 0.05) / (0.40**2 * (1 - GAMMA))  # 0.625, interior
        exponent = (0.05 * GAMMA + GAMMA * 0.05 * merton
                    - 0.5 * GAMMA * (1 - GAMMA) * 0.16 * merton**2)
        inner_ctrl = vg.controls[0][1:-1, 1:-1, 0]
        refine_step = (2.0 / 40) / 4
        assert np.all(np.abs(inner_ctrl - merton) <= refine_step + 1e-12)
        assert np.all(vg.controls[0][:, :, 1] == 0.0)
        assert vg.f[0][5, 5] == pytest.approx(np.exp(exponent), rel=0.01)

    def test_one_step_expectation_is_monotone_in_next_values(self):
        params = benchmark_params()
        grid = GridSpec(horizon=0.1, delta=1.0, dt=0.005, s_max=5.0, p_max=5.0)
        rng = np.random.default_rng(32)
        s_nodes, p_nodes = grid.s_nodes(), grid.p_nodes()
        v = rng.uniform(0.5, 2.0, size=(len(s_nodes), len(p_nodes)))
        bump = v.copy()
        bump[3, 2] += 0.7
        pi = (0.4, -0.3)
        for i, s in enumerate(s_nodes):
            for j, p in enumerate(p_nodes):
                probs = transition_probs((s, p), pi, grid, params, GAMMA)
                ev, eb = 0.0, 0.0
                for w, (ds, dp) in zip(probs, TRANSITION_MOVES):
                    ii = min(max(i + ds, 0), len(s_nodes) - 1)
                    jj = min(max(j + dp, 0), len(p_nodes) - 1)
                    ev += w * v[ii, jj]
                    eb += w * bump[ii, jj]
                assert eb >= ev - 1e-14

    def test_dp_is_its_own_scheme(self):
        # one slice rebuilt from the standalone scheme functions, with the
        # correlated (diagonal) moves switched on; h0 = 1 keeps the hazard,
        # and so v1, varying over [0, 6]^2, where the benchmark intensity is
        # clamped at h_max and a flat v1 would hide every move
        box = power_box()
        grid = GridSpec(0.01, 1.0, 0.005, 6.0, 6.0, n_control=9, refine=False)
        h = PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0, h_min=0.05, h_max=1.0)
        s_nodes, p_nodes = grid.s_nodes(), grid.p_nodes()
        for rho in (-0.1, 0.1):
            params = MarketParams.two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
            vg = solve_power_value(grid, params, h, GAMMA, box)
            lattice = control_lattice(box, params.L, grid.n_control)
            v1 = vg.f[1]
            for i, s in enumerate(s_nodes):
                for j, p in enumerate(p_nodes):
                    probs = transition_probs((s, p), (lattice[:, 0], lattice[:, 1]),
                                             grid, params, GAMMA)
                    ev = sum(w * v1[min(max(i + ds, 0), len(s_nodes) - 1),
                                    min(max(j + dp, 0), len(p_nodes) - 1)]
                             for w, (ds, dp) in zip(probs, TRANSITION_MOVES))
                    cand = []
                    for pi, e in zip(lattice, ev):
                        beta, g = discount_and_source(s, p, pi, 0.0, grid, params, h, GAMMA)
                        cand.append(float(g) * grid.dt + np.exp(-float(beta) * grid.dt) * e)
                    assert vg.f[0][i, j] == pytest.approx(max(cand), rel=1e-12, abs=0)

    def test_value_nonincreasing_in_hazard_level(self):
        # contagion lowers utility when hazard cannot be monetized: the
        # premium stock is held long-only, and the stock whose default
        # would *upgrade* the investor (the post-default factor drops the
        # survivor's own hazard) never defaults.  Scaling the hazard up
        # then only brings the loss-making jump closer.
        params = MarketParams.two_stock(0.05, 0.10, 0.05, 0.40, 0.40, 0.0, 0.0, 0.3)
        box = AdmissibleBox(lower=[0.0, 0.0], upper=[0.8, 0.0], eps_a=0.01)
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=10.0, p_max=10.0,
                        n_control=13)
        low = solve_power_value(grid, params, ConstantIntensity([0.01, 0.0]), GAMMA, box)
        high = solve_power_value(grid, params, ConstantIntensity([0.04, 0.0]), GAMMA, box)
        assert np.all(low.f >= high.f - 1e-12)
        assert low.f[0].max() > high.f[0].max()

    def test_value_can_rise_with_hazard_when_shorting_is_allowed(self):
        # the qualitative claim above is not universal: with shorting
        # allowed the default jump factor exceeds one, so hazard becomes a
        # harvestable premium and the value factor rises with it
        params = MarketParams.two_stock(0.05, 0.09, 0.10, 0.40, 0.45, 0.0, 0.2, 0.3)
        box = power_box()
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=10.0, p_max=10.0,
                        n_control=13)
        low = solve_power_value(grid, params, ConstantIntensity(0.05), 0.2, box)
        high = solve_power_value(grid, params, ConstantIntensity(0.5), 0.2, box)
        assert high.f[0].max() > low.f[0].max()

    def test_grid_refinement_contracts(self):
        # on the finest lattice 67.5% of the node hazards of the benchmark
        # intensity (h0 = 10) sit at the h_max clamp; with h0 = 1 only 1.4% do
        params = benchmark_params()
        box = power_box()
        probes = [(4.0, 4.0), (8.0, 6.0), (6.0, 10.0)]
        for h0 in (10.0, 1.0):
            intensity = PowerClampIntensity(h0=h0, weights=(0.7, 0.3), alpha=1.0,
                                            h_min=0.05, h_max=1.0)
            values = []
            for delta, dt in ((2.0, 0.02), (1.0, 0.005), (0.5, 0.00125)):
                grid = GridSpec(horizon=0.5, delta=delta, dt=dt, s_max=16.0, p_max=16.0,
                                n_control=15)
                vg = solve_power_value(grid, params, intensity, GAMMA, box)
                s_nodes, p_nodes = grid.s_nodes(), grid.p_nodes()
                values.append([
                    vg.f[0][np.searchsorted(s_nodes, s), np.searchsorted(p_nodes, p)]
                    for s, p in probes
                ])
            coarse_diff = np.abs(np.array(values[1]) - np.array(values[0]))
            fine_diff = np.abs(np.array(values[2]) - np.array(values[1]))
            assert np.all(fine_diff <= coarse_diff + 1e-12), h0

    def test_reciprocal_intensity_infinite_at_origin_rejected(self):
        from contagionopt.model import ReciprocalIntensity
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=5.0, p_max=5.0,
                        n_control=5)
        with pytest.raises(ValueError, match="not finite"):
            solve_power_value(grid, benchmark_params(),
                              ReciprocalIntensity(c=20.0), GAMMA,
                              power_box())

    def test_save_load_roundtrip(self, tmp_path):
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=5.0, p_max=5.0,
                        n_control=7)
        vg = solve_power_value(grid, benchmark_params(), ConstantIntensity(0.1),
                               GAMMA, power_box())
        f = tmp_path / "grid.npz"
        vg.save(str(f))
        back = ValueGrid.load(str(f))
        assert back.grid == vg.grid and back.gamma == vg.gamma
        assert np.array_equal(back.f, vg.f)
        assert np.array_equal(back.controls, vg.controls)


class TestPowerStrategy:
    def solved(self):
        params = benchmark_params()
        box = power_box()
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.01, s_max=12.0, p_max=12.0,
                        n_control=15)
        vg = solve_power_value(grid, params, benchmark_intensity(), GAMMA, box)
        return vg, params, box

    def test_lattice_node_query_returns_stored_argmax(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, GAMMA, box)
        pi = strat.allocation(0.0, 100.0, np.array([4.0, 7.0]), DefaultState((0, 0)))
        assert np.array_equal(pi, vg.controls[0][4, 7])

    def test_all_defaulted_gives_zero(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, GAMMA, box)
        pi = strat.allocation(0.3, 100.0, np.array([0.0, 0.0]), DefaultState((1, 1)))
        assert np.array_equal(pi, [0.0, 0.0])

    def test_out_of_domain_clamps_and_counts(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, GAMMA, box)
        inside = strat.allocation(0.0, 100.0, np.array([12.0, 7.0]), DefaultState((0, 0)))
        outside = strat.allocation(0.0, 100.0, np.array([50.0, 7.0]), DefaultState((0, 0)))
        assert np.array_equal(inside, outside)
        assert strat.out_of_domain == 1
        assert strat.pre_default_queries == 2

    def test_post_default_merton_with_floor_cap(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, GAMMA, box)
        # surviving P: raw Merton 0.10/(0.16*0.5) = 1.25, box cap 1.0, floor cap 0.99
        pi = strat.allocation(0.2, 100.0, np.array([0.0, 8.0]), DefaultState((1, 0)))
        assert pi[0] == 0.0 and pi[1] == pytest.approx(0.99)
        # surviving S: raw Merton 1.11 -> same cap
        pi = strat.allocation(0.2, 100.0, np.array([8.0, 0.0]), DefaultState((0, 1)))
        assert pi[1] == 0.0 and pi[0] == pytest.approx(0.99)

    def test_time_slice_selection(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, GAMMA, box)
        a = strat.allocation(0.0, 100.0, np.array([6.0, 6.0]), DefaultState((0, 0)))
        b = strat.allocation(0.995, 100.0, np.array([6.0, 6.0]), DefaultState((0, 0)))
        assert np.array_equal(b, vg.controls[-1][6, 6])
        assert np.array_equal(a, vg.controls[0][6, 6])


class TestPowerParams:
    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            PowerParams(0.0)
        with pytest.raises(ValueError):
            PowerParams(1.0)
        assert PowerParams(0.5).gamma == 0.5
