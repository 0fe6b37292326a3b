import copy
import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from contagionopt.experiments import builtin_config, config_from_dict
from contagionopt.logopt import LogControlProblem, solve_kt_batch
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    PowerClampIntensity,
    TwoStockMarket,
)
from contagionopt.powergrid import (
    _MAX_BLOCK,
    CFLViolationError,
    GridSpec,
    PowerGridStrategy,
    TRANSITION_MOVES,
    ValueGrid,
    control_lattice,
    g1,
    merton_power_control,
    solve_power_value,
    validate_cfl,
    _branch_sources,
    _check_probs,
    _control_terms,
    _features,
    _first_max,
    _nine_probs,
    _pre_default_rates,
    _quarter_lattice,
)

from helpers import two_stock
from test_dynamics import one_row, traced_peak
from test_model import benchmark_intensity, benchmark_params

GAMMA = 0.5


def scheme(s, p, pi, grid, params, gamma, intensity=ConstantIntensity(0.0), t=0.0):
    """The chain's nine transition probabilities (TRANSITION_MOVES order),
    killing rate ``beta`` and running source ``g`` at pre-default prices
    ``(s, p)`` under allocations ``pi[..., 2]``, composed from the DP's
    factors.  Broadcasts over array inputs; a probability outside [0, 1]
    beyond 1e-12 raises :class:`CFLViolationError` naming the node and
    control.  A negative jump factor counts as zero in ``g``, as in the
    DP's features."""
    s, p, pi = (np.asarray(x, dtype=float) for x in (s, p, pi))
    c1, c2, beta_c, jumps = _control_terms(TwoStockMarket(params), gamma, pi)
    probs = _nine_probs(s, p, c1, c2, grid, params)
    _check_probs(probs, s, p, (pi[..., 0], pi[..., 1]), "control")
    hS, hP = _pre_default_rates(intensity, s, p)
    srcS, srcP = _branch_sources(t, grid, params, gamma, hS, hP)
    jg = np.maximum(jumps, 0.0) ** gamma
    return probs, beta_c + hS + hP, srcS * jg[..., 0] + srcP * jg[..., 1]


def power_box(upper=1.0):
    return AdmissibleBox(lower=[-1.0, -1.0], upper=[upper, upper], eps_a=0.01)


class TestClosedForms:
    def test_g1_terminal_is_one(self):
        assert g1(1.0, 1.0, benchmark_params(), GAMMA) == 1.0

    def test_g1_zero_exponent(self):
        params = two_stock(0.0, 0.0, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3)
        for t in (0.0, 0.25, 0.9):
            assert g1(t, 1.0, params, GAMMA) == 1.0

    def test_g1_direct_evaluation(self):
        # r=0.05, mu=0.10, sigma=0.3, gamma=0.5 over one year
        got = g1(0.0, 1.0, benchmark_params(), 0.5, stock=0)
        want = np.exp(0.025 + 0.5 * (1.0 / 6.0) ** 2)
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert got == pytest.approx(1.03965, abs=5e-6)

    def test_merton_power_zero_premium(self):
        params = two_stock(0.05, 0.05, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3)
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
        params = two_stock(0.10, 0.10, 0.15, 0.30, 0.40, 0.25, 0.2, 0.3)
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
        probs = scheme(s, p, (piS, piP), self.grid(), params, gamma)[0]
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
            params = two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
            s = rng.uniform(lo, 20.0, 5000)
            p = rng.uniform(lo, 20.0, 5000)
            piS = rng.uniform(-1.0, 1.0, 5000)
            piP = rng.uniform(-1.0, 1.0, 5000)
            probs = scheme(s, p, np.column_stack([piS, piP]), grid, params, GAMMA)[0]
            assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
            assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12
            # (+,+) and (-,-) carry positive correlation, (+,-) and (-,+) negative
            assert np.all((probs[5:7] > 0.0) == (rho > 0.0))
            assert np.all((probs[7:] > 0.0) == (rho < 0.0))

    def test_zero_correlation_kills_diagonals(self):
        probs = scheme(10.0, 5.0, (0.3, -0.2), GridSpec(1.0, 1.0, 0.005, 20.0, 20.0),
                       benchmark_params(), GAMMA)[0]
        assert np.all(probs[5:] == 0.0)

    def test_cfl_violation_raises_with_location(self):
        with pytest.raises(CFLViolationError, match="s=100"):
            scheme(100.0, 100.0, (0.0, 0.0), self.grid(), benchmark_params(), GAMMA)

    def test_validate_cfl_rejects_large_domain_with_coarse_dt(self):
        grid = GridSpec(horizon=1.0, delta=5.0, dt=0.1, s_max=400.0, p_max=400.0)
        with pytest.raises(CFLViolationError):
            validate_cfl(grid, benchmark_params(), GAMMA, power_box())

    def test_validate_cfl_margin_is_the_smallest_stay_probability(self):
        params, box = benchmark_params(), power_box()
        grid = GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)
        margin = validate_cfl(grid, params, GAMMA, box)
        S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
        stays = [scheme(S, P, pi, grid, params, GAMMA)[0][0].min()
                 for pi in box.vertices()]
        # the check bounds the drift coefficients by their box extremes
        assert 0.0 < margin <= min(stays)
        # the stay probability is 1 - dt * (rate), so halving dt halves 1 - margin
        half = GridSpec(horizon=1.0, delta=1.0, dt=0.0025, s_max=20.0, p_max=20.0)
        assert 1.0 - validate_cfl(half, params, GAMMA, box) == pytest.approx(
            0.5 * (1.0 - margin), rel=1e-12, abs=0)

    @pytest.mark.parametrize("rho, extent", [(0.0, 20.0), (-0.1, 6.0), (0.1, 6.0)])
    def test_corner_check_covers_the_quarter_lattice(self, rho, extent):
        # 1 - margin is linear in dt, so the smallest stay probability the
        # corner check sees reaches zero at dt / (1 - margin).  Just below
        # that step every point of the walk's quarter-step lattice keeps all
        # nine probabilities in [0, 1] at every node; just above it the
        # check fails.  With rho != 0 the side moves stay nonnegative only
        # while the prices are within a factor 7.5 of each other, as on
        # [0, 6]^2 with delta 1
        params = two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
        box = power_box()

        def grid(dt):
            return GridSpec(dt, 1.0, dt, extent, extent, n_control=5)

        limit = 0.005 / (1.0 - validate_cfl(grid(0.005), params, GAMMA, box))
        below = grid(0.98 * limit)
        pts = _quarter_lattice(box, params.L, below.n_control)[0]
        c1, c2, _, _ = _control_terms(TwoStockMarket(params), GAMMA, pts)
        S, P = np.meshgrid(below.s_nodes(), below.p_nodes(), indexing="ij")
        probs = _nine_probs(S[..., None], P[..., None], c1, c2, below, params)
        assert probs.shape == (9, *S.shape, 17 * 17)
        assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
        assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12
        with pytest.raises(CFLViolationError):
            validate_cfl(grid(1.02 * limit), params, GAMMA, box)


class TestDiscountAndSource:
    def grid(self):
        return GridSpec(horizon=1.0, delta=1.0, dt=0.005, s_max=20.0, p_max=20.0)

    def test_zero_hazard(self):
        params = benchmark_params()
        pi = np.array([0.3, -0.4])
        _, beta, g = scheme(10.0, 10.0, pi, self.grid(), params, GAMMA, t=0.2)
        quad = pi @ params.cov @ pi
        want = (-0.05 * GAMMA - GAMMA * (pi @ params.theta)
                + 0.5 * GAMMA * (1.0 - GAMMA) * quad)
        assert float(beta) == pytest.approx(want, rel=1e-13, abs=0)
        assert float(g) == 0.0

    def test_zero_allocation_symmetric_stocks(self):
        params = two_stock(0.05, 0.10, 0.10, 0.30, 0.30, 0.0, 0.2, 0.2)
        h = ConstantIntensity(0.3)
        _, beta, g = scheme(10.0, 10.0, (0.0, 0.0), self.grid(), params, GAMMA, h, t=0.4)
        assert float(beta) == pytest.approx(-0.05 * GAMMA + 0.6, rel=1e-13, abs=0)
        assert float(g) == pytest.approx(0.6 * float(g1(0.4, 1.0, params, GAMMA)),
                                         rel=1e-13)

    def test_matches_independent_arithmetic(self):
        params = benchmark_params()
        h = benchmark_intensity()
        s, p, t = 14.0, 6.0, 0.3
        pi = (0.25, -0.5)
        _, beta, g = scheme(s, p, pi, self.grid(), params, GAMMA, h, t)
        hS, hP = h.rates_matrix(np.zeros((1, 2), dtype=np.uint8), np.array([[s, p]]))[0]
        quad = (0.09 * pi[0]**2 + 0.16 * pi[1]**2)
        want_beta = (-0.05 * GAMMA + hS + hP
                     - GAMMA * (0.05 * pi[0] + 0.10 * pi[1] + 0.5 * (GAMMA - 1) * quad))
        jS = 1 - pi[0] - 0.3 * pi[1]
        jP = 1 - 0.2 * pi[0] - pi[1]
        want_g = (hS * float(g1(t, 1.0, params, GAMMA, stock=1)) * jS**GAMMA
                  + hP * float(g1(t, 1.0, params, GAMMA, stock=0)) * jP**GAMMA)
        assert float(beta) == pytest.approx(want_beta, rel=1e-13, abs=0)
        assert float(g) == pytest.approx(want_g, rel=1e-13, abs=0)


def former_solve(grid, params, intensity, gamma, box):
    """``f`` and controls of the DP's slice loop as first written: the
    coarse maximum by ``np.argmax`` and ``take_along_axis``, and a walk that
    evaluates every trial with ``einsum`` and masks it by admissibility,
    on every node, or on node (0, 0) for a price-free hazard."""
    S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
    shape = S.shape
    hS, hP = _pre_default_rates(intensity, S, P)
    flat = np.ptp(hS) == 0.0 and np.ptp(hP) == 0.0
    if flat:
        S, P, hS, hP = (a[:1, :1] for a in (S, P, hS, hP))
    ns, np_ = S.shape
    dt = grid.dt
    ehd = np.exp(-(hS + hP) * dt)
    probs0 = _nine_probs(S, P, 0.0, 0.0, grid, params)
    fine, admissible, coarse = _quarter_lattice(box, params.L, grid.n_control)
    feats = _features(TwoStockMarket(params), gamma, fine, grid)
    n_fine = 4 * grid.n_control - 3
    qi, qj = np.divmod(np.arange(n_fine * n_fine), n_fine)
    trial_of = [np.clip(qi + a, 0, n_fine - 1) * n_fine + np.clip(qj + b, 0, n_fine - 1)
                for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)]
    f = np.empty((grid.n_slices + 1, ns, np_))
    f[-1] = 1.0
    controls = np.empty((grid.n_slices, ns, np_, 2))
    v = np.ones((ns, np_))
    for k in range(grid.n_slices - 1, -1, -1):
        padded = np.pad(v, 1, mode="edge")
        moved = [padded[1 + a:1 + a + ns, 1 + b:1 + b + np_] for a, b in TRANSITION_MOVES]
        ev0 = sum(q * vm for q, vm in zip(probs0, moved))
        gains = [x * (vm - v) for x, vm in zip((S, S, P, P), moved[1:5])]
        srcS, srcP = _branch_sources(k * dt, grid, params, gamma, hS, hP)
        nodes = np.stack([ehd * ev0, *(ehd * g for g in gains),
                          srcS * dt, srcP * dt]).reshape(7, -1)
        cand = feats[coarse] @ nodes
        best = np.argmax(cand, axis=0)
        vbest = np.take_along_axis(cand, best[None, :], axis=0)[0]
        at = coarse[best]
        for nbr in trial_of:
            trial = nbr[at]
            val = np.einsum("ij,ji->i", feats.take(trial, axis=0), nodes)
            upd = admissible[trial] & (val > vbest)
            vbest = np.where(upd, val, vbest)
            at = np.where(upd, trial, at)
        v = vbest.reshape(ns, np_)
        f[k] = v
        controls[k] = fine[at].reshape(ns, np_, 2)
    return (np.broadcast_to(f, (grid.n_slices + 1, *shape)),
            np.broadcast_to(controls, (grid.n_slices, *shape, 2)))


class TestFirstMax:
    def test_equals_argmax_and_max(self):
        b = _MAX_BLOCK
        ties = np.zeros((2 * b + 3, 4))
        ties[[2, b - 1], 0] = 1.0              # within one block
        ties[[b - 1, b, 2 * b], 1] = 1.0       # across blocks
        ties[[b + 4, 2 * b + 2], 2] = 1.0      # reaching the short last block
        ties[[2 * b + 1, 2 * b + 2], 3] = 1.0  # inside the short last block
        ties[b - 2, 3] = 0.5                   # after an earlier, smaller peak
        arrays = [ties]
        rng = np.random.default_rng(5)
        for n in (1, b - 3, b, b + 1, 3 * b, 3 * b + 5):
            for c in (1, 7):
                arrays += [rng.standard_normal((n, c)),
                           rng.integers(0, 3, (n, c)).astype(float),
                           np.full((n, c), -2.5)]
        for a in arrays:
            idx, val = _first_max(a)
            assert np.array_equal(idx, np.argmax(a, axis=0))
            assert np.array_equal(val, np.max(a, axis=0))
        assert _first_max(ties)[0].tolist() == [2, b - 1, b + 4, 2 * b + 1]
        # fewer rows than a block: one window covers each whole column
        short = np.zeros((b - 3, 4))
        short[[1, b - 4], 0] = 1.0           # first and last row tie
        short[b - 4, 1] = 1.0                # the last row alone
        short[[0, 5], 2] = -1.0              # the other rows tie at 0
        short[3, 3], short[7, 3] = 0.5, 2.0  # after an earlier, smaller peak
        for a in (short, short[:1], short[:2, ::-1]):
            idx, val = _first_max(a)
            assert np.array_equal(idx, np.argmax(a, axis=0))
            assert np.array_equal(val, np.max(a, axis=0))
        assert _first_max(short)[0].tolist() == [1, b - 4, 1, 7]


class TestSolvePowerValue:
    def test_slice_loop_equals_the_former_loop_bit_for_bit(self):
        # a price-dependent hazard and the flat grid of a constant one at
        # rho = +-0.1, on the full box and on a box whose post-default floor
        # 0.5 holds the optimum.  At n_control 13 the walk moves some
        # control in all but one case, and 169 coarse points fill several
        # row blocks and a short last one; at n_control 3, 9 coarse points
        # make one window shorter than a block, and the 81 quarter-lattice
        # points are indexed in uint8
        floor = AdmissibleBox(lower=[0.0, 0.0], upper=[0.3, 1.0], eps_a=0.5)
        cases = [(power_box(), PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0,
                                                   h_min=0.05, h_max=1.0)),
                 (floor, PowerClampIntensity(h0=0.1, weights=(0.7, 0.3), alpha=1.0,
                                             h_min=0.01, h_max=1.0)),
                 (power_box(), ConstantIntensity([0.02, 0.06])),
                 (floor, ConstantIntensity(0.03))]
        grids = [GridSpec(0.03, 1.0, 0.005, 6.0, 6.0, n_control=n) for n in (13, 3)]
        for grid, (box, h), rho in itertools.product(grids, cases, (-0.1, 0.1)):
            params = two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
            vg = solve_power_value(grid, params, h, GAMMA, box)
            f, controls = former_solve(grid, params, h, GAMMA, box)
            assert np.array_equal(vg.f, f)
            assert np.array_equal(vg.controls, controls)

    def test_a_shorter_horizon_is_the_longer_solve_from_slice_k(self):
        # time shift: the sources depend on t only through T - t, so the
        # solve on horizon T - k dt is the solve on T read from slice k on.
        # Both sides form T - t in floats, (T - k dt) - j dt against
        # T - (k + j) dt; in every case here they round alike, so the
        # grids are equal bit for bit.  A price-dependent hazard and the
        # one-node grid of a constant one, on the test grid at two time
        # steps, and the shipped power grid at horizon 0.1
        params = two_stock(0.05, 0.10, 0.15, 0.30, 0.40, 0.1, 0.2, 0.3)
        hazards = (PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0,
                                       h_min=0.05, h_max=1.0),
                   ConstantIntensity([0.02, 0.06]))
        cases = [(GridSpec(0.04, 1.0, dt, 6.0, 6.0, n_control=13), params, h, GAMMA,
                  power_box(), range(1, n))
                 for dt, n in ((0.005, 8), (0.002, 20)) for h in hazards]
        doc = copy.deepcopy(builtin_config("power-benchmark").raw)
        doc["paths"]["horizon"] = 0.1
        c = config_from_dict(doc)
        cases.append((c.grid, c.market, c.intensity, c.gamma, c.box, (1, 7, 25, 33, 49)))
        for grid, market, h, gamma, box, shifts in cases:
            whole = solve_power_value(grid, market, h, gamma, box)
            for k in shifts:
                part = solve_power_value(replace(grid, horizon=grid.horizon - k * grid.dt),
                                         market, h, gamma, box)
                assert part.grid.n_slices == grid.n_slices - k
                assert np.array_equal(part.f, whole.f[k:]), (grid, k)
                assert np.array_equal(part.controls, whole.controls[k:]), (grid, k)

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
        params = two_stock(0.05, 0.10, 0.15, 0.40, 0.40, 0.0, 0.2, 0.3)
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
                probs = scheme(s, p, pi, grid, params, GAMMA)[0]
                ev, eb = 0.0, 0.0
                for w, (ds, dp) in zip(probs, TRANSITION_MOVES):
                    ii = min(max(i + ds, 0), len(s_nodes) - 1)
                    jj = min(max(j + dp, 0), len(p_nodes) - 1)
                    ev += w * v[ii, jj]
                    eb += w * bump[ii, jj]
                assert eb >= ev - 1e-14

    def test_dp_is_its_own_scheme(self):
        # one slice replayed from the scheme's factors (scheme), with the
        # correlated (diagonal) moves switched on.  h0 = 1 keeps the hazard,
        # and so v1, varying over [0, 6]^2, where the benchmark intensity is
        # clamped at h_max and a flat v1 would hide every move; there the
        # optimum shorts both stocks.  In the second case it is long and
        # held by the box edge pi_S = 0.3 and by the post-default floor 0.5.
        # The constant hazard of the third case is solved on one node and
        # copied to all; the per-node replay checks it on the full lattice.
        # The greedy walk is replayed after the coarse argmax: the 80
        # offsets of a 9 x 9 window in order, clipped to the box, kept on
        # strict improvement only
        cases = [
            (power_box(), PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0,
                                              h_min=0.05, h_max=1.0)),
            (AdmissibleBox(lower=[0.0, 0.0], upper=[0.3, 1.0], eps_a=0.5),
             PowerClampIntensity(h0=0.1, weights=(0.7, 0.3), alpha=1.0,
                                 h_min=0.01, h_max=1.0)),
            (power_box(), ConstantIntensity(0.3)),
        ]
        grid = GridSpec(0.01, 1.0, 0.005, 6.0, 6.0, n_control=9)
        s_nodes, p_nodes = grid.s_nodes(), grid.p_nodes()
        for (box, h), rho in itertools.product(cases, (-0.1, 0.1)):
            params = two_stock(0.05, 0.10, 0.15, 0.30, 0.40, rho, 0.2, 0.3)
            vg = solve_power_value(grid, params, h, GAMMA, box)
            lattice = control_lattice(box, params.L, grid.n_control)
            quarter = (box.upper - box.lower) / (grid.n_control - 1) / 4
            offsets = [np.array([a, b]) * quarter for a in range(-4, 5)
                       for b in range(-4, 5) if (a, b) != (0, 0)]
            v1 = vg.f[1]
            for i, s in enumerate(s_nodes):
                for j, p in enumerate(p_nodes):
                    def values(pis):
                        probs, beta, g = scheme(s, p, pis, grid, params, GAMMA, h)
                        ev = sum(w * v1[min(max(i + ds, 0), len(s_nodes) - 1),
                                        min(max(j + dp, 0), len(p_nodes) - 1)]
                                 for w, (ds, dp) in zip(probs, TRANSITION_MOVES))
                        return list(g * grid.dt + np.exp(-beta * grid.dt) * ev)

                    cand = values(lattice)
                    best, vbest = lattice[int(np.argmax(cand))], max(cand)
                    for offset in offsets:
                        trial = np.clip(best + offset, box.lower, box.upper)
                        if np.all(1.0 - trial @ params.L >= box.eps_a):
                            val = values(trial[None])[0]
                            if val > vbest:
                                best, vbest = trial, val
                    assert vg.f[0][i, j] == pytest.approx(vbest, rel=1e-12, abs=0)
                    assert np.max(np.abs(vg.controls[0][i, j] - best)) <= 1e-12

    def test_controls_lie_on_the_quarter_step_lattice(self):
        box = power_box()
        grid = GridSpec(0.1, 1.0, 0.005, 6.0, 6.0, n_control=13)
        h = PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0, h_min=0.05, h_max=1.0)
        vg = solve_power_value(grid, benchmark_params(), h, GAMMA, box)
        for c in range(2):
            axis = np.linspace(box.lower[c], box.upper[c], 4 * grid.n_control - 3)
            assert np.all(np.isin(vg.controls[..., c], axis))

    def test_box_without_admissible_control_rejected(self):
        # every allocation of [0.9, 1]^2 loses more than all wealth when S defaults
        box = AdmissibleBox(lower=[0.9, 0.9], upper=[1.0, 1.0], eps_a=0.01)
        grid = GridSpec(0.1, 1.0, 0.005, 6.0, 6.0, n_control=13)
        with pytest.raises(ValueError, match="no admissible control lattice point"):
            solve_power_value(grid, benchmark_params(), ConstantIntensity(0.1), GAMMA, box)

    def test_value_nonincreasing_in_hazard_level(self):
        # contagion lowers utility when hazard cannot be monetized: the
        # premium stock is held long-only, and the stock whose default
        # would *upgrade* the investor (the post-default factor drops the
        # survivor's own hazard) never defaults.  Scaling the hazard up
        # then only brings the loss-making jump closer.
        params = two_stock(0.05, 0.10, 0.05, 0.40, 0.40, 0.0, 0.0, 0.3)
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
        params = two_stock(0.05, 0.09, 0.10, 0.40, 0.45, 0.0, 0.2, 0.3)
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

    def test_solve_never_holds_its_controls_beside_a_candidate_product(self):
        # the traced peak stays under the two outputs, one slice's coarse
        # candidate product and the index tables (an argmax per slice and
        # node, the walk's trial table), each at its own itemsize: 2 bytes
        # for the 1,089 quarter-lattice points.  A solve that wrote float
        # controls slice by slice would hold them beside every product and
        # exceed the bound by a slice's node factors and argmax windows less
        # the argmax table; at 1,681 nodes and 100 slices those are the
        # larger.  A solve that held its index tables in int32 would exceed
        # it too: with 72 coarse points the product is small beside them
        params, box = benchmark_params(), power_box()
        grid = GridSpec(0.2, 1.0, 0.002, 40.0, 40.0, n_control=9)
        h = PowerClampIntensity(h0=1.0, weights=(0.7, 0.3), alpha=1.0, h_min=0.05, h_max=1.0)
        vg, peak = traced_peak(lambda: solve_power_value(grid, params, h, GAMMA, box))
        fine, _, coarse = _quarter_lattice(box, params.L, grid.n_control)
        nodes = grid.s_nodes().size * grid.p_nodes().size
        product = coarse.size * nodes * 8
        itemsize = np.min_scalar_type(len(fine) - 1).itemsize
        index = (grid.n_slices * nodes + 80 * len(fine)) * itemsize
        assert vg.controls.shape == (100, 41, 41, 2) and itemsize == 2
        assert peak < vg.f.nbytes + vg.controls.nbytes + product + index

    def test_price_free_hazard_grid_fills_every_node(self, tmp_path):
        # a constant hazard, and a clamp that pins every node at h_max, are
        # solved on one node; the grid shows that node, read-only, at every
        # node and slice, and it is saved and loaded at one node
        grid = GridSpec(horizon=0.1, delta=1.0, dt=0.01, s_max=5.0, p_max=4.0,
                        n_control=7)
        pinned = PowerClampIntensity(h0=10.0, weights=(0.7, 0.3), alpha=1.0,
                                     h_min=0.05, h_max=0.3)
        grids = [solve_power_value(grid, benchmark_params(), h, GAMMA, power_box())
                 for h in (ConstantIntensity(0.3), pinned)]
        for vg in grids:
            assert vg.f.shape == (11, 6, 5) and vg.controls.shape == (10, 6, 5, 2)
            assert np.all(vg.f == vg.f[:, :1, :1])
            assert np.all(vg.controls == vg.controls[:, :1, :1])
            for arr in (vg.f, vg.controls):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 1, 1] = 0.0
                # one node's memory per slice
                assert arr.strides[1:3] == (0, 0)
        assert np.array_equal(grids[0].f, grids[1].f)
        assert np.array_equal(grids[0].controls, grids[1].controls)
        f = tmp_path / "flat.npz"
        grids[0].save(str(f))
        with np.load(f) as data:
            assert data["f"].shape == (11, 1, 1) and data["controls"].shape == (10, 1, 1, 2)
        back = ValueGrid.load(str(f))
        assert back.f.shape == (11, 6, 5) and back.controls.shape == (10, 6, 5, 2)
        assert np.array_equal(back.f, grids[0].f)
        assert np.array_equal(back.controls, grids[0].controls)
        assert not back.f.flags.writeable and not back.controls.flags.writeable

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

    def test_grid_built_in_process_checks_its_shapes(self):
        # the shipped power grid's 41 x 41 nodes, at ten slices
        grid = GridSpec(horizon=0.02, delta=5.0, dt=0.002, s_max=200.0, p_max=200.0,
                        n_control=21)
        f = np.ones((11, 41, 41))
        for controls, message in (
                (np.zeros((10, 21, 21, 2)),
                 "controls has shape (10, 21, 21, 2), its grid implies (10, 41, 41, 2)"),
                (np.zeros((2, 41, 41, 2)),
                 "controls has shape (2, 41, 41, 2), its grid implies (10, 41, 41, 2)")):
            with pytest.raises(ValueError) as exc:
                ValueGrid(grid=grid, gamma=GAMMA, f=f, controls=controls)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            ValueGrid(grid=grid, gamma=GAMMA, f=f[:, :1], controls=np.zeros((10, 41, 41, 2)))
        assert str(exc.value) == "f has shape (11, 1, 41), its grid implies (11, 41, 41)"
        # one node is read as every node, through a read-only view; the record
        # is frozen, so no array of another shape replaces a checked one
        node = np.arange(20.0).reshape(10, 1, 1, 2)
        vg = ValueGrid(grid=grid, gamma=GAMMA, f=f[:, :1, :1], controls=node)
        assert vg.f.shape == f.shape and vg.controls.shape == (10, 41, 41, 2)
        assert np.array_equal(vg.controls, np.broadcast_to(node, (10, 41, 41, 2)))
        assert not vg.f.flags.writeable and not vg.controls.flags.writeable
        with pytest.raises(FrozenInstanceError):
            vg.controls = np.zeros((10, 21, 21, 2))


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
        strat = PowerGridStrategy(vg, params, box)
        pi = one_row(strat, 0.0, 100.0, np.array([4.0, 7.0]), (0, 0))
        assert np.array_equal(pi, vg.controls[0][4, 7])

    def test_all_defaulted_gives_zero(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, box)
        pi = one_row(strat, 0.3, 100.0, np.array([0.0, 0.0]), (1, 1))
        assert np.array_equal(pi, [0.0, 0.0])

    def test_out_of_domain_clamps_and_counts(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, box)
        inside = one_row(strat, 0.0, 100.0, np.array([12.0, 7.0]), (0, 0))
        outside = one_row(strat, 0.0, 100.0, np.array([50.0, 7.0]), (0, 0))
        assert np.array_equal(inside, outside)
        assert strat.out_of_domain == 1
        assert strat.pre_default_queries == 2

    def test_post_default_merton_with_floor_cap(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, box)
        # surviving P: raw Merton 0.10/(0.16*0.5) = 1.25, box cap 1.0, floor cap 0.99
        pi = one_row(strat, 0.2, 100.0, np.array([0.0, 8.0]), (1, 0))
        assert pi[0] == 0.0 and pi[1] == pytest.approx(0.99)
        # surviving S: raw Merton 1.11 -> same cap
        pi = one_row(strat, 0.2, 100.0, np.array([8.0, 0.0]), (0, 1))
        assert pi[1] == 0.0 and pi[0] == pytest.approx(0.99)

    def test_time_slice_selection(self):
        vg, params, box = self.solved()
        strat = PowerGridStrategy(vg, params, box)
        a = one_row(strat, 0.0, 100.0, np.array([6.0, 6.0]), (0, 0))
        b = one_row(strat, 0.995, 100.0, np.array([6.0, 6.0]), (0, 0))
        assert np.array_equal(b, vg.controls[-1][6, 6])
        assert np.array_equal(a, vg.controls[0][6, 6])

    def test_batch_query_equals_the_bilinear_formula_bit_for_bit(self):
        # random controls on a grid with more S nodes than P nodes, so that
        # every weight and every corner read shows in the result
        params, box = benchmark_params(), power_box()
        grid = GridSpec(horizon=0.05, delta=1.5, dt=0.01, s_max=12.0, p_max=9.0, n_control=5)
        ns, np_ = grid.s_nodes().size, grid.p_nodes().size
        rng = np.random.default_rng(3)
        controls = rng.uniform(-1.0, 1.0, (grid.n_slices, ns, np_, 2))
        vg = ValueGrid(grid=grid, gamma=GAMMA, f=np.ones((grid.n_slices + 1, ns, np_)),
                       controls=controls)
        # pre-default rows at nodes, between nodes, at exactly s_max / p_max,
        # and beyond one or both edges (the last five, out of domain)
        nodes = np.column_stack([rng.integers(0, ns, 30), rng.integers(0, np_, 30)]) * grid.delta
        between = rng.uniform(0.0, 1.0, (300, 2)) * [grid.s_max, grid.p_max]
        edges = [[12.0, 4.0], [5.0, 9.0], [12.0, 9.0], [0.0, 0.0], [0.0, 9.0], [12.0, 0.0]]
        beyond = [[30.0, 4.0], [5.0, 20.0], [30.0, 20.0], [12.5, 9.0], [12.0, 9.5]]
        pre = np.vstack([nodes, between, edges, beyond])
        # defaulted rows: the dead stock's price lies beyond s_max and
        # p_max, and some survivors' prices lie beyond theirs
        dead = np.array([[50.0, 4.0], [50.0, 20.0], [5.0, 50.0], [30.0, 50.0], [50.0, 50.0]])
        dead_bits = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 1]], dtype=np.uint8)
        order = rng.permutation(len(pre) + len(dead))
        prices = np.vstack([pre, dead])[order]
        states = np.vstack([np.zeros(pre.shape, dtype=np.uint8), dead_bits])[order]

        k = 2
        strat = PowerGridStrategy(vg, params, box)
        got = strat.allocations(k * grid.dt + 0.004, np.ones(len(prices)), prices, states)

        # the bilinear formula in the order the strategy has always used
        sc = np.clip(prices[:, 0], 0.0, grid.s_max)
        pc = np.clip(prices[:, 1], 0.0, grid.p_max)
        i = np.minimum((sc / grid.delta).astype(np.int64), ns - 2)
        j = np.minimum((pc / grid.delta).astype(np.int64), np_ - 2)
        u = (sc - i * grid.delta) / grid.delta
        w = (pc - j * grid.delta) / grid.delta
        alive = states == 0
        want = np.empty(prices.shape)
        for c in range(2):
            tbl = controls[k][:, :, c]
            interp = ((1 - u) * (1 - w) * tbl[i, j] + u * (1 - w) * tbl[i + 1, j]
                      + (1 - u) * w * tbl[i, j + 1] + u * w * tbl[i + 1, j + 1])
            merton = merton_power_control(params, GAMMA, box.lower[c],
                                          min(box.upper[c], 1.0 - box.eps_a), stock=c)
            want[:, c] = np.where(alive.all(axis=1), interp,
                                  np.where(alive[:, c], merton, 0.0))
        assert np.array_equal(got, want)
        assert strat.pre_default_queries == len(pre)
        assert strat.out_of_domain == len(beyond)

    def test_one_node_grid_query_equals_its_copy_at_every_node_bit_for_bit(self):
        # a grid held at one node, as the comparator's is: a query reads
        # that node at every corner, with the weights of the per-node query.
        # Random controls differ in every slice, so the slice read shows too
        params, box = benchmark_params(), power_box()
        grid = GridSpec(horizon=0.1, delta=1.5, dt=0.01, s_max=12.0, p_max=9.0, n_control=5)
        shape = (grid.s_nodes().size, grid.p_nodes().size)
        rng = np.random.default_rng(4)
        node = rng.uniform(-1.0, 1.0, (grid.n_slices, 1, 1, 2))
        f = np.ones((grid.n_slices + 1, *shape))
        vg = ValueGrid(grid=grid, gamma=GAMMA, f=f,
                       controls=np.broadcast_to(node, (grid.n_slices, *shape, 2)))
        copied = ValueGrid(grid=grid, gamma=GAMMA, f=f, controls=np.array(vg.controls))
        assert vg.controls.strides[1:3] == (0, 0) and copied.controls.strides[1:3] != (0, 0)
        prices = rng.uniform(0.0, 1.2, (400, 2)) * [grid.s_max, grid.p_max]
        states = (rng.uniform(size=(400, 2)) < 0.2).astype(np.uint8)
        one, full = (PowerGridStrategy(g, params, box) for g in (vg, copied))
        for t in (0.0, 0.034, 0.061, 0.0999):
            got = one.allocations(t, np.ones(len(prices)), prices, states)
            assert np.array_equal(got, full.allocations(t, np.ones(len(prices)), prices, states))
        assert (one.pre_default_queries, one.out_of_domain) == \
            (full.pre_default_queries, full.out_of_domain)


class TestPowerParams:
    def test_gamma_domain(self):
        grid = GridSpec(horizon=0.02, delta=1.0, dt=0.01, s_max=4.0, p_max=4.0, n_control=5)
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"gamma must lie strictly inside \(0, 1\)"):
                solve_power_value(grid, benchmark_params(), benchmark_intensity(), gamma,
                                  power_box())
        vg = solve_power_value(grid, benchmark_params(), benchmark_intensity(), 0.5, power_box())
        assert vg.gamma == 0.5

    def test_zero_volatility_rejected(self):
        grid = GridSpec(horizon=0.02, delta=1.0, dt=0.01, s_max=4.0, p_max=4.0, n_control=5)
        vg = solve_power_value(grid, benchmark_params(), benchmark_intensity(), GAMMA,
                               power_box())
        for sigma, name in (((0.0, 0.4), "S"), ((0.3, 0.0), "P")):
            params = two_stock(0.05, 0.10, 0.15, *sigma, 0.0, 0.2, 0.3)
            with pytest.raises(ValueError, match=f"stock {name} has volatility 0; "):
                solve_power_value(grid, params, benchmark_intensity(), GAMMA, power_box())
            with pytest.raises(ValueError, match=f"stock {name} has volatility 0; "):
                PowerGridStrategy(vg, params, power_box())


class TestLogLimit:
    """As gamma -> 0 the DP's objective over pi at a node, divided by gamma,
    tends to the log rate G at the node's hazards (f and g1 tend to 1,
    J^gamma = 1 + gamma ln J + O(gamma^2), the drift terms are O(gamma^2)),
    so the DP's controls tend to the KT solver's."""

    def test_dp_control_gap_to_kt_shrinks_first_order_in_gamma(self):
        params, intensity = benchmark_params(), benchmark_intensity()
        box = AdmissibleBox([-1.0, -1.0], [0.5, 0.5])
        grid = GridSpec(horizon=0.01, delta=5.0, dt=0.002, s_max=60.0, p_max=60.0,
                        n_control=21)
        # interior nodes only: an edge node's clamped moves bias its drift terms
        S, P = np.meshgrid(grid.s_nodes()[1:-1], grid.p_nodes()[1:-1], indexing="ij")
        prices = np.column_stack([S.ravel(), P.ravel()])
        rates = intensity.rates_matrix(np.zeros(prices.shape, dtype=np.uint8), prices)
        kt = solve_kt_batch(LogControlProblem(params, intensity, box),
                            rates[:, 0], rates[:, 1])[0]
        gaps = []
        for gamma in (0.3, 0.1, 0.03, 0.01):
            controls = solve_power_value(grid, params, intensity, gamma, box).controls[0]
            gaps.append(np.abs(controls[1:-1, 1:-1].reshape(-1, 2) - kt).max())
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # first order predicts gap(0.03) = 0.3 gap(0.1) until the quarter step
        # of the control lattice (0.019 here) is reached
        assert gaps[2] < gaps[1] / 2
