import copy
import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from contagionopt.dynamics import (
    _BLOCK,
    PathConfig,
    Strategy,
    _draws,
    _simulate,
    _simulate_worlds,
    evolve_wealth,
    simulate_paths,
)
from contagionopt.experiments import builtin_config, config_from_dict
from contagionopt.logopt import LogControlProblem, LogStrategy
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    PowerClampIntensity,
    ReciprocalIntensity,
    jump_factors,
)
from contagionopt.powergrid import PowerGridStrategy, solve_power_value
from contagionopt.stats import summarize

from helpers import ConstantAllocation, two_stock
from test_model import benchmark_intensity, benchmark_params

ZERO_H = ConstantIntensity(0.0)


def single_stock(mu=0.10, sigma=0.25, r=0.03):
    return MarketParams(r=r, mu=[mu], sigma=[sigma], rho=[[1.0]], L=[[1.0]])


def one_row(strategy, t, x, prices, bits):
    """A strategy's allocation for a single path in the default state ``bits``."""
    return strategy.allocations(t, np.array([x]), np.asarray(prices, dtype=float)[None, :],
                                np.array([bits], dtype=np.uint8))[0]


def state_bits(bundle):
    """Default-state bits ``[path, step, stock]`` of a bundle: stock ``j``
    of path ``p`` is down at step ``k`` once ``0 <= default_step[p, j] < k``."""
    d = bundle.default_step[:, None, :]
    k = np.arange(bundle.cfg.n_steps + 1)[None, :, None]
    return ((d >= 0) & (d < k)).astype(np.uint8)


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def price_history(bundle):
    """Replayed prices ``[path, step, stock]`` of a bundle, steps
    ``0..n_steps``, from :meth:`PathBundle.price_steps`."""
    return np.stack([prices for prices, _, _ in bundle.price_steps()], axis=1)


class Recording(Strategy):
    """``strategy`` with the wealth each step hands it recorded in ``xs``."""

    def __init__(self, strategy):
        self.strategy, self.box, self.xs = strategy, strategy.box, []

    def allocations(self, t, x, prices, states):
        return self.strategy.allocations(t, x, prices, states)

    def step_allocations(self, t, x, prices, states, prev):
        self.xs.append(x.copy())
        return self.strategy.step_allocations(t, x, prices, states, prev)


def wealth_paths(bundle, strategy, x0):
    """Wealth ``[path, step]`` of one evolution: the wealth each step hands
    the strategy, then the terminal wealth :func:`evolve_wealth` returns."""
    rec = Recording(strategy)
    terminal = evolve_wealth(bundle, [rec], x0)[0]
    return np.column_stack(rec.xs + [terminal])


def three_stock_params():
    return MarketParams(r=0.05, mu=[0.1, 0.12, 0.15], sigma=[0.3, 0.35, 0.4],
                        rho=[[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]],
                        L=[[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])


class TestSimulatePaths:
    def test_deterministic_drift_no_hazard(self):
        params = two_stock(r=0.05, mu_s=0.05, mu_p=0.05, sigma_s=0.0,
                           sigma_p=0.0, rho=0.0, loss_s=0.2, loss_p=0.3)
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=16, master_seed=1)
        bundle = simulate_paths(params, ZERO_H, cfg, [100.0, 100.0])
        assert not bundle.default_mask().any()
        assert np.allclose(price_history(bundle)[:, -1], 100.0 * np.exp(0.05), rtol=1e-12)

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
        bits = state_bits(bundle)
        prices = price_history(bundle)
        checked = 0
        for path, stock in zip(*np.nonzero(bundle.default_step >= 0)):
            k = bundle.default_step[path, stock]
            pre = prices[path, k] * growth[path, k]
            assert prices[path, k + 1, stock] == 0.0
            other = 1 - stock
            if bits[path, k, other] == 0:
                expect = pre[other] * (1.0 - params.L[other, stock])
                assert prices[path, k + 1, other] == pytest.approx(expect, rel=1e-13, abs=0)
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

    def test_default_steps_match_the_exact_default_times(self):
        # with constant hazards stock i's clock is reached after
        # x_i = clock_i / (h_i dt) steps, so it defaults at step
        # ceil(x_i) - 1; when both land in one step the earlier crossing
        # defaults and the other, its hazard stopped short of its clock,
        # defaults a step later
        h = np.array([3.0, 5.0])
        cfg = PathConfig(horizon=1.0, n_steps=8, n_paths=20000, master_seed=21)
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(h), cfg,
                                [100.0, 100.0])
        x = bundle.clocks / (h * cfg.dt)
        expect = np.ceil(x).astype(np.int64) - 1
        same = expect[:, 0] == expect[:, 1]
        rows = np.flatnonzero(same)
        expect[rows, x[rows].argmax(axis=1)] += 1
        expect[expect >= cfg.n_steps] = -1
        clear = (np.abs(x - np.round(x)) > 1e-9).all(axis=1)
        assert clear.sum() > 19000 and (same & clear).sum() > 1000
        assert np.array_equal(bundle.default_step[clear], expect[clear])

    def test_bundle_is_read_only(self):
        cfg = PathConfig(horizon=1.0, n_steps=10, n_paths=50, master_seed=14)
        s0 = np.array([100.0, 100.0])
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(1.0), cfg, s0)
        # the bundle freezes its own copy of s0, not the caller's array
        assert s0.flags.writeable and not np.shares_memory(s0, bundle.s0)
        # each default is stored once, in default_step, not also as state
        # bits, and the prices not at all: they are replayed
        arrays = [f.name for f in fields(bundle)
                  if isinstance(getattr(bundle, f.name), np.ndarray)]
        assert arrays == ["s0", "normals", "clocks", "default_step"]
        for name in arrays:
            arr = getattr(bundle, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0
        steps = list(bundle.price_steps())
        assert len(steps) == cfg.n_steps + 1
        for k, (prices, states, _) in enumerate(steps):
            for arr in (prices, states):
                assert not arr.flags.writeable, k
                with pytest.raises(ValueError):
                    arr[0] = 0
        with pytest.raises(FrozenInstanceError):
            bundle.normals = bundle.normals.copy()

    def test_rng_digest_hashes_normals_then_clocks(self):
        # the digest hashes the step-major normals one block of paths at a
        # time; tobytes() copies them whole, in [path, step, stock] order.
        # One block, and two whole blocks and a partial third
        for n_paths in (50, 2 * _BLOCK + 3):
            cfg = PathConfig(horizon=1.0, n_steps=10, n_paths=n_paths, master_seed=15)
            bundle = simulate_paths(benchmark_params(), benchmark_intensity(), cfg,
                                    [100.0, 100.0])
            expect = hashlib.sha256(bundle.normals.tobytes() + bundle.clocks.tobytes())
            assert bundle.rng_digest() == expect.hexdigest(), n_paths

    def test_path_prefix_does_not_depend_on_path_count(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=0.5, n_steps=40, n_paths=2500, master_seed=6)
        full = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        for k in (1000, 1024, 1500):  # inside, at and across a simulation block edge
            part = simulate_paths(params, benchmark_intensity(),
                                  PathConfig(horizon=0.5, n_steps=40, n_paths=k,
                                             master_seed=6), [100.0, 100.0])
            for name in ("normals", "clocks", "default_step"):
                a, b = getattr(full, name)[:k], getattr(part, name)
                assert a.tobytes() == b.tobytes(), (k, name)
            assert price_history(full)[:k].tobytes() == price_history(part).tobytes(), k

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            two_stock(0.05, 0.1, 0.15, 0.3, 0.4, 1.0 + 1e-9, 0.2, 0.3)

    def test_each_path_draws_its_own_philox_stream(self):
        # path i's clocks are the first n exponentials of the Philox
        # stream keyed (seed, i), its normals the next standard normals
        # correlated by the Cholesky factor; paths 1023 and 1024 straddle
        # a simulation block edge.  Two and three stocks, twenty steps and
        # one: the edge shapes of the rows the draws are written into
        three = three_stock_params()
        for params, intensity, n_steps in ((benchmark_params(), benchmark_intensity(), 20),
                                           (three, ConstantIntensity(0.5), 20),
                                           (benchmark_params(), benchmark_intensity(), 1),
                                           (three, ConstantIntensity(0.5), 1)):
            n = params.n
            cfg = PathConfig(horizon=0.5, n_steps=n_steps, n_paths=1100, master_seed=77)
            assert _BLOCK < cfg.n_paths
            bundle = simulate_paths(params, intensity, cfg, [100.0] * n)
            for i in (0, _BLOCK - 1, _BLOCK, cfg.n_paths - 1):
                gen = np.random.Generator(np.random.Philox(key=[cfg.master_seed, i]))
                assert np.array_equal(bundle.clocks[i], gen.exponential(1.0, n)), (n, n_steps, i)
                raw = gen.standard_normal((cfg.n_steps, n))
                assert np.array_equal(bundle.normals[i], raw @ params.chol().T), (n, n_steps, i)

    def test_step_loop_equals_the_matrix_formulas_bit_for_bit(self):
        # the simulation steps column by column; its prices, states and
        # default steps must keep the bits of this (m, n) step loop
        def reference(params, intensity, bundle, s0):
            cfg = bundle.cfg
            m, n, dt = cfg.n_paths, params.n, cfg.dt
            prices = np.tile(s0, (m, 1))
            states = np.zeros((m, n), dtype=np.uint8)
            cum_hazard = np.zeros((m, n))
            default_step = np.full((m, n), -1)
            out_p, out_s = [prices], [states.copy()]
            drift = (params.mu - 0.5 * params.sigma**2) * dt
            vol = params.sigma * np.sqrt(dt)
            deferred = 0
            for k in range(cfg.n_steps):
                alive = states == 0
                rates = intensity.rates_matrix(states, prices)
                new_hazard = cum_hazard + rates * dt
                crossed = alive & (new_hazard >= bundle.clocks)
                prices = np.where(alive, prices * np.exp(drift + vol * bundle.normals[:, k]), 0.0)
                hit = np.flatnonzero(crossed.any(axis=1))
                if hit.size:
                    frac = np.divide(bundle.clocks - cum_hazard, rates * dt,
                                     out=np.full((m, n), np.inf), where=crossed)
                    first = frac.argmin(axis=1)
                    j = first[hit]
                    crossed[hit, j] = False
                    p, q = np.nonzero(crossed)
                    deferred += p.size
                    new_hazard[p, q] = cum_hazard[p, q] + rates[p, q] * dt * frac[p, first[p]]
                    prices[hit] *= 1.0 - params.L[:, j].T
                    prices[hit, j] = 0.0
                    states[hit, j] = 1
                    default_step[hit, j] = k
                cum_hazard = new_hazard
                out_p.append(prices)
                out_s.append(states.copy())
            return np.stack(out_p, axis=1), np.stack(out_s, axis=1), default_step, deferred

        three = three_stock_params()
        cases = [(benchmark_params(), benchmark_intensity()),
                 (benchmark_params(), ReciprocalIntensity(c=150.0)),
                 (three, PowerClampIntensity(h0=100.0, weights=(0.5, 0.3, 0.2), alpha=1.0,
                                             h_min=0.05, h_max=3.0)),
                 (three, ReciprocalIntensity(c=200.0)),
                 (three, ConstantIntensity([0.5, 1.0, 0.8]))]
        for params, intensity in cases:
            cfg = PathConfig(horizon=1.0, n_steps=12, n_paths=1500, master_seed=21)
            s0 = np.array([100.0, 80.0, 60.0][:params.n])
            bundle = simulate_paths(params, intensity, cfg, s0)
            prices, states, default_step, deferred = reference(params, intensity, bundle, s0)
            # clocks crossed in a step after the first one there are re-tested
            assert deferred > 0, intensity
            assert price_history(bundle).tobytes() == prices.tobytes(), intensity
            assert state_bits(bundle).tobytes() == states.tobytes(), intensity
            assert np.array_equal(bundle.default_step, default_step), intensity

    def test_seeds_above_two_to_the_63_keep_their_streams_apart(self):
        # the key is the exact 64-bit seed, not a float rounding of it
        params = benchmark_params()
        clocks = []
        for seed in (2**63 + 1, 2**63 + 2, 2**64 - 1):
            cfg = PathConfig(horizon=0.5, n_steps=2, n_paths=2, master_seed=seed)
            bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
            key = np.array([seed, 1], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(bundle.clocks[1], gen.exponential(1.0, 2)), seed
            clocks.append(bundle.clocks[1])
        assert len({c.tobytes() for c in clocks}) == 3


class TestStepMajorLayout:
    """The bundle is indexed [path, step, ...] but stored step-major, so one
    step of all paths is one contiguous block."""

    def bundle(self):
        cfg = PathConfig(horizon=1.0, n_steps=30, n_paths=1500, master_seed=16)
        return simulate_paths(benchmark_params(), ConstantIntensity(0.8), cfg, [100.0, 100.0])

    def test_each_step_is_contiguous(self):
        bundle = self.bundle()
        wealth = evolve_wealth(bundle, [ConstantAllocation([0.2, -0.1])], 100.0)[0]
        for k in (0, 7, bundle.cfg.n_steps - 1):
            assert bundle.normals[:, k].flags.c_contiguous, k
        for k, (step, _, _) in enumerate(bundle.price_steps()):
            assert step.shape == (bundle.n_paths, 2) and step.flags.c_contiguous, k
        assert wealth.shape == (bundle.n_paths,) and wealth.flags.c_contiguous

    def test_evolve_wealth_does_not_depend_on_the_memory_order(self):
        # a path-major copy of the normals reads the same numbers
        bundle = self.bundle()
        assert bundle.default_mask().sum() > 100
        path_major = replace(bundle, normals=np.ascontiguousarray(bundle.normals))
        assert path_major.normals.flags.c_contiguous and not bundle.normals.flags.c_contiguous
        strategy = ConstantAllocation([0.3, -0.2])
        a = evolve_wealth(bundle, [strategy], 100.0)[0]
        b = evolve_wealth(path_major, [strategy], 100.0)[0]
        assert a.tobytes() == b.tobytes()

    def test_shared_draw_worlds_equal_fresh_simulations(self):
        # a sweep draws its random numbers once; each world, the benchmark, a
        # drift change and a correlation change (its own Cholesky factor),
        # equals a simulation of its own, across a block edge
        base = benchmark_params()
        worlds = [(base, benchmark_intensity()),
                  (replace(base, mu=np.array([0.12, 0.15])), benchmark_intensity()),
                  (replace(base, rho=np.array([[1.0, -0.3], [-0.3, 1.0]])),
                   benchmark_intensity())]
        cfg = PathConfig(horizon=0.5, n_steps=20, n_paths=_BLOCK + 40, master_seed=17)
        shared = list(_simulate_worlds(worlds, cfg, [100.0, 100.0]))
        assert len(shared) == 3
        assert shared[1].normals.tobytes() == shared[0].normals.tobytes()
        assert shared[2].normals.tobytes() != shared[0].normals.tobytes()
        for (params, intensity), got in zip(worlds, shared):
            fresh = simulate_paths(params, intensity, cfg, [100.0, 100.0])
            for name in ("s0", "normals", "clocks", "default_step"):
                assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert price_history(got).tobytes() == price_history(fresh).tobytes()
            assert got.rng_digest() == fresh.rng_digest()


class HazardWitness:
    """``intensity`` with a copy of the ``prices`` of each ``rates_matrix``
    call kept in ``seen``: the prices the simulation's hazard rule saw."""

    def __init__(self, intensity):
        self.intensity, self.seen = intensity, []

    def rates_matrix(self, states, prices):
        self.seen.append(prices.copy())
        return self.intensity.rates_matrix(states, prices)


class TestPriceReplay:
    """The bundle stores no prices; :meth:`PathBundle.price_steps` replays
    them from ``s0``, the normals and ``default_step``."""

    def assert_replays(self, bundle, witness):
        steps = bundle.cfg.n_steps
        assert len(witness.seen) == steps
        # defaults with a survivor before the horizon, so the jumps show
        down = (bundle.default_step >= 0) & (bundle.default_step < steps - 1)
        assert (down.any(axis=1) & ~down.all(axis=1)).sum() > 50
        bits = state_bits(bundle)
        kept = []
        for k, (step, states, (p, j)) in enumerate(bundle.price_steps()):
            if k < steps:
                assert step.tobytes() == witness.seen[k].tobytes(), k
            # the replay's default state and the step's defaults, from default_step
            assert states.tobytes() == bits[:, k].tobytes(), k
            # a state bit is 1 exactly where the price is 0
            assert np.array_equal(states == 1, step == 0.0), k
            assert np.array_equal(np.column_stack([p, j]),
                                  np.argwhere(bundle.default_step == k)), k
            kept.append((step, step.copy()))
        assert len(kept) == steps + 1
        # a step's array is not reused once the generator has moved past it
        for k, (step, copy) in enumerate(kept):
            assert step.tobytes() == copy.tobytes(), k

    def test_replay_equals_the_prices_the_hazard_rule_saw(self):
        cfg = PathConfig(horizon=1.0, n_steps=30, n_paths=_BLOCK + 200, master_seed=23)
        three = three_stock_params()
        for params, intensity, s0 in ((benchmark_params(), benchmark_intensity(), [100.0, 100.0]),
                                      (three, ReciprocalIntensity(c=200.0), [100.0, 80.0, 60.0])):
            witness = HazardWitness(intensity)
            bundle = simulate_paths(params, witness, cfg, s0)
            self.assert_replays(bundle, witness)

    def test_replay_of_a_perturbed_world(self):
        base = benchmark_params()
        worlds = [(base, HazardWitness(benchmark_intensity())),
                  (replace(base, rho=np.array([[1.0, -0.3], [-0.3, 1.0]]),
                           mu=np.array([0.12, 0.15])), HazardWitness(benchmark_intensity()))]
        cfg = PathConfig(horizon=1.0, n_steps=30, n_paths=_BLOCK + 200, master_seed=24)
        bundles = list(_simulate_worlds(worlds, cfg, [100.0, 100.0]))
        assert bundles[1].normals.tobytes() != bundles[0].normals.tobytes()
        for (_, witness), bundle in zip(worlds, bundles):
            self.assert_replays(bundle, witness)


class TestEvolveWealth:
    def test_wealth_prefix_does_not_depend_on_path_count(self):
        # the log strategies start each path's KT solve from that path's
        # previous allocation, so a path's wealth is its own history's
        from contagionopt.logopt import LogControlProblem, LogStrategy
        params = benchmark_params()
        box = AdmissibleBox(lower=[-1.0, -1.0], upper=[0.5, 0.5], eps_a=0.01)
        problem = LogControlProblem(params=params, intensity=benchmark_intensity(), box=box)

        def wealth(n_paths, hbar):
            cfg = PathConfig(horizon=0.5, n_steps=40, n_paths=n_paths, master_seed=8)
            bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
            return evolve_wealth(bundle, [LogStrategy(problem, hbar=hbar)], 100.0)[0]

        for hbar in (None, 0.1):  # the active strategy and the passive comparator
            full = wealth(2500, hbar)
            for k in (1000, 1024, 1500):  # inside, at and across a simulation block edge
                assert full[:k].tobytes() == wealth(k, hbar).tobytes(), (hbar, k)

    def test_one_pass_equals_a_pass_per_strategy(self):
        # each strategy of one pass sees the query sequence of a pass of its
        # own, so its terminal wealth keeps the bits: a log pair (active,
        # passive) and a power-grid pair, on paths where each stock defaults
        # with the other alive and paths where both default
        from contagionopt.logopt import LogControlProblem, LogStrategy
        from contagionopt.powergrid import GridSpec, PowerGridStrategy, solve_power_value
        params, intensity = benchmark_params(), benchmark_intensity()
        cfg = PathConfig(horizon=0.5, n_steps=25, n_paths=600, master_seed=25)
        bundle = simulate_paths(params, intensity, cfg, [8.0, 8.0])
        down = bundle.default_step >= 0
        assert down.all(axis=1).sum() > 10
        for j in (0, 1):
            assert (down[:, j] & ~down[:, 1 - j]).sum() > 10, j
        log_box = AdmissibleBox(lower=[-1.0, -1.0], upper=[0.5, 0.5], eps_a=0.01)
        problem = LogControlProblem(params=params, intensity=intensity, box=log_box)
        box = AdmissibleBox(lower=[-1.0, -1.0], upper=[1.0, 1.0], eps_a=0.01)
        grid = GridSpec(horizon=0.5, delta=1.0, dt=0.01, s_max=16.0, p_max=16.0, n_control=9)
        pairs = {
            "log": lambda: [LogStrategy(problem), LogStrategy(problem, hbar=0.1)],
            "power": lambda: [PowerGridStrategy(solve_power_value(grid, params, h, 0.5, box),
                                                params, box)
                              for h in (intensity, ConstantIntensity(0.1))],
        }
        for name, pair in pairs.items():
            together = evolve_wealth(bundle, pair(), 100.0)
            alone = [evolve_wealth(bundle, [s], 100.0)[0] for s in pair()]
            assert len(together) == 2, name
            for a, b in zip(together, alone):
                assert a.tobytes() == b.tobytes(), name
            assert together[0].tobytes() != together[1].tobytes(), name

    def test_bank_account_is_exact(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=200, master_seed=7)
        bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        # x0 e^{rt} at every step, defaults or not
        wealth = wealth_paths(bundle, ConstantAllocation([0.0, 0.0]), x0=100.0)
        target = 100.0 * np.exp(params.r * cfg.dt * np.arange(cfg.n_steps + 1))
        assert bundle.default_mask().any()
        assert np.allclose(wealth, target, rtol=1e-12)

    def test_fully_invested_deterministic_single_stock(self):
        params = single_stock(mu=0.08, sigma=0.0)
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=8, master_seed=8)
        bundle = simulate_paths(params, ZERO_H, cfg, [50.0])
        wealth = evolve_wealth(bundle, [ConstantAllocation([1.0])], x0=10.0)[0]
        assert np.allclose(wealth, 10.0 * np.exp(0.08), rtol=1e-12)

    def test_wealth_steps_equal_the_matrix_formulas_bit_for_bit(self):
        # the step loop sums pi' Sigma pi and the diffusion column by column;
        # the reference here writes them as einsum and an axis sum, finds
        # each step's defaults by comparing default_step with it and hands
        # the strategy the state bits derived from default_step
        class PriceTilt(ConstantAllocation):
            def allocations(self, t, x, prices, states):
                return np.where(states == 1, 0.0, np.clip(0.001 * (prices - 90.0), -0.3, 0.3))

        def reference(bundle, strategy, x0):
            p, dt = bundle.params, bundle.cfg.dt
            bits, prices = state_bits(bundle), price_history(bundle)
            xs = [np.full(bundle.n_paths, x0)]
            for k in range(bundle.cfg.n_steps):
                pi = strategy.allocations(k * dt, xs[-1], prices[:, k], bits[:, k])
                quad = np.einsum("ij,jk,ik->i", pi, p.cov, pi)
                diffusion = (pi * p.sigma * bundle.normals[:, k]).sum(axis=1) * np.sqrt(dt)
                x = xs[-1] * np.exp((p.r + pi @ p.theta - 0.5 * quad) * dt + diffusion)
                path, stock = np.nonzero(bundle.default_step == k)
                x[path] *= 1.0 - np.einsum("ij,ji->i", pi[path], p.L[:, stock])
                xs.append(x)
            return np.column_stack(xs)

        for params in (benchmark_params(), three_stock_params()):
            cfg = PathConfig(horizon=1.0, n_steps=60, n_paths=1500, master_seed=10)
            bundle = simulate_paths(params, ConstantIntensity(0.8), cfg, [100.0] * params.n)
            assert (bundle.default_step >= 0).sum() > 100
            strategy = PriceTilt([0.0] * params.n)
            got = wealth_paths(bundle, strategy, x0=100.0)
            assert got.tobytes() == reference(bundle, strategy, 100.0).tobytes(), params.n

    def test_default_step_wealth_ratio(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=100, n_paths=300, master_seed=9)
        bundle = simulate_paths(params, ConstantIntensity(1.0), cfg, [100.0, 100.0])
        pi = np.array([0.3, 0.2])
        wealth = wealth_paths(bundle, ConstantAllocation(pi), x0=100.0)
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
                ratio = wealth[path, first + 1] / wealth[path, first]
                assert ratio == pytest.approx(diff_factor * jump, rel=1e-12, abs=0)
                checked += 1
        assert checked > 5

    def test_wealth_scales_linearly_in_x0(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=100, master_seed=10)
        bundle = simulate_paths(params, benchmark_intensity(), cfg, [100.0, 100.0])
        strat = ConstantAllocation([0.2, -0.3])
        w1 = evolve_wealth(bundle, [strat], x0=100.0)[0]
        w2 = evolve_wealth(bundle, [strat], x0=200.0)[0]
        assert np.array_equal(w2, 2.0 * w1)
        # second moment therefore scales exactly as x0^2
        m1 = np.mean(w1**2)
        m2 = np.mean(w2**2)
        assert np.isfinite(m1) and m2 == pytest.approx(4.0 * m1, rel=1e-15, abs=0)
        # the solvers' strategies allocate fractions of wealth too: both log
        # sides and both power grids.  Scaling by a power of two is exact, so
        # terminal wealth and its summary scale bit for bit
        runs = []
        for name, paths in (("benchmark-inferred", {}), ("crisis-reciprocal", {}),
                            ("power-benchmark", {"horizon": 0.02})):
            doc = copy.deepcopy(builtin_config(name).raw)
            doc["paths"].update(paths, n_paths=400, n_steps=40)
            c = config_from_dict(doc)
            if c.grid is None:
                problem = LogControlProblem(c.market, c.intensity, c.box)
                strategies = [LogStrategy(problem), LogStrategy(problem, c.hbar)]
            else:
                strategies = [PowerGridStrategy(solve_power_value(c.grid, c.market, h, c.gamma,
                                                                  c.box), c.market, c.box)
                              for h in (c.intensity, ConstantIntensity(c.hbar))]
            runs.append((simulate_paths(c.market, c.intensity, c.paths, c.s0), strategies))
        for bundle, strategies in runs:
            base = evolve_wealth(bundle, strategies, 100.0)
            for scale in (2.0, 0.5):
                for w, scaled in zip(base, evolve_wealth(bundle, strategies, scale * 100.0)):
                    assert np.array_equal(scaled, scale * w)
                    one, other = summarize(w), summarize(scaled)
                    assert [other.mean, other.std, other.q_low, other.q_high] == \
                        [scale * v for v in (one.mean, one.std, one.q_low, one.q_high)]

    def test_defaulted_allocation_aborts(self):
        class Bad(ConstantAllocation):
            def allocations(self, t, x, prices, states):
                return np.broadcast_to(self.pi, prices.shape).copy()

        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=60, n_paths=200, master_seed=11)
        bundle = simulate_paths(params, ConstantIntensity(2.0), cfg, [100.0, 100.0])
        with pytest.raises(RuntimeError, match="allocated to a defaulted stock"):
            evolve_wealth(bundle, [Bad([0.3, 0.3])], x0=100.0)

    @pytest.mark.parametrize("field", ["prices", "states"])
    def test_strategy_writing_market_state_raises(self, field):
        class Scribbler(ConstantAllocation):
            def allocations(self, t, x, prices, states):
                if field == "prices":
                    prices *= 0.5
                else:
                    states[:] = 1
                return super().allocations(t, x, prices, states)

        cfg = PathConfig(horizon=1.0, n_steps=10, n_paths=50, master_seed=13)
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(1.0), cfg,
                                [100.0, 100.0])
        with pytest.raises(ValueError, match="read-only"):
            evolve_wealth(bundle, [Scribbler([0.1, 0.1])], x0=100.0)

    def test_wealth_reaching_zero_aborts(self):
        # with no box the floor is 0: all of the wealth in S loses all of it
        # when S defaults, a factor of exactly 0
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=100, master_seed=19)
        bundle = simulate_paths(params, ConstantIntensity(1.0), cfg, [100.0, 100.0])
        assert (bundle.default_step[:, 0] >= 0).any()
        assert jump_factors(params.L, [1.0, 0.0])[0] == 0.0
        with pytest.raises(RuntimeError, match="wealth path hit zero"):
            evolve_wealth(bundle, [ConstantAllocation([1.0, 0.0])], x0=100.0)

    def test_negative_wealth_turned_positive_by_a_later_jump_aborts(self):
        # with no box the check accepts jump factors down to -1e-9; here S's
        # default and then P's each multiply wealth by about -5e-10, so the
        # terminal wealth is positive while the wealth after S's default is
        # negative.  One path, which sees S default and then P
        params = two_stock(r=0.05, mu_s=0.10, mu_p=0.15, sigma_s=0.30,
                           sigma_p=0.40, rho=0.0, loss_s=0.0, loss_p=0.2)
        a = 1.0 + 5e-10
        pi = np.array([a - 0.2 * a, a])
        before, after = jump_factors(params.L, pi)[0], jump_factors(params.L, [0.0, a])[1]
        assert -1e-9 < before < 0.0 and -1e-9 < after < 0.0
        cfg = PathConfig(horizon=1.0, n_steps=50, n_paths=1, master_seed=1)
        bundle = simulate_paths(params, ConstantIntensity([3.0, 3.0]), cfg, [100.0, 100.0])
        s_step, p_step = bundle.default_step[0]
        assert 0 <= s_step < p_step
        with pytest.raises(RuntimeError, match=f"wealth path hit zero at step {s_step}"):
            evolve_wealth(bundle, [ConstantAllocation(pi)], x0=100.0)

    def test_evolve_holds_no_wealth_or_state_history(self):
        # each step's wealth and default state replace the last step's, so
        # the evolve's traced peak stays far below one (n_steps+1, n_paths)
        # float64 array
        cfg = PathConfig(horizon=1.0, n_steps=400, n_paths=4000, master_seed=20)
        bundle = simulate_paths(benchmark_params(), ConstantIntensity(0.8), cfg,
                                [100.0, 100.0])
        assert bundle.default_mask().sum() > 1000
        (wealth,), peak = traced_peak(
            lambda: evolve_wealth(bundle, [ConstantAllocation([0.2, -0.1])], x0=100.0))
        assert wealth.shape == (cfg.n_paths,)
        assert peak < (cfg.n_steps + 1) * cfg.n_paths * 8 / 4

    def test_box_violation_aborts(self):
        params = benchmark_params()
        box = AdmissibleBox(lower=[-0.1, -0.1], upper=[0.1, 0.1], eps_a=0.01)
        cfg = PathConfig(horizon=0.5, n_steps=10, n_paths=20, master_seed=12)
        bundle = simulate_paths(params, ZERO_H, cfg, [100.0, 100.0])
        for pi in ([0.3, 0.0], [0.0, -0.2]):  # above S's upper, below P's lower bound
            with pytest.raises(RuntimeError, match="left the admissible box at step 0"):
                evolve_wealth(bundle, [ConstantAllocation(pi, box=box)], x0=100.0)


class TestStockExchange:
    """Swapping the two stocks, S and P, swaps every column of the market and
    keeps each investor's wealth.  Only at rho = 0: the Cholesky factor of a
    correlated pair is lower-triangular, mixing the first normal into the
    second and not the second into the first, so the factor of the swapped
    correlation is not the swap of the factor."""

    def test_swapped_stocks_mirror_the_paths_and_keep_the_wealth_bit_for_bit(self):
        # the swap exchanges mu, sigma, the cross losses of L, s0 and the box
        # bounds; the draws and the clocks come in with their stock columns
        # reversed.  The simulation and the evolve sum each pair of terms in
        # stock order, and at rho = 0 every cross term is zero, so each sum
        # is the same two terms either way round.  The allocation's entries
        # are powers of two, so each product of the evolve's dot pi @ theta
        # is exact: a dot that fuses one product into its add rounds two
        # inexact products differently by order (1.7e-18 at (0.5, -0.2))
        params = two_stock(0.03, 0.08, 0.12, 0.25, 0.35, 0.0, 0.2, 0.3)
        swapped = two_stock(0.03, 0.12, 0.08, 0.35, 0.25, 0.0, 0.3, 0.2)
        box = AdmissibleBox(lower=[-0.5, -0.3], upper=[0.8, 0.6], eps_a=0.01)
        mirror_box = AdmissibleBox(lower=[-0.3, -0.5], upper=[0.6, 0.8], eps_a=0.01)
        cfg = PathConfig(horizon=1.0, n_steps=40, n_paths=3000, master_seed=31)
        for intensity in (ReciprocalIntensity(c=20.0), ConstantIntensity(0.7),
                          PowerClampIntensity(h0=10.0, weights=(0.7, 0.3), alpha=1.0,
                                              h_min=0.05, h_max=3.0)):
            clocks = np.empty((cfg.n_paths, 2))
            draws = list(_draws(cfg, 2, clocks))
            one = _simulate(params, intensity, cfg, [12.0, 9.0], draws, clocks)
            other = _simulate(swapped, intensity, cfg, [9.0, 12.0],
                              [(lo, hi, raw[..., ::-1]) for lo, hi, raw in draws],
                              clocks[:, ::-1])
            assert (one.default_step >= 0).sum() > 3000, intensity
            assert other.normals.tobytes() == one.normals[..., ::-1].tobytes()
            assert other.default_step.tobytes() == one.default_step[:, ::-1].tobytes()
            for (prices, states, (p, j)), (mp, ms, (mpp, mj)) in zip(one.price_steps(),
                                                                      other.price_steps()):
                assert mp.tobytes() == prices[:, ::-1].tobytes()
                assert ms.tobytes() == states[:, ::-1].tobytes()
                assert np.array_equal(mpp, p) and np.array_equal(mj, 1 - j)
            wealth = evolve_wealth(one, [ConstantAllocation([0.5, -0.25], box)], 100.0)[0]
            mirrored = evolve_wealth(other, [ConstantAllocation([-0.25, 0.5], mirror_box)],
                                     100.0)[0]
            assert mirrored.tobytes() == wealth.tobytes(), intensity


def estimate_log_value(params, intensity, strategy, cfg, s0, x0):
    """Mean and standard error of ln X_T over a simulated bundle."""
    logs = np.log(evolve_wealth(simulate_paths(params, intensity, cfg, s0), [strategy], x0)[0])
    return float(logs.mean()), float(logs.std(ddof=1) / np.sqrt(len(logs)))


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

