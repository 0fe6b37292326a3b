"""Monte Carlo simulation of the contagion market and of wealth paths.

Between defaults each surviving price follows geometric Brownian motion,
advanced by exact lognormal increments with correlated Gaussians.  Each
stock carries an independent unit-exponential default clock; its
cumulative hazard is integrated by the left-endpoint rule (intensities
evaluated at pre-step prices and state) and a default is declared at the
first step boundary where the cumulative hazard crosses the clock.  At a
default the stock's price drops to zero, every surviving price ``i`` is
multiplied by ``1 - L[i, j]``, and intensities are re-evaluated in the
new state.

A bundle stores no prices: :meth:`PathBundle.price_steps` replays them
from ``s0``, the normals and the default steps through the simulation's
own move and jump, bit for bit; :func:`evolve_wealth` steps every
strategy it is given on one replay.

Every path owns a counter-based RNG stream keyed by
``(master_seed, path_index)``, so a path's results are bit-identical
whatever the path count or block partition of the run.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from contagionopt.model import AdmissibleBox, MarketParams, _alive_columns, jump_factors

__all__ = [
    "PathConfig",
    "PathBundle",
    "Strategy",
    "simulate_paths",
    "evolve_wealth",
]

# paths draw their random numbers in fixed-size blocks, which bounds the raw
# draw array; per-path RNG streams keep every result independent of the blocking
_BLOCK = 1024


@dataclass(frozen=True)
class PathConfig:
    """Simulation layout: horizon (yr), step count, path count, seed."""

    horizon: float
    n_steps: int
    n_paths: int
    master_seed: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 bits")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class PathBundle:
    """Simulated stock/default trajectories with RNG provenance.

    A bundle from :func:`simulate_paths` is read-only: the dataclass is
    frozen and its four arrays have ``flags.writeable`` off, so a write
    into market state raises ``ValueError`` at the write.  Every strategy
    evaluated on one bundle therefore sees one market (common random
    numbers), and one :meth:`rng_digest` serves the whole run.

    The normals are indexed ``[path, step, stock]`` but stored step-major:
    a transposed view of a ``(step, path, stock)`` C-ordered array.  The
    simulation writes, and every replay reads, one step of all paths at a
    time, so each ``[:, k]`` slice is one contiguous block rather than a
    strided gather.  Each fact is stored once: stock ``j`` of path ``p`` is
    down at step ``k`` exactly when ``0 <= default_step[p, j] < k``, and
    the prices are not stored at all but replayed by :meth:`price_steps`
    from ``s0``, the normals and ``default_step``.
    """

    params: MarketParams
    cfg: PathConfig
    s0: np.ndarray            # (n,) initial prices
    normals: np.ndarray       # (n_paths, n_steps, n) correlated
    clocks: np.ndarray        # (n_paths, n) unit exponentials
    default_step: np.ndarray  # (n_paths, n) step index of default, -1 if none

    @property
    def n_paths(self) -> int:
        return self.normals.shape[0]

    def price_steps(self):
        """Replay the market: yield ``(prices, states, (p, j))`` at steps
        ``0..n_steps``: the prices, fresh and read-only; the running default
        state, one read-only view holding step ``k``'s bits until the replay
        moves on; and the step's defaults as ``(path, stock)`` index vectors.
        Each step is the last one moved and jumped by the simulation's own
        :func:`_move` and :func:`_jump`: the prices its hazard rule saw."""
        prices = np.tile(self.s0, (self.n_paths, 1))
        states = np.zeros(prices.shape, dtype=np.uint8)
        shown = states.view()
        shown.flags.writeable = False
        for k in range(self.cfg.n_steps + 1):
            prices.flags.writeable = False
            defaults = _defaults_at(self.default_step, k)
            yield prices, shown, defaults
            if k < self.cfg.n_steps:
                prices = _move(prices, _alive_columns(states), self.normals[:, k],
                               self.params, self.cfg.dt)
                _jump(prices, states, self.params.L, *defaults)

    def default_mask(self) -> np.ndarray:
        """True for paths with at least one default before the horizon."""
        return (self.default_step >= 0).any(axis=1)

    def rng_digest(self) -> str:
        """SHA-256 over the Gaussian increments, in ``[path, step, stock]``
        order, and the exponential clocks.  The step-major increments are
        copied to that order one block of paths at a time, which bounds the
        copy.  The bundle is read-only, so one digest identifies the random
        numbers of every strategy run on it."""
        h = hashlib.sha256()
        # each (path, step) row of n stocks moves as one item of 8n bytes
        row = np.dtype((np.void, self.normals.itemsize * self.normals.shape[2]))
        for lo in range(0, self.n_paths, _BLOCK):
            h.update(np.ascontiguousarray(self.normals[lo:lo + _BLOCK].view(row)))
        h.update(np.ascontiguousarray(self.clocks))
        return h.hexdigest()


class Strategy(ABC):
    """Total mapping (t, x, prices, default state) -> allocation vector.

    Every strategy must carry an admissible box, ``box``, with one
    coordinate per stock.  Outputs must lie in it, keep every post-default
    wealth fraction at or above its ``eps_a``, and be zero for defaulted
    stocks; :func:`evolve_wealth` checks each step's.  A strategy may not
    write into the market arrays it is handed: ``prices`` (a step replayed
    by :meth:`PathBundle.price_steps`, fresh each step) and ``states`` (the
    replay's running default state) are read-only, so a write raises
    ``ValueError``.  A strategy may update its own state, such as the
    solver-health counters of the log and power strategies.
    :func:`evolve_wealth` queries each step through
    :meth:`step_allocations`, handing it the previous step's allocations,
    so per-path history lives with the caller, not the strategy.  Every
    query is a batch of rows; a single path is a batch of one.
    """

    box: AdmissibleBox

    @abstractmethod
    def allocations(self, t: float, x: np.ndarray, prices: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
        """Allocations (n_paths, n) for wealths ``x``, prices (n_paths, n)
        and default-state bits (n_paths, n)."""

    def step_allocations(self, t: float, x: np.ndarray, prices: np.ndarray,
                         states: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
        """Allocations for one step of a path evolution; ``prev`` holds the
        same paths' allocations at the previous step (``None`` at the
        first).  A strategy may start a search from it; by default it is
        ignored."""
        return self.allocations(t, x, prices, states)


def _draws(cfg: PathConfig, n: int, clocks: np.ndarray):
    """Draw the run's random numbers one block of paths at a time: write the
    unit-exponential clocks of paths ``lo`` to ``hi`` into ``clocks[lo:hi]``
    and yield ``(lo, hi, raw)``, their uncorrelated step normals as a
    ``(hi - lo, n_steps, n)`` array.  Each path draws its clocks first, then
    its step normals."""
    # one generator serves the run; each path resets it to the start of the
    # Philox stream keyed by (master_seed, path index), with an empty
    # buffer, where a new Philox would begin
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state  # counter 0, empty buffer
    key = [cfg.master_seed, 0]
    fresh["state"] = {"counter": [0, 0, 0, 0], "key": key}
    for lo in range(0, cfg.n_paths, _BLOCK):
        hi = min(lo + _BLOCK, cfg.n_paths)
        raw = np.empty((hi - lo, cfg.n_steps, n))
        for k in range(hi - lo):
            key[1] = lo + k
            bits.state = fresh
            gen.standard_exponential(out=clocks[lo + k])
            gen.standard_normal(out=raw[k])
        yield lo, hi, raw


def _move(prices: np.ndarray, alive: list, z: np.ndarray, params: MarketParams,
          dt: float) -> np.ndarray:
    """One step's lognormal move of ``prices`` (m, n) by the correlated
    normals ``z`` (m, n), as a fresh array: column ``i`` is multiplied by
    ``exp(drift_i + vol_i z_i)`` where ``alive[i]`` holds, and 0 elsewhere."""
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    vol = params.sigma * np.sqrt(dt)
    out = np.empty(prices.shape)
    for i, a in enumerate(alive):
        out[:, i] = np.where(a, prices[:, i] * np.exp(drift[i] + vol[i] * z[:, i]), 0.0)
    return out


def _jump(prices: np.ndarray, states: np.ndarray, L: np.ndarray, p: np.ndarray,
          j: np.ndarray):
    """Default stock ``j[r]`` of path ``p[r]`` in place, one stock a path:
    every price of the path is multiplied by ``1 - L[:, j[r]]``, stock
    ``j[r]``'s price drops to 0 and its state bit is set."""
    prices[p] *= 1.0 - L[:, j].T
    prices[p, j] = 0.0
    states[p, j] = 1


def _defaults_at(default_step: np.ndarray, k: int):
    """The ``(path, stock)`` index vectors of the defaults at step ``k``,
    in path order."""
    return np.divmod(np.flatnonzero(default_step == k), default_step.shape[1])


def simulate_paths(params: MarketParams, intensity, cfg: PathConfig, s0) -> PathBundle:
    """Simulate the contagion market from initial prices ``s0``.

    The random numbers are drawn in fixed blocks of paths, which bounds
    the raw draw array.  The first ``k`` paths of a run equal a ``k``-path
    run with the same seed.  The bundle is read-only.
    """
    return next(_simulate_worlds([(params, intensity)], cfg, s0))


def _simulate_worlds(worlds: list, cfg: PathConfig, s0):
    """Yield the bundle of each ``(params, intensity)`` world in ``worlds``
    in turn, every one equal bit for bit to its own :func:`simulate_paths`.

    The worlds share ``cfg``'s seed and layout and so their uncorrelated
    random numbers: these are drawn once and, for more than one world,
    held whole; only each world's Cholesky factor mixes them anew.  A
    single world streams them block by block.
    """
    n = worlds[0][0].n
    clocks = np.empty((cfg.n_paths, n))
    draws = _draws(cfg, n, clocks)
    if len(worlds) > 1:
        draws = list(draws)
    for params, intensity in worlds:
        yield _simulate(params, intensity, cfg, s0, draws, clocks)


def _simulate(params: MarketParams, intensity, cfg: PathConfig, s0, draws,
              clocks: np.ndarray) -> PathBundle:
    """The step part of :func:`simulate_paths`: the market driven by
    ``clocks`` and by the uncorrelated normals of the ``(lo, hi, raw)``
    blocks of ``draws``, each mixed by ``params``' Cholesky factor as it is
    read, in the block's own matrix product."""
    s0 = np.array(s0, dtype=float, ndmin=1)
    if s0.shape != (params.n,):
        raise ValueError("s0 length must match the number of stocks")
    if np.any(s0 <= 0.0):
        raise ValueError("initial prices must be positive")

    m, n, steps = cfg.n_paths, params.n, cfg.n_steps
    # step-major storage (see PathBundle)
    out = PathBundle(
        params=params, cfg=cfg, s0=s0,
        normals=np.empty((steps, m, n)).transpose(1, 0, 2),
        clocks=clocks,
        default_step=np.empty((m, n), dtype=np.int64),
    )
    chol = params.chol()
    normals = out.normals
    for lo, hi, raw in draws:
        normals[lo:hi] = raw @ chol.T

    dt = cfg.dt
    prices = np.tile(s0, (m, 1))
    states = np.zeros((m, n), dtype=np.uint8)
    hazard = np.zeros((m, n))
    crossed = np.empty((m, n), dtype=bool)
    default_step = out.default_step
    default_step.fill(-1)

    for k in range(steps):
        rates = intensity.rates_matrix(states, prices)
        new_hazard = hazard + rates * dt

        alive = _alive_columns(states)
        hit = False
        for i, a in enumerate(alive):
            col = np.greater_equal(new_hazard[:, i], clocks[:, i], out=crossed[:, i])
            col &= a
            hit = hit | col
        prices = _move(prices, alive, normals[:, k], params, dt)
        hit = np.flatnonzero(hit)

        if hit.size:
            # the earliest interpolated crossing defaults; any other clock
            # crossed in the step has its hazard advanced only to that point
            # (strictly below its clock) and is re-tested next step
            rates_h, crossed_h = rates[hit], crossed[hit]
            frac = np.divide(clocks[hit] - hazard[hit], rates_h * dt,
                             out=np.full(crossed_h.shape, np.inf), where=crossed_h)
            j = frac.argmin(axis=1)
            crossed_h[np.arange(hit.size), j] = False  # leaves the other crossed clocks
            p, q = np.nonzero(crossed_h)
            new_hazard[hit[p], q] = hazard[hit[p], q] + rates_h[p, q] * dt * frac[p, j[p]]

            _jump(prices, states, params.L, hit, j)
            default_step[hit, j] = k
        hazard = new_hazard

    for arr in (out.s0, out.normals, out.clocks, out.default_step):
        arr.flags.writeable = False
    return out


def _admissibility_error(pi: np.ndarray, states: np.ndarray, L: np.ndarray,
                         box: AdmissibleBox, step: int) -> str | None:
    if not np.all(np.isfinite(pi)):
        return f"strategy returned non-finite allocation at step {step}"
    if np.any((states == 1) & (pi != 0.0)):
        return f"strategy allocated to a defaulted stock at step {step}"
    factors = jump_factors(L, pi)
    if factors.min() < box.eps_a - 1e-9:
        bad = np.unravel_index(int(factors.argmin()), factors.shape)
        return (f"strategy violates the post-default floor at step {step}: "
                f"path {bad[0]}, column {bad[1]}, factor {factors[bad]:.6g}")
    if any(col.min() < lo - 1e-9 or col.max() > hi + 1e-9
           for col, lo, hi in zip(pi.T, box.lower, box.upper)):
        return f"strategy left the admissible box at step {step}"
    return None


def evolve_wealth(bundle: PathBundle, strategies, x0: float) -> list:
    """Terminal wealth ``(n_paths,)`` from ``x0`` of each of ``strategies``,
    in order, under piecewise-constant controls sampled once per step.
    Wealth at or below zero after any step raises ``RuntimeError``, even if
    a later jump would make it positive; each ``RuntimeError`` ends with the
    failing strategy's position.  A non-finite or nonpositive ``x0`` raises
    ``ValueError``.

    One replay of :meth:`PathBundle.price_steps` steps every strategy: each
    step queries :meth:`Strategy.step_allocations` with the step's prices
    and default state and the strategy's previous allocations, so a path's
    controls depend on its own history only.  Between defaults wealth
    advances by the exact lognormal step of the frozen allocation; at a
    default of stock ``j`` it is multiplied by ``1 - sum_i L[i, j] pi_i``
    at the pre-jump allocation.
    """
    if not np.isfinite(x0):
        raise ValueError(f"initial wealth must be finite, not {x0}")
    if x0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    params = bundle.params
    cfg = bundle.cfg
    dt = cfg.dt
    sdt = np.sqrt(dt)
    theta = params.theta
    cov = params.cov
    sigma = params.sigma

    wealth = [np.full(bundle.n_paths, float(x0)) for _ in strategies]
    pis = [None] * len(strategies)
    for k, (prices, states, (p, j)) in zip(range(cfg.n_steps), bundle.price_steps()):
        z = bundle.normals[:, k]
        for s, strategy in enumerate(strategies):
            pi = strategy.step_allocations(k * dt, wealth[s], prices, states, pis[s])
            if error := _admissibility_error(pi, states, params.L, strategy.box, k):
                raise RuntimeError(f"{error} (strategy {s})")

            # pi' Sigma pi and the diffusion summed column by column from zero, in
            # (a, b) order: for up to seven stocks the bits of einsum and an axis sum
            cols = list(pi.T)
            quad = diffusion = 0.0
            for a, ca in enumerate(cols):
                for b, cb in enumerate(cols):
                    quad = quad + ca * cov[a, b] * cb
                diffusion = diffusion + ca * sigma[a] * z[:, a]
            x = wealth[s] * np.exp((params.r + pi @ theta - 0.5 * quad) * dt + diffusion * sdt)
            if p.size:
                x[p] *= 1.0 - np.einsum("ij,ji->i", pi[p], params.L[:, j])
            if x.min() <= 0.0:
                raise RuntimeError(f"wealth path hit zero at step {k}; "
                                   f"admissibility was violated (strategy {s})")
            wealth[s], pis[s] = x, pi
    return wealth

