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

Every path owns a counter-based RNG stream keyed by
``(master_seed, path_index)``, so a path's results are bit-identical
whatever the path count or block partition of the run.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from contagionopt.model import AdmissibleBox, DefaultState, MarketParams, jump_factors

__all__ = [
    "PathConfig",
    "PathBundle",
    "WealthBundle",
    "Strategy",
    "ConstantAllocation",
    "simulate_paths",
    "evolve_wealth",
    "estimate_log_value",
    "dump_paths_csv",
]

# paths are simulated in fixed-size blocks, which bounds the block's work
# arrays; per-path RNG streams keep every result independent of the blocking
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


@dataclass
class PathBundle:
    """Simulated stock/default trajectories with RNG provenance."""

    params: MarketParams
    cfg: PathConfig
    s0: np.ndarray
    times: np.ndarray
    prices: np.ndarray        # (n_paths, n_steps+1, n); exactly 0 from default onward
    states: np.ndarray        # (n_paths, n_steps+1, n) uint8
    normals: np.ndarray       # (n_paths, n_steps, n) correlated
    clocks: np.ndarray        # (n_paths, n) unit exponentials
    default_step: np.ndarray  # (n_paths, n) step index of default, -1 if none

    @property
    def n_paths(self) -> int:
        return self.prices.shape[0]

    def default_mask(self) -> np.ndarray:
        """True for paths with at least one default before the horizon."""
        return (self.default_step >= 0).any(axis=1)

    def rng_digest(self) -> str:
        """SHA-256 over the Gaussian increments and exponential clocks,
        used to assert common random numbers across strategy runs."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.normals).tobytes())
        h.update(np.ascontiguousarray(self.clocks).tobytes())
        return h.hexdigest()


class Strategy(ABC):
    """Total mapping (t, x, prices, default state) -> allocation vector.

    Outputs must lie in the strategy's admissible box, keep every
    post-default wealth fraction at or above ``eps_a``, and be zero for
    defaulted stocks.  Implementations must be read-only during
    evaluation.
    """

    box: AdmissibleBox | None = None

    @abstractmethod
    def allocations(self, t: float, x: np.ndarray, prices: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
        """Allocations (n_paths, n) for wealths ``x``, prices (n_paths, n)
        and default-state bits (n_paths, n)."""

    def allocation(self, t: float, x: float, prices: np.ndarray,
                   state: DefaultState) -> np.ndarray:
        """Allocation for a single path."""
        return self.allocations(t, np.array([x]), np.asarray(prices, dtype=float)[None, :],
                                np.array([state.bits], dtype=np.uint8))[0]


class ConstantAllocation(Strategy):
    """Fixed allocation, masked to zero on defaulted stocks."""

    def __init__(self, pi, box: AdmissibleBox | None = None):
        self.pi = np.atleast_1d(np.asarray(pi, dtype=float))
        self.box = box

    def allocations(self, t, x, prices, states):
        return self.pi[None, :] * (1 - states)


def _simulate_block(params: MarketParams, intensity, cfg: PathConfig, s0,
                    lo: int, hi: int, out: PathBundle):
    m = hi - lo
    n = params.n
    dt = cfg.dt
    chol = params.chol()

    # per-path streams: exponential clocks first, then step normals
    raw = np.empty((m, cfg.n_steps, n))
    clocks = np.empty((m, n))
    for k in range(m):
        gen = np.random.Generator(np.random.Philox(key=[cfg.master_seed, lo + k]))
        clocks[k] = gen.exponential(1.0, size=n)
        raw[k] = gen.standard_normal((cfg.n_steps, n))
    normals = raw @ chol.T

    prices = np.tile(np.asarray(s0, dtype=float), (m, 1))
    states = np.zeros((m, n), dtype=np.uint8)
    cum_hazard = np.zeros((m, n))
    default_step = np.full((m, n), -1, dtype=np.int64)

    out.prices[lo:hi, 0] = prices
    out.states[lo:hi, 0] = states
    out.normals[lo:hi] = normals
    out.clocks[lo:hi] = clocks

    drift = (params.mu - 0.5 * params.sigma**2) * dt
    vol = params.sigma * np.sqrt(dt)

    for k in range(cfg.n_steps):
        alive = states == 0
        rates = intensity.rates_matrix(states, prices)

        new_hazard = cum_hazard + rates * dt
        crossed = alive & (new_hazard >= clocks)
        n_crossed = crossed.sum(axis=1)

        prices = np.where(alive, prices * np.exp(drift + vol * normals[:, k]), 0.0)

        defaulter = np.full(m, -1, dtype=np.int64)
        single = np.nonzero(n_crossed == 1)[0]
        if single.size:
            defaulter[single] = np.argmax(crossed[single], axis=1)
        for path in np.nonzero(n_crossed >= 2)[0]:
            # two clocks crossed within one step: the earlier interpolated
            # crossing defaults; the others' hazard is advanced only to that
            # point (strictly below their clocks) and re-tested next step
            cand = np.nonzero(crossed[path])[0]
            frac = (clocks[path, cand] - cum_hazard[path, cand]) / (rates[path, cand] * dt)
            win = int(np.argmin(frac))
            defaulter[path] = cand[win]
            losers = np.delete(cand, win)
            new_hazard[path, losers] = (cum_hazard[path, losers]
                                        + rates[path, losers] * dt * frac[win])
        cum_hazard = new_hazard

        hit = np.nonzero(defaulter >= 0)[0]
        if hit.size:
            j = defaulter[hit]
            prices[hit] *= 1.0 - params.L[:, j].T
            prices[hit, j] = 0.0
            states[hit, j] = 1
            default_step[hit, j] = k

        out.prices[lo:hi, k + 1] = prices
        out.states[lo:hi, k + 1] = states

    out.default_step[lo:hi] = default_step


def simulate_paths(params: MarketParams, intensity, cfg: PathConfig, s0) -> PathBundle:
    """Simulate the contagion market from initial prices ``s0``.

    Paths are generated in fixed blocks; the first ``k`` paths of a run
    equal a ``k``-path run with the same seed.
    """
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if s0.shape != (params.n,):
        raise ValueError("s0 length must match the number of stocks")
    if np.any(s0 <= 0.0):
        raise ValueError("initial prices must be positive")

    m, n, steps = cfg.n_paths, params.n, cfg.n_steps
    bundle = PathBundle(
        params=params, cfg=cfg, s0=s0,
        times=np.arange(steps + 1) * cfg.dt,
        prices=np.empty((m, steps + 1, n)),
        states=np.empty((m, steps + 1, n), dtype=np.uint8),
        normals=np.empty((m, steps, n)),
        clocks=np.empty((m, n)),
        default_step=np.empty((m, n), dtype=np.int64),
    )
    for lo in range(0, m, _BLOCK):
        _simulate_block(params, intensity, cfg, s0, lo, min(lo + _BLOCK, m), bundle)
    return bundle


@dataclass
class WealthBundle:
    """Wealth series aligned to a market bundle's time grid."""

    x0: float
    values: np.ndarray  # (n_paths, n_steps+1), strictly positive

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]


def _check_admissible(pi: np.ndarray, states: np.ndarray, L: np.ndarray,
                      box: AdmissibleBox | None, step: int):
    if not np.all(np.isfinite(pi)):
        raise RuntimeError(f"strategy returned non-finite allocation at step {step}")
    if np.any(pi[states == 1] != 0.0):
        raise RuntimeError(f"strategy allocated to a defaulted stock at step {step}")
    factors = jump_factors(L, pi)
    floor = box.eps_a if box is not None else 0.0
    if factors.min() < floor - 1e-9:
        bad = np.unravel_index(int(factors.argmin()), factors.shape)
        raise RuntimeError(
            f"strategy violates the post-default floor at step {step}: "
            f"path {bad[0]}, column {bad[1]}, factor {factors[bad]:.6g}")
    if box is not None:
        if np.any(pi < box.lower - 1e-9) or np.any(pi > box.upper + 1e-9):
            raise RuntimeError(f"strategy left the admissible box at step {step}")


def evolve_wealth(bundle: PathBundle, strategy: Strategy, x0: float) -> WealthBundle:
    """Wealth under piecewise-constant controls sampled once per step.

    Between defaults wealth advances by the exact lognormal step implied
    by the frozen allocation, reusing the bundle's Gaussian increments;
    at a default of stock ``j`` it is multiplied by
    ``1 - sum_i L[i, j] pi_i`` at the pre-jump allocation.
    """
    if x0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    params = bundle.params
    cfg = bundle.cfg
    dt = cfg.dt
    sdt = np.sqrt(dt)
    theta = params.theta
    cov = params.cov
    sigma = params.sigma

    m = bundle.n_paths
    X = np.empty((m, cfg.n_steps + 1))
    X[:, 0] = x0
    x = X[:, 0].copy()

    for k in range(cfg.n_steps):
        states_k = bundle.states[:, k]
        pi = strategy.allocations(k * dt, x, bundle.prices[:, k], states_k)
        _check_admissible(pi, states_k, params.L, strategy.box, k)

        quad = np.einsum("ij,jk,ik->i", pi, cov, pi)
        diffusion = (pi * sigma * bundle.normals[:, k]).sum(axis=1) * sdt
        x = x * np.exp((params.r + pi @ theta - 0.5 * quad) * dt + diffusion)

        hit_path, hit_stock = np.nonzero(bundle.default_step == k)
        if hit_path.size:
            factors = 1.0 - np.einsum("ij,ji->i", pi[hit_path], params.L[:, hit_stock])
            x[hit_path] *= factors
        X[:, k + 1] = x

    if X.min() <= 0.0:
        raise RuntimeError("wealth path hit zero; admissibility was violated")
    return WealthBundle(x0=x0, values=X)


def estimate_log_value(params: MarketParams, intensity, strategy: Strategy,
                       cfg: PathConfig, s0, x0: float):
    """Monte Carlo estimate of expected log terminal wealth.

    Returns ``(mean, standard_error)`` of ``ln X_T``.
    """
    bundle = simulate_paths(params, intensity, cfg, s0)
    wealth = evolve_wealth(bundle, strategy, x0)
    logs = np.log(wealth.terminal)
    se = logs.std(ddof=1) / np.sqrt(len(logs)) if len(logs) > 1 else 0.0
    return float(logs.mean()), float(se)


def dump_paths_csv(bundle: PathBundle, wealth: WealthBundle, path: str):
    """Write per-step rows ``path_id, step, t, S_1..S_n, z_bits, X``.

    A ``.gz`` suffix switches on gzip compression.
    """
    n = bundle.params.n
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step", "t"] + [f"S_{i+1}" for i in range(n)]
                        + ["z_bits", "X"])
        for p in range(bundle.n_paths):
            for k in range(bundle.cfg.n_steps + 1):
                bits = "".join(str(int(b)) for b in bundle.states[p, k])
                writer.writerow([p, k, f"{bundle.times[k]:.10g}"]
                                + [f"{v:.10g}" for v in bundle.prices[p, k]]
                                + [bits, f"{wealth.values[p, k]:.10g}"])
