"""Power-utility value function on a price lattice.

With utility ``x^gamma / gamma`` the pre-default value factors as
``(x^gamma / gamma) f(t, s, p)``; the factor solves a semilinear HJB
equation whose controlled diffusion has drift
``b = ((mu_S + gamma m'pi sigma_S) s, (mu_P + gamma n'pi sigma_P) p)``
(``m = (sigma_S, rho sigma_P)``, ``n = (rho sigma_S, sigma_P)``), killing
rate

    beta = -r gamma + h_S + h_P - gamma (theta'pi + (gamma-1)/2 pi'Sigma pi),

and a running source fed by the post-default continuation: each default
branch contributes ``hazard * g1(t) * (jump factor)^gamma`` where ``g1``
is the closed-form value factor of the surviving stock's standalone
problem.  The diffusion is approximated by a nine-point lattice Markov
chain whose transition probabilities match the local drift and
covariance, and the value is computed by the discretized dynamic
programming recursion

    v(k) = sup_pi { g dt + exp(-beta dt) E[v(k+1)] },   v(N) = 1,

with the supremum over a uniform control lattice intersected with the
admissible region, refined once around the coarse argmax.  Transitions
that would leave the lattice put their mass on the boundary node itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from contagionopt.dynamics import Strategy
from contagionopt.model import AdmissibleBox, MarketParams, jump_factors

__all__ = [
    "PowerParams",
    "GridSpec",
    "ValueGrid",
    "CFLViolationError",
    "TRANSITION_MOVES",
    "g1",
    "merton_power_control",
    "control_lattice",
    "transition_probs",
    "discount_and_source",
    "validate_cfl",
    "solve_power_value",
    "make_power_strategy",
    "PowerGridStrategy",
]

_PROB_TOL = 1e-12

# lattice moves in fixed order: stay, s+, s-, p+, p-, then the diagonals
# carrying rho+ mass ((+,+), (-,-)) and rho- mass ((+,-), (-,+))
TRANSITION_MOVES = (
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (-1, -1), (1, -1), (-1, 1),
)


class CFLViolationError(ValueError):
    """A lattice transition probability left [0, 1]."""


@dataclass(frozen=True)
class PowerParams:
    """Relative risk aversion exponent, strictly inside (0, 1)."""

    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class GridSpec:
    """Space/time lattice and control-lattice resolution."""

    horizon: float
    delta: float
    dt: float
    s_max: float
    p_max: float
    n_control: int = 41
    refine: bool = True

    def __post_init__(self):
        if self.delta <= 0.0 or self.dt <= 0.0 or self.horizon <= 0.0:
            raise ValueError("horizon, delta, and dt must be positive")
        if self.n_control < 2:
            raise ValueError("need at least two control lattice points per axis")
        for name, extent in (("s_max", self.s_max), ("p_max", self.p_max)):
            steps = extent / self.delta
            if extent <= 0.0 or abs(steps - round(steps)) > 1e-9:
                raise ValueError(f"{name} must be a positive multiple of delta")
        slices = self.horizon / self.dt
        if abs(slices - round(slices)) > 1e-9:
            raise ValueError("horizon must be a multiple of dt")

    @property
    def n_slices(self) -> int:
        return int(round(self.horizon / self.dt))

    def s_nodes(self) -> np.ndarray:
        return np.arange(int(round(self.s_max / self.delta)) + 1) * self.delta

    def p_nodes(self) -> np.ndarray:
        return np.arange(int(round(self.p_max / self.delta)) + 1) * self.delta


def g1(t, horizon: float, params: MarketParams, gamma: float, stock: int = 0):
    """Post-default value factor of the lone surviving ``stock``:
    ``exp((r gamma + gamma/(2(1-gamma)) ((mu-r)/sigma)^2) (T-t))``."""
    excess = params.mu[stock] - params.r
    rate = params.r * gamma + gamma / (2.0 * (1.0 - gamma)) * (excess / params.sigma[stock]) ** 2
    return np.exp(rate * (horizon - np.asarray(t, dtype=float)))


def merton_power_control(params: MarketParams, gamma: float, lo: float, hi: float,
                         stock: int = 0) -> float:
    """Constant optimal fraction ``(mu-r)/(sigma^2 (1-gamma))`` clamped to
    ``[lo, hi]``."""
    raw = (params.mu[stock] - params.r) / (params.sigma[stock] ** 2 * (1.0 - gamma))
    return float(np.clip(raw, lo, hi))


def control_lattice(box: AdmissibleBox, L: np.ndarray, n_control: int) -> np.ndarray:
    """Uniform lattice over the box, restricted to allocations keeping
    every post-default wealth fraction at or above ``eps_a``."""
    axes = [np.linspace(box.lower[i], box.upper[i], n_control) for i in range(box.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    keep = jump_factors(L, pts).min(axis=1) >= box.eps_a
    pts = pts[keep]
    if pts.shape[0] == 0:
        raise ValueError("no admissible control lattice point; box and eps_a incompatible")
    return pts


def _drift_coeffs(params: MarketParams, gamma: float, piS, piP):
    """Per-unit-price drifts of the transformed state process."""
    cov = params.cov
    c1 = params.mu[0] + gamma * (cov[0, 0] * piS + cov[0, 1] * piP)
    c2 = params.mu[1] + gamma * (cov[0, 1] * piS + cov[1, 1] * piP)
    return c1, c2


def _nine_probs(s, p, c1, c2, grid: GridSpec, params: MarketParams):
    """The nine transition probabilities in TRANSITION_MOVES order."""
    dt, delta = grid.dt, grid.delta
    k1 = dt / delta
    k2 = dt / (2.0 * delta**2)
    sS, sP = params.sigma
    rho = params.rho[0, 1]
    rp, rm = max(rho, 0.0), max(-rho, 0.0)

    b1 = c1 * s
    b2 = c2 * p
    ds2 = (sS * s) ** 2
    dp2 = (sP * p) ** 2
    cross = sS * sP * s * p

    stay = 1.0 - k1 * (np.abs(b1) + np.abs(b2)) - 2.0 * k2 * (ds2 + dp2 - (rp + rm) * cross)
    sp = k1 * np.maximum(b1, 0.0) + k2 * (ds2 - (rp + rm) * cross)
    sm = k1 * np.maximum(-b1, 0.0) + k2 * (ds2 - (rp + rm) * cross)
    pp = k1 * np.maximum(b2, 0.0) + k2 * (dp2 - (rp + rm) * cross)
    pm = k1 * np.maximum(-b2, 0.0) + k2 * (dp2 - (rp + rm) * cross)
    dpp = k2 * rp * cross * np.ones_like(stay)
    dmm = dpp
    dpm = k2 * rm * cross * np.ones_like(stay)
    dmp = dpm
    return np.stack(np.broadcast_arrays(stay, sp, sm, pp, pm, dpp, dmm, dpm, dmp))


def transition_probs(node, pi, grid: GridSpec, params: MarketParams, gamma: float):
    """Nine-point transition probabilities at ``node=(s, p)`` under the
    allocation ``pi``; broadcastable over array inputs.

    Raises :class:`CFLViolationError` (naming the offending node and
    control) if any probability leaves ``[0, 1]`` beyond 1e-12.
    """
    s = np.asarray(node[0], dtype=float)
    p = np.asarray(node[1], dtype=float)
    piS = np.asarray(pi[0], dtype=float)
    piP = np.asarray(pi[1], dtype=float)
    c1, c2 = _drift_coeffs(params, gamma, piS, piP)
    probs = _nine_probs(s, p, c1, c2, grid, params)
    bad = (probs < -_PROB_TOL) | (probs > 1.0 + _PROB_TOL)
    if bad.any():
        flat = np.argwhere(bad)[0]
        move = TRANSITION_MOVES[flat[0]]
        idx = tuple(flat[1:])
        sel = idx if idx else ()
        raise CFLViolationError(
            f"transition probability {probs[tuple(flat)]:.6g} for move {move} at node "
            f"(s={np.broadcast_to(s, probs.shape[1:])[sel] if sel else float(s):.6g}, "
            f"p={np.broadcast_to(p, probs.shape[1:])[sel] if sel else float(p):.6g}) "
            f"under control ("
            f"{np.broadcast_to(piS, probs.shape[1:])[sel] if sel else float(piS):.6g}, "
            f"{np.broadcast_to(piP, probs.shape[1:])[sel] if sel else float(piP):.6g}); "
            f"shrink dt or the domain")
    return probs


def discount_and_source(s, p, pi, t, grid: GridSpec, params: MarketParams,
                        intensity, gamma: float):
    """Killing rate ``beta`` and running source ``g`` of the transformed
    equation at pre-default prices ``(s, p)``.

    The source carries one term per default branch: the branch hazard
    times the surviving stock's closed-form factor times the wealth jump
    factor raised to ``gamma``.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    piS, piP = float(pi[0]), float(pi[1])
    LS, LP = params.L[0, 1], params.L[1, 0]
    jump_s = 1.0 - piS - LP * piP   # S defaults, P survives
    jump_p = 1.0 - LS * piS - piP   # P defaults, S survives
    if jump_s <= 0.0 or jump_p <= 0.0:
        raise ValueError(f"allocation infeasible: jump factors ({jump_s:.4g}, {jump_p:.4g})")
    hS, hP = intensity.rates_pre_default_grid(s, p)
    theta = params.theta
    cov = params.cov
    quad = (cov[0, 0] * piS**2 + 2.0 * cov[0, 1] * piS * piP + cov[1, 1] * piP**2)
    beta = (-params.r * gamma + hS + hP
            - gamma * (theta[0] * piS + theta[1] * piP + 0.5 * (gamma - 1.0) * quad))
    g = (hS * g1(t, grid.horizon, params, gamma, stock=1) * jump_s**gamma
         + hP * g1(t, grid.horizon, params, gamma, stock=0) * jump_p**gamma)
    return beta, g


def validate_cfl(grid: GridSpec, params: MarketParams, gamma: float,
                 box: AdmissibleBox):
    """Check all nine probabilities stay in [0, 1] for every lattice node
    and every control in the box.

    The drift coefficients are linear in the allocation and every
    probability is monotone in each of them, so checking the box corners'
    coefficient extremes covers the whole box (including the refinement
    sub-lattice).
    """
    corners = box.vertices()
    c1s, c2s = _drift_coeffs(params, gamma, corners[:, 0], corners[:, 1])
    S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
    for c1 in (c1s.min(), c1s.max()):
        for c2 in (c2s.min(), c2s.max()):
            probs = _nine_probs(S, P, c1, c2, grid, params)
            bad = (probs < -_PROB_TOL) | (probs > 1.0 + _PROB_TOL)
            if bad.any():
                move, i, j = np.argwhere(bad)[0]
                corner = corners[int(np.argmin(np.abs(c1s - c1) + np.abs(c2s - c2)))]
                raise CFLViolationError(
                    f"probability {probs[move, i, j]:.6g} for move "
                    f"{TRANSITION_MOVES[move]} at node (s={S[i, j]:.6g}, p={P[i, j]:.6g}) "
                    f"under box-corner control ({corner[0]:.6g}, {corner[1]:.6g}); "
                    f"shrink dt or the domain")


@dataclass
class ValueGrid:
    """Backward-DP output: value factor and argmax control per node/slice.

    ``f[k]`` is the value factor at time ``k dt``; ``controls[k]`` is the
    allocation applied on ``[k dt, (k+1) dt)``.
    """

    grid: GridSpec
    gamma: float
    f: np.ndarray         # (n_slices+1, ns, np)
    controls: np.ndarray  # (n_slices, ns, np, 2)

    def save(self, path: str):
        meta = dict(horizon=self.grid.horizon, delta=self.grid.delta, dt=self.grid.dt,
                    s_max=self.grid.s_max, p_max=self.grid.p_max,
                    n_control=self.grid.n_control, refine=self.grid.refine,
                    gamma=self.gamma)
        np.savez_compressed(path, f=self.f, controls=self.controls,
                            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))

    @classmethod
    def load(cls, path: str) -> "ValueGrid":
        data = np.load(path)
        meta = json.loads(bytes(data["meta"]).decode())
        gamma = meta.pop("gamma")
        return cls(grid=GridSpec(**meta), gamma=gamma, f=data["f"],
                   controls=data["controls"])


def _shift(v: np.ndarray, ds: int, dp: int) -> np.ndarray:
    """Value at the (ds, dp)-neighbor with out-of-lattice moves redirected
    to the boundary node itself (clamped indices)."""
    if ds == 1:
        v = np.concatenate([v[1:], v[-1:]], axis=0)
    elif ds == -1:
        v = np.concatenate([v[:1], v[:-1]], axis=0)
    if dp == 1:
        v = np.concatenate([v[:, 1:], v[:, -1:]], axis=1)
    elif dp == -1:
        v = np.concatenate([v[:, :1], v[:, :-1]], axis=1)
    return v


def solve_power_value(grid: GridSpec, params: MarketParams, intensity,
                      gamma: float, box: AdmissibleBox) -> ValueGrid:
    """Backward dynamic programming on the nine-point chain.

    The supremum is over the admissible control lattice; with
    ``grid.refine`` a second pass scans a finer sub-lattice around each
    node's coarse argmax (never worse: the window contains its center).
    """
    PowerParams(gamma)
    if params.n != 2 or box.n != 2:
        raise ValueError("power-utility grid solver is specialized to two stocks")
    validate_cfl(grid, params, gamma, box)

    dt, delta, T = grid.dt, grid.delta, grid.horizon
    s_nodes, p_nodes = grid.s_nodes(), grid.p_nodes()
    S, P = np.meshgrid(s_nodes, p_nodes, indexing="ij")
    ns, np_ = S.shape
    nn = ns * np_

    hS, hP = intensity.rates_pre_default_grid(S, P)
    if not (np.all(np.isfinite(hS)) and np.all(np.isfinite(hP))):
        bad = np.argwhere(~(np.isfinite(hS) & np.isfinite(hP)))[0]
        raise ValueError(
            f"intensity is not finite at grid node (s={S[tuple(bad)]}, p={P[tuple(bad)]}); "
            "exclude the offending boundary from the domain")
    ehd = np.exp(-(hS + hP) * dt).ravel()
    hSf, hPf = hS.ravel(), hP.ravel()

    lattice = control_lattice(box, params.L, grid.n_control)
    c1, c2 = _drift_coeffs(params, gamma, lattice[:, 0], lattice[:, 1])
    theta, cov = params.theta, params.cov
    quad = np.einsum("ij,jk,ik->i", lattice, cov, lattice)
    betac = -params.r * gamma - gamma * (lattice @ theta + 0.5 * (gamma - 1.0) * quad)
    eb = np.exp(-betac * dt)
    jumps = jump_factors(params.L, lattice)  # columns: S defaults, P defaults
    jSg = jumps[:, 0] ** gamma
    jPg = jumps[:, 1] ** gamma

    k2 = dt / (2.0 * delta**2)
    rho = params.rho[0, 1]
    rp, rm = max(rho, 0.0), max(-rho, 0.0)
    DS = k2 * (params.sigma[0] * S) ** 2
    DP_ = k2 * (params.sigma[1] * P) ** 2
    R = k2 * params.sigma[0] * params.sigma[1] * S * P

    LS, LP = params.L[0, 1], params.L[1, 0]
    step0 = (box.upper[0] - box.lower[0]) / (grid.n_control - 1)
    step1 = (box.upper[1] - box.lower[1]) / (grid.n_control - 1)
    refine_offsets = [(r0, r1) for r0 in np.linspace(-1.0, 1.0, 9)
                      for r1 in np.linspace(-1.0, 1.0, 9) if not (r0 == 0.0 and r1 == 0.0)]

    n_slices = grid.n_slices
    f = np.empty((n_slices + 1, ns, np_))
    f[n_slices] = 1.0
    controls = np.empty((n_slices, ns, np_, 2))
    v = np.ones((ns, np_))

    for k in range(n_slices - 1, -1, -1):
        vsp, vsm = _shift(v, 1, 0), _shift(v, -1, 0)
        vpp, vpm = _shift(v, 0, 1), _shift(v, 0, -1)
        # control-independent expectation part (diffusion and correlation)
        W = (v + DS * (vsp + vsm - 2.0 * v) + DP_ * (vpp + vpm - 2.0 * v)
             - (rp + rm) * R * (vsp + vsm + vpp + vpm - 2.0 * v))
        if rp > 0.0:
            W = W + rp * R * (_shift(v, 1, 1) + _shift(v, -1, -1))
        if rm > 0.0:
            W = W + rm * R * (_shift(v, 1, -1) + _shift(v, -1, 1))
        U1 = (S * (vsp - v)).ravel()
        U2 = (S * (vsm - v)).ravel()
        U3 = (P * (vpp - v)).ravel()
        U4 = (P * (vpm - v)).ravel()
        Wf = W.ravel()

        t_k = k * dt
        g1S = float(g1(t_k, T, params, gamma, stock=0))
        g1P = float(g1(t_k, T, params, gamma, stock=1))
        srcS = (g1P * hSf) * dt  # S defaults -> P survives
        srcP = (g1S * hPf) * dt

        drift = (dt / delta) * (np.maximum(c1, 0.0)[:, None] * U1[None, :]
                                + np.maximum(-c1, 0.0)[:, None] * U2[None, :]
                                + np.maximum(c2, 0.0)[:, None] * U3[None, :]
                                + np.maximum(-c2, 0.0)[:, None] * U4[None, :])
        cand = (eb[:, None] * (ehd[None, :] * (Wf[None, :] + drift))
                + jSg[:, None] * srcS[None, :] + jPg[:, None] * srcP[None, :])
        best = np.argmax(cand, axis=0)
        vbest = np.take_along_axis(cand, best[None, :], axis=0)[0]
        piS_b = lattice[best, 0]
        piP_b = lattice[best, 1]

        if grid.refine:
            for r0, r1 in refine_offsets:
                piS_r = np.clip(piS_b + r0 * step0, box.lower[0], box.upper[0])
                piP_r = np.clip(piP_b + r1 * step1, box.lower[1], box.upper[1])
                jS = 1.0 - piS_r - LP * piP_r
                jP = 1.0 - LS * piS_r - piP_r
                ok = (jS >= box.eps_a) & (jP >= box.eps_a)
                rc1, rc2 = _drift_coeffs(params, gamma, piS_r, piP_r)
                rquad = (cov[0, 0] * piS_r**2 + 2.0 * cov[0, 1] * piS_r * piP_r
                         + cov[1, 1] * piP_r**2)
                rbetac = -params.r * gamma - gamma * (theta[0] * piS_r + theta[1] * piP_r
                                                      + 0.5 * (gamma - 1.0) * rquad)
                val = (np.exp(-rbetac * dt) * ehd
                       * (Wf + (dt / delta) * (np.maximum(rc1, 0.0) * U1
                                               + np.maximum(-rc1, 0.0) * U2
                                               + np.maximum(rc2, 0.0) * U3
                                               + np.maximum(-rc2, 0.0) * U4))
                       + np.where(ok, jS, 0.0)**gamma * srcS
                       + np.where(ok, jP, 0.0)**gamma * srcP)
                upd = ok & (val > vbest)
                vbest = np.where(upd, val, vbest)
                piS_b = np.where(upd, piS_r, piS_b)
                piP_b = np.where(upd, piP_r, piP_b)

        v = vbest.reshape(ns, np_)
        if not np.all(np.isfinite(v)) or v.min() <= 0.0:
            raise RuntimeError(f"value became non-finite or nonpositive at slice {k}")
        f[k] = v
        controls[k, :, :, 0] = piS_b.reshape(ns, np_)
        controls[k, :, :, 1] = piP_b.reshape(ns, np_)

    return ValueGrid(grid=grid, gamma=gamma, f=f, controls=controls)


class PowerGridStrategy(Strategy):
    """Allocation rule extracted from a solved :class:`ValueGrid`.

    Pre-default controls come from bilinear interpolation of the node
    argmax on the slice in force at the query time; queries outside the
    price domain are clamped to the boundary and counted.  After a
    default the surviving stock gets its constant Merton fraction,
    additionally capped so a further default keeps ``eps_a`` of wealth.
    """

    def __init__(self, value_grid: ValueGrid, params: MarketParams,
                 gamma: float, box: AdmissibleBox):
        self.value_grid = value_grid
        self.params = params
        self.gamma = gamma
        self.box = box
        self.out_of_domain = 0  # solver-health counter
        self._post = [
            merton_power_control(params, gamma, box.lower[i],
                                 min(box.upper[i], 1.0 - box.eps_a), stock=i)
            for i in range(2)
        ]

    def _interp_controls(self, t: float, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        vg = self.value_grid
        grid = vg.grid
        k = min(grid.n_slices - 1, max(0, int(np.floor(t / grid.dt + 1e-12))))
        table = vg.controls[k]
        self.out_of_domain += int(np.count_nonzero((s > grid.s_max) | (p > grid.p_max)))
        sc = np.clip(s, 0.0, grid.s_max)
        pc = np.clip(p, 0.0, grid.p_max)
        ns, np_ = table.shape[0], table.shape[1]
        i = np.minimum((sc / grid.delta).astype(np.int64), ns - 2)
        j = np.minimum((pc / grid.delta).astype(np.int64), np_ - 2)
        u = (sc - i * grid.delta) / grid.delta
        w = (pc - j * grid.delta) / grid.delta
        out = np.empty((s.shape[0], 2))
        for c in range(2):
            tbl = table[:, :, c]
            out[:, c] = ((1 - u) * (1 - w) * tbl[i, j] + u * (1 - w) * tbl[i + 1, j]
                         + (1 - u) * w * tbl[i, j + 1] + u * w * tbl[i + 1, j + 1])
        return out

    def allocations(self, t, x, prices, states):
        states = np.asarray(states)
        prices = np.asarray(prices, dtype=float)
        out = np.zeros_like(prices)
        pre = (states == 0).all(axis=1)
        if pre.any():
            out[pre] = self._interp_controls(float(t), prices[pre, 0], prices[pre, 1])
        for stock in (0, 1):
            mask = (states[:, stock] == 0) & (states[:, 1 - stock] == 1)
            out[mask, stock] = self._post[stock]
        return out


def make_power_strategy(value_grid: ValueGrid, params: MarketParams, gamma: float,
                        box: AdmissibleBox) -> PowerGridStrategy:
    """Strategy factory over a solved value grid."""
    return PowerGridStrategy(value_grid, params, gamma, box)
