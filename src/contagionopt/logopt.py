"""Log-utility optimal controls for the two-stock contagion market.

Maximizing expected log wealth reduces to a pointwise concave program:
maximize over the admissible box the rate

    G(pi) = -1/2 pi' Sigma pi + theta' pi
            + h_S ln(1 - pi_S - L_P pi_P) + h_P ln(1 - L_S pi_S - pi_P),

where ``h_S, h_P`` are the current hazard rates, ``L_S`` the loss of
stock S when P defaults and ``L_P`` the loss of P when S defaults.  The
box constraints give first-order (Kuhn-Tucker) conditions

    dG/dpi_S + mu_1 - mu_2 = 0,    dG/dpi_P + mu_3 - mu_4 = 0,

with nonnegative multipliers attached to the lower/upper bounds and the
usual complementary slackness.

Every hazard pair of a batch is solved by the projected Newton method of
Bertsekas (*Projected Newton methods for optimization problems with
simple constraints*, SIAM J. Control Optim., 1982), started from the
Merton point clipped to the box.  Each iteration finds the
epsilon-active coordinates: those within ``min(eps_0, |pi - P(pi + grad
G)|)`` of a bound with their gradient pointing out of the box.  When no
coordinate is epsilon-active and the Hessian is negative definite the
row takes a full Newton step; otherwise each coordinate takes its own
Newton step, the diagonally scaled gradient step, capped at the box
width so that a flat coordinate (no volatility and no hazard) steps
across the box.  Trials are projected onto the box, which
:func:`validate_box` keeps inside the log domain of G.  A trial is
accepted when G stays within rounding of its value at the iterate, since
G cannot resolve a Newton step's gain near the maximizer; rows still
searching halve their step.

The Kuhn-Tucker case, the multipliers and the residual are read from the
final held set, the coordinates sitting at a bound with their gradient
pointing out: a held coordinate's multiplier is its outward gradient, and
the residual is the largest gradient of a free coordinate.  A row whose
residual misses ``1e-8`` raises ``RuntimeError``.

After one default the problem collapses to one dimension and has the
closed form

    pi* = (mu - r + sigma^2 - sqrt((mu - r - sigma^2)^2
           + 4 sigma^2 h)) / (2 sigma^2),

clamped to the box of the surviving stock; with both stocks gone only
the bank account remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contagionopt.dynamics import Strategy
from contagionopt.model import (
    AdmissibleBox,
    DefaultState,
    MarketParams,
    eval_intensity,
    validate_box,
)

__all__ = [
    "LogControlProblem",
    "KTSolution",
    "g_objective",
    "solve_pre_default_control",
    "solve_kt",
    "solve_kt_batch",
    "solve_single_survivor_control",
    "single_survivor_formula",
    "make_log_strategy",
    "LogStrategy",
    "CASE_NAMES",
]

CASE_NAMES = (
    "interior",
    "S-low", "S-high", "P-low", "P-high",
    "S-low/P-low", "S-low/P-high", "S-high/P-low", "S-high/P-high",
)
# case id indexed by the held side of (pi_S, pi_P): 0 free, 1 lower, 2 upper
_CASE_OF_SIDES = np.array([[0, 3, 4], [1, 5, 6], [2, 7, 8]])

_ACCEPT_TOL = 1e-8     # KKT residual every returned row must reach
_GRAD_TOL = 1e-12      # stationarity target of the iteration
_EPS_ACTIVE = 1e-3     # eps_0, the cap on the epsilon-active distance
_G_ROUNDING = 64.0 * np.finfo(float).eps  # relative rounding of a G value
_MAX_ITER = 100
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class LogControlProblem:
    """Two-stock market, intensity model, and validated admissible box."""

    params: MarketParams
    intensity: object
    box: AdmissibleBox

    def __post_init__(self):
        if self.params.n != 2:
            raise ValueError("log-utility control solver is specialized to two stocks")
        if self.box.n != 2:
            raise ValueError("box must be two-dimensional")
        if np.any(self.box.lower >= self.box.upper):
            raise ValueError("box must have nonempty interior in each coordinate")
        report = validate_box(self.box, self.params)
        if not report.ok:
            raise ValueError(
                f"box violates the post-default floor (worst margin {report.worst_margin:.4g})")


@dataclass(frozen=True)
class KTSolution:
    """Box-constrained maximizer with its Kuhn-Tucker certificate."""

    pi: np.ndarray
    case: str
    multipliers: np.ndarray  # (mu_1..mu_4) for S-low, S-high, P-low, P-high
    residual: float
    g_value: float


class _Coef:
    """Coefficients of G shared by every row of a batch."""

    __slots__ = ("t0", "t1", "S00", "S01", "S11", "LS", "LP")

    def __init__(self, params: MarketParams):
        cov = params.cov
        self.t0, self.t1 = params.theta
        self.S00, self.S01, self.S11 = cov[0, 0], cov[0, 1], cov[1, 1]
        self.LS = params.L[0, 1]
        self.LP = params.L[1, 0]


def _g(c: _Coef, hS, hP, piS, piP):
    """G values; both jump factors must be positive."""
    d1 = 1.0 - piS - c.LP * piP
    d2 = 1.0 - c.LS * piS - piP
    quad = 0.5 * (c.S00 * piS**2 + 2.0 * c.S01 * piS * piP + c.S11 * piP**2)
    return c.t0 * piS + c.t1 * piP - quad + hS * np.log(d1) + hP * np.log(d2)


def _derivs(c: _Coef, hS, hP, x):
    """Gradient (m, 2), Hessian diagonal (m, 2) and off-diagonal (m,) at rows ``x``."""
    piS, piP = x[:, 0], x[:, 1]
    d1 = 1.0 - piS - c.LP * piP
    d2 = 1.0 - c.LS * piS - piP
    r1, r2 = hS / d1, hP / d2
    q1, q2 = r1 / d1, r2 / d2
    g = np.column_stack([c.t0 - (c.S00 * piS + c.S01 * piP) - r1 - c.LS * r2,
                         c.t1 - (c.S01 * piS + c.S11 * piP) - c.LP * r1 - r2])
    hdiag = np.column_stack([-c.S00 - q1 - c.LS**2 * q2, -c.S11 - c.LP**2 * q1 - q2])
    hoff = -c.S01 - c.LP * q1 - c.LS * q2
    return g, hdiag, hoff


def _held(x, g, box: AdmissibleBox):
    """Held coordinates (at a bound, gradient pointing out) and the KKT
    residual, the largest gradient among the free coordinates."""
    low = (x == box.lower) & (g < 0.0)
    high = (x == box.upper) & (g > 0.0)
    residual = np.where(low | high, 0.0, np.abs(g)).max(axis=1)
    return low, high, residual


def _solve_batch(c: _Coef, box: AdmissibleBox, hS, hP):
    """Projected Newton iteration for all rows.

    Returns ``(pi (m, 2), case_id, multipliers (m, 4), residual)``.
    """
    lo, hi = box.lower, box.upper
    width = hi - lo
    det = c.S00 * c.S11 - c.S01**2
    if det > 0.0:
        merton = np.array([c.S11 * c.t0 - c.S01 * c.t1, c.S00 * c.t1 - c.S01 * c.t0]) / det
    else:  # singular covariance (zero volatility): start from no exposure
        merton = np.zeros(2)
    x = np.tile(np.clip(merton, lo, hi), (hS.size, 1))

    act = np.arange(hS.size)
    for _ in range(_MAX_ITER):
        xa, hs, hp = x[act], hS[act], hP[act]
        g, hdiag, hoff = _derivs(c, hs, hp, xa)
        keep = _held(xa, g, box)[2] > _GRAD_TOL
        act, xa, hs, hp, g, hdiag, hoff = (
            a[keep] for a in (act, xa, hs, hp, g, hdiag, hoff))
        if act.size == 0:
            break

        # per-coordinate Newton step, capped at the box width; a flat
        # coordinate (zero curvature) therefore steps across the box
        step = g / np.maximum(np.maximum(-hdiag, np.abs(g) / width),
                              np.finfo(float).tiny)
        eps = np.minimum(_EPS_ACTIVE,
                         np.abs(xa - np.clip(xa + g, lo, hi)).max(axis=1))[:, None]
        near = ((xa <= lo + eps) & (g < 0.0)) | ((xa >= hi - eps) & (g > 0.0))
        det = hdiag[:, 0] * hdiag[:, 1] - hoff**2
        full = np.nonzero(~near.any(axis=1) & (det > 0.0))[0]
        gf, hf, of, df = g[full], hdiag[full], hoff[full], det[full]
        step[full, 0] = (of * gf[:, 1] - hf[:, 1] * gf[:, 0]) / df
        step[full, 1] = (of * gf[:, 0] - hf[:, 0] * gf[:, 1]) / df

        g0 = _g(c, hs, hp, xa[:, 0], xa[:, 1])
        floor = g0 - _G_ROUNDING * (1.0 + np.abs(g0))
        new = xa.copy()
        alpha = 1.0
        search = np.arange(act.size)
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(xa[search] + alpha * step[search], lo, hi)
            ok = _g(c, hs[search], hp[search], trial[:, 0], trial[:, 1]) >= floor[search]
            new[search[ok]] = trial[ok]
            search = search[~ok]
            if search.size == 0:
                break
            alpha *= 0.5
        # a row that found no acceptable trial, or whose step no longer
        # moves it, has reached what rounding lets it resolve
        moved = (new != xa).any(axis=1)
        x[act] = new
        act = act[moved]
        if act.size == 0:
            break

    g = _derivs(c, hS, hP, x)[0]
    low, high, residual = _held(x, g, box)
    bad = np.nonzero(~(residual <= _ACCEPT_TOL))[0]
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"KT solver missed the KKT tolerance at hazards (h_S, h_P) = "
            f"({hS[k]:.17g}, {hP[k]:.17g}): residual {residual[k]:.3g}")
    case_id = _CASE_OF_SIDES[low[:, 0] + 2 * high[:, 0], low[:, 1] + 2 * high[:, 1]]
    mult = np.stack([np.where(low, -g, 0.0), np.where(high, g, 0.0)], axis=2)
    return x, case_id, mult.reshape(-1, 4), residual


def solve_kt_batch(prob: LogControlProblem, hS, hP):
    """Pre-default controls for arrays of hazard pairs.

    Duplicate hazard pairs are solved once and scattered back, so a
    constant-intensity comparator costs a single solve.  Returns
    ``(pi, case_id, multipliers, residual)``.
    """
    hS = np.atleast_1d(np.asarray(hS, dtype=float))
    hP = np.atleast_1d(np.asarray(hP, dtype=float))
    if np.any(hS < 0.0) or np.any(hP < 0.0):
        raise ValueError("hazard rates must be nonnegative")
    pairs = np.column_stack([hS, hP])
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    pi, case_id, mult, res = _solve_batch(_Coef(prob.params), prob.box,
                                          uniq[:, 0], uniq[:, 1])
    inverse = inverse.reshape(-1)
    return pi[inverse], case_id[inverse], mult[inverse], res[inverse]


def solve_kt(prob: LogControlProblem, hS: float, hP: float) -> KTSolution:
    """Pre-default control for one hazard pair (the comparator entry point)."""
    pi, case_id, mult, res = solve_kt_batch(prob, [hS], [hP])
    g_val = float(_g(_Coef(prob.params), hS, hP, pi[0, 0], pi[0, 1]))
    return KTSolution(pi=pi[0], case=CASE_NAMES[int(case_id[0])],
                      multipliers=mult[0], residual=float(res[0]), g_value=g_val)


def solve_pre_default_control(prob: LogControlProblem, s: float, p: float) -> KTSolution:
    """KT solution at spot prices, with hazards from the problem's model."""
    state = DefaultState((0, 0))
    hS = eval_intensity(prob.intensity, 0, state, [s, p])
    hP = eval_intensity(prob.intensity, 1, state, [s, p])
    return solve_kt(prob, hS, hP)


def g_objective(prob: LogControlProblem, s: float, p: float, pi) -> float:
    """Growth-rate objective G at spot prices and allocation ``pi``.

    Raises on a nonpositive log argument (allocation outside the jump
    feasibility domain).
    """
    pi = np.asarray(pi, dtype=float)
    state = DefaultState((0, 0))
    hS = eval_intensity(prob.intensity, 0, state, [s, p])
    hP = eval_intensity(prob.intensity, 1, state, [s, p])
    LS, LP = prob.params.L[0, 1], prob.params.L[1, 0]
    d1 = 1.0 - pi[0] - LP * pi[1]
    d2 = 1.0 - LS * pi[0] - pi[1]
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(f"allocation leaves the log domain: factors ({d1:.4g}, {d2:.4g})")
    return float(_g(_Coef(prob.params), hS, hP, pi[0], pi[1]))


def single_survivor_formula(mu: float, sigma: float, r: float, h) -> np.ndarray:
    """Unclamped optimal fraction in the last surviving stock.

    For a riskless stock (sigma = 0) the limit is returned: ``1 - h /
    (mu - r)`` for a positive excess drift and an unbounded preference
    (``+-inf``, to be clamped by the caller) otherwise.
    """
    h = np.asarray(h, dtype=float)
    excess = mu - r
    s2 = sigma**2
    if s2 == 0.0:
        if excess > 0.0:
            return np.where(h > 0.0, 1.0 - h / excess, np.inf)
        if excess < 0.0:
            return np.full(h.shape, -np.inf)
        return np.where(h > 0.0, -np.inf, 0.0)
    return (excess + s2 - np.sqrt((excess - s2) ** 2 + 4.0 * s2 * h)) / (2.0 * s2)


def solve_single_survivor_control(prob: LogControlProblem, price: float,
                                  state: DefaultState) -> float:
    """Closed-form control when exactly one stock survives, clamped to its
    box interval; the hazard comes from the problem's intensity model."""
    if state.n_survivors != 1:
        raise ValueError(f"state {state.bits} does not have exactly one survivor")
    stock = state.survivors[0]
    prices = np.zeros(state.n)
    prices[stock] = price
    h = eval_intensity(prob.intensity, stock, state, prices)
    raw = single_survivor_formula(prob.params.mu[stock], prob.params.sigma[stock],
                                  prob.params.r, h)
    return float(np.clip(raw, prob.box.lower[stock], prob.box.upper[stock]))


class LogStrategy(Strategy):
    """Log-optimal allocation rule.

    With ``hbar=None`` the hazards are read from the problem's intensity
    model at the queried prices; with a numeric ``hbar`` the same solver
    runs on the constant pair ``(hbar, hbar)`` instead (the passive
    comparator).  By default the constant also replaces the hazard in the
    single-survivor closed form; ``hbar_post_default=False`` keeps the
    model hazard after a default.  ``kt_cases`` counts the Kuhn-Tucker
    case of every pre-default query, indexed like ``CASE_NAMES``.
    """

    def __init__(self, problem: LogControlProblem, hbar: float | None = None,
                 hbar_post_default: bool = True):
        self.problem = problem
        self.box = problem.box
        self.hbar = hbar
        self.hbar_post_default = hbar_post_default
        self.kt_cases = np.zeros(len(CASE_NAMES), dtype=np.int64)  # solver-health counter

    def allocations(self, t, x, prices, states):
        prob = self.problem
        params = prob.params
        states = np.asarray(states)
        prices = np.asarray(prices, dtype=float)
        out = np.zeros_like(prices)

        pre = (states == 0).all(axis=1)
        if pre.any():
            if self.hbar is None:
                rates = prob.intensity.rates_matrix(states[pre], prices[pre])
                hS, hP = rates[:, 0], rates[:, 1]
            else:
                hS = hP = np.full(int(pre.sum()), float(self.hbar))
            pi, case_id, _, _ = solve_kt_batch(prob, hS, hP)
            self.kt_cases += np.bincount(case_id, minlength=len(CASE_NAMES))
            out[pre] = pi

        for stock in (0, 1):
            other = 1 - stock
            mask = (states[:, stock] == 0) & (states[:, other] == 1)
            if not mask.any():
                continue
            if self.hbar is not None and self.hbar_post_default:
                h = np.full(int(mask.sum()), float(self.hbar))
            else:
                h = prob.intensity.rates_matrix(states[mask], prices[mask])[:, stock]
            raw = single_survivor_formula(params.mu[stock], params.sigma[stock],
                                          params.r, h)
            out[mask, stock] = np.clip(raw, prob.box.lower[stock], prob.box.upper[stock])
        return out


def make_log_strategy(prob: LogControlProblem, mode: str = "state-dependent",
                      hbar: float | None = None,
                      hbar_post_default: bool = True) -> LogStrategy:
    """Strategy factory.

    ``mode="state-dependent"`` solves the KT system at every queried
    price pair; ``mode="fixed-intensity"`` substitutes the constant
    ``hbar`` into the same solver in every state (post-default too unless
    ``hbar_post_default`` is False).
    """
    if mode == "state-dependent":
        return LogStrategy(prob, hbar=None)
    if mode == "fixed-intensity":
        if hbar is None:
            raise ValueError("fixed-intensity mode requires hbar")
        return LogStrategy(prob, hbar=float(hbar), hbar_post_default=hbar_post_default)
    raise ValueError(f"unknown mode: {mode!r}")
