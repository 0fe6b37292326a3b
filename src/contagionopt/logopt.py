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
usual complementary slackness.  The terms ``theta' pi``, ``Sigma pi``,
``pi' Sigma pi`` and the two jump factors are written once, by the
market's :class:`~contagionopt.model.TwoStockMarket` record, which the
power-utility solver reads too.

Every hazard pair of a batch is solved by the projected Newton method of
Bertsekas (*Projected Newton methods for optimization problems with
simple constraints*, SIAM J. Control Optim., 1982), started from given
start rows clipped to the box or, without them, from the Merton point
clipped to the box.  A path's hazards move little in one time step, so
a simulation starts each path from its allocation at the previous step
(a continuation warm start; Nocedal & Wright, *Numerical Optimization*,
2006, sections 6 and 18); the start moves where the iteration begins,
and the answer only by solver rounding.  Each iteration finds the
epsilon-active coordinates: those within ``min(eps_0, |pi - P(pi + grad
G)|)`` of a bound with their gradient pointing out of the box.  Only a
coordinate within ``eps_0`` of a bound can be epsilon-active or held, so
the test runs only on iterations where some row has one; on the others
every coordinate is free.  When no coordinate is epsilon-active and the
Hessian is negative definite the row takes a full Newton step; otherwise
each coordinate takes its own Newton step, the diagonally scaled gradient
step, capped at the box width as a trust region (computed only on
iterations where some row takes it).  Every stock's volatility must be
positive (the problem's :class:`~contagionopt.model.TwoStockMarket` record
checks it), so each Hessian diagonal entry is at most ``-sigma^2`` and
every step is finite.  Trials are projected onto the box, which
:func:`validate_box` keeps inside the log domain of G.  A trial is
accepted when G stays within rounding of its value at the iterate, since
G cannot resolve a Newton step's gain near the maximizer; the full step
is tried on every row at once, and only the rows it fails halve their
step.  The G of a row's accepted trial is its G at the next iterate, so G
is evaluated at the iterate on the first iteration only, and the jump
factors taken for that G are the next iterate's (taken again where the
line search moved a row).

Every iteration begins with one exit test, the only place a row leaves:
a row leaves when its residual reaches the stationarity target, when its
last step did not move it, or on the pass after ``_MAX_ITER`` steps.  The
test reads the gradient only; the Hessian is formed after it, for the rows
that stay.  The batch is filtered only on iterations where some row
leaves.  A leaving row's gradient is the one the test just took at its
final allocation, and its Newton iterations are the steps it took before
it left.  The Kuhn-Tucker case, the multipliers and the residual are read
from the final held set, the coordinates sitting at a bound with their
gradient pointing out: a held coordinate's multiplier is its outward
gradient, and the residual is the largest gradient of a free coordinate.
A row whose residual misses ``1e-8`` raises ``RuntimeError``.

After one default the problem collapses to one dimension and has the
closed form

    pi* = (mu - r + sigma^2 - sqrt((mu - r - sigma^2)^2
           + 4 sigma^2 h)) / (2 sigma^2),

clamped to the box of the surviving stock; with both stocks gone only
the bank account remains.

:func:`solve_kt_batch` solves arrays of hazard pairs.
:meth:`LogStrategy.allocations` is the one query path for price and
default-state rows, for the active investor and the passive comparator
alike (the comparator's intensity is a constant).  It reads every row's
hazards with one call of the intensity model's ``rates_matrix``, the call
the simulation makes, solves the pre-default rows with
:func:`solve_kt_batch` and the single-survivor rows by the closed form.
Pre-default rows that share one hazard pair and one start row pose one
problem, solved once: a row's answer does not depend on the rest of its
batch, so this is exact.  :meth:`LogStrategy.step_allocations` starts
each pre-default row from its path's previous allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from contagionopt.dynamics import Strategy
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    TwoStockMarket,
    _alive_columns,
    validate_box,
)

__all__ = [
    "LogControlProblem",
    "solve_kt_batch",
    "single_survivor_formula",
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
    """Two-stock market, intensity model, and validated admissible box.

    ``market``, the :class:`TwoStockMarket` record, is built once and rejects
    a market that is not two stocks with positive volatilities."""

    params: MarketParams
    intensity: object
    box: AdmissibleBox
    market: TwoStockMarket = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "market", TwoStockMarket(self.params))
        if self.box.n != 2:
            raise ValueError("box must be two-dimensional")
        if np.any(self.box.lower >= self.box.upper):
            raise ValueError("box must have nonempty interior in each coordinate")
        worst = validate_box(self.box, self.params)
        if worst < 0.0:
            raise ValueError(f"box violates the post-default floor (worst margin {worst:.4g})")


def _g(c: TwoStockMarket, hS, hP, piS, piP, d):
    """G values at allocations ``(piS, piP)`` whose jump factors are the
    pair ``d``; both factors must be positive."""
    return c.excess(piS, piP) - 0.5 * c.quad(piS, piP) + hS * np.log(d[0]) + hP * np.log(d[1])


def _gradient(c: TwoStockMarket, hS, hP, piS, piP, d):
    """Gradient ``(g_S, g_P)`` at allocations ``(piS, piP)`` whose jump
    factors are the pair ``d``, and the pair ``r = (h_S / d_1, h_P / d_2)``
    that :func:`_hessian` reads."""
    r1, r2 = hS / d[0], hP / d[1]
    cov0, cov1 = c.cov_pi(piS, piP)
    return (c.t0 - cov0 - r1 - c.LS * r2, c.t1 - cov1 - c.LP * r1 - r2), (r1, r2)


def _hessian(c: TwoStockMarket, r, d):
    """Hessian diagonal ``(H_SS, H_PP)`` and off-diagonal ``H_SP`` from the
    jump factors ``d`` and :func:`_gradient`'s ``r`` at the same allocations."""
    q1, q2 = r[0] / d[0], r[1] / d[1]
    return (-c.S00 - q1 - c.LS**2 * q2, -c.S11 - c.LP**2 * q1 - q2), -c.S01 - c.LP * q1 - c.LS * q2


def _held(x, g, box: AdmissibleBox):
    """Held coordinates (at a bound, gradient pointing out) and the KKT
    residual, the largest gradient among the free coordinates.  ``x`` and
    ``g`` are pairs of coordinate arrays, and so are the two held masks."""
    low = tuple((xj == b) & (gj < 0.0) for xj, gj, b in zip(x, g, box.lower))
    high = tuple((xj == b) & (gj > 0.0) for xj, gj, b in zip(x, g, box.upper))
    free = [np.where(lj | hj, 0.0, np.abs(gj)) for lj, hj, gj in zip(low, high, g)]
    return low, high, np.maximum(free[0], free[1])


def _put_cols(a, rows, cols):
    """``a[rows] = v`` for the (m, 2) array ``a``, given the two columns of
    ``v``."""
    a[:, 0][rows], a[:, 1][rows] = cols


def _same_rows(a) -> bool:
    """True when every row of the (m, 2) array ``a`` equals its first."""
    return bool((a[:, 0] == a[0, 0]).all() and (a[:, 1] == a[0, 1]).all())


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)``, bit for bit."""
    return np.minimum(np.maximum(x, lo), hi)


def solve_kt_batch(prob: LogControlProblem, hS, hP, start=None):
    """Pre-default controls for arrays of hazard pairs by projected Newton,
    each row started from its row of ``start`` (m, 2) clipped to the box, or
    from the clipped Merton point.  Non-finite or negative hazards, and a
    ``start`` of another shape or not finite, raise ``ValueError``.

    Returns ``(pi (m, 2), case_id, multipliers (m, 4), residual, newton_iters)``.
    """
    hS = np.atleast_1d(np.asarray(hS, dtype=float))
    hP = np.atleast_1d(np.asarray(hP, dtype=float))
    if hS.shape != hP.shape:
        raise ValueError(f"hazard arrays differ in shape: h_S {hS.shape}, h_P {hP.shape}")
    if not (np.isfinite(hS).all() and np.isfinite(hP).all()):
        raise ValueError("hazard rates must be finite")
    if np.any(hS < 0.0) or np.any(hP < 0.0):
        raise ValueError("hazard rates must be nonnegative")
    c, box = prob.market, prob.box
    lo, hi = box.lower, box.upper
    width = hi - lo
    if start is not None:
        if np.shape(start) != (hS.size, 2):
            raise ValueError(f"start has shape {np.shape(start)}, need {(hS.size, 2)}")
        if not np.all(np.isfinite(start)):
            raise ValueError("start rows must be finite")
        x = np.clip(np.asarray(start, dtype=float), lo, hi)
    else:
        det = c.S00 * c.S11 - c.S01**2
        merton = np.array([c.S11 * c.t0 - c.S01 * c.t1, c.S00 * c.t1 - c.S01 * c.t0]) / det
        x = np.tile(np.clip(merton, lo, hi), (hS.size, 1))

    n = hS.size
    iters = np.empty(n, dtype=np.int64)
    grad = np.empty((n, 2))
    # the rows still iterating: their indices, hazards and, one contiguous
    # array per coordinate, iterates.  The exit test is the one place that
    # writes a leaving row's x, gradient and count; the last pass is the cap.
    rows, hs, hp, xa = np.arange(n), hS, hP, (x[:, 0].copy(), x[:, 1].copy())
    d = c.jumps(*xa)  # the iterates' jump factors: then the accepted trials'
    g0 = None  # G at the iterates: taken on the first pass, then the accepted trials'
    inner = lo + _EPS_ACTIVE, hi - _EPS_ACTIVE
    stuck = False
    for it in range(_MAX_ITER + 1):
        # the exit test reads the gradient only; the Hessian is formed for
        # the rows that stay
        g, r = _gradient(c, hs, hp, *xa, d)
        # only a coordinate within eps_0 of a bound can be held or
        # epsilon-active; with none, every coordinate is free
        edge = rows.size > 0 and any(xj.min() <= a or xj.max() >= b
                                     for xj, a, b in zip(xa, *inner))
        residual = _held(xa, g, box)[2] if edge else np.maximum(np.abs(g[0]), np.abs(g[1]))
        done = stuck | ~(residual > _GRAD_TOL) | (it == _MAX_ITER)
        del residual
        if done.any():
            out = rows[done]
            _put_cols(x, out, [a[done] for a in xa])
            _put_cols(grad, out, [a[done] for a in g])
            iters[out] = it
            keep = ~done
            rows, hs, hp = (a[keep] for a in (rows, hs, hp))
            # two pairs at a time: a pair's old arrays are freed as it is rebound
            xa, g = ([a[keep] for a in pair] for pair in (xa, g))
            r, d = ([a[keep] for a in pair] for pair in (r, d))
            g0 = None if g0 is None else g0[keep]
            del out, keep
        if rows.size == 0:
            break
        if g0 is None:
            g0 = _g(c, hs, hp, *xa, d)

        hd, hoff = _hessian(c, r, d)
        del r, d
        det = hd[0] * hd[1] - hoff**2
        full = det > 0.0
        if edge:
            dist = [np.abs(xj - _clip(xj + gj, lj, uj)) for xj, gj, lj, uj in zip(xa, g, lo, hi)]
            eps = np.minimum(_EPS_ACTIVE, np.maximum(dist[0], dist[1]))
            near = [((xj <= lj + eps) & (gj < 0.0)) | ((xj >= uj - eps) & (gj > 0.0))
                    for xj, gj, lj, uj in zip(xa, g, lo, hi)]
            full &= ~(near[0] | near[1])
            del dist, eps, near
        newton = (hoff * g[1] - hd[1] * g[0], hoff * g[0] - hd[0] * g[1])
        if full.all():
            step = [nj / det for nj in newton]
        else:
            # per-coordinate Newton step, capped at the box width: a trust region
            # for a coordinate whose curvature is small against its gradient
            step = [np.divide(nj, det, out=gj / np.maximum(-hj, np.abs(gj) / wj), where=full)
                    for nj, gj, hj, wj in zip(newton, g, hd, width)]
        # no name keeps what formed the step while its trial is taken
        del g, hd, hoff, det, full, newton, done

        floor = g0 - _G_ROUNDING * (1.0 + np.abs(g0))
        # the full step is tried on every row; rows it fails halve their step
        new = [_clip(xj + sj, lj, uj) for xj, sj, lj, uj in zip(xa, step, lo, hi)]
        d = c.jumps(*new)
        gnew = _g(c, hs, hp, *new, d)
        ok = gnew >= floor
        if not ok.all():
            search = np.flatnonzero(~ok)
            new[0][search], new[1][search] = xa[0][search], xa[1][search]
            alpha = 0.5
            for _ in range(_MAX_HALVINGS - 1):
                trial = [_clip(xj[search] + alpha * sj[search], lj, uj)
                         for xj, sj, lj, uj in zip(xa, step, lo, hi)]
                gt = _g(c, hs[search], hp[search], *trial, c.jumps(*trial))
                ok = gt >= floor[search]
                for nj, tj in zip(new, trial):
                    nj[search[ok]] = tj[ok]
                gnew[search[ok]] = gt[ok]
                search = search[~ok]
                if search.size == 0:
                    break
                alpha *= 0.5
            d = c.jumps(*new)  # the rows that searched moved elsewhere
        # a row that found no acceptable trial, or whose step no longer
        # moves it, has reached what rounding lets it resolve: it leaves at
        # the next exit test, before its G (a failed trial's when it found
        # none) is read
        stuck = (new[0] == xa[0]) & (new[1] == xa[1])
        xa, g0 = new, gnew
        # only the iterates, their jump factors and G and the stuck mask
        # live into the next pass
        del new, gnew, step, floor, ok

    low, high, residual = _held(x.T, grad.T, box)
    bad = np.nonzero(~(residual <= _ACCEPT_TOL))[0]
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"KT solver missed the KKT tolerance at hazards (h_S, h_P) = "
            f"({hS[k]:.17g}, {hP[k]:.17g}): residual {residual[k]:.3g}")
    case_id = _CASE_OF_SIDES[low[0] + 2 * high[0], low[1] + 2 * high[1]]
    gS, gP = grad.T
    mult = np.column_stack([np.where(low[0], -gS, 0.0), np.where(high[0], gS, 0.0),
                            np.where(low[1], -gP, 0.0), np.where(high[1], gP, 0.0)])
    return x, case_id, mult, residual, iters


def single_survivor_formula(mu: float, sigma: float, r: float, h) -> np.ndarray:
    """Unclamped optimal fraction in the last surviving stock, for
    ``sigma > 0``."""
    h = np.asarray(h, dtype=float)
    excess = mu - r
    s2 = sigma**2
    return (excess + s2 - np.sqrt((excess - s2) ** 2 + 4.0 * s2 * h)) / (2.0 * s2)


class LogStrategy(Strategy):
    """Log-optimal allocation rule.

    The hazards are read from the problem's intensity model at the
    queried prices.  A numeric ``hbar`` replaces that model with
    ``ConstantIntensity(hbar)`` (the passive comparator); nothing else
    differs.  ``kt_cases`` counts the Kuhn-Tucker case of every
    pre-default query, indexed like ``CASE_NAMES``; ``kt_newton_iters``
    counts the rows the KT solver ran on, their Newton iterations and the
    most any row took.
    """

    def __init__(self, problem: LogControlProblem, hbar: float | None = None):
        if hbar is not None:
            problem = replace(problem, intensity=ConstantIntensity(hbar))
        self.problem = problem
        self.box = problem.box
        self.hbar = hbar
        # solver-health counters
        self.kt_cases = np.zeros(len(CASE_NAMES), dtype=np.int64)
        self.kt_newton_iters = {"rows": 0, "total": 0, "max": 0}

    def step_allocations(self, t, x, prices, states, prev):
        """Start each pre-default row's KT solve from its path's previous
        allocation; a pre-default row was pre-default at the previous step
        too, since defaults are absorbing."""
        return self.allocations(t, x, prices, states, start=prev)

    def allocations(self, t, x, prices, states, start=None):
        """Allocations as :meth:`Strategy.allocations`; ``start`` (one row
        per path) seeds the KT solves of the pre-default rows.  Pre-default
        rows that all share one hazard pair and one start row are solved once.
        """
        prob = self.problem
        params = prob.params
        states = np.asarray(states)
        prices = np.asarray(prices, dtype=float)
        out = np.zeros_like(prices)
        rates = prob.intensity.rates_matrix(states, prices)

        alive = _alive_columns(states)
        pre = alive[0] & alive[1]
        if pre.any():
            h = rates.compress(pre, axis=0)
            if start is not None:
                start = np.asarray(start, dtype=float).compress(pre, axis=0)
            one = _same_rows(h) and (start is None or _same_rows(start))
            rows = slice(0, 1) if one else slice(None)
            pi, case_id, _, _, iters = solve_kt_batch(
                prob, h[rows, 0], h[rows, 1], None if start is None else start[rows])
            _put_cols(out, pre, pi.T)
            self.kt_cases += np.bincount(np.broadcast_to(case_id, h.shape[:1]),
                                         minlength=len(CASE_NAMES))
            count = self.kt_newton_iters
            count["rows"] += iters.size
            count["total"] += int(iters.sum())
            count["max"] = max(count["max"], int(iters.max()))

        for stock in (0, 1):
            mask = alive[stock] & ~pre
            raw = single_survivor_formula(params.mu[stock], params.sigma[stock],
                                          params.r, rates[:, stock][mask])
            out[:, stock][mask] = np.clip(raw, prob.box.lower[stock], prob.box.upper[stock])
        return out
