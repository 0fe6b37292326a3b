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
problem.  The hazards ``h_S, h_P`` are read from the intensity model's
``rates_matrix`` with no stock defaulted, the same call the simulation
makes.  The diffusion is approximated by a nine-point lattice Markov
chain whose transition probabilities match the local drift and
covariance (Kushner & Dupuis, *Numerical Methods for Stochastic Control
Problems in Continuous Time*, 2001), and the value is computed by the
discretized dynamic programming recursion

    v(k) = sup_pi { g dt + exp(-beta dt) E[v(k+1)] },   v(N) = 1,

with the supremum over a uniform control lattice intersected with the
admissible region, followed by a greedy pattern search that recentres on
every strict improvement; every candidate is a point of one quarter-step
lattice, searched by index.  Transitions that would leave the lattice put
their mass on the boundary node itself.

The probabilities, killing rate and source are written once, as the
factors that :func:`solve_power_value` and :func:`validate_cfl` share;
the scheme is monotone, which is what makes it converge, wherever
:func:`validate_cfl` passes.
Their market terms ``theta' pi``, ``Sigma pi`` and ``pi' Sigma pi`` come
from :class:`~contagionopt.model.TwoStockMarket`, the record the log
solver reads, which is also the solvers' one check of two stocks with
positive volatilities.  The jump factors come from the n-stock
:func:`~contagionopt.model.jump_factors`, as the admissibility mask does.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from contagionopt.dynamics import Strategy
from contagionopt.model import (AdmissibleBox, MarketParams, TwoStockMarket, _alive_columns,
                               from_section, jump_factors)

__all__ = [
    "GridSpec",
    "ValueGrid",
    "CFLViolationError",
    "TRANSITION_MOVES",
    "g1",
    "merton_power_control",
    "control_lattice",
    "validate_cfl",
    "solve_power_value",
    "PowerGridStrategy",
]

_PROB_TOL = 1e-12
# rows per block of the coarse candidates' first maximum (_first_max)
_MAX_BLOCK = 16

# lattice moves in fixed order: stay, s+, s-, p+, p-, then the diagonals
# carrying rho+ mass ((+,+), (-,-)) and rho- mass ((+,-), (-,+))
TRANSITION_MOVES = (
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (-1, -1), (1, -1), (-1, 1),
)


class CFLViolationError(ValueError):
    """A lattice transition probability left [0, 1]."""


def _check_gamma(gamma, what: str):
    """Raise ``ValueError`` naming ``what`` unless ``gamma`` is a number in (0, 1)."""
    if not (isinstance(gamma, Real) and 0.0 < gamma < 1.0):
        raise ValueError(f"{what} must lie strictly inside (0, 1), not {gamma!r}")


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


def _quarter_lattice(box: AdmissibleBox, L: np.ndarray, n_control: int):
    """Row-major points of the quarter-step lattice over the box, their
    admissibility (every post-default wealth fraction at or above
    ``eps_a``), and the indices of the admissible control-lattice points
    among them (every fourth point per axis)."""
    n = 4 * n_control - 3
    axes = [np.linspace(box.lower[i], box.upper[i], n) for i in range(box.n)]
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    ok = (jump_factors(L, pts) >= box.eps_a).all(axis=-1)
    coarse = np.flatnonzero(ok & (np.indices((n,) * box.n).reshape(box.n, -1) % 4 == 0).all(0))
    if coarse.size == 0:
        raise ValueError("no admissible control lattice point; box and eps_a incompatible")
    return pts, ok, coarse


def control_lattice(box: AdmissibleBox, L: np.ndarray, n_control: int) -> np.ndarray:
    """Uniform lattice over the box, restricted to allocations keeping
    every post-default wealth fraction at or above ``eps_a``."""
    pts, _, coarse = _quarter_lattice(box, L, n_control)
    return pts[coarse]


def _first_max(a: np.ndarray):
    """Row index and value of each column's first maximum of a finite 2-D
    array: ``np.argmax(a, axis=0)`` and ``a.max(axis=0)``, bit for bit.

    Each column's maximum is taken over blocks of ``_MAX_BLOCK`` rows; the
    first block holding the largest one is found among these few block
    maxima, and ``argmax`` runs on that block's rows only.  The input must
    be finite: ``np.argmax`` returns a column's first NaN, which no
    comparison of block maxima singles out.  The DP's coarse candidates
    are finite: their controls are admissible, so their features are, and
    so are the node factors of a finite value, which the DP checks every
    slice.
    """
    n, c = a.shape
    full = n // _MAX_BLOCK
    block_max = np.empty((-(-n // _MAX_BLOCK), c))
    a[:full * _MAX_BLOCK].reshape(full, _MAX_BLOCK, c).max(axis=1, out=block_max[:full])
    if full < len(block_max):
        a[full * _MAX_BLOCK:].max(axis=0, out=block_max[full])
    block = block_max.argmax(axis=0)
    cols = np.arange(c)
    # a short last block is read as the last _MAX_BLOCK rows: the rows it
    # borrows from the block before hold no maximum, as that block does not
    start = np.minimum(block * _MAX_BLOCK, max(n - _MAX_BLOCK, 0))
    rows = np.arange(min(_MAX_BLOCK, n))[:, None] * c + cols
    return start + a.take(rows + start * c).argmax(axis=0), block_max.take(block * c + cols)


def _pre_default_rates(intensity, s, p):
    """Pre-default hazards ``(h_S, h_P)`` on broadcast price arrays, read
    from ``intensity.rates_matrix`` exactly as the simulation reads them."""
    s, p = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(p, dtype=float))
    prices = np.column_stack([s.ravel(), p.ravel()])
    rates = intensity.rates_matrix(np.zeros(prices.shape, dtype=np.uint8), prices)
    return rates[:, 0].reshape(s.shape), rates[:, 1].reshape(s.shape)


def _upwind(c1, c2, grid: GridSpec):
    """Drift probability per unit price of the moves s+, s-, p+, p-: each
    drift coefficient goes to the move in its own direction."""
    k1 = grid.dt / grid.delta
    return tuple(k1 * np.maximum(c, 0.0) for c in (c1, -c1, c2, -c2))


def _control_terms(market: TwoStockMarket, gamma: float, pi):
    """Per-unit-price drifts ``c1, c2`` of the transformed state process,
    the control part ``beta_c`` of the killing rate (``beta`` without the
    hazards) and the jump factors of allocations ``pi[..., 2]``."""
    pi = np.asarray(pi, dtype=float)
    piS, piP = pi[..., 0], pi[..., 1]
    params = market.params
    c1, c2 = (mu + gamma * cov for mu, cov in zip(params.mu, market.cov_pi(piS, piP)))
    beta_c = -params.r * gamma - gamma * (market.excess(piS, piP)
                                          + 0.5 * (gamma - 1.0) * market.quad(piS, piP))
    return c1, c2, beta_c, jump_factors(params.L, pi)


def _branch_sources(t, grid: GridSpec, params: MarketParams, gamma: float, hS, hP):
    """Running source of each default branch before its jump factor: the
    branch hazard times the survivor's closed-form factor."""
    return (hS * g1(t, grid.horizon, params, gamma, stock=1),   # S defaults, P survives
            hP * g1(t, grid.horizon, params, gamma, stock=0))


def _features(market: TwoStockMarket, gamma: float, pi, grid: GridSpec) -> np.ndarray:
    """The seven per-control factors of a DP candidate, shape
    ``pi.shape[:-1] + (7,)``: ``exp(-beta_c dt)``, its products with the
    four upwind drift probabilities per unit price, and the two jump factors
    raised to ``gamma``.  A candidate's value is their dot product with the
    node factors built in :func:`solve_power_value`."""
    c1, c2, beta_c, jumps = _control_terms(market, gamma, pi)
    eb = np.exp(-beta_c * grid.dt)
    # clamped at zero so an inadmissible point's features stay finite; the
    # DP then sets its first factor to -inf
    jg = np.maximum(jumps, 0.0) ** gamma
    return np.stack([eb, *(eb * u for u in _upwind(c1, c2, grid)),
                     jg[..., 0], jg[..., 1]], axis=-1)


def _nine_probs(s, p, c1, c2, grid: GridSpec, params: MarketParams):
    """The nine transition probabilities in TRANSITION_MOVES order."""
    k2 = grid.dt / (2.0 * grid.delta**2)
    sS, sP = params.sigma
    rho = params.rho[0, 1]
    s_up, s_dn, p_up, p_dn = _upwind(c1, c2, grid)
    ds2, dp2, cross = (sS * s) ** 2, (sP * p) ** 2, sS * sP * s * p
    side_s = k2 * (ds2 - abs(rho) * cross)
    side_p = k2 * (dp2 - abs(rho) * cross)
    stay = (1.0 - (s_up + s_dn) * s - (p_up + p_dn) * p
            - 2.0 * k2 * (ds2 + dp2 - abs(rho) * cross))
    diag_pos = k2 * max(rho, 0.0) * cross   # (+,+) and (-,-)
    diag_neg = k2 * max(-rho, 0.0) * cross  # (+,-) and (-,+)
    return np.stack(np.broadcast_arrays(stay, s_up * s + side_s, s_dn * s + side_s,
                                        p_up * p + side_p, p_dn * p + side_p,
                                        diag_pos, diag_pos, diag_neg, diag_neg))


def _check_probs(probs, s, p, control, what: str):
    """Raise :class:`CFLViolationError` naming the move, node and control of
    the first probability outside ``[0, 1]`` by more than 1e-12."""
    bad = (probs < -_PROB_TOL) | (probs > 1.0 + _PROB_TOL)
    if bad.any():
        move, *idx = np.argwhere(bad)[0]
        s, p, c0, c1 = (float(np.broadcast_to(x, probs.shape[1:])[tuple(idx)])
                        for x in (s, p, *control))
        raise CFLViolationError(
            f"transition probability {probs[(move, *idx)]:.6g} for move "
            f"{TRANSITION_MOVES[move]} at node (s={s:.6g}, p={p:.6g}) under {what} "
            f"({c0:.6g}, {c1:.6g}); shrink dt or the domain")


def validate_cfl(grid: GridSpec, params: MarketParams, gamma: float,
                 box: AdmissibleBox) -> float:
    """Check all nine probabilities stay in [0, 1] for every lattice node
    and every control in the box, and return the CFL margin: the smallest
    stay probability, i.e. how far ``dt`` is from making one negative.

    The drift coefficients are linear in the allocation and every
    probability is monotone in each of them, so checking the box corners'
    coefficient extremes covers the whole box (including the quarter-step
    lattice of the refinement).
    """
    corners = box.vertices()
    c1s, c2s, _, _ = _control_terms(TwoStockMarket(params), gamma, corners)
    S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
    margin = 1.0
    for c1 in (c1s.min(), c1s.max()):
        for c2 in (c2s.min(), c2s.max()):
            probs = _nine_probs(S, P, c1, c2, grid, params)
            corner = corners[int(np.argmin(np.abs(c1s - c1) + np.abs(c2s - c2)))]
            _check_probs(probs, S, P, corner, "box-corner control")
            margin = min(margin, float(probs[0].min()))
    return margin


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
        meta = dict(asdict(self.grid), gamma=self.gamma)
        np.savez_compressed(path, f=self.f, controls=self.controls,
                            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))

    @classmethod
    def load(cls, path: str) -> "ValueGrid":
        """Read a grid written by :meth:`save`.

        A file that is not an npz archive, lacks one of the arrays
        ``meta``, ``f`` and ``controls``, whose meta does not name the
        :class:`GridSpec` fields and a ``gamma`` in (0, 1), or whose arrays
        do not have the shapes its grid implies raises ``ValueError``
        naming the file.
        """
        try:
            data = np.load(path)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with data:
                missing = sorted({"meta", "f", "controls"} - set(data.files))
                if missing:
                    raise ValueError(f"missing arrays {missing}")
                meta, f, controls = (data[k] for k in ("meta", "f", "controls"))
            meta = json.loads(bytes(meta).decode())
            if "gamma" not in meta:
                raise ValueError("meta has no gamma")
            gamma = meta.pop("gamma")
            _check_gamma(gamma, "meta gamma")
            grid = from_section(GridSpec, meta, "meta")
            nodes = (grid.s_nodes().size, grid.p_nodes().size)
            for name, arr, shape in (("f", f, (grid.n_slices + 1, *nodes)),
                                     ("controls", controls, (grid.n_slices, *nodes, 2))):
                if arr.shape != shape:
                    raise ValueError(f"{name} has shape {arr.shape}, its grid implies {shape}")
        except ValueError as exc:
            raise ValueError(f"value grid {path}: {exc}") from None
        return cls(grid=grid, gamma=gamma, f=f, controls=controls)


def solve_power_value(grid: GridSpec, params: MarketParams, intensity,
                      gamma: float, box: AdmissibleBox) -> ValueGrid:
    """Backward dynamic programming on the nine-point chain.

    Every candidate is a point of the quarter-step lattice over the box,
    searched by index; its features and admissibility are computed once.
    The supremum is over the admissible control lattice (every fourth
    point).  With ``grid.refine`` a greedy pattern search follows: each of
    the 80 index offsets of a 9 x 9 window (row offset outer, clipped to
    the box) is tried from the node's current best, and a trial that is
    admissible and strictly better becomes the new best, so later offsets
    start from it.  The result is never worse than the coarse argmax.

    Each node's first maximum among the coarse candidates is the one
    ``np.argmax`` finds (:func:`_first_max`).  The walk needs no
    admissibility test: once the coarse features are taken, an
    inadmissible point's first feature is set to -inf, and its node
    factor, the discounted driftless expectation, is positive while the
    value is, so an inadmissible trial is worth -inf and never taken.

    When the hazards are the same at every node (a price-free intensity
    such as the constant comparator), the value is flat in price: every
    node sees the same factors, and a flat value stays flat.  The
    recursion then runs on the node ``(0, 0)`` alone, where the driftless
    chain stays put, and its ``f`` and controls are copied to every node.
    Its walk reads each trial from one table of every quarter-lattice
    point's value per slice.

    A ``gamma`` outside (0, 1), or a market that is not two stocks with
    positive volatilities (:class:`TwoStockMarket`), raises ``ValueError``.
    """
    _check_gamma(gamma, "gamma")
    market = TwoStockMarket(params)
    if box.n != 2:
        raise ValueError("box must be two-dimensional")
    validate_cfl(grid, params, gamma, box)

    dt = grid.dt
    S, P = np.meshgrid(grid.s_nodes(), grid.p_nodes(), indexing="ij")
    shape = S.shape
    hS, hP = _pre_default_rates(intensity, S, P)
    if not (np.all(np.isfinite(hS)) and np.all(np.isfinite(hP))):
        bad = np.argwhere(~(np.isfinite(hS) & np.isfinite(hP)))[0]
        raise ValueError(
            f"intensity is not finite at grid node (s={S[tuple(bad)]}, p={P[tuple(bad)]}); "
            "exclude the offending boundary from the domain")
    flat = np.ptp(hS) == 0.0 and np.ptp(hP) == 0.0
    if flat:
        S, P, hS, hP = (a[:1, :1] for a in (S, P, hS, hP))
    ns, np_ = S.shape
    ehd = np.exp(-(hS + hP) * dt)
    probs0 = _nine_probs(S, P, 0.0, 0.0, grid, params)  # the chain without drift

    fine, admissible, coarse = _quarter_lattice(box, params.L, grid.n_control)
    feats = _features(market, gamma, fine, grid)
    coarse_feats = feats[coarse]
    # for the walk, an inadmissible point's first factor is -inf; its node
    # factor ehd ev0 is positive while v is, so such a trial's value is -inf
    # (NaN if ehd underflows) and never strictly better
    feats[~admissible, 0] = -np.inf
    # trial_of[o, q]: the quarter-lattice point that offset o reaches from q
    n_fine = 4 * grid.n_control - 3
    qi, qj = np.divmod(np.arange(n_fine * n_fine, dtype=np.intp), n_fine)
    trial_of = np.stack([np.clip(qi + a, 0, n_fine - 1) * n_fine + np.clip(qj + b, 0, n_fine - 1)
                         for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)])

    n_slices = grid.n_slices
    f = np.empty((n_slices + 1, ns, np_))
    f[n_slices] = 1.0
    controls = np.empty((n_slices, ns, np_, 2))
    v = np.ones((ns, np_))

    for k in range(n_slices - 1, -1, -1):
        # value at each move's neighbour; a move off the lattice reads the
        # boundary node itself, which the one-node edge pad supplies
        padded = np.pad(v, 1, mode="edge")
        moved = [padded[1 + a:1 + a + ns, 1 + b:1 + b + np_] for a, b in TRANSITION_MOVES]
        # node factors matching _features: the driftless expectation, the
        # gain of each upwind move s+, s-, p+, p-, and the branch sources
        ev0 = sum(q * vm for q, vm in zip(probs0, moved))
        gains = [x * (vm - v) for x, vm in zip((S, S, P, P), moved[1:5])]
        srcS, srcP = _branch_sources(k * dt, grid, params, gamma, hS, hP)
        nodes = np.stack([ehd * ev0, *(ehd * g for g in gains),
                          srcS * dt, srcP * dt]).reshape(7, -1)

        # no name keeps the candidates, so one slice's array is freed before
        # the next slice's is made
        best, vbest = _first_max(coarse_feats @ nodes)
        at = coarse[best]

        if grid.refine and flat:
            # one node: every trial's value is in this slice's table
            table = np.einsum("ij,ji->i", feats, np.broadcast_to(nodes, (7, len(feats))))
            q, val = at.item(0), vbest.item(0)
            for nbr in trial_of:
                trial = nbr.item(q)
                if table.item(trial) > val:
                    q, val = trial, table.item(trial)
            at[0], vbest[0] = q, val
        elif grid.refine:
            for nbr in trial_of:
                trial = nbr[at]
                val = np.einsum("ij,ji->i", feats.take(trial, axis=0), nodes)
                upd = val > vbest
                np.copyto(vbest, val, where=upd)
                np.copyto(at, trial, where=upd)

        v = vbest.reshape(ns, np_)
        if not np.all(np.isfinite(v)) or v.min() <= 0.0:
            raise RuntimeError(f"value became non-finite or nonpositive at slice {k}")
        f[k] = v
        controls[k] = fine[at].reshape(ns, np_, 2)

    if flat:
        f = np.broadcast_to(f, (n_slices + 1, *shape)).copy()
        controls = np.broadcast_to(controls, (n_slices, *shape, 2)).copy()
    return ValueGrid(grid=grid, gamma=gamma, f=f, controls=controls)


class PowerGridStrategy(Strategy):
    """Allocation rule extracted from a solved :class:`ValueGrid`; it keeps
    the grid's spec and controls, not its value factor ``f``.

    Pre-default controls come from bilinear interpolation of the node
    argmax on the slice in force at the query time; queries outside the
    price domain are clamped to the boundary and counted.  After a
    default the surviving stock gets its constant Merton fraction,
    additionally capped so a further default keeps ``eps_a`` of wealth.
    ``pre_default_queries`` and ``out_of_domain`` count the pre-default
    queries and the clamped ones among them.  The utility's ``gamma`` is
    the grid's.  A market that is not two stocks with positive
    volatilities raises ``ValueError`` (:class:`TwoStockMarket`).

    Every row of a query is interpolated (a defaulted stock's price is
    clamped like any other), and a post-default row then takes its Merton
    fraction or zero in place of the result.
    """

    def __init__(self, value_grid: ValueGrid, params: MarketParams, box: AdmissibleBox):
        TwoStockMarket(params)  # two stocks, both with sigma > 0
        self.grid = value_grid.grid
        self.controls = value_grid.controls
        self.box = box
        self.out_of_domain = 0  # solver-health counters
        self.pre_default_queries = 0
        self._post = [
            merton_power_control(params, value_grid.gamma, box.lower[i],
                                 min(box.upper[i], 1.0 - box.eps_a), stock=i)
            for i in range(2)
        ]

    def _cells(self, s: np.ndarray, p: np.ndarray):
        """Each row's lower-left node as the flat index ``2 (i np + j)`` into
        a control slice, and its bilinear weights for the corners (i, j),
        (i+1, j), (i, j+1) and (i+1, j+1), prices clamped to the domain.
        Its temporaries are freed on return, so they do not add to a
        query's peak memory."""
        grid = self.grid
        ns, np_ = self.controls.shape[1:3]
        sc = np.clip(s, 0.0, grid.s_max)
        pc = np.clip(p, 0.0, grid.p_max)
        i = np.minimum((sc / grid.delta).astype(np.int64), ns - 2)
        j = np.minimum((pc / grid.delta).astype(np.int64), np_ - 2)
        u = (sc - i * grid.delta) / grid.delta
        w = (pc - j * grid.delta) / grid.delta
        return 2 * (i * np_ + j), ((1 - u) * (1 - w), u * (1 - w), (1 - u) * w, u * w)

    def allocations(self, t, x, prices, states):
        states = np.asarray(states)
        prices = np.asarray(prices, dtype=float)
        grid = self.grid
        k = min(grid.n_slices - 1, max(0, int(np.floor(float(t) / grid.dt + 1e-12))))
        alive = _alive_columns(states)
        pre = alive[0] & alive[1]
        s, p = prices[:, 0], prices[:, 1]
        self.pre_default_queries += int(np.count_nonzero(pre))
        self.out_of_domain += int(np.count_nonzero(pre & ((s > grid.s_max) | (p > grid.p_max))))
        node, weights = self._cells(s, p)
        # control c at corner (i + a, j + b) sits at flat index
        # node + 2 (a np + b) + c: a take of node from the slice shifted by that
        np_ = self.controls.shape[2]
        shifts = (0, 2 * np_, 2, 2 * np_ + 2)
        flat = self.controls[k].reshape(-1)
        out = np.empty(prices.shape)
        for c in range(2):
            # summed corner by corner in place, in the order (i, j), (i+1, j),
            # (i, j+1), (i+1, j+1)
            interp = weights[0] * flat[c:].take(node)
            for weight, shift in zip(weights[1:], shifts[1:]):
                interp += weight * flat[c + shift:].take(node)
            out[:, c] = np.where(pre, interp, np.where(alive[c], self._post[c], 0.0))
        return out
