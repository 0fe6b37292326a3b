"""Market and hazard-rate parameterization for the contagion market.

The market holds one risk-free bank account and ``n`` defaultable stocks.
A default of stock ``j`` sends its own price to zero and knocks every
surviving price ``i`` down by the fraction ``L[i, j]``.  Each stock's
default intensity is a function of the surviving prices and of which
stocks have already defaulted, so price moves, hazards, and default
losses feed back into each other.

Each intensity family's formula is written once, as its ``rates_matrix``,
and its dataclass fields are its only parameter list.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from itertools import product

import numpy as np

__all__ = [
    "MarketParams",
    "DefaultState",
    "ConstantIntensity",
    "PowerClampIntensity",
    "ReciprocalIntensity",
    "AdmissibleBox",
    "BoxReport",
    "eval_intensity",
    "validate_box",
    "jump_factors",
    "intensity_from_config",
    "from_section",
]


@dataclass(frozen=True)
class MarketParams:
    """Constant coefficients of the market.

    Parameters
    ----------
    r : float
        Risk-free rate (1/yr).
    mu : array, shape (n,)
        Stock drifts (1/yr).
    sigma : array, shape (n,)
        Stock volatilities (1/sqrt(yr)), strictly positive.
    rho : array, shape (n, n)
        Correlation matrix of the driving Brownian motions; symmetric,
        unit diagonal, positive definite.
    L : array, shape (n, n)
        Fractional price loss of stock ``i`` when stock ``j`` defaults.
        ``L[i, i] = 1`` (a defaulting stock loses everything) and
        ``0 <= L[i, j] < 1`` off the diagonal.
    """

    r: float
    mu: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        n = mu.shape[0]
        if sigma.shape != (n,) or rho.shape != (n, n) or L.shape != (n, n):
            raise ValueError("inconsistent parameter dimensions")
        # zero volatility is tolerated for degenerate test markets; the
        # control solvers themselves require sigma > 0
        if not np.all(sigma >= 0.0):
            raise ValueError("sigma must be nonnegative")
        if not np.allclose(rho, rho.T, atol=1e-12) or not np.allclose(np.diag(rho), 1.0):
            raise ValueError("rho must be symmetric with unit diagonal")
        try:
            np.linalg.cholesky(rho)
        except np.linalg.LinAlgError as exc:
            raise ValueError("rho is not positive definite") from exc
        if not np.allclose(np.diag(L), 1.0):
            raise ValueError("L must have unit diagonal")
        off = L[~np.eye(n, dtype=bool)]
        if off.size and (np.any(off < 0.0) or np.any(off >= 1.0)):
            raise ValueError("off-diagonal losses must lie in [0, 1)")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Excess drifts ``mu - r``."""
        return self.mu - self.r

    @property
    def cov(self) -> np.ndarray:
        """Instantaneous covariance ``sigma_i sigma_j rho_ij``."""
        return self.rho * np.outer(self.sigma, self.sigma)

    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``rho`` (for correlating Gaussians)."""
        return np.linalg.cholesky(self.rho)

    @classmethod
    def two_stock(cls, r, mu_s, mu_p, sigma_s, sigma_p, rho, loss_s, loss_p) -> "MarketParams":
        """Two-stock market (stocks S and P).

        ``loss_s`` is the fractional loss of S when P defaults and
        ``loss_p`` the loss of P when S defaults.
        """
        return cls(
            r=r,
            mu=np.array([mu_s, mu_p]),
            sigma=np.array([sigma_s, sigma_p]),
            rho=np.array([[1.0, rho], [rho, 1.0]]),
            L=np.array([[1.0, loss_s], [loss_p, 1.0]]),
        )


@dataclass(frozen=True)
class DefaultState:
    """Which stocks have defaulted; bit ``1`` marks a default."""

    bits: tuple

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("state bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def survivors(self) -> tuple:
        return tuple(i for i, b in enumerate(self.bits) if b == 0)

    @property
    def n_survivors(self) -> int:
        return self.n - sum(self.bits)

    def is_alive(self, stock: int) -> bool:
        return self.bits[stock] == 0


def _own_first_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """Per-stock weight matrix: row i gives weights[0] to stock i and
    weights[1:] to the other stocks in increasing index order."""
    W = np.empty((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        W[i, i] = weights[0]
        W[i, others] = weights[1:]
    return W


@dataclass(frozen=True)
class PowerClampIntensity:
    """Clamped power-law hazard of a weighted price sum.

    For stock ``i`` the rate is
    ``clamp(h0 * (k_own * s_i + sum_j k_j * s_j)^(-alpha), h_min, h_max)``
    where ``weights[0]`` applies to the stock's own price, the remaining
    weights to the other stocks in index order, and defaulted stocks
    enter with price zero.  The clamp keeps the rate inside
    ``[h_min, h_max]`` for every price, so the model is bounded.
    """

    h0: float
    weights: tuple
    alpha: float
    h_min: float
    h_max: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.h0 <= 0.0 or self.alpha <= 0.0:
            raise ValueError("h0 and alpha must be positive")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not (0.0 < self.h_min <= self.h_max):
            raise ValueError("need 0 < h_min <= h_max")

    def rates_matrix(self, states: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Vectorized rates, zero for defaulted stocks.

        ``states`` is (m, n) with 1 marking defaults, ``prices`` (m, n);
        prices of defaulted stocks are ignored.
        """
        n = states.shape[1]
        W = _own_first_weights(np.asarray(self.weights), n)
        masked = np.where(states == 1, 0.0, prices)
        totals = masked @ W.T
        # a zero or vanishing total sends the raw rate to inf, clamped to h_max
        with np.errstate(divide="ignore", over="ignore"):
            raw = self.h0 * np.power(totals, -self.alpha, where=totals > 0.0,
                                     out=np.full_like(totals, np.inf))
        rates = np.clip(raw, self.h_min, self.h_max)
        return np.where(states == 1, 0.0, rates)


@dataclass(frozen=True)
class ReciprocalIntensity:
    """Hazard ``c / (sum of surviving prices)``, identical for every
    surviving stock and never clamped: it is infinite where the surviving
    prices sum to zero."""

    c: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("c must be positive")

    def rates_matrix(self, states: np.ndarray, prices: np.ndarray) -> np.ndarray:
        masked = np.where(states == 1, 0.0, prices)
        totals = masked.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            rates = np.where(totals > 0.0, self.c / totals, np.inf)
        return np.where(states == 1, 0.0, np.broadcast_to(rates, states.shape))


@dataclass(frozen=True)
class ConstantIntensity:
    """State- and price-independent hazard, one constant per stock.

    A scalar ``c`` applies to every stock; a sequence gives per-stock
    rates.
    """

    c: object

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if np.any(c < 0.0):
            raise ValueError("c must be nonnegative")
        object.__setattr__(self, "c", c)

    def rates_matrix(self, states: np.ndarray, prices: np.ndarray) -> np.ndarray:
        rates = np.broadcast_to(self.c, states.shape) if self.c.shape[0] > 1 else self.c[0]
        return np.where(states == 1, 0.0, rates)


def eval_intensity(model, stock: int, state: DefaultState, prices) -> float:
    """Hazard rate (1/yr) of a surviving ``stock`` in ``state`` at ``prices``.

    Raises if the stock has already defaulted or any surviving price is
    nonpositive; prices of defaulted stocks are ignored (they enter the
    formulas as zero).  The rate is read from ``model.rates_matrix``, the
    family's only formula, so it is the hazard the simulation uses.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (state.n,):
        raise ValueError("price vector length must match the state")
    if not state.is_alive(stock):
        raise ValueError(f"stock {stock} has already defaulted in state {state.bits}")
    for i in state.survivors:
        if prices[i] <= 0.0:
            raise ValueError(f"surviving stock {i} has nonpositive price {prices[i]}")
    return float(model.rates_matrix(np.asarray(state.bits)[None], prices[None])[0, stock])


@dataclass(frozen=True)
class AdmissibleBox:
    """Box of allocation proportions plus the post-default floor.

    ``eps_a`` is the minimum fraction of wealth surviving any single
    default: an allocation ``pi`` is admissible when
    ``1 - sum_i L[i, j] pi_i >= eps_a`` for every defaulting column ``j``.
    The log-utility solver requires the whole box to satisfy this
    (checked by :func:`validate_box`); the power-utility grid solver
    instead intersects the box with the constraint.
    """

    lower: np.ndarray
    upper: np.ndarray
    eps_a: float = 0.01

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper must have the same length")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if not (0.0 < self.eps_a < 1.0):
            raise ValueError("eps_a must lie in (0, 1)")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def vertices(self) -> np.ndarray:
        """All 2^n corner allocations, in lexicographic (lower/upper) order."""
        corners = list(product(*zip(self.lower, self.upper)))
        return np.array(corners)


def jump_factors(L: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Wealth fraction retained if column-``j`` stock defaults: ``1 - (L^T pi)_j``.

    ``pi`` may be (n,) or (m, n); the result matches its leading shape.
    """
    pi = np.asarray(pi, dtype=float)
    return 1.0 - pi @ np.asarray(L, dtype=float)


@dataclass(frozen=True)
class BoxReport:
    """Outcome of :func:`validate_box`."""

    ok: bool
    worst_margin: float

    def __bool__(self) -> bool:
        return self.ok


def validate_box(box: AdmissibleBox, params: MarketParams) -> BoxReport:
    """Check that every corner of the box keeps the post-default wealth
    fraction at or above ``eps_a`` for every defaulting column.

    The constraint is linear in ``pi``, so corner feasibility is
    equivalent to feasibility on the whole box.
    """
    if box.n != params.n:
        raise ValueError("box dimension does not match the market")
    factors = jump_factors(params.L, box.vertices())  # (2^n, n) columns = defaulting stock
    worst = float((factors - box.eps_a).min())
    return BoxReport(ok=worst >= 0.0, worst_margin=worst)


_FAMILIES = {
    "power_clamp": PowerClampIntensity,
    "reciprocal": ReciprocalIntensity,
    "constant": ConstantIntensity,
}


def from_section(cls, section: dict, what: str, **given):
    """Build dataclass ``cls`` from a config section whose keys are its
    field names; a field with a default may be left out.

    ``given`` supplies fields that do not come from the section, so the
    section may not name them.  An unknown or missing key raises
    ``ValueError`` naming ``what`` and the keys.
    """
    names = {f.name for f in fields(cls)} - given.keys()
    required = {f.name for f in fields(cls) if f.default is MISSING
                and f.default_factory is MISSING} - given.keys()
    unknown, missing = sorted(section.keys() - names), sorted(required - section.keys())
    if unknown or missing:
        raise ValueError(f"{what}: unknown keys {unknown}, missing keys {missing}")
    return cls(**section, **given)


def intensity_from_config(spec: dict):
    """Build an intensity model from its config-file section: ``family``
    names the class and every other key is one of its fields."""
    params = dict(spec)
    family = params.pop("family", None)
    if family not in _FAMILIES:
        raise ValueError(f"unknown intensity family: {family!r}")
    return from_section(_FAMILIES[family], params, f"intensity family {family!r}")
