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
from numbers import Integral, Real

import numpy as np

__all__ = [
    "MarketParams",
    "ConstantIntensity",
    "PowerClampIntensity",
    "ReciprocalIntensity",
    "AdmissibleBox",
    "validate_box",
    "TwoStockMarket",
    "jump_factors",
    "intensity_from_config",
    "from_section",
]


@dataclass(frozen=True)
class MarketParams:
    """Constant coefficients of the market, each one finite.

    Parameters
    ----------
    r : float
        Risk-free rate (1/yr).
    mu : array, shape (n,)
        Stock drifts (1/yr).
    sigma : array, shape (n,)
        Stock volatilities (1/sqrt(yr)), nonnegative.  Zero is accepted
        so that simulations can run deterministic markets; the control
        solvers require positive volatility (:class:`TwoStockMarket`).
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
        for name, value in (("r", self.r), ("mu", mu), ("sigma", sigma), ("rho", rho), ("L", L)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        # zero volatility is accepted for deterministic simulations only
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


def _own_first_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """Per-stock weight matrix: row i gives weights[0] to stock i and
    weights[1:] to the other stocks in increasing index order."""
    W = np.empty((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        W[i, i] = weights[0]
        W[i, others] = weights[1:]
    return W


def _alive_columns(states: np.ndarray) -> list:
    """Survival masks of an (m, n) default-state array, one boolean column
    per stock."""
    return [states[:, i] == 0 for i in range(states.shape[1])]


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
        if np.ndim(self.weights) != 1 or len(self.weights) == 0:
            raise ValueError(f"weights must be a nonempty list of numbers, not {self.weights!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not (self.h0 > 0.0 and self.alpha > 0.0):
            raise ValueError("h0 and alpha must be positive")
        if not all(w >= 0.0 for w in self.weights):
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
        alive = _alive_columns(states)
        masked = np.column_stack([np.where(a, prices[:, i], 0.0) for i, a in enumerate(alive)])
        # the weighted sums stay one matrix product: a column sum
        # k0 * s0 + k1 * s1 rounds differently in the last bit on some rows
        totals = masked @ W.T
        out = np.empty(states.shape)
        # a zero or vanishing total sends the raw rate to inf, clamped to h_max
        with np.errstate(divide="ignore", over="ignore"):
            for i in range(n):
                total = totals[:, i]
                raw = self.h0 * np.power(total, -self.alpha, where=total > 0.0,
                                         out=np.full(total.shape, np.inf))
                rate = np.minimum(np.maximum(raw, self.h_min), self.h_max)
                out[:, i] = np.where(alive[i], rate, 0.0)
        return out


@dataclass(frozen=True)
class ReciprocalIntensity:
    """Hazard ``c / (sum of surviving prices)``, identical for every
    surviving stock and never clamped: it is infinite where the surviving
    prices sum to zero."""

    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    def rates_matrix(self, states: np.ndarray, prices: np.ndarray) -> np.ndarray:
        alive = _alive_columns(states)
        # summed column by column from zero: the bits of an axis sum for up
        # to seven stocks
        total = 0.0
        for i, a in enumerate(alive):
            total = total + np.where(a, prices[:, i], 0.0)
        with np.errstate(divide="ignore"):
            rate = np.where(total > 0.0, self.c / total, np.inf)
        return np.column_stack([np.where(a, rate, 0.0) for a in alive])


@dataclass(frozen=True)
class ConstantIntensity:
    """State- and price-independent hazard, one constant per stock.

    A scalar ``c`` applies to every stock; a sequence gives per-stock
    rates, each finite and nonnegative.
    """

    c: object

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if not np.isfinite(c).all():
            raise ValueError("c must be finite")
        if np.any(c < 0.0):
            raise ValueError("c must be nonnegative")
        object.__setattr__(self, "c", c)

    def rates_matrix(self, states: np.ndarray, prices: np.ndarray) -> np.ndarray:
        return np.where(states == 1, 0.0, self.c)


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


class TwoStockMarket:
    """The market of stocks S and P as both control solvers read it: the
    constructor checks that it has two stocks with sigma > 0 (the solvers
    divide by ``sigma^2``), and the methods write the terms of an allocation
    ``(pi_S, pi_P)``.  ``L_S`` is the loss of S when P defaults, ``L_P`` of P."""

    __slots__ = ("params", "t0", "t1", "S00", "S01", "S11", "LS", "LP")

    def __init__(self, params: MarketParams):
        if params.n != 2:
            raise ValueError(f"the control solvers are specialized to two stocks, not {params.n}")
        for name, sigma in zip("SP", params.sigma):
            if not sigma > 0.0:
                raise ValueError(f"stock {name} has volatility {sigma:g}; "
                                 "the control solvers need sigma > 0")
        cov = params.cov
        self.params = params
        self.t0, self.t1 = params.theta
        self.S00, self.S01, self.S11 = cov[0, 0], cov[0, 1], cov[1, 1]
        self.LS, self.LP = params.L[0, 1], params.L[1, 0]

    def excess(self, piS, piP):
        """``theta' pi``."""
        return self.t0 * piS + self.t1 * piP

    def cov_pi(self, piS, piP):
        """The two components of ``Sigma pi``."""
        return self.S00 * piS + self.S01 * piP, self.S01 * piS + self.S11 * piP

    def quad(self, piS, piP):
        """``pi' Sigma pi``."""
        return self.S00 * piS**2 + 2.0 * self.S01 * piS * piP + self.S11 * piP**2

    def jumps(self, piS, piP):
        """Wealth fractions kept if S defaults and if P defaults."""
        return 1.0 - piS - self.LP * piP, 1.0 - self.LS * piS - piP


def jump_factors(L: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Wealth fraction retained if column-``j`` stock defaults: ``1 - (L^T pi)_j``.

    ``pi`` may be (n,) or (m, n); the result matches its leading shape.
    """
    pi = np.asarray(pi, dtype=float)
    return 1.0 - pi @ np.asarray(L, dtype=float)


def validate_box(box: AdmissibleBox, params: MarketParams) -> float:
    """Worst margin of the post-default wealth fraction over ``eps_a``, taken
    over every corner of the box and every defaulting column; the box is
    admissible when it is nonnegative.

    The constraint is linear in ``pi``, so corner feasibility is
    equivalent to feasibility on the whole box.
    """
    if box.n != params.n:
        raise ValueError("box dimension does not match the market")
    factors = jump_factors(params.L, box.vertices())  # (2^n, n) columns = defaulting stock
    return float((factors - box.eps_a).min())


_FAMILIES = {
    "power_clamp": PowerClampIntensity,
    "reciprocal": ReciprocalIntensity,
    "constant": ConstantIntensity,
}


# the value a field of each scalar annotation takes from a section
_SCALARS = {"int": (Integral, "an integer"), "float": (Real, "a number"),
            "float | None": ((Real, type(None)), "a number")}


def from_section(cls, section: dict, what: str, **given):
    """Build dataclass ``cls`` from a config section whose keys are its
    field names; a field with a default may be left out.

    ``given`` supplies fields that do not come from the section, so the
    section may not name them.  An unknown or missing key raises
    ``ValueError`` naming ``what`` and the keys; so then does a value of a
    field annotated ``int`` or ``float`` that is not an integer or a
    number (a bool is neither), naming ``what.key``.
    """
    names = {f.name for f in fields(cls)} - given.keys()
    required = {f.name for f in fields(cls) if f.default is MISSING
                and f.default_factory is MISSING} - given.keys()
    unknown, missing = sorted(section.keys() - names), sorted(required - section.keys())
    if unknown or missing:
        raise ValueError(f"{what}: unknown keys {unknown}, missing keys {missing}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in section.items():
        kind, noun = _SCALARS.get(types[key], (object, None))
        if noun and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{what}.{key} must be {noun}, not {value!r}")
    return cls(**section, **given)


def intensity_from_config(spec: dict):
    """Build an intensity model from its config-file section: ``family``
    names the class and every other key is one of its fields."""
    params = dict(spec)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown intensity family: {family!r}")
    return from_section(_FAMILIES[family], params, f"intensity family {family!r}")
