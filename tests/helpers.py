"""Test-only builders: a fixed-allocation strategy and a two-stock market."""

import numpy as np

from contagionopt.dynamics import Strategy
from contagionopt.model import AdmissibleBox, MarketParams


class ConstantAllocation(Strategy):
    """Fixed allocation, masked to zero on defaulted stocks.

    Built without a box, it carries one that leaves every check of
    :func:`~contagionopt.dynamics.evolve_wealth` as a box-free strategy
    would see it: infinite bounds, which no finite allocation leaves, and
    ``eps_a = 1e-300``, whose floor ``1e-300 - 1e-9`` rounds to ``-1e-9``.
    """

    def __init__(self, pi, box: AdmissibleBox | None = None):
        self.pi = np.atleast_1d(np.asarray(pi, dtype=float))
        self.box = box if box is not None else AdmissibleBox(
            np.full(self.pi.size, -np.inf), np.full(self.pi.size, np.inf), eps_a=1e-300)

    def allocations(self, t, x, prices, states):
        return self.pi[None, :] * (1 - states)


def two_stock(r, mu_s, mu_p, sigma_s, sigma_p, rho, loss_s, loss_p) -> MarketParams:
    """Two-stock market (stocks S and P).

    ``loss_s`` is the fractional loss of S when P defaults and ``loss_p``
    the loss of P when S defaults.
    """
    return MarketParams(
        r=r,
        mu=np.array([mu_s, mu_p]),
        sigma=np.array([sigma_s, sigma_p]),
        rho=np.array([[1.0, rho], [rho, 1.0]]),
        L=np.array([[1.0, loss_s], [loss_p, 1.0]]),
    )
