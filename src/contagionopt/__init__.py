"""Utility maximization with defaultable stocks under looping contagion.

Modules:

- :mod:`contagionopt.model` -- market coefficients, hazard-rate families,
  admissibility validation.
- :mod:`contagionopt.dynamics` -- Monte Carlo simulation of the contagion
  market and of wealth under a strategy.
- :mod:`contagionopt.logopt` -- log-utility optimal controls (pointwise
  Kuhn-Tucker solver and closed forms) and the log-optimal strategy.
- :mod:`contagionopt.powergrid` -- power-utility value function via a
  Markov-chain approximation solved by backward dynamic programming.
- :mod:`contagionopt.stats` -- terminal-wealth sample statistics and
  cohort tables.
- :mod:`contagionopt.experiments` -- config-driven experiment runner.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
