"""Terminal-wealth sample statistics and cohort tables.

Quantiles use linear interpolation between order statistics at position
``p (n - 1) + 1`` (one-indexed), numpy's default rule, so tables are
reproducible bit for bit given a seed.  The reported pair (2.3%, 97.7%)
brackets roughly two standard deviations of a Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Q_LOW",
    "Q_HIGH",
    "SampleStats",
    "CohortReport",
    "summarize",
    "cohort_report",
    "csv_row",
    "CSV_HEADER",
]

Q_LOW = 0.023
Q_HIGH = 0.977

CSV_HEADER = "label,n,mean,std,q023,q977"


@dataclass(frozen=True)
class SampleStats:
    """Mean, sample standard deviation, and tail quantiles."""

    n: int
    mean: float
    std: float  # n-1 denominator; nan for a single sample
    q_low: float
    q_high: float


def summarize(samples) -> SampleStats:
    """Summary statistics of a one-dimensional sample."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(x.std(ddof=1)) if x.size > 1 else float("nan")
    lo, hi = _quantiles(x, (Q_LOW, Q_HIGH))
    return SampleStats(n=int(x.size), mean=float(x.mean()), std=std, q_low=lo, q_high=hi)


def _quantiles(x: np.ndarray, qs) -> list:
    """``np.quantile(x, qs)`` of a nonempty 1-D sample bit for bit, without
    the ``numpy.ma`` import that ``np.quantile`` makes on its first call.

    Quantile ``q`` lies at index ``v = (n - 1) q`` of the sorted sample,
    between the order statistics ``a`` at ``i = floor(v)`` and ``b`` at
    ``i + 1``: ``a + (b - a) t``, or ``b - (b - a) (1 - t)`` when
    ``t = v - i >= 0.5``.  From ``v = n - 1`` on, as in numpy, ``a`` and
    ``b`` are the maximum and ``i`` is -1.  A NaN in the sample gives NaN.
    """
    n = x.size
    pos = [(n - 1) * q for q in qs]
    lows = [math.floor(v) if v < n - 1 else -1 for v in pos]
    part = np.partition(x, sorted({n - 1, *(i % n for i in lows), *(i + 1 for i in lows)}))
    if math.isnan(part[-1]):  # a NaN sorts last
        return [math.nan] * len(qs)
    out = []
    for v, i in zip(pos, lows):
        a, b = float(part[i]), float(part[i + 1 if i >= 0 else -1])
        t, diff = v - i, b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


@dataclass(frozen=True)
class CohortReport:
    """Per-strategy statistics over the All / Default / No-default cohorts.

    Empty cohorts carry ``None``.
    """

    label: str
    all: SampleStats
    default: SampleStats | None
    no_default: SampleStats | None

    def __post_init__(self):
        n_def = self.default.n if self.default else 0
        n_no = self.no_default.n if self.no_default else 0
        if n_def + n_no != self.all.n:
            raise ValueError("cohort sizes do not add up to the sample size")


def cohort_report(label: str, terminal: np.ndarray, default_mask: np.ndarray) -> CohortReport:
    terminal = np.asarray(terminal, dtype=float)
    default_mask = np.asarray(default_mask, dtype=bool)
    defaulted = terminal[default_mask]
    survived = terminal[~default_mask]
    return CohortReport(
        label=label,
        all=summarize(terminal),
        default=summarize(defaulted) if defaulted.size else None,
        no_default=summarize(survived) if survived.size else None,
    )


def csv_row(label: str, stats: SampleStats | None) -> str:
    """``label,n,mean,std,q023,q977`` with six significant digits."""
    if stats is None:
        return f"{label},0,,,,"
    return (f"{label},{stats.n},{stats.mean:.6g},{stats.std:.6g},"
            f"{stats.q_low:.6g},{stats.q_high:.6g}")
