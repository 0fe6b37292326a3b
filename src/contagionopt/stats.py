"""Terminal-wealth sample statistics and cohort tables.

Quantiles use linear interpolation between order statistics at position
``p (n - 1) + 1`` (one-indexed), so tables are reproducible bit for bit
given a seed.  The reported pair (2.3%, 97.7%) brackets roughly two
standard deviations of a Gaussian.
"""

from __future__ import annotations

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
    lo, hi = np.quantile(x, [Q_LOW, Q_HIGH])
    return SampleStats(n=int(x.size), mean=float(x.mean()), std=std,
                       q_low=float(lo), q_high=float(hi))


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
