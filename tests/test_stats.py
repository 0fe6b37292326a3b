import numpy as np
import pytest

from contagionopt.dynamics import PathConfig, simulate_paths
from contagionopt.model import ConstantIntensity
from contagionopt.stats import (
    CohortReport,
    cohort_report,
    csv_row,
    partition_by_default,
    summarize,
)

from test_model import benchmark_params


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([3.5] * 40)
        assert s.mean == 3.5 and s.std == 0.0
        assert s.q_low == 3.5 and s.q_high == 3.5

    def test_quantile_interpolation_rule(self):
        # order statistics 1..100 at p=0.023: position 0.023*99+1 = 3.277
        s = summarize(np.arange(1.0, 101.0))
        assert s.q_low == pytest.approx(3.277, abs=1e-12)
        assert s.q_high == pytest.approx(0.977 * 99 + 1, abs=1e-12)

    def test_two_samples_sample_std(self):
        s = summarize([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std == pytest.approx(np.sqrt(2.0), rel=1e-15, abs=0)

    def test_single_sample_has_no_std(self):
        s = summarize([7.0])
        assert np.isnan(s.std) and s.mean == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.normal(10.0, 3.0, 500)
        a = summarize(x)
        b = summarize(rng.permutation(x))
        assert a == b

    def test_affine_equivariance(self):
        rng = np.random.default_rng(42)
        x = rng.lognormal(0.0, 0.5, 400)
        for a, b in ((2.5, -1.0), (-3.0, 4.0)):
            s0 = summarize(x)
            s1 = summarize(a * x + b)
            assert s1.mean == pytest.approx(a * s0.mean + b, rel=1e-12, abs=0)
            assert s1.std == pytest.approx(abs(a) * s0.std, rel=1e-12, abs=0)
            lo, hi = sorted([a * s0.q_low + b, a * s0.q_high + b])
            assert s1.q_low == pytest.approx(lo, rel=1e-12, abs=0)
            assert s1.q_high == pytest.approx(hi, rel=1e-12, abs=0)


class TestCohorts:
    def test_partition_extremes(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=40, n_paths=300, master_seed=51)
        none = simulate_paths(params, ConstantIntensity(0.0), cfg, [100.0, 100.0])
        d, nd = partition_by_default(none)
        assert d.size == 0 and nd.size == 300
        certain = simulate_paths(params, ConstantIntensity(50.0), cfg, [100.0, 100.0])
        d, nd = partition_by_default(certain)
        assert nd.size == 0 and d.size == 300

    def test_partition_fraction_constant_hazard(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=4000, master_seed=52)
        bundle = simulate_paths(params, ConstantIntensity(0.1), cfg, [100.0, 100.0])
        d, nd = partition_by_default(bundle)
        p = 1.0 - np.exp(-0.2)
        se = np.sqrt(p * (1 - p) / cfg.n_paths)
        assert abs(d.size / cfg.n_paths - p) <= 3 * se
        assert d.size + nd.size == cfg.n_paths

    def test_cohort_recombination(self):
        rng = np.random.default_rng(53)
        terminal = rng.lognormal(4.6, 0.2, 2000)
        mask = rng.uniform(size=2000) < 0.2
        rep = cohort_report("x", terminal, mask)
        weighted = (rep.default.n * rep.default.mean
                    + rep.no_default.n * rep.no_default.mean) / rep.all.n
        assert weighted == pytest.approx(rep.all.mean, rel=1e-12, abs=0)

    def test_size_mismatch_rejected(self):
        good = summarize(np.arange(10.0))
        with pytest.raises(ValueError):
            CohortReport(label="x", all=good, default=summarize(np.arange(3.0)),
                         no_default=summarize(np.arange(4.0)))


class TestCsvRow:
    def test_six_significant_digits(self):
        s = summarize(np.array([107.7823456, 107.7823456]))
        row = csv_row("All samples + h(S,P)", s)
        assert row == "All samples + h(S,P),2,107.782,0,107.782,107.782"

    def test_empty_cohort_row(self):
        assert csv_row("Default + h(S,P)", None) == "Default + h(S,P),0,,,,"
