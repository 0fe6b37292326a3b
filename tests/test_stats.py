import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contagionopt
from contagionopt.dynamics import PathConfig, simulate_paths
from contagionopt.model import ConstantIntensity
from contagionopt.stats import (
    Q_HIGH,
    Q_LOW,
    CohortReport,
    _quantiles,
    cohort_report,
    csv_row,
    summarize,
)

from test_model import benchmark_params


def ten_thousand_with_ties(seed):
    """10,000 lognormal wealths, a third of them replaced by one of four values."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(4.6, 0.3, 10_000)
    tied = rng.random(x.size) < 1 / 3
    x[tied] = rng.choice([80.0, 100.0, 100.0 + 2**-40, 120.0], tied.sum())
    return x


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.5, 0.0, 2.0, 100.0]) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=200)
           | st.integers(0, 2**32 - 1).map(ten_thousand_with_ties),
           st.lists(st.sampled_from([0.0, Q_LOW, 0.25, 0.5, Q_HIGH, 1.0]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=4))
    def test_quantiles_equal_numpy_bit_for_bit(self, sample, qs):
        # values drawn from a short list give ties; signed zeros included
        x = np.array(sample)
        got = np.array(_quantiles(x.copy(), qs))
        assert got.tobytes() == np.quantile(x, qs).tobytes(), (x.size, qs)

    def test_quantiles_of_a_sample_with_nan_are_nan(self):
        x = np.array([1.0, np.nan, 3.0, 2.0])
        assert np.isnan(_quantiles(x, (Q_LOW, Q_HIGH))).all()
        assert np.isnan(np.quantile(x, [Q_LOW, Q_HIGH])).all()

    def test_a_comparison_does_not_import_numpy_ma(self):
        # np.quantile imports numpy.ma on its first call, inside a timed run
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True).stdout.split()
        if bare == ["True"]:
            pytest.skip("import numpy already imports numpy.ma here")
        script = textwrap.dedent("""
            import sys
            from contagionopt.experiments import builtin_config, run_comparison
            run_comparison(builtin_config("benchmark-inferred", n_paths=200))
            print("numpy.ma" in sys.modules)
        """)
        src = str(Path(contagionopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout.split()
        assert out == ["False"]

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
        assert none.default_mask().shape == (300,) and not none.default_mask().any()
        certain = simulate_paths(params, ConstantIntensity(50.0), cfg, [100.0, 100.0])
        assert certain.default_mask().all()

    def test_partition_fraction_constant_hazard(self):
        params = benchmark_params()
        cfg = PathConfig(horizon=1.0, n_steps=250, n_paths=4000, master_seed=52)
        bundle = simulate_paths(params, ConstantIntensity(0.1), cfg, [100.0, 100.0])
        mask = bundle.default_mask()
        p = 1.0 - np.exp(-0.2)
        se = np.sqrt(p * (1 - p) / cfg.n_paths)
        assert mask.shape == (cfg.n_paths,)
        assert abs(mask.sum() / cfg.n_paths - p) <= 3 * se

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
