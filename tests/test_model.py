import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    PowerClampIntensity,
    ReciprocalIntensity,
    jump_factors,
    validate_box,
)

from helpers import two_stock


def benchmark_params():
    return two_stock(r=0.05, mu_s=0.10, mu_p=0.15, sigma_s=0.30,
                     sigma_p=0.40, rho=0.0, loss_s=0.20, loss_p=0.30)


def benchmark_intensity():
    return PowerClampIntensity(h0=10.0, weights=(0.7, 0.3), alpha=1.0,
                               h_min=0.05, h_max=1.0)


class TestMarketParams:
    def test_two_stock_layout(self):
        p = benchmark_params()
        assert p.n == 2
        # L[i, j] = loss of stock i when j defaults
        assert p.L[0, 1] == 0.20 and p.L[1, 0] == 0.30
        assert np.allclose(np.diag(p.L), 1.0)
        assert np.allclose(p.theta, [0.05, 0.10])
        assert np.allclose(p.cov, np.diag([0.09, 0.16]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            two_stock(0.05, 0.1, 0.15, -0.3, 0.4, 0.0, 0.2, 0.3)
        with pytest.raises(ValueError):
            two_stock(0.05, 0.1, 0.15, 0.3, 0.4, 1.2, 0.2, 0.3)
        with pytest.raises(ValueError):
            two_stock(0.05, 0.1, 0.15, 0.3, 0.4, 0.0, 1.0, 0.3)


def rate(model, stock, bits, prices):
    """One stock's hazard in one default state, read from ``rates_matrix``."""
    return float(model.rates_matrix(np.array([bits], dtype=np.uint8),
                                    np.array([prices], dtype=float))[0, stock])


class TestEvalIntensity:
    def test_initial_intensity_is_point_one(self):
        h = benchmark_intensity()
        assert rate(h, 0, (0, 0), [100.0, 100.0]) == pytest.approx(0.1, abs=1e-15)
        assert rate(h, 1, (0, 0), [100.0, 100.0]) == pytest.approx(0.1, abs=1e-15)

    def test_floor_clamp_at_huge_prices(self):
        h = benchmark_intensity()
        assert rate(h, 0, (0, 0), [1e9, 1e9]) == 0.05

    def test_ceiling_clamp_at_tiny_prices(self):
        h = benchmark_intensity()
        assert rate(h, 0, (0, 0), [1e-9, 1e-9]) == 1.0

    def test_reciprocal_crisis_level(self):
        h = ReciprocalIntensity(c=20.0)
        assert rate(h, 0, (0, 0), [10.0, 10.0]) == pytest.approx(1.0, abs=1e-15)
        # after a default only the surviving price counts
        assert rate(h, 1, (1, 0), [0.0, 10.0]) == pytest.approx(2.0)

    def test_own_price_weighting_post_default(self):
        # with the other stock gone its price enters as zero: h0*(k1*s)^-alpha
        h = benchmark_intensity()
        got = rate(h, 0, (0, 1), [50.0, 0.0])
        assert got == pytest.approx(min(max(10.0 / (0.7 * 50.0), 0.05), 1.0))

    def test_defaulted_stock_rejected(self):
        # a defaulted stock carries no hazard, whatever price it is given
        for h in (benchmark_intensity(), ReciprocalIntensity(c=20.0), ConstantIntensity(0.3)):
            for prices in ([0.0, 50.0], [50.0, 50.0]):
                assert rate(h, 0, (1, 0), prices) == 0.0

    def test_clamp_bounds_hold_everywhere(self):
        h = benchmark_intensity()
        rng = np.random.default_rng(3)
        prices = 10.0 ** rng.uniform(-8, 8, size=(500, 2))
        for s, p in prices:
            for stock in (0, 1):
                val = rate(h, stock, (0, 0), [s, p])
                assert 0.05 <= val <= 1.0

    def test_monotone_nonincreasing_in_prices(self):
        rng = np.random.default_rng(4)
        models = [benchmark_intensity(), ReciprocalIntensity(c=20.0)]
        for model in models:
            for _ in range(200):
                s, p = rng.uniform(0.5, 400.0, size=2)
                bump = rng.uniform(0.01, 50.0)
                for stock in (0, 1):
                    base = rate(model, stock, (0, 0), [s, p])
                    assert rate(model, stock, (0, 0), [s + bump, p]) <= base + 1e-15
                    assert rate(model, stock, (0, 0), [s, p + bump]) <= base + 1e-15


def power_clamp_rate(h, i, bits, prices):
    """h0 (own-first weighted sum of surviving prices)^-alpha, clamped."""
    x = [float(price) if b == 0 else 0.0 for price, b in zip(prices, bits)]
    others = [j for j in range(len(bits)) if j != i]
    total = h.weights[0] * x[i]
    for w, j in zip(h.weights[1:], others):
        total += w * x[j]
    try:
        raw = h.h0 * total ** -h.alpha
    except (ZeroDivisionError, OverflowError):  # the rate is unbounded here
        raw = float("inf")
    return min(max(raw, h.h_min), h.h_max)


def reciprocal_rate(h, i, bits, prices):
    return h.c / sum(x for x, b in zip(prices, bits) if b == 0)


def constant_rate(h, i, bits, prices):
    return float(h.c[0] if h.c.shape[0] == 1 else h.c[i])


@st.composite
def hazard_cases(draw):
    """An intensity model of any family, its written-out rate, and a batch
    of states (each with a survivor) and prices; defaulted stocks keep
    their drawn prices, which the model must ignore."""
    n = draw(st.integers(2, 3))
    family = draw(st.sampled_from(["power_clamp", "reciprocal", "constant"]))
    if family == "power_clamp":
        # clamp bounds spread over decades, so that rates fall below, inside
        # and above [h_min, h_max]
        h_min = 10.0 ** draw(st.floats(-6.0, 0.0))
        model = PowerClampIntensity(
            h0=draw(st.floats(1e-2, 100.0)),
            weights=draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)),
            alpha=draw(st.floats(0.1, 3.0)), h_min=h_min,
            h_max=h_min * 10.0 ** draw(st.floats(0.0, 6.0)))
        formula = power_clamp_rate
    elif family == "reciprocal":
        model, formula = ReciprocalIntensity(c=draw(st.floats(1e-2, 100.0))), reciprocal_rate
    else:
        c = draw(st.floats(0.0, 5.0) | st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        model, formula = ConstantIntensity(c), constant_rate
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda b: 0 in b)
    states = draw(st.lists(bits, min_size=1, max_size=6))
    prices = draw(st.lists(st.lists(st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
                                    min_size=n, max_size=n),
                           min_size=len(states), max_size=len(states)))
    return model, formula, np.array(states, dtype=np.uint8), np.array(prices)


class TestRatesMatrix:
    @settings(derandomize=True, deadline=None)
    @given(hazard_cases())
    def test_matches_written_out_formulas(self, case):
        model, formula, states, prices = case
        got = model.rates_matrix(states, prices)
        assert got.shape == states.shape
        for m in range(states.shape[0]):
            bits = tuple(states[m])
            for i in range(states.shape[1]):
                if bits[i]:
                    assert got[m, i] == 0.0
                else:
                    want = formula(model, i, bits, prices[m])
                    assert got[m, i] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_equals_the_matrix_expressions_bit_for_bit(self):
        # the families compute column by column; their rates must keep the
        # bits of these (m, n) expressions, the power-clamp totals included:
        # they are one matrix product, which a column sum
        # k0 * s0 + k1 * s1 does not reproduce on every row
        def power_clamp(h, states, prices):
            n = states.shape[1]
            W = np.empty((n, n))
            for i in range(n):
                W[i, i] = h.weights[0]
                W[i, [j for j in range(n) if j != i]] = h.weights[1:]
            totals = np.where(states == 1, 0.0, prices) @ W.T
            with np.errstate(divide="ignore", over="ignore"):
                raw = h.h0 * np.power(totals, -h.alpha, where=totals > 0.0,
                                      out=np.full_like(totals, np.inf))
            return np.where(states == 1, 0.0, np.clip(raw, h.h_min, h.h_max))

        def reciprocal(h, states, prices):
            totals = np.where(states == 1, 0.0, prices).sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore"):
                rates = np.where(totals > 0.0, h.c / totals, np.inf)
            return np.where(states == 1, 0.0, np.broadcast_to(rates, states.shape))

        rng = np.random.default_rng(11)
        m = 10_000
        for n in (2, 3):
            models = [
                (PowerClampIntensity(h0=10.0, weights=(0.7, 0.3, 0.2)[:n], alpha=1.0,
                                     h_min=0.05, h_max=1.0), power_clamp),
                (PowerClampIntensity(h0=40.0, weights=(0.45, 0.35, 0.2)[:n], alpha=1.7,
                                     h_min=1e-3, h_max=10.0), power_clamp),
                (ReciprocalIntensity(c=20.0), reciprocal),
            ]
            # prices over four decades and exact zeros, so that totals fall
            # below, inside and above the clamp and some are zero; some
            # rows have every stock defaulted.  The arrays are read as the
            # simulation's step slices are: strided views of a path array
            prices = np.zeros((m, 3, n))
            prices[:, 1] = 10.0 ** rng.uniform(-1.0, 3.0, (m, n))
            prices[:, 1][rng.random((m, n)) < 0.1] = 0.0
            states = np.zeros((m, 3, n), dtype=np.uint8)
            states[:, 1] = rng.random((m, n)) < 0.3
            states[:50, 1] = 1
            s, p = states[:, 1], prices[:, 1]
            live_total = np.where(s == 1, 0.0, p).sum(axis=1)
            assert np.any((live_total == 0.0) & (s == 0).any(axis=1))
            for model, written_out in models:
                want = written_out(model, s, p)
                got = model.rates_matrix(s, p)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, model)


class TestValidateBox:
    def test_identity_loss_full_investment_rejected(self):
        params = MarketParams(r=0.0, mu=[0.0, 0.0], sigma=[0.1, 0.1],
                              rho=np.eye(2), L=np.eye(2))
        box = AdmissibleBox(lower=[0.0, 0.0], upper=[1.0, 1.0], eps_a=0.01)
        assert validate_box(box, params) < 0.0

    def test_identity_loss_ninety_percent_accepted(self):
        params = MarketParams(r=0.0, mu=[0.0, 0.0], sigma=[0.1, 0.1],
                              rho=np.eye(2), L=np.eye(2))
        box = AdmissibleBox(lower=[-1.0, -1.0], upper=[0.9, 0.9], eps_a=0.05)
        assert validate_box(box, params) == pytest.approx(0.1 - 0.05)

    def test_cross_loss_box_accepted_via_vertex_enumeration(self):
        # worst margin computed by enumerating all 4 vertices x 2 columns
        params = benchmark_params()
        box = AdmissibleBox(lower=[-1.0, -1.0], upper=[0.5, 0.5], eps_a=0.05)
        factors = jump_factors(params.L, box.vertices())
        assert validate_box(box, params) >= 0.0
        # column of stock P attains 1 - 0.2*0.5 - 0.5 = 0.4 at the top corner
        assert factors.min(axis=0)[1] == pytest.approx(0.4)
        assert validate_box(box, params) == pytest.approx(
            factors.min() - box.eps_a)

    def test_accepted_box_is_admissible_for_sampled_allocations(self):
        params = benchmark_params()
        box = AdmissibleBox(lower=[-1.0, -1.0], upper=[0.5, 0.5], eps_a=0.01)
        assert validate_box(box, params) >= 0.0
        rng = np.random.default_rng(6)
        pis = rng.uniform(box.lower, box.upper, size=(100_000, 2))
        assert jump_factors(params.L, pis).min() >= box.eps_a

    def test_dimension_mismatch(self):
        params = benchmark_params()
        with pytest.raises(ValueError):
            validate_box(AdmissibleBox(lower=[0.0], upper=[0.5]), params)
