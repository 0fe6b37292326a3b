"""Degenerate inputs fail loudly, each with its exception type and a message
naming its cause.

One row per check: the row's callable gets a scratch directory and must
raise.  A ``{tmp}`` in the message stands for that directory.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from contagionopt.dynamics import PathConfig, evolve_wealth, simulate_paths
from contagionopt.experiments import (builtin_config, builtin_config_names, config_from_dict,
                                      load_config)
from contagionopt.logopt import LogControlProblem, solve_kt_batch
from contagionopt.model import (
    AdmissibleBox,
    ConstantIntensity,
    MarketParams,
    PowerClampIntensity,
    ReciprocalIntensity,
    intensity_from_config,
)
from contagionopt.powergrid import GridSpec, ValueGrid, solve_power_value

from helpers import ConstantAllocation, two_stock
from test_experiments import base_doc, power_doc
from test_model import benchmark_intensity, benchmark_params

BOX = AdmissibleBox([-1.0, -1.0], [0.5, 0.5])
GRID = GridSpec(horizon=0.02, delta=1.0, dt=0.01, s_max=4.0, p_max=4.0, n_control=5)
THREE_STOCKS = MarketParams(r=0.05, mu=[0.1, 0.1, 0.1], sigma=[0.3, 0.3, 0.3],
                            rho=np.eye(3), L=np.eye(3))


def bundle():
    return simulate_paths(benchmark_params(), benchmark_intensity(),
                          PathConfig(horizon=0.1, n_steps=2, n_paths=3, master_seed=1),
                          [100.0, 100.0])


def power_clamp(**changes):
    fields = dict(h0=10.0, weights=(0.7, 0.3), alpha=1.0, h_min=0.05, h_max=1.0)
    return PowerClampIntensity(**{**fields, **changes})


def grid_without_gamma(tmp):
    nodes = (GRID.s_nodes().size, GRID.p_nodes().size)
    meta = {"horizon": GRID.horizon, "delta": GRID.delta, "dt": GRID.dt,
            "s_max": GRID.s_max, "p_max": GRID.p_max}
    np.savez(tmp / "grid.npz", f=np.ones((GRID.n_slices + 1, *nodes)),
             controls=np.zeros((GRID.n_slices, *nodes, 2)),
             meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    ValueGrid.load(str(tmp / "grid.npz"))


def experiment_doc(**changes):
    return base_doc(experiment={**base_doc()["experiment"], **changes})


def load_json_text(tmp, text):
    """Load a config file holding ``text``, as written by hand."""
    (tmp / "config.json").write_text(text)
    load_config(str(tmp / "config.json"))


def kt_hazards(hS, hP):
    solve_kt_batch(LogControlProblem(benchmark_params(), benchmark_intensity(), BOX), hS, hP)


CASES = [
    ("path-horizon", lambda tmp: PathConfig(0.0, 10, 10, 1),
     ValueError, "horizon must be positive"),
    ("path-count", lambda tmp: PathConfig(1.0, 10, 0, 1),
     ValueError, "n_steps and n_paths must be >= 1"),
    ("path-seed", lambda tmp: PathConfig(1.0, 10, 10, 2**64),
     ValueError, "master_seed must fit in 64 bits"),
    ("s0-length", lambda tmp: simulate_paths(benchmark_params(), benchmark_intensity(),
                                             PathConfig(1.0, 2, 2, 1), [100.0]),
     ValueError, "s0 length must match the number of stocks"),
    ("s0-nonpositive", lambda tmp: simulate_paths(benchmark_params(), benchmark_intensity(),
                                                  PathConfig(1.0, 2, 2, 1), [100.0, 0.0]),
     ValueError, "initial prices must be positive"),
    ("x0-nonpositive", lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([0.0, 0.0])], 0.0),
     ValueError, "initial wealth must be positive"),
    ("x0-nan", lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([0.0, 0.0])], np.nan),
     ValueError, "initial wealth must be finite, not nan"),
    ("x0-inf", lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([0.0, 0.0])], np.inf),
     ValueError, "initial wealth must be finite, not inf"),
    ("non-finite-allocation",
     lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([np.nan, 0.0])], 100.0),
     RuntimeError, "strategy returned non-finite allocation at step 0 (strategy 0)"),
    ("second-strategy-fails",
     lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([0.0, 0.0]),
                                          ConstantAllocation([np.nan, 0.0])], 100.0),
     RuntimeError, "strategy returned non-finite allocation at step 0 (strategy 1)"),
    ("post-default-floor",
     lambda tmp: evolve_wealth(bundle(), [ConstantAllocation([2.0, 0.0])], 100.0),
     RuntimeError, "strategy violates the post-default floor at step 0: "
                   "path 0, column 0, factor -1 (strategy 0)"),
    ("market-dimensions", lambda tmp: MarketParams(0.05, [0.1, 0.1], [0.3], np.eye(2), np.eye(2)),
     ValueError, "inconsistent parameter dimensions"),
    ("rho-asymmetric", lambda tmp: MarketParams(0.05, [0.1, 0.1], [0.3, 0.3],
                                                [[1.0, 0.2], [0.1, 1.0]], np.eye(2)),
     ValueError, "rho must be symmetric with unit diagonal"),
    ("market-r-nan", lambda tmp: two_stock(np.nan, 0.1, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3),
     ValueError, "r must be finite"),
    ("market-r-inf", lambda tmp: two_stock(np.inf, 0.1, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3),
     ValueError, "r must be finite"),
    ("market-mu-inf", lambda tmp: two_stock(0.05, np.inf, 0.15, 0.3, 0.4, 0.0, 0.2, 0.3),
     ValueError, "mu must be finite"),
    ("market-sigma-inf", lambda tmp: two_stock(0.05, 0.1, 0.15, np.inf, 0.4, 0.0, 0.2, 0.3),
     ValueError, "sigma must be finite"),
    ("market-rho-nan", lambda tmp: two_stock(0.05, 0.1, 0.15, 0.3, 0.4, np.nan, 0.2, 0.3),
     ValueError, "rho must be finite"),
    ("market-loss-nan", lambda tmp: two_stock(0.05, 0.1, 0.15, 0.3, 0.4, 0.0, np.nan, 0.3),
     ValueError, "L must be finite"),
    ("loss-diagonal", lambda tmp: MarketParams(0.05, [0.1, 0.1], [0.3, 0.3], np.eye(2),
                                               [[0.9, 0.2], [0.3, 1.0]]),
     ValueError, "L must have unit diagonal"),
    ("power-clamp-h0", lambda tmp: power_clamp(h0=0.0),
     ValueError, "h0 and alpha must be positive"),
    ("power-clamp-weights", lambda tmp: power_clamp(weights=(0.7, -0.3)),
     ValueError, "weights must be nonnegative"),
    ("power-clamp-clamp", lambda tmp: power_clamp(h_min=2.0),
     ValueError, "need 0 < h_min <= h_max"),
    ("reciprocal-c", lambda tmp: ReciprocalIntensity(c=0.0),
     ValueError, "c must be positive"),
    ("constant-c", lambda tmp: ConstantIntensity([0.1, -0.1]),
     ValueError, "c must be nonnegative"),
    ("constant-c-nan", lambda tmp: ConstantIntensity(np.nan),
     ValueError, "c must be finite"),
    ("constant-c-inf", lambda tmp: ConstantIntensity([0.1, np.inf]),
     ValueError, "c must be finite"),
    ("power-clamp-h0-nan", lambda tmp: power_clamp(h0=np.nan),
     ValueError, "h0 and alpha must be positive"),
    ("power-clamp-weights-nan", lambda tmp: power_clamp(weights=(0.7, np.nan)),
     ValueError, "weights must be nonnegative"),
    ("reciprocal-c-nan", lambda tmp: ReciprocalIntensity(c=np.nan),
     ValueError, "c must be positive"),
    ("box-lengths", lambda tmp: AdmissibleBox([-1.0], [0.5, 0.5]),
     ValueError, "lower/upper must have the same length"),
    ("box-inverted", lambda tmp: AdmissibleBox([-1.0, 0.6], [0.5, 0.5]),
     ValueError, "lower bound exceeds upper bound"),
    ("box-eps-a", lambda tmp: AdmissibleBox([-1.0, -1.0], [0.5, 0.5], eps_a=0.0),
     ValueError, "eps_a must lie in (0, 1)"),
    ("grid-delta", lambda tmp: GridSpec(horizon=1.0, delta=0.0, dt=0.01, s_max=4.0, p_max=4.0),
     ValueError, "horizon, delta, and dt must be positive"),
    ("grid-controls", lambda tmp: GridSpec(horizon=1.0, delta=1.0, dt=0.01, s_max=4.0,
                                           p_max=4.0, n_control=1),
     ValueError, "need at least two control lattice points per axis"),
    ("grid-extent", lambda tmp: GridSpec(horizon=1.0, delta=5.0, dt=0.01, s_max=7.0,
                                         p_max=10.0),
     ValueError, "s_max must be a positive multiple of delta"),
    ("grid-slices", lambda tmp: GridSpec(horizon=0.01, delta=1.0, dt=0.003, s_max=4.0,
                                         p_max=4.0),
     ValueError, "horizon must be a multiple of dt"),
    ("intensity-family", lambda tmp: intensity_from_config({"family": "logistic"}),
     ValueError, "unknown intensity family: 'logistic'"),
    ("builtin-name", lambda tmp: builtin_config("benchmark"),
     ValueError, f"unknown builtin config 'benchmark'; have {builtin_config_names()}"),
    ("experiment-kind", lambda tmp: config_from_dict(
        base_doc(experiment={"kind": "compare-all", "hbar": 0.1})),
     ValueError, "unknown experiment kind: 'compare-all'; "
                 "have ['compare', 'crisis', 'sweep', 'power-compare']"),
    ("power-without-gamma", lambda tmp: config_from_dict(
        {**power_doc(), "utility": {"kind": "power"}}),
     ValueError, "utility.gamma must lie strictly inside (0, 1), not None"),
    ("missing-hbar", lambda tmp: config_from_dict(base_doc(experiment={"kind": "compare"})),
     ValueError, "compare requires a comparator hbar"),
    ("config-s0-length", lambda tmp: config_from_dict(
        base_doc(market={**base_doc()["market"], "s0": [100.0]})),
     ValueError, "s0 length must match mu"),
    ("log-box-dimension", lambda tmp: LogControlProblem(
        benchmark_params(), benchmark_intensity(), AdmissibleBox([-1.0], [0.5])),
     ValueError, "box must be two-dimensional"),
    ("log-box-interior", lambda tmp: LogControlProblem(
        benchmark_params(), benchmark_intensity(), AdmissibleBox([-1.0, 0.5], [0.5, 0.5])),
     ValueError, "box must have nonempty interior in each coordinate"),
    ("negative-hazard", lambda tmp: kt_hazards([0.1], [-0.1]),
     ValueError, "hazard rates must be nonnegative"),
    ("nan-hazard", lambda tmp: kt_hazards([0.1, np.nan], [0.1, 0.1]),
     ValueError, "hazard rates must be finite"),
    ("inf-hazard", lambda tmp: kt_hazards([0.1], [np.inf]),
     ValueError, "hazard rates must be finite"),
    ("config-x0-nan", lambda tmp: load_json_text(
        tmp, json.dumps(experiment_doc(x0=0.0)).replace('"x0": 0.0', '"x0": NaN')),
     ValueError, "experiment.x0 must be a finite number, not nan"),
    ("config-hbar-nan", lambda tmp: config_from_dict(experiment_doc(hbar=np.nan)),
     ValueError, "experiment.hbar must be a finite number, not nan"),
    ("config-list-inf", lambda tmp: load_json_text(
        tmp, json.dumps(base_doc()).replace("[0.1, 0.15]", "[0.1, Infinity]")),
     ValueError, "market.mu[1] must be a finite number, not inf"),
    ("config-grid-null", lambda tmp: config_from_dict({**power_doc(), "grid": None}),
     ValueError, "grid must be an object, not None"),
    ("config-kind-list", lambda tmp: config_from_dict(experiment_doc(kind=["compare"])),
     ValueError, "unknown experiment kind: ['compare']; "
                 "have ['compare', 'crisis', 'sweep', 'power-compare']"),
    ("config-market-list", lambda tmp: config_from_dict(base_doc(market=[1])),
     ValueError, "market must be an object, not [1]"),
    ("config-entry-set", lambda tmp: config_from_dict(
        base_doc(experiment={"kind": "sweep", "entries": [{"label": "x", "set": 5}]})),
     ValueError, "experiment.entries[0].set must be an object, not 5"),
    ("config-weights-scalar", lambda tmp: config_from_dict(
        base_doc(intensity={**base_doc()["intensity"], "weights": 0.5})),
     ValueError, "weights must be a nonempty list of numbers, not 0.5"),
    ("config-weights-short", lambda tmp: config_from_dict(
        base_doc(intensity={**base_doc()["intensity"], "weights": [0.5]})),
     ValueError, "intensity.weights must hold one weight per stock (2), not [0.5]"),
    ("config-weights-long", lambda tmp: config_from_dict(
        base_doc(intensity={**base_doc()["intensity"], "weights": [0.5, 0.3, 0.2]})),
     ValueError, "intensity.weights must hold one weight per stock (2), not [0.5, 0.3, 0.2]"),
    ("config-entry-weights-short", lambda tmp: config_from_dict(base_doc(experiment={
        "kind": "sweep", "entries": [{"label": "k", "set": {"intensity": {"weights": [0.5]}}}]})),
     ValueError, "sweep entry 'k': intensity.weights must hold one weight per stock (2), "
                 "not [0.5]"),
    ("config-entries-scalar", lambda tmp: config_from_dict(
        base_doc(experiment={"kind": "sweep", "entries": 5})),
     ValueError, "experiment.entries must be a list of objects, not 5"),
    ("config-entries-item", lambda tmp: config_from_dict(
        base_doc(experiment={"kind": "sweep", "entries": [5]})),
     ValueError, "experiment.entries must be a list of objects, not [5]"),
    ("config-market-object-value", lambda tmp: config_from_dict(
        base_doc(market={**base_doc()["market"], "mu": {"a": 0.1}})),
     ValueError, "market.mu must be a number, not {{'a': 0.1}}"),
    ("config-family-list", lambda tmp: config_from_dict(
        base_doc(intensity={**base_doc()["intensity"], "family": ["power_clamp"]})),
     ValueError, "unknown intensity family: ['power_clamp']"),
    ("config-x0-negative", lambda tmp: config_from_dict(experiment_doc(x0=-1)),
     ValueError, "experiment.x0 must be finite and > 0, not -1"),
    ("config-hbar-negative", lambda tmp: config_from_dict(experiment_doc(hbar=-0.1)),
     ValueError, "experiment.hbar must be finite and >= 0, not -0.1"),
    ("experiment-x0-inf", lambda tmp: replace(config_from_dict(base_doc()), x0=np.inf),
     ValueError, "experiment.x0 must be finite and > 0, not inf"),
    ("experiment-hbar-inf", lambda tmp: replace(config_from_dict(base_doc()), hbar=np.inf),
     ValueError, "experiment.hbar must be finite and >= 0, not inf"),
    ("grid-meta-gamma", grid_without_gamma,
     ValueError, "value grid {tmp}/grid.npz: meta has no gamma"),
    ("log-three-stocks", lambda tmp: LogControlProblem(THREE_STOCKS, ConstantIntensity(0.1), BOX),
     ValueError, "the control solvers are specialized to two stocks, not 3"),
    ("power-box-dimension", lambda tmp: solve_power_value(GRID, benchmark_params(),
                                                          ConstantIntensity(0.1), 0.5,
                                                          AdmissibleBox([-1.0], [0.5])),
     ValueError, "box must be two-dimensional"),
    ("power-three-stocks", lambda tmp: solve_power_value(GRID, THREE_STOCKS,
                                                         ConstantIntensity(0.1), 0.5, BOX),
     ValueError, "the control solvers are specialized to two stocks, not 3"),
]


@pytest.mark.parametrize("make, error, message",
                         [pytest.param(*case, id=name) for name, *case in CASES])
def test_degenerate_input_raises_its_named_error(tmp_path, make, error, message):
    with pytest.raises(error) as info:
        make(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(tmp=tmp_path)
