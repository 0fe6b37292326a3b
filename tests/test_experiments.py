import copy
import hashlib
import json
import weakref
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from contagionopt import dynamics, experiments
from contagionopt.dynamics import PathBundle, simulate_paths
from contagionopt.experiments import (
    KINDS,
    builtin_config,
    builtin_config_names,
    config_from_dict,
    run_comparison,
    run_crisis,
    run_power_comparison,
    run_sweep,
)
from contagionopt.cli import build_parser, main as cli_main
from contagionopt.logopt import CASE_NAMES
from contagionopt.stats import CSV_HEADER
from contagionopt.model import ConstantIntensity, ReciprocalIntensity
from contagionopt.powergrid import ValueGrid, solve_power_value, validate_cfl

from test_dynamics import state_bits


def base_doc(**overrides):
    doc = {
        "name": "test",
        "market": {"r": 0.05, "mu": [0.10, 0.15], "sigma": [0.30, 0.40],
                   "rho": 0.0, "L": [[1.0, 0.20], [0.30, 1.0]],
                   "s0": [100.0, 100.0]},
        "intensity": {"family": "power_clamp", "h0": 10.0, "weights": [0.7, 0.3],
                      "alpha": 1.0, "h_min": 0.05, "h_max": 1.0},
        "utility": {"kind": "log"},
        "box": {"lower": [-1.0, -1.0], "upper": [0.5, 0.5], "eps_a": 0.01},
        "paths": {"horizon": 1.0, "n_steps": 60, "n_paths": 800,
                  "master_seed": 20240611},
        "experiment": {"kind": "compare", "hbar": 0.1, "x0": 100.0},
    }
    doc.update(overrides)
    return doc


def sweep_of(*sets, intensity=None):
    """A sweep of ``base_doc`` whose entries set ``sets``, labelled by position."""
    doc = base_doc() if intensity is None else base_doc(intensity=intensity)
    doc["experiment"] = {"kind": "sweep",
                         "entries": [{"label": str(k), "set": e} for k, e in enumerate(sets)]}
    return doc


def power_doc(intensity=None, n_paths=600):
    doc = base_doc()
    if intensity is not None:
        doc["intensity"] = intensity
    doc["utility"] = {"kind": "power", "gamma": 0.5}
    doc["box"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "eps_a": 0.01}
    doc["grid"] = {"delta": 1.0, "dt": 0.005, "s_max": 16.0, "p_max": 16.0,
                   "n_control": 9}
    doc["market"]["s0"] = [8.0, 8.0]
    doc["paths"]["n_paths"] = n_paths
    doc["paths"]["n_steps"] = 50
    doc["experiment"] = {"kind": "power-compare", "hbar": 0.1, "x0": 100.0}
    return doc


def _owner_ref(a: np.ndarray):
    """A weak reference to the array that owns ``a``'s memory."""
    return weakref.ref(a if a.base is None else a.base)


class TestConfig:
    def test_builtin_configs_parse(self):
        names = builtin_config_names()
        assert "benchmark-inferred" in names and "crisis-reciprocal" in names
        for name in names:
            cfg = builtin_config(name)
            assert cfg.market.n == 2

    def test_benchmark_inferred_values(self):
        cfg = builtin_config("benchmark-inferred")
        assert cfg.market.r == 0.05
        assert np.allclose(cfg.market.mu, [0.10, 0.15])
        assert cfg.market.L[0, 1] == 0.20 and cfg.market.L[1, 0] == 0.30
        assert cfg.hbar == 0.1 and cfg.kind == "compare"
        assert cfg.paths.n_paths == 10000

    def test_overrides(self):
        cfg = builtin_config("benchmark-inferred", seed=7, n_paths=123)
        assert cfg.paths.master_seed == 7 and cfg.paths.n_paths == 123

    def test_unknown_sweep_parameter_rejected(self):
        # a name of the earlier one-by-one vocabulary, a key of no field, another family
        for part, message in (
            ({"k1": 0.5}, "can set only market (not s0) and intensity keys, not ['k1']"),
            ({"market": {"mu_s": 0.12}}, "market: unknown keys ['mu_s'], missing keys []"),
            ({"intensity": {"nonsense": 0.5}},
             "intensity family 'power_clamp': unknown keys ['nonsense'], missing keys []"),
            ({"intensity": {"family": "reciprocal"}},
             "intensity family 'reciprocal': unknown keys ['alpha', 'h0', 'h_max', 'h_min', "
             "'weights'], missing keys ['c']"),
        ):
            with pytest.raises(ValueError) as exc:
                config_from_dict(sweep_of(part))
            assert str(exc.value) == f"sweep entry '0': {message}"
        doc = base_doc()
        doc["experiment"] = {"kind": "sweep", "sweep_mode": "bogus", "entries": []}
        with pytest.raises(ValueError, match="sweep mode: 'bogus'"):
            config_from_dict(doc)

    def test_unknown_top_level_key_rejected(self):
        # a misspelt section would otherwise be read as absent
        doc = builtin_config("benchmark-inferred").raw
        config_from_dict(doc)  # the shipped keys: seven sections, name and provenance
        with pytest.raises(ValueError) as exc:
            config_from_dict({**doc, "gird": {"delta": 5.0}, "marketx": 3})
        assert str(exc.value) == "config: unknown top-level keys ['gird', 'marketx']"

    @pytest.mark.parametrize("section, key", [
        ("box", "eps"), ("paths", "seed"), ("grid", "n_contol"), ("grid", "horizon"),
        ("experiment", "hbr"), ("entry", "mode"), ("market", "mu_s"), ("utility", "gama"),
    ])
    def test_unknown_section_key_rejected(self, section, key):
        if section == "grid":
            doc = power_doc()
        else:
            doc = base_doc()
            doc["experiment"] = {"kind": "sweep", "entries": [{"label": "x", "set": {}}]}
        target = doc["experiment"]["entries"][0] if section == "entry" else doc[section]
        target[key] = 1
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            config_from_dict(doc)

    def test_section_defaults_come_from_the_dataclasses(self):
        doc = base_doc()
        del doc["box"]["eps_a"]
        doc["experiment"] = {"kind": "sweep"}
        cfg = config_from_dict(doc)
        assert cfg.box.eps_a == 0.01
        assert (cfg.x0, cfg.hbar, cfg.sweep_mode, cfg.entries, cfg.grid) == \
            (100.0, None, "misspecified-investor", (), None)
        doc = power_doc()
        doc["grid"] = {"delta": 1.0, "dt": 0.01, "s_max": 10.0, "p_max": 10.0}
        cfg = config_from_dict(doc)
        assert astuple(cfg.grid) == (1.0, 1.0, 0.01, 10.0, 10.0, 41)

    @pytest.mark.parametrize("part, needle", [
        ({"market": {"rho": 1.5}}, "rho is not positive definite"),
        ({"intensity": {"c": 1.0}},
         "intensity family 'power_clamp': unknown keys ['c'], missing keys []"),
        ({"market": {"L": [[1.0, 0.2], [0.99, 1.0]]}},
         "box violates the post-default floor (worst margin -0.005)"),
        ({"market": {"s0": [90.0, 90.0]}},
         "can set only market (not s0) and intensity keys, not ['s0']"),
        ({"box": {"eps_a": 0.02}}, "can set only market (not s0) and intensity keys, not ['box']"),
        ({"paths": {"n_paths": 10}, "market": {"r": 0.02}},
         "can set only market (not s0) and intensity keys, not ['paths']"),
    ], ids=["rho", "c", "loss_p", "s0", "box", "paths"])
    def test_sweep_entry_checked_when_the_config_loads(self, monkeypatch, part, needle):
        doc = sweep_of({"market": {"mu": [0.12, 0.15]}}, part)
        simulated = []
        monkeypatch.setattr("contagionopt.experiments.simulate_paths",
                            lambda *a, **k: simulated.append(a))
        with pytest.raises(ValueError) as exc:
            run_sweep(config_from_dict(doc))
        assert str(exc.value) == f"sweep entry '1': {needle}"
        assert simulated == []

    @pytest.mark.parametrize("kind", ["compare", "crisis", "sweep"])
    def test_grid_section_rejected_outside_power_compare(self, kind):
        doc = base_doc()
        if kind == "crisis":
            doc["intensity"] = {"family": "reciprocal", "c": 20.0}
        if kind == "sweep":
            del doc["experiment"]["hbar"]  # a sweep takes no comparator
        doc["experiment"]["kind"] = kind
        config_from_dict(doc)  # loads without the grid section
        doc["grid"] = power_doc()["grid"]
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == f"a '{kind}' experiment does not take ['grid']"

    def test_utility_must_match_the_kind(self):
        doc = base_doc(utility={"kind": "power", "gamma": 0.5})
        with pytest.raises(ValueError, match="'compare' experiment takes the 'log' utility, "
                                             "not 'power'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("gamma", [1.5, 0.0, "0.5"])
    def test_power_gamma_outside_the_unit_interval_rejected(self, gamma):
        doc = power_doc()
        doc["utility"]["gamma"] = gamma
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == f"utility.gamma must lie strictly inside (0, 1), not {gamma!r}"

    def test_gamma_on_a_log_kind_rejected(self):
        doc = base_doc(utility={"kind": "log", "gamma": 0.5})
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == "a 'compare' experiment does not take ['gamma']"

    def test_hbar_on_a_sweep_rejected(self):
        doc = base_doc()
        doc["experiment"] = {"kind": "sweep", "hbar": 0.1,
                             "entries": [{"label": "x", "set": {"market": {"r": 0.02}}}]}
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == "a 'sweep' experiment does not take ['hbar']"

    def test_overrides_apply_per_intensity_family(self):
        base = config_from_dict(base_doc())
        (label, problem), = config_from_dict(sweep_of(
            {"intensity": {"weights": [0.5, 0.3]}, "market": {"r": 0.02}})).entries
        assert label == "0" and problem.intensity == replace(base.intensity, weights=(0.5, 0.3))
        assert problem.params.r == 0.02 and np.array_equal(problem.params.L, base.market.L)
        assert np.array_equal(problem.box.vertices(), base.box.vertices())
        reciprocal = {"family": "reciprocal", "c": 20.0}
        (_, problem), = config_from_dict(sweep_of({"intensity": {"c": 30.0}},
                                                   intensity=reciprocal)).entries
        assert problem.intensity == ReciprocalIntensity(c=30.0)
        (_, problem), = config_from_dict(sweep_of(
            {"intensity": {"c": 0.2}}, intensity={"family": "constant", "c": 0.1})).entries
        assert np.array_equal(problem.intensity.c, [0.2])
        for intensity, part, key in ((reciprocal, {"h0": 5.0}, "h0"),
                                     ({"family": "constant", "c": 0.1}, {"weights": [0.5]},
                                      "weights")):
            with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
                config_from_dict(sweep_of({"intensity": part}, intensity=intensity))

    @pytest.mark.parametrize("part, message", [
        ({"intensity": {"h0": "5"}},
         "experiment.entries[1].set.intensity.h0 must be a number, not '5'"),
        ({"market": {"mu": [0.12, None]}},
         "experiment.entries[1].set.market.mu[1] must be a number, not None"),
        ({"intensity": {"alpha": True}},
         "experiment.entries[1].set.intensity.alpha must be a number, not True"),
        ({"intensity": {"weights": [0.5, False]}},
         "experiment.entries[1].set.intensity.weights[1] must be a number, not False"),
        ({"market": {"L": [[1.0, "0.2"], [0.3, 1.0]]}},
         "experiment.entries[1].set.market.L[0][1] must be a number, not '0.2'"),
        ({"intensity": {"h0": 5.0, "c": 1.0}},
         "sweep entry '1': intensity family 'power_clamp': unknown keys ['c'], missing keys []"),
    ], ids=["string", "none", "bool", "bool-in-list", "string-in-nested-list", "foreign"])
    def test_override_errors_name_their_cause(self, part, message):
        with pytest.raises(ValueError) as exc:
            config_from_dict(sweep_of({"market": {"r": 0.02}}, part))
        assert str(exc.value) == message

    @pytest.mark.parametrize("section, key, value, message", [
        ("intensity", "h0", "5", "intensity.h0 must be a number, not '5'"),
        ("intensity", "weights", [0.7, True], "intensity.weights[1] must be a number, not True"),
        ("market", "r", True, "market.r must be a number, not True"),
        ("market", "s0", [100.0, "100"], "market.s0[1] must be a number, not '100'"),
        ("grid", "n_control", 21.0, "grid.n_control must be an integer, not 21.0"),
        ("grid", "n_control", True, "grid.n_control must be an integer, not True"),
        ("grid", "dt", "0.005", "grid.dt must be a number, not '0.005'"),
        ("paths", "n_steps", 25.0, "paths.n_steps must be an integer, not 25.0"),
        ("paths", "n_paths", float("nan"), "paths.n_paths must be a finite number, not nan"),
        ("paths", "master_seed", "7", "paths.master_seed must be an integer, not '7'"),
        ("paths", "horizon", "1", "paths.horizon must be a number, not '1'"),
        ("paths", "horizon", [1.0], "paths.horizon must be a number, not [1.0]"),
        ("box", "eps_a", "0.01", "box.eps_a must be a number, not '0.01'"),
        ("box", "lower", [-1.0, True], "box.lower[1] must be a number, not True"),
        ("experiment", "x0", "100", "experiment.x0 must be a number, not '100'"),
        ("experiment", "hbar", False, "experiment.hbar must be a number, not False"),
    ], ids=["h0", "weights", "r", "s0", "n_control-float", "n_control-bool", "dt", "n_steps",
            "n_paths-nan", "master_seed", "horizon", "horizon-list", "eps_a", "lower", "x0",
            "hbar"])
    def test_main_sections_take_numbers_only(self, section, key, value, message):
        doc = power_doc()
        doc[section][key] = value
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["compare", "crisis", "power-compare"])
    @pytest.mark.parametrize("key, value", [
        ("entries", [{"label": "x", "set": {"market": {"r": 0.02}}}]),
        ("sweep_mode", "perturbed-world"),
    ], ids=["entries", "sweep_mode"])
    def test_sweep_keys_rejected_outside_a_sweep(self, kind, key, value):
        doc = power_doc() if kind == "power-compare" else base_doc()
        if kind == "crisis":
            doc["intensity"] = {"family": "reciprocal", "c": 20.0}
        doc["experiment"]["kind"] = kind
        config_from_dict(doc)  # loads without the sweep key
        doc["experiment"][key] = value
        with pytest.raises(ValueError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == f"a '{kind}' experiment does not take ['{key}']"

    def test_kind_validation(self):
        doc = base_doc()
        doc["experiment"]["kind"] = "power-compare"
        doc["utility"] = {"kind": "power", "gamma": 0.5}
        with pytest.raises(ValueError, match="grid"):
            config_from_dict(doc)


class TestRunComparison:
    def test_constant_world_makes_strategies_coincide(self):
        doc = base_doc(intensity={"family": "constant", "c": 0.1})
        result = run_comparison(config_from_dict(doc))
        rows = dict(result.rows())
        for cohort in ("All samples", "Default", "No-default"):
            a = rows[f"{cohort} + h(S,P)"]
            b = rows[f"{cohort} + constant h"]
            assert a == b

    def test_degenerate_market_gives_riskless_rows(self):
        doc = base_doc(intensity={"family": "constant", "c": 0.0})
        doc["market"]["mu"] = [0.05, 0.05]
        doc["experiment"]["hbar"] = 0.0
        result = run_comparison(config_from_dict(doc))
        target = 100.0 * np.exp(0.05)
        # all terminal wealths are bit-identical; the reported std is at
        # most one ulp of the mean (roundoff of the sample mean itself)
        assert np.ptp(result.active.all.q_high - result.active.all.q_low) == 0.0
        assert result.active.all.std <= 1e-11
        assert result.passive.all.std <= 1e-11
        assert result.active.all.mean == pytest.approx(target, rel=1e-12, abs=0)
        assert result.n_default == 0

    def test_directional_pattern_on_benchmark(self):
        cfg = builtin_config("benchmark-inferred", n_paths=1500)
        result = run_comparison(cfg)
        assert result.active.all.mean >= result.passive.all.mean
        assert result.active.all.std >= result.passive.all.std

    def test_conservation_and_digest(self):
        result = run_comparison(config_from_dict(base_doc()))
        for rep in (result.active, result.passive):
            n_def = rep.default.n if rep.default else 0
            n_no = rep.no_default.n if rep.no_default else 0
            assert n_def + n_no == result.n_paths
        assert len(result.rng_digest) == 64

    def test_bundle_is_digested_once(self, monkeypatch):
        calls = []
        digest = PathBundle.rng_digest

        def counted(bundle):
            calls.append(1)
            return digest(bundle)

        monkeypatch.setattr(PathBundle, "rng_digest", counted)
        doc = base_doc()
        doc["paths"]["n_paths"] = 200
        result = run_comparison(config_from_dict(doc))
        assert len(calls) == 1 and len(result.rng_digest) == 64

    def test_both_sides_evolve_in_one_call(self, monkeypatch):
        evolve, calls = experiments.evolve_wealth, []

        def watched(bundle, strategies, x0):
            calls.append([isinstance(s.problem.intensity, ConstantIntensity)
                          for s in strategies])
            return evolve(bundle, strategies, x0)

        monkeypatch.setattr(experiments, "evolve_wealth", watched)
        doc = base_doc()
        doc["paths"].update(n_paths=300, n_steps=5)
        run_comparison(config_from_dict(doc))
        # one call, the active side first, then the passive comparator
        assert calls == [[False, True]]

    def test_wrong_utility_rejected(self):
        doc = base_doc()
        doc["utility"] = {"kind": "power", "gamma": 0.5}
        doc["grid"] = {"delta": 1.0, "dt": 0.01, "s_max": 10.0, "p_max": 10.0}
        doc["experiment"]["kind"] = "power-compare"
        with pytest.raises(ValueError):
            run_comparison(config_from_dict(doc))


class TestRunSweep:
    def sweep_doc(self, entries, mode="misspecified-investor", n_paths=1500):
        doc = base_doc()
        doc["paths"]["n_paths"] = n_paths
        doc["paths"]["n_steps"] = 100
        doc["experiment"] = {"kind": "sweep", "x0": 100.0, "sweep_mode": mode,
                             "entries": entries}
        return config_from_dict(doc)

    def test_noop_sweep_reports_exact_zero_deltas(self):
        for mode in ("misspecified-investor", "perturbed-world"):
            cfg = self.sweep_doc([{"label": "noop", "set": {"intensity": {"h0": 10.0}}}],
                                 mode=mode, n_paths=400)
            result = run_sweep(cfg)
            label, stats = result.entries[0]
            assert stats == result.benchmark
            cells = result.to_csv().splitlines()[2].split(",")
            assert [cells[i] for i in (3, 5, 7, 9)] == ["(0.00%)"] * 4

    def test_h0_misestimation_moves_std_in_opposite_directions(self):
        cfg = self.sweep_doc([{"label": "h0=5", "set": {"intensity": {"h0": 5.0}}},
                              {"label": "h0=15", "set": {"intensity": {"h0": 15.0}}}])
        result = run_sweep(cfg)
        (_, lo), (_, hi) = result.entries
        assert lo.std < result.benchmark.std
        assert hi.std > result.benchmark.std

    def test_balanced_weights_barely_move_the_mean(self):
        cfg = self.sweep_doc([{"label": "k1=0.5,k2=0.5",
                               "set": {"intensity": {"weights": [0.5, 0.5]}}}], n_paths=2000)
        result = run_sweep(cfg)
        _, stats = result.entries[0]
        assert abs(stats.mean / result.benchmark.mean - 1.0) < 0.01

    def test_table_has_a_benchmark_row_and_one_row_per_entry(self):
        cfg = self.sweep_doc([{"label": "h0=5", "set": {"intensity": {"h0": 5.0}}},
                              {"label": "h0=15", "set": {"intensity": {"h0": 15.0}}}],
                             n_paths=100)
        result = run_sweep(cfg)
        lines = result.to_csv().splitlines()
        assert lines[0] == "label,n,mean,mean_pct,std,std_pct,q023,q023_pct,q977,q977_pct"
        assert len(lines) == 2 + len(cfg.entries)

        def split(line):  # label, the five statistics, the four percent cells
            c = line.split(",")
            return c[0], [c[i] for i in (1, 2, 4, 6, 8)], [c[i] for i in (3, 5, 7, 9)]

        def values(s):
            return [str(s.n)] + [f"{v:.6g}" for v in (s.mean, s.std, s.q_low, s.q_high)]

        b = result.benchmark
        assert split(lines[1]) == ("benchmark", values(b), ["", "", "", ""])
        for (label, stats), line in zip(result.entries, lines[2:]):
            got_label, got_values, pct = split(line)
            assert (got_label, got_values) == (label, values(stats))
            for cell, value, base in zip(pct, (stats.mean, stats.std, stats.q_low, stats.q_high),
                                         (b.mean, b.std, b.q_low, b.q_high)):
                assert cell.startswith("(") and cell.endswith("%)")
                assert len(cell.split(".")[1]) == len("00%)")  # two decimals
                assert abs(float(cell[1:-2]) - 100.0 * (value - base) / base) <= 0.005 + 1e-12

    def test_out_dir_holds_the_table_its_manifest_hashes(self, tmp_path):
        cfg = self.sweep_doc([{"label": "h0=5", "set": {"intensity": {"h0": 5.0}}}], n_paths=100)
        result = run_sweep(cfg, out_dir=str(tmp_path))
        data = (tmp_path / "sweep.csv").read_bytes()
        assert data == result.to_csv().encode()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == {"sweep.csv": "sha256:" + hashlib.sha256(data).hexdigest()}
        assert (manifest["kind"], manifest["rng_digest"]) == ("sweep", result.rng_digest)

    def test_perturbed_world_changes_the_bundle(self):
        cfg = self.sweep_doc([{"label": "sigma_s=0.36",
                               "set": {"market": {"sigma": [0.36, 0.4]}}}],
                             mode="perturbed-world", n_paths=500)
        result = run_sweep(cfg)
        _, stats = result.entries[0]
        assert stats != result.benchmark

    @pytest.mark.parametrize("mode", ["misspecified-investor", "perturbed-world"])
    def test_sweep_draws_its_random_numbers_once(self, mode, monkeypatch):
        draws = dynamics._draws
        calls = []
        monkeypatch.setattr(dynamics, "_draws", lambda *a: calls.append(a) or draws(*a))
        cfg = self.sweep_doc([{"label": "rho=0.3", "set": {"market": {"rho": 0.3}}},
                              {"label": "h0=5", "set": {"intensity": {"h0": 5.0}}}],
                             mode=mode, n_paths=100)
        result = run_sweep(cfg)
        assert len(calls) == 1
        assert result.rng_digest == simulate_paths(cfg.market, cfg.intensity, cfg.paths,
                                                   cfg.s0).rng_digest()

    def test_perturbed_worlds_are_freed_one_by_one(self, monkeypatch):
        simulate = dynamics._simulate
        earlier, dead = [], []

        def watched(*args):
            dead.append([ref() is None for ref in earlier])
            bundle = simulate(*args)
            earlier.extend((weakref.ref(bundle), _owner_ref(bundle.normals)))
            return bundle

        monkeypatch.setattr(dynamics, "_simulate", watched)
        cfg = self.sweep_doc([{"label": "rho=0.3", "set": {"market": {"rho": 0.3}}},
                              {"label": "mu=0.12", "set": {"market": {"mu": [0.12, 0.15]}}}],
                             mode="perturbed-world", n_paths=200)
        result = run_sweep(cfg)
        # every earlier world, the benchmark's included, is freed before the next is built
        assert dead == [[], [True] * 2, [True] * 4]
        monkeypatch.setattr(dynamics, "_simulate", simulate)
        assert result.rng_digest == simulate_paths(cfg.market, cfg.intensity, cfg.paths,
                                                   cfg.s0).rng_digest()

    @pytest.mark.parametrize("name, digest", [
        ("sweep-intensity", "cf61182f4c338b49465933b7ad1ae724808c6a3fac33ec30bcec41dd23ac6784"),
        ("sweep-market", "5df7fb0c7dd7cf4fd07fd235ebbb6a2f14e321438ca8d51e10c7b88f3360b680"),
    ])
    def test_shipped_sweep_tables_are_pinned(self, name, digest):
        """The sha256 of each shipped sweep's table at 200 paths and 20 steps,
        recorded when its entries still named parameters one by one
        (``k1``, ``mu_s``, ``loss_p``, ...)."""
        doc = copy.deepcopy(builtin_config(name).raw)
        doc["paths"]["n_steps"] = 20
        result = run_sweep(config_from_dict(doc, n_paths=200))
        assert hashlib.sha256(result.to_csv().encode()).hexdigest() == digest


class TestRunCrisis:
    def test_requires_reciprocal_family(self):
        doc = base_doc()
        doc["experiment"]["kind"] = "crisis"
        with pytest.raises(ValueError, match="reciprocal"):
            config_from_dict(doc)

    def test_builtin_crisis_defaults_and_cohort_ordering(self):
        cfg = builtin_config("crisis-reciprocal", n_paths=1200)
        assert isinstance(cfg.intensity, ReciprocalIntensity)
        result = run_crisis(cfg)
        assert result.n_default / result.n_paths > 0.7
        assert result.active.default.mean > result.passive.default.mean
        assert result.active.no_default.mean < result.passive.no_default.mean


class TestRunPowerComparison:
    def power_doc(self, intensity=None, n_paths=600):
        return config_from_dict(power_doc(intensity, n_paths))

    def test_constant_world_strategies_coincide(self):
        cfg = self.power_doc(intensity={"family": "constant", "c": 0.1})
        result = run_power_comparison(cfg)
        rows = dict(result.rows())
        for cohort in ("All samples", "Default", "No-default"):
            assert rows[f"{cohort} + h(S,P)"] == rows[f"{cohort} + constant h"]

    def test_manifest_reports_grid_health(self, tmp_path):
        cfg = self.power_doc(n_paths=200)
        run_power_comparison(cfg, out_dir=str(tmp_path))
        health = json.loads((tmp_path / "manifest.json").read_text())["solver_health"]
        assert set(health) == {"cfl_margin", "out_of_domain_frac"}
        # from s0 = (8, 8) some paths leave the [0, 16]^2 lattice
        assert 0.0 < health["out_of_domain_frac"] < 1.0
        assert health["cfl_margin"] >= 0.0
        assert health["cfl_margin"] == validate_cfl(cfg.grid, cfg.market, cfg.gamma, cfg.box)

    def test_grid_solved_for_another_problem_rejected(self):
        cfg = self.power_doc(n_paths=50)
        grid = cfg.grid
        shape = (grid.s_nodes().size, grid.p_nodes().size)
        for gamma, spec in ((0.3, grid), (cfg.gamma, replace(grid, horizon=0.5))):
            vg = ValueGrid(grid=spec, gamma=gamma, f=np.ones((spec.n_slices + 1, *shape)),
                           controls=np.zeros((spec.n_slices, *shape, 2)))
            with pytest.raises(ValueError, match="does not match"):
                run_power_comparison(cfg, value_grid=vg, value_grid_const=vg)

    def test_nonpositive_s0_rejected_before_any_grid_is_solved(self, tmp_path, capsys,
                                                               monkeypatch):
        doc = power_doc(n_paths=50)
        doc["market"]["s0"] = [-100.0, 100.0]
        config = tmp_path / "power.json"
        config.write_text(json.dumps(doc))
        solved = []
        monkeypatch.setattr(experiments, "solve_power_value", lambda *args: solved.append(args))
        with pytest.raises(SystemExit) as exc:
            cli_main(["power-compare", "--config", str(config)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and solved == []
        assert err == ("contagionopt power-compare: error: "
                       "market.s0 must be positive, not [-100.0, 100.0]\n")

    def test_solved_grids_freed_before_the_simulation(self, monkeypatch):
        solve, simulate = experiments.solve_power_value, experiments.simulate_paths
        solved, dead = [], []

        def watched_solve(*args):
            grid = solve(*args)
            solved.append(_owner_ref(grid.f))
            return grid

        def watched_simulate(*args):
            dead.append([ref() is None for ref in solved])
            return simulate(*args)

        monkeypatch.setattr(experiments, "solve_power_value", watched_solve)
        monkeypatch.setattr(experiments, "simulate_paths", watched_simulate)
        doc = power_doc(n_paths=200)
        doc["paths"]["n_steps"] = 5
        cfg = config_from_dict(doc)
        result = run_power_comparison(cfg)
        assert dead == [[True, True]]

        # grids the caller supplies stay the caller's, as they were
        grids = [solve(cfg.grid, cfg.market, intensity, cfg.gamma, cfg.box)
                 for intensity in (cfg.intensity, ConstantIntensity(cfg.hbar))]
        before = [(vg.f, vg.controls, vg.f.copy(), vg.controls.copy()) for vg in grids]
        supplied = run_power_comparison(cfg, value_grid=grids[0], value_grid_const=grids[1])
        assert supplied.to_csv() == result.to_csv()
        for vg, (f, controls, f_copy, controls_copy) in zip(grids, before):
            assert vg.f is f and vg.controls is controls
            assert np.array_equal(f, f_copy) and np.array_equal(controls, controls_copy)

    def test_passive_controls_own_one_node_per_slice(self, monkeypatch):
        # the comparator's grid is price-free: at the simulation its
        # strategy's controls are one node per slice, shown at every node
        simulate, made, owned = experiments.simulate_paths, [], []

        class WatchedStrategy(experiments.PowerGridStrategy):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def watched_simulate(*args):
            owned.append([_owner_ref(s.controls)().nbytes for s in made])
            return simulate(*args)

        monkeypatch.setattr(experiments, "PowerGridStrategy", WatchedStrategy)
        monkeypatch.setattr(experiments, "simulate_paths", watched_simulate)
        doc = power_doc(n_paths=200)
        doc["paths"]["n_steps"] = 5
        cfg = config_from_dict(doc)
        run_power_comparison(cfg)
        n_slices, nodes = cfg.grid.n_slices, cfg.grid.s_nodes().size * cfg.grid.p_nodes().size
        assert owned == [[n_slices * nodes * 2 * 8, n_slices * 2 * 8]]
        assert made[1].controls.shape == (n_slices, 17, 17, 2)

    def test_market_paths_shared_with_log_experiment(self):
        # identical market/intensity/seed: the bundle is utility-independent
        power_cfg = self.power_doc()
        log_doc = base_doc()
        log_doc["market"]["s0"] = [8.0, 8.0]
        log_doc["paths"]["n_paths"] = 600
        log_doc["paths"]["n_steps"] = 50
        log_cfg = config_from_dict(log_doc)
        a = run_power_comparison(power_cfg)
        b = run_comparison(log_cfg)
        assert a.rng_digest == b.rng_digest


class TestOneMarketPass:
    """The investors a run evolves on one bundle step on one replay of it,
    and the replay looks each step's defaults up once."""

    def counted(self, monkeypatch):
        calls = {"replays": 0, "lookups": 0}
        replay, lookup = PathBundle.price_steps, dynamics._defaults_at

        def counted_replay(bundle):
            calls["replays"] += 1
            return replay(bundle)

        def counted_lookup(*args):
            calls["lookups"] += 1
            return lookup(*args)

        monkeypatch.setattr(PathBundle, "price_steps", counted_replay)
        monkeypatch.setattr(dynamics, "_defaults_at", counted_lookup)
        return calls

    def test_a_replay_looks_each_step_up_once(self, monkeypatch):
        cfg = config_from_dict(base_doc())
        bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
        calls = self.counted(monkeypatch)
        assert len(list(bundle.price_steps())) == cfg.paths.n_steps + 1
        assert calls == {"replays": 1, "lookups": cfg.paths.n_steps + 1}

    def test_comparison_replays_once(self, monkeypatch):
        cfg = config_from_dict(base_doc())
        calls = self.counted(monkeypatch)
        run_comparison(cfg)
        # the evolve reads steps 0..n_steps-1
        assert calls == {"replays": 1, "lookups": cfg.paths.n_steps}

    def test_power_comparison_on_supplied_grids_replays_once(self, monkeypatch):
        doc = power_doc(n_paths=200)
        doc["paths"]["n_steps"] = 5
        cfg = config_from_dict(doc)
        grids = [solve_power_value(cfg.grid, cfg.market, intensity, cfg.gamma, cfg.box)
                 for intensity in (cfg.intensity, ConstantIntensity(cfg.hbar))]
        calls = self.counted(monkeypatch)
        run_power_comparison(cfg, value_grid=grids[0], value_grid_const=grids[1])
        assert calls == {"replays": 1, "lookups": 5}

    @pytest.mark.parametrize("mode, worlds", [("misspecified-investor", 1),
                                              ("perturbed-world", 3)])
    def test_sweep_replays_once_per_world(self, mode, worlds, monkeypatch):
        doc = sweep_of({"market": {"rho": 0.3}}, {"intensity": {"h0": 5.0}})
        doc["paths"].update(n_paths=200, n_steps=10)
        doc["experiment"]["sweep_mode"] = mode
        cfg = config_from_dict(doc)
        calls = self.counted(monkeypatch)
        result = run_sweep(cfg)
        assert len(result.entries) == 2
        assert calls == {"replays": worlds, "lookups": worlds * 10}


class TestOutputsAndDeterminism:
    def test_rerun_leaves_csv_bytes_identical(self, tmp_path):
        doc = base_doc()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_comparison(config_from_dict(doc), out_dir=str(out1))
        run_comparison(config_from_dict(doc), out_dir=str(out2))
        b1 = (out1 / "comparison.csv").read_bytes()
        b2 = (out2 / "comparison.csv").read_bytes()
        assert b1 == b2

    def test_manifest_hashes_outputs(self, tmp_path):
        cfg = config_from_dict(base_doc())
        run_comparison(cfg, out_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        data = (tmp_path / "comparison.csv").read_bytes()
        assert manifest["outputs"]["comparison.csv"] == \
            "sha256:" + hashlib.sha256(data).hexdigest()
        assert manifest["seed"] == 20240611
        assert manifest["config"]["market"]["r"] == 0.05
        # one KT case per pre-default path-step and strategy
        cases = manifest["solver_health"]["kt_cases"]
        assert tuple(cases) == CASE_NAMES
        bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
        pre_default = (state_bits(bundle)[:, :-1] == 0).all(axis=2).sum()
        assert sum(cases.values()) == 2 * pre_default
        # the active side solves every pre-default path-step but those of
        # step 0, where all paths sit at s0 and pose one problem; the
        # passive side solves its constant pair once per step
        newton = manifest["solver_health"]["kt_newton_iters"]
        assert newton["rows"] == pre_default - cfg.paths.n_paths + 1 + cfg.paths.n_steps
        assert 0 < newton["max"] <= newton["total"]


# solver health of two log runs at 400 paths and 40 steps: nonzero KT cases
# and the Newton counts, which move when a row's exit or count does
PINNED_HEALTH = {
    "benchmark-inferred": ({"interior": 29110}, {"rows": 14196, "total": 41714, "max": 6}),
    "crisis-reciprocal": ({"interior": 6946, "S-low/P-low": 6946},
                          {"rows": 6587, "total": 9, "max": 6}),
}


@pytest.mark.parametrize("name", sorted(PINNED_HEALTH))
def test_log_solver_health_is_pinned(name):
    doc = builtin_config(name).raw
    doc["paths"]["n_steps"] = 40
    cfg = config_from_dict(doc, n_paths=400)
    cases, newton = PINNED_HEALTH[name]
    health = KINDS[cfg.kind].runner(cfg).health
    assert health["kt_cases"] == {case: cases.get(case, 0) for case in CASE_NAMES}
    assert health["kt_newton_iters"] == newton


class TestCLI:
    def test_experiment_subcommands_come_from_the_kind_table(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        other = ["simulate", "solve-log", "solve-power", "list-configs"]
        assert [name for name in sub.choices if name not in other] == list(KINDS)
        helps = {action.dest: action.help for action in sub._choices_actions}
        for name, kind in KINDS.items():
            assert helps[name] == kind.runner.__doc__.splitlines()[0]

    @pytest.mark.parametrize("command, config", [
        (command, config)
        for command in ("compare", "sweep", "crisis", "power-compare")
        for kind, config in (("compare", "benchmark-inferred"), ("sweep", "sweep-market"),
                             ("crisis", "crisis-reciprocal"),
                             ("power-compare", "power-benchmark"))
        if kind != command
    ])
    def test_subcommand_runs_only_its_own_kind(self, capsys, command, config):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--builtin", config])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        kind = builtin_config(config).kind
        assert out == ""
        assert err == (f"contagionopt {command}: error: config {config!r} is a "
                       f"{kind!r} experiment, not {command!r}\n")

    def test_simulate_prints_one_line(self, capsys):
        cli_main(["simulate", "--builtin", "benchmark-inferred", "--paths", "200"])
        cfg = builtin_config("benchmark-inferred", n_paths=200)
        bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
        assert capsys.readouterr().out == (
            f"simulated 200 paths, default fraction {bundle.default_mask().mean():.4f}\n")

    @pytest.mark.parametrize("command", ["simulate", "solve-log"])
    def test_out_only_where_the_command_writes(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--builtin", "benchmark-inferred", "--out", str(tmp_path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --out" in err
        assert list(tmp_path.iterdir()) == []

    def test_solve_power_prints_and_saves_its_grid(self, tmp_path, capsys):
        doc = power_doc(n_paths=50)
        config = tmp_path / "power.json"
        config.write_text(json.dumps(doc))
        cli_main(["solve-power", "--config", str(config), "--out", str(tmp_path)])
        cfg = config_from_dict(doc)
        vg = solve_power_value(cfg.grid, cfg.market, cfg.intensity, cfg.gamma, cfg.box)
        target = tmp_path / "value_grid.npz"
        i, j = (int(x / cfg.grid.delta) for x in cfg.s0)  # s0 sits on a node
        assert capsys.readouterr().out == (
            f"value factor at t=0, (s={cfg.s0[0]:g}, p={cfg.s0[1]:g}): {vg.f[0][i, j]:.8f}\n"
            f"argmax control there: {np.array2string(vg.controls[0][i, j], precision=6)}\n"
            f"wrote {target}\n")
        back = ValueGrid.load(str(target))
        assert back.grid == vg.grid and back.gamma == vg.gamma
        assert np.array_equal(back.f, vg.f) and np.array_equal(back.controls, vg.controls)

    def test_list_configs_prints_the_shipped_names(self, capsys):
        cli_main(["list-configs"])
        assert capsys.readouterr().out.splitlines() == [
            "benchmark-inferred", "crisis-reciprocal", "paramset1", "paramset2",
            "power-benchmark", "sweep-intensity", "sweep-market"]

    def test_compare_prints_the_hashed_table_and_the_defaults(self, tmp_path, capsys):
        cli_main(["compare", "--builtin", "benchmark-inferred", "--paths", "200",
                  "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        data = (tmp_path / "comparison.csv").read_bytes()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert out.encode() == data and out.startswith(CSV_HEADER + "\n")
        assert manifest["outputs"] == {
            "comparison.csv": "sha256:" + hashlib.sha256(data).hexdigest()}
        cfg = builtin_config("benchmark-inferred", n_paths=200)
        bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
        assert err == f"# defaults: {int(bundle.default_mask().sum())} / 200\n"

    def test_config_error_is_one_line(self, capsys):
        # the power config's box breaks the log solver's post-default floor
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve-log", "--builtin", "power-benchmark"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("contagionopt solve-log: error: ")
        assert "post-default floor" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, needles", [
        (["solve-power", "--builtin", "benchmark-inferred"], ["grid and power-utility"]),
        (["compare", "--config", "{no_box}"], ["missing", "'box'"]),
        (["crisis", "--config", "{cap}"], ["'reciprocal'", "cap"]),
        (["power-compare", "--builtin", "power-benchmark", "--grid", "{missing}"],
         ["No such file", "missing.npz"]),
        (["power-compare", "--builtin", "benchmark-inferred", "--grid", "{missing}"],
         ["is a 'compare' experiment, not 'power-compare'"]),
        (["power-compare", "--config", "{flat}"],
         ["stock S has volatility 0; the control solvers need sigma > 0"]),
        (["power-compare", "--config", "{float_steps}", "--paths", "20"],
         ["paths.n_steps must be an integer, not 25.0"]),
        (["power-compare", "--config", "{refine}", "--paths", "20"],
         ["grid: unknown keys ['refine'], missing keys []"]),
        (["sweep", "--config", "{int_label}", "--paths", "20"],
         ["sweep entry 0.label must be a string, not 5"]),
    ], ids=["solve-power-without-grid", "missing-key", "leftover-cap", "missing-grid",
            "kind-checked-before-grid", "zero-volatility", "float-steps", "refine", "int-label"])
    def test_bad_config_is_one_line(self, tmp_path, capsys, argv, needles):
        no_box = base_doc()
        del no_box["box"]
        flat = power_doc()
        flat["market"]["sigma"] = [0.0, 0.4]
        float_steps = power_doc()
        float_steps["paths"]["n_steps"] = 25.0
        refine = power_doc()
        refine["grid"]["refine"] = True
        # a label that no table row could hold
        int_label = base_doc(experiment={"kind": "sweep", "entries": [{"label": 5, "set": {}}]})
        docs = {"no_box": no_box, "flat": flat, "float_steps": float_steps, "refine": refine,
                "int_label": int_label,
                "cap": base_doc(intensity={"family": "reciprocal", "c": 20.0, "cap": 2000.0})}
        paths = {"missing": tmp_path / "missing.npz"}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        argv = [a.format(**paths) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"contagionopt {argv[0]}: error: ") and err.count("\n") == 1
        for needle in needles:
            assert needle in err

    def test_solve_log_output(self, capsys):
        cli_main(["solve-log", "--builtin", "benchmark-inferred"])
        assert capsys.readouterr().out == (
            "pre-default control at (s=100, p=100):\n"
            "  pi = (-0.41556246, -0.05505623)  [interior]\n"
            "  multipliers = [0. 0. 0. 0.]\n"
            "  stationarity residual = 2.78e-17\n"
            "single-survivor control (only P alive, price 100): -0.15083452\n"
            "single-survivor control (only S alive, price 100): -0.50155185\n")

    @pytest.mark.parametrize("flag, price", [("--s", "0"), ("--p", "-5"), ("--s", "nan"),
                                             ("--p", "inf")])
    def test_bad_price_is_one_line(self, capsys, flag, price):
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve-log", "--builtin", "benchmark-inferred", flag, price])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"contagionopt solve-log: error: price {flag[2:]} = {price} "
                       "is not finite and positive\n")

    @pytest.mark.parametrize("case, needle", [
        ("unknown-meta-key", "meta: unknown keys ['foo'], missing keys []"),
        ("meta-refine", "meta: unknown keys ['refine'], missing keys []"),
        ("no-meta", "missing arrays ['meta']"),
        ("controls-3x3", "controls has shape (200, 3, 3, 2), its grid implies (200, 17, 17, 2)"),
        ("npy", "not an npz archive"),
        ("meta-gamma-1.5", "meta gamma must lie strictly inside (0, 1), not 1.5"),
        ("f-one-node-200", "f has shape (200, 1, 1), its grid implies (201, 17, 17)"),
        ("full-per-node", None),
    ], ids=["unknown-meta-key", "meta-refine", "no-meta", "controls-3x3", "npy", "meta-gamma-1.5",
            "f-one-node-200", "full-per-node"])
    def test_malformed_value_grid_is_one_line(self, tmp_path, capsys, case, needle):
        doc = power_doc(n_paths=50)
        cfg = config_from_dict(doc)
        grid = cfg.grid
        nodes = (grid.s_nodes().size, grid.p_nodes().size)
        meta = dict(asdict(grid), gamma=cfg.gamma)
        arrays = {"f": np.ones((grid.n_slices + 1, *nodes)),
                  "controls": np.zeros((grid.n_slices, *nodes, 2))}
        if case == "unknown-meta-key":
            meta["foo"] = 1
        if case == "meta-refine":
            # a grid saved while the DP search had a switch
            meta["refine"] = True
        if case == "meta-gamma-1.5":
            meta["gamma"] = 1.5
        if case == "controls-3x3":
            arrays["controls"] = np.zeros((grid.n_slices, 3, 3, 2))
        if case == "f-one-node-200":
            arrays["f"] = np.ones((grid.n_slices, 1, 1))
        if case == "full-per-node":
            # a flat grid, every node equal in every slice, in the full
            # per-node format
            arrays["f"] *= np.linspace(2.0, 1.0, grid.n_slices + 1)[:, None, None]
            arrays["controls"] += 0.25
        if case != "no-meta":
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        target = tmp_path / "grid.npz"
        if case == "npy":
            with open(target, "wb") as fh:
                np.save(fh, arrays["f"])
        else:
            np.savez(target, **arrays)
        if needle is None:
            # the full per-node format still loads, as it was written
            back = ValueGrid.load(str(target))
            assert np.array_equal(back.f, arrays["f"])
            assert np.array_equal(back.controls, arrays["controls"])
            return
        config = tmp_path / "power.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli_main(["power-compare", "--config", str(config), "--grid", str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"contagionopt power-compare: error: value grid {target}: {needle}\n"

    @pytest.mark.parametrize("flag, side", [("--grid", "active"), ("--grid-const", "passive")])
    @pytest.mark.parametrize("case, needle", [
        ("above-box", "strategy violates the post-default floor at step 0: path 0, column 0"),
        ("below-box", "strategy left the admissible box at step 0"),
        ("nan-at-a-corner", "strategy returned non-finite allocation at step 199"),
    ], ids=["above-box", "below-box", "nan-at-a-corner"])
    def test_inadmissible_value_grid_is_one_line(self, tmp_path, capsys, monkeypatch, flag,
                                                 side, case, needle):
        # a grid fails before any path is simulated, with one NaN node as well
        doc = power_doc(n_paths=50)
        cfg = config_from_dict(doc)
        grid = cfg.grid
        nodes = (grid.s_nodes().size, grid.p_nodes().size)
        controls = np.zeros((grid.n_slices, *nodes, 2))
        if case == "above-box":
            controls += cfg.box.upper + 5.0
        if case == "below-box":
            controls[..., 0] = cfg.box.lower[0] - 0.5
        if case == "nan-at-a-corner":
            controls[-1, -1, -1] = np.nan
        target = tmp_path / "grid.npz"
        ValueGrid(grid=grid, gamma=cfg.gamma, f=np.ones((grid.n_slices + 1, *nodes)),
                  controls=controls).save(str(target))
        config = tmp_path / "power.json"
        config.write_text(json.dumps(doc))
        simulated = []
        monkeypatch.setattr(experiments, "simulate_paths", lambda *args: simulated.append(args))
        with pytest.raises(SystemExit) as exc:
            cli_main(["power-compare", "--config", str(config), flag, str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and simulated == []
        assert err.startswith(f"contagionopt power-compare: error: {side} value grid "
                              "(slices as steps, nodes as paths): strategy ")
        assert err.count("\n") == 1 and needle in err
