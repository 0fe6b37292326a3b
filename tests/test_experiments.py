import json
from dataclasses import replace

import numpy as np
import pytest

from contagionopt.dynamics import simulate_paths
from contagionopt.experiments import (
    SweepEntry,
    _apply_param_overrides,
    builtin_config,
    builtin_config_names,
    config_from_dict,
    run_comparison,
    run_crisis,
    run_experiment,
    run_power_comparison,
    run_sweep,
)
from contagionopt.cli import main as cli_main
from contagionopt.logopt import CASE_NAMES
from contagionopt.model import ConstantIntensity, PowerClampIntensity, ReciprocalIntensity
from contagionopt.powergrid import ValueGrid, validate_cfl


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
        with pytest.raises(ValueError, match="nonsense"):
            SweepEntry(label="x", set={"nonsense": 1.0})
        doc = base_doc()
        doc["experiment"] = {"kind": "sweep", "sweep_mode": "bogus", "entries": []}
        with pytest.raises(ValueError, match="sweep mode: 'bogus'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, key", [
        ("box", "eps"), ("paths", "seed"), ("grid", "n_contol"), ("grid", "horizon"),
        ("experiment", "hbr"), ("entry", "mode"),
    ])
    def test_unknown_section_key_rejected(self, section, key):
        doc = base_doc(grid={"delta": 1.0, "dt": 0.01, "s_max": 10.0, "p_max": 10.0})
        doc["experiment"] = {"kind": "sweep", "entries": [{"label": "x", "set": {}}]}
        target = doc["experiment"]["entries"][0] if section == "entry" else doc[section]
        target[key] = 1
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            config_from_dict(doc)

    def test_section_defaults_come_from_the_dataclasses(self):
        doc = base_doc(grid={"delta": 1.0, "dt": 0.01, "s_max": 10.0, "p_max": 10.0})
        del doc["box"]["eps_a"]
        doc["experiment"] = {"kind": "sweep"}
        cfg = config_from_dict(doc)
        assert cfg.box.eps_a == 0.01
        assert (cfg.grid.n_control, cfg.grid.refine, cfg.grid.horizon) == (41, True, 1.0)
        assert (cfg.x0, cfg.hbar, cfg.sweep_mode, cfg.entries) == \
            (100.0, None, "misspecified-investor", ())

    def test_utility_must_match_the_kind(self):
        doc = base_doc(utility={"kind": "power", "gamma": 0.5})
        with pytest.raises(ValueError, match="'compare' experiment takes the 'log' utility, "
                                             "not 'power'"):
            config_from_dict(doc)

    def test_overrides_apply_per_intensity_family(self):
        market = config_from_dict(base_doc()).market
        power = PowerClampIntensity(h0=10.0, weights=(0.7, 0.3), alpha=1.0,
                                    h_min=0.05, h_max=1.0)
        new_market, new = _apply_param_overrides(market, power, {"k1": 0.5, "r": 0.02})
        assert new == replace(power, weights=(0.5, 0.3))  # k2 kept
        assert new_market.r == 0.02 and np.array_equal(new_market.L, market.L)
        _, new = _apply_param_overrides(market, ReciprocalIntensity(c=20.0), {"c": 30.0})
        assert new == ReciprocalIntensity(c=30.0)
        _, new = _apply_param_overrides(market, ConstantIntensity(0.1), {"c": 0.2})
        assert np.array_equal(new.c, [0.2])
        for intensity, overrides in ((ReciprocalIntensity(c=20.0), {"h0": 5.0}),
                                     (ConstantIntensity(0.1), {"k1": 0.5})):
            with pytest.raises(ValueError, match="do not apply"):
                _apply_param_overrides(market, intensity, overrides)

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
            cfg = self.sweep_doc([{"label": "noop", "set": {"h0": 10.0}}], mode=mode,
                                 n_paths=400)
            result = run_sweep(cfg)
            label, stats, pct = result.entries[0]
            assert stats == result.benchmark
            assert all(v == "(0.00%)" for v in pct.values())

    def test_h0_misestimation_moves_std_in_opposite_directions(self):
        cfg = self.sweep_doc([{"label": "h0=5", "set": {"h0": 5.0}},
                              {"label": "h0=15", "set": {"h0": 15.0}}])
        result = run_sweep(cfg)
        (_, lo, _), (_, hi, _) = result.entries
        assert lo.std < result.benchmark.std
        assert hi.std > result.benchmark.std

    def test_balanced_weights_barely_move_the_mean(self):
        cfg = self.sweep_doc([{"label": "k1=0.5,k2=0.5",
                               "set": {"k1": 0.5, "k2": 0.5}}], n_paths=2000)
        result = run_sweep(cfg)
        _, stats, _ = result.entries[0]
        assert abs(stats.mean / result.benchmark.mean - 1.0) < 0.01

    def test_perturbed_world_changes_the_bundle(self):
        cfg = self.sweep_doc([{"label": "sigma_s=0.36", "set": {"sigma_s": 0.36}}],
                             mode="perturbed-world", n_paths=500)
        result = run_sweep(cfg)
        _, stats, _ = result.entries[0]
        assert stats != result.benchmark


class TestRunCrisis:
    def test_requires_reciprocal_family(self):
        doc = base_doc()
        doc["experiment"]["kind"] = "crisis"
        with pytest.raises(ValueError, match="reciprocal"):
            config_from_dict(doc)

    def test_no_motion_world_with_matching_hazard(self):
        # frozen prices keep the reciprocal hazard pinned at the comparator
        # value, so both strategies coincide on every path that stays
        # pre-default (a default moves prices and lets them diverge)
        doc = base_doc(intensity={"family": "reciprocal", "c": 20.0})
        doc["market"]["mu"] = [0.0, 0.0]
        doc["market"]["sigma"] = [0.0, 0.0]
        doc["experiment"]["kind"] = "crisis"
        result = run_crisis(config_from_dict(doc))
        assert result.active.no_default == result.passive.no_default
        cfg = builtin_config("crisis-reciprocal", n_paths=1200)
        assert isinstance(cfg.intensity, ReciprocalIntensity)
        result = run_crisis(cfg)
        assert result.n_default / result.n_paths > 0.7
        assert result.active.default.mean > result.passive.default.mean
        assert result.active.no_default.mean < result.passive.no_default.mean


class TestRunPowerComparison:
    def power_doc(self, intensity=None, n_paths=600):
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
        return config_from_dict(doc)

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
        import hashlib
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
        pre_default = (bundle.states[:, :-1] == 0).all(axis=2).sum()
        assert sum(cases.values()) == 2 * pre_default

    def test_run_experiment_dispatch(self):
        result = run_experiment(config_from_dict(base_doc()))
        assert result.n_paths == 800


class TestCLI:
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
    ], ids=["solve-power-without-grid", "missing-key", "leftover-cap"])
    def test_bad_config_is_one_line(self, tmp_path, capsys, argv, needles):
        no_box = base_doc()
        del no_box["box"]
        docs = {"no_box": no_box,
                "cap": base_doc(intensity={"family": "reciprocal", "c": 20.0, "cap": 2000.0})}
        paths = {}
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
