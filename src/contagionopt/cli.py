"""Command-line entry points for the experiment harness.

Every subcommand takes a JSON experiment config (``--config PATH`` or a
shipped ``--builtin NAME``); ``--seed`` and ``--paths`` override the
document, and ``--out`` names the output directory.  The experiment
subcommands ``compare``, ``sweep``, ``crisis`` and ``power-compare`` are
named after the experiment kinds, and each runs only configs of its own
kind.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from contagionopt.dynamics import ConstantAllocation, dump_paths_csv, evolve_wealth, simulate_paths
from contagionopt.experiments import (RUNNERS, ComparisonResult, builtin_config,
                                      builtin_config_names, load_config)
from contagionopt.logopt import LogControlProblem, solve_pre_default_control, solve_single_survivor_control
from contagionopt.model import DefaultState
from contagionopt.powergrid import ValueGrid, solve_power_value


def _add_common(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to an experiment config (JSON)")
    group.add_argument("--builtin", help="name of a shipped config; see list-configs")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--paths", type=int, help="override the path count")
    sub.add_argument("--out", help="output directory for CSV tables and the manifest")


def _load(args):
    if args.config:
        return load_config(args.config, seed=args.seed, n_paths=args.paths)
    return builtin_config(args.builtin, seed=args.seed, n_paths=args.paths)


def _cmd_simulate(args):
    cfg = _load(args)
    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    frac = bundle.default_mask().mean()
    print(f"simulated {cfg.paths.n_paths} paths, default fraction {frac:.4f}")
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        # the dumped wealth column is the bank-account reference (pi = 0)
        wealth = evolve_wealth(bundle, ConstantAllocation(np.zeros(cfg.market.n)), cfg.x0)
        target = os.path.join(args.out, "paths.csv.gz")
        dump_paths_csv(bundle, wealth, target)
        print(f"wrote {target}")


def _cmd_solve_log(args):
    cfg = _load(args)
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    s = args.s if args.s is not None else float(cfg.s0[0])
    p = args.p if args.p is not None else float(cfg.s0[1])
    sol = solve_pre_default_control(problem, s, p)
    print(f"pre-default control at (s={s:g}, p={p:g}):")
    print(f"  pi = ({sol.pi[0]:.8f}, {sol.pi[1]:.8f})  [{sol.case}]")
    print(f"  multipliers = {np.array2string(sol.multipliers, precision=6)}")
    print(f"  stationarity residual = {sol.residual:.3g}")
    for state, price, name in ((DefaultState((1, 0)), p, "only P alive"),
                               (DefaultState((0, 1)), s, "only S alive")):
        ctrl = solve_single_survivor_control(problem, price, state)
        print(f"single-survivor control ({name}, price {price:g}): {ctrl:.8f}")


def _cmd_solve_power(args):
    cfg = _load(args)
    if cfg.grid is None or cfg.gamma is None:
        raise ValueError("config must carry grid and power-utility sections")
    vg = solve_power_value(cfg.grid, cfg.market, cfg.intensity, cfg.gamma, cfg.box)
    s_nodes, p_nodes = cfg.grid.s_nodes(), cfg.grid.p_nodes()
    i = int(np.searchsorted(s_nodes, min(cfg.s0[0], cfg.grid.s_max)))
    j = int(np.searchsorted(p_nodes, min(cfg.s0[1], cfg.grid.p_max)))
    print(f"value factor at t=0, (s={s_nodes[i]:g}, p={p_nodes[j]:g}): {vg.f[0][i, j]:.8f}")
    print(f"argmax control there: {np.array2string(vg.controls[0][i, j], precision=6)}")
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        target = os.path.join(args.out, "value_grid.npz")
        vg.save(target)
        print(f"wrote {target}")


def _cmd_run(args):
    """Run an experiment subcommand: its name is the kind of its runner."""
    cfg = _load(args)
    grids = {}
    if args.command == "power-compare":
        grids = {"value_grid": ValueGrid.load(args.grid) if args.grid else None,
                 "value_grid_const": ValueGrid.load(args.grid_const) if args.grid_const else None}
    result = RUNNERS[args.command](cfg, out_dir=args.out, **grids)
    print(result.to_csv(), end="")
    if isinstance(result, ComparisonResult):
        print(f"# defaults: {result.n_default} / {result.n_paths}", file=sys.stderr)


def _cmd_list_configs(args):
    for name in builtin_config_names():
        print(name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagionopt",
        description="Defaultable-stock portfolio optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate the contagion market")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve-log", help="log-utility controls at one price point")
    _add_common(p)
    p.add_argument("--s", type=float, help="price of stock S (default: config s0)")
    p.add_argument("--p", type=float, help="price of stock P (default: config s0)")
    p.set_defaults(func=_cmd_solve_log)

    p = sub.add_parser("solve-power", help="solve the power-utility value grid")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_power)

    for kind, help_text in (("compare", "active vs passive strategies, log utility"),
                            ("sweep", "parameter robustness sweep"),
                            ("crisis", "depressed-initial-price comparison"),
                            ("power-compare", "active vs passive, power utility")):
        p = sub.add_parser(kind, help=help_text)
        _add_common(p)
        p.set_defaults(func=_cmd_run)
        if kind == "power-compare":
            p.add_argument("--grid", help="reuse a saved value grid (npz) for the active side")
            p.add_argument("--grid-const", help="reuse a saved value grid for the passive side")

    p = sub.add_parser("list-configs", help="names of shipped configs")
    p.set_defaults(func=_cmd_list_configs)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # bad config or solver input, CFLViolationError included
        parser.exit(2, f"contagionopt {args.command}: error: {exc}\n")


if __name__ == "__main__":
    main()
