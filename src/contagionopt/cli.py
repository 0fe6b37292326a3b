"""Command-line entry points for the experiment harness.

Every subcommand takes a JSON experiment config (``--config PATH`` or a
shipped ``--builtin NAME``); ``--seed`` and ``--paths`` override the
document, and a subcommand that writes (``solve-power`` and the experiment
subcommands) takes ``--out``, the output directory.  The experiment
subcommands come from :data:`~contagionopt.experiments.KINDS`, one per
kind, named after it, with its runner's first docstring line as help; each
runs only configs of its own kind.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from contagionopt.dynamics import simulate_paths
from contagionopt.experiments import (KINDS, ComparisonResult, builtin_config,
                                      builtin_config_names, load_config)
from contagionopt.logopt import CASE_NAMES, LogControlProblem, LogStrategy, solve_kt_batch
from contagionopt.powergrid import ValueGrid, solve_power_value


def _add_common(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to an experiment config (JSON)")
    group.add_argument("--builtin", help="name of a shipped config; see list-configs")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--paths", type=int, help="override the path count")


def _load(args):
    if args.config:
        return load_config(args.config, seed=args.seed, n_paths=args.paths)
    return builtin_config(args.builtin, seed=args.seed, n_paths=args.paths)


def _cmd_simulate(args):
    cfg = _load(args)
    bundle = simulate_paths(cfg.market, cfg.intensity, cfg.paths, cfg.s0)
    frac = bundle.default_mask().mean()
    print(f"simulated {cfg.paths.n_paths} paths, default fraction {frac:.4f}")


def _cmd_solve_log(args):
    cfg = _load(args)
    problem = LogControlProblem(params=cfg.market, intensity=cfg.intensity, box=cfg.box)
    s = args.s if args.s is not None else float(cfg.s0[0])
    p = args.p if args.p is not None else float(cfg.s0[1])
    for name, price in (("s", s), ("p", p)):
        if not (np.isfinite(price) and price > 0.0):
            raise ValueError(f"price {name} = {price:g} is not finite and positive")
    rates = cfg.intensity.rates_matrix(np.zeros((1, 2), dtype=np.uint8), np.array([[s, p]]))
    pi, case_id, mult, res, _ = solve_kt_batch(problem, rates[:, 0], rates[:, 1])
    print(f"pre-default control at (s={s:g}, p={p:g}):")
    print(f"  pi = ({pi[0, 0]:.8f}, {pi[0, 1]:.8f})  [{CASE_NAMES[case_id[0]]}]")
    print(f"  multipliers = {np.array2string(mult[0], precision=6)}")
    print(f"  stationarity residual = {res[0]:.3g}")
    # one row per single-survivor state: only P alive, then only S alive
    alone = LogStrategy(problem).allocations(0.0, np.ones(2), np.array([[0.0, p], [s, 0.0]]),
                                             np.array([[1, 0], [0, 1]], dtype=np.uint8))
    for ctrl, price, name in ((alone[0, 1], p, "only P alive"), (alone[1, 0], s, "only S alive")):
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
        os.makedirs(args.out, exist_ok=True)
        target = os.path.join(args.out, "value_grid.npz")
        vg.save(target)
        print(f"wrote {target}")


def _cmd_run(args):
    """Run an experiment subcommand: its name is the kind of its runner."""
    cfg = _load(args)
    grids = {}
    # a config of another kind fails the runner's kind check before any grid is read
    if hasattr(args, "grid") and cfg.kind == args.command:
        grids = {"value_grid": ValueGrid.load(args.grid) if args.grid else None,
                 "value_grid_const": ValueGrid.load(args.grid_const) if args.grid_const else None}
    result = KINDS[args.command].runner(cfg, out_dir=args.out, **grids)
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
    p.add_argument("--out", help="output directory for the value grid")
    p.set_defaults(func=_cmd_solve_power)

    for name, kind in KINDS.items():
        p = sub.add_parser(name, help=kind.runner.__doc__.splitlines()[0])
        _add_common(p)
        p.add_argument("--out", help="output directory for the CSV table and the manifest")
        p.set_defaults(func=_cmd_run)
        if "grid" in kind.keys:
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
    except (ValueError, OSError) as exc:  # bad input or file, CFLViolationError included
        parser.exit(2, f"contagionopt {args.command}: error: {exc}\n")


if __name__ == "__main__":
    main()
