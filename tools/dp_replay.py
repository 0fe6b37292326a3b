"""Time this checkout's power DP against another checkout's on one grid.

    python3 tools/dp_replay.py OTHER_CHECKOUT
    {"config": "power-benchmark", "horizon": 0.1, "slices": 50, "rounds": 15,
     "this_s": 0.171, "other_s": 0.18, "ratio": 0.95, "wins": 12,
     "f_identical": true, "controls_identical": true}

The script solves the active value grid of the shipped ``power-benchmark``
config (its own, price-dependent intensity) at horizon 0.1, the horizon of
the perfbench power workloads, with this checkout's ``solve_power_value``
and with that of ``OTHER_CHECKOUT/src/contagionopt/powergrid.py``, loaded
beside this checkout's ``powergrid`` as ``tools/kt_replay.py`` loads
``logopt``.  Each round solves the grid once with each solver, one after
the other, the first alternating by round.  ``this_s`` and ``other_s`` are
the medians of the solve times, ``ratio`` is ``this_s / other_s``, ``wins``
counts the rounds this checkout took less time, and ``f_identical`` and
``controls_identical`` say whether the two solvers' ``f`` and ``controls``
are equal, bit for bit.  Both solvers run in one process on one BLAS
thread, so machine noise shared by a round falls on both.
"""

from __future__ import annotations

import copy
import json
import sys
from functools import partial

# importing kt_replay sets one BLAS thread in os.environ and puts this
# checkout's src on the path
from kt_replay import alternate, load_other

import numpy as np

from contagionopt import powergrid
from contagionopt.experiments import builtin_config, config_from_dict

CONFIG, HORIZON, ROUNDS = "power-benchmark", 0.1, 15


def problem(horizon: float = HORIZON, **grid):
    """The arguments of ``solve_power_value`` for the active grid of CONFIG at
    ``horizon``; ``grid`` replaces values of the config's ``grid`` section."""
    doc = copy.deepcopy(builtin_config(CONFIG).raw)
    doc["paths"]["horizon"] = horizon
    doc["grid"].update(grid)
    cfg = config_from_dict(doc)
    return cfg.grid, cfg.market, cfg.intensity, cfg.gamma, cfg.box


def replay(other_checkout, horizon: float = HORIZON, rounds: int = ROUNDS, **grid) -> dict:
    """Solve the active grid of CONFIG with this checkout's DP and
    ``other_checkout``'s; see the module docstring."""
    args = problem(horizon, **grid)
    solvers = (powergrid.solve_power_value,
               load_other(other_checkout, "powergrid").solve_power_value)
    grids, timing = alternate([partial(solve, *args) for solve in solvers], rounds)
    return {"config": CONFIG, "horizon": horizon, "slices": args[0].n_slices, **timing,
            "f_identical": bool(np.array_equal(grids[0].f, grids[1].f)),
            "controls_identical": bool(np.array_equal(grids[0].controls, grids[1].controls))}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python3 tools/dp_replay.py OTHER_CHECKOUT")
    print(json.dumps(replay(args[0])))


if __name__ == "__main__":
    main()
