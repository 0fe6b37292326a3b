"""Time this checkout's power DP against another checkout's on both grids.

    python3 tools/dp_replay.py OTHER_CHECKOUT
    {"config": "power-benchmark", "horizon": 0.1, "slices": 50, "rounds": 15,
     "this_s": 0.171, "other_s": 0.18, "ratio": 0.95, "wins": 12,
     "f_identical": true, "controls_identical": true,
     "comparator": {"rounds": 15, "this_s": 0.031, "other_s": 0.014, "ratio": 2.2,
                    "wins": 0, "f_identical": true, "controls_identical": true}}

The script solves the value grids of the shipped ``power-benchmark`` config
at horizon 0.1, the horizon of the perfbench power workloads, with this
checkout's ``solve_power_value`` and with that of
``OTHER_CHECKOUT/src/contagionopt/powergrid.py``, loaded beside this
checkout's ``powergrid`` as ``tools/kt_replay.py`` loads ``logopt``.  The
top-level fields are the active grid's (the config's own, price-dependent
intensity); ``comparator`` holds the same fields for the passive grid
(``ConstantIntensity`` at the config's ``hbar``).  Each round solves a grid
once with each solver, one after the other, the first alternating by round.
``this_s`` and ``other_s`` are the medians of the solve times, ``ratio`` is
``this_s / other_s``, ``wins`` counts the rounds this checkout took less
time, and ``f_identical`` and ``controls_identical`` say whether the two
solvers' ``f`` and ``controls`` are equal, bit for bit.  Both solvers run
in one process on one BLAS thread, so machine noise shared by a round falls
on both.
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
from contagionopt.model import ConstantIntensity

CONFIG, HORIZON, ROUNDS = "power-benchmark", 0.1, 15


def problem(horizon: float = HORIZON, **grid):
    """The arguments of ``solve_power_value`` for the active grid of CONFIG at
    ``horizon``, and the config's comparator hazard ``hbar``; ``grid``
    replaces values of the config's ``grid`` section."""
    doc = copy.deepcopy(builtin_config(CONFIG).raw)
    doc["paths"]["horizon"] = horizon
    doc["grid"].update(grid)
    cfg = config_from_dict(doc)
    return (cfg.grid, cfg.market, cfg.intensity, cfg.gamma, cfg.box), cfg.hbar


def race(solvers, args, rounds: int) -> dict:
    """The timing fields of ``solvers`` on ``args``, alternated over
    ``rounds``, and whether their grids are equal, bit for bit."""
    grids, timing = alternate([partial(solve, *args) for solve in solvers], rounds)
    return {**timing, "f_identical": bool(np.array_equal(grids[0].f, grids[1].f)),
            "controls_identical": bool(np.array_equal(grids[0].controls, grids[1].controls))}


def replay(other_checkout, horizon: float = HORIZON, rounds: int = ROUNDS, **grid) -> dict:
    """Solve both grids of CONFIG with this checkout's DP and
    ``other_checkout``'s; see the module docstring."""
    args, hbar = problem(horizon, **grid)
    solvers = (powergrid.solve_power_value,
               load_other(other_checkout, "powergrid").solve_power_value)
    comparator = (*args[:2], ConstantIntensity(hbar), *args[3:])
    return {"config": CONFIG, "horizon": horizon, "slices": args[0].n_slices,
            **race(solvers, args, rounds), "comparator": race(solvers, comparator, rounds)}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python3 tools/dp_replay.py OTHER_CHECKOUT")
    print(json.dumps(replay(args[0])))


if __name__ == "__main__":
    main()
