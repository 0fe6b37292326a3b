"""Digest every shipped config's output table at a reduced size.

Prints one JSON object keyed by config name, one config a line: the
sha256 of the run's ``to_csv()`` text, the ``rng_digest`` of the path
bundle it simulated, the whole ``solver_health`` of its manifest (for
the log-utility runs the Kuhn-Tucker case counts and Newton iterations,
for ``power-compare`` the CFL margin and out-of-domain fraction), and for
the ``power-compare`` runs the sha256 of the bytes of ``f`` and ``controls``
of the two value grids the runner solves (``value_grid``: the config's
intensity; ``value_grid_const``: the constant comparator), and the
sha256 of the terminal wealth vector of every strategy a run evolves
(``wealth``, in call order and, within a call, in strategy order).  The
tables print 6 significant figures, so only the wealth digests show a
last-bit change in wealth.  The grid and wealth digests are taken by
wrapping the ``solve_power_value`` and ``evolve_wealth`` names that
``experiments`` binds, so they are of what the runner itself computes.
Every config runs at
400 paths and 40 steps; ``power-compare`` configs run at horizon
0.02 with 10 steps, so their two value grids stay small.

The tables of a change are unchanged when two checkouts print the same
object, and so, bit for bit, are the simulated random numbers and the
power DP's value grids; equal Newton counts show that the KT solver took
the same iterations.  The
package is imported from ``PYTHONPATH``, so point it at the checkout to
digest:

    PYTHONPATH=src python3 tools/table_digests.py
"""

from __future__ import annotations

import copy
import hashlib
import json

from contagionopt import experiments
from contagionopt.experiments import KINDS, builtin_config, builtin_config_names, config_from_dict

N_PATHS, N_STEPS = 400, 40
POWER_HORIZON, POWER_STEPS = 0.02, 10


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _recording_evolve(evolve, wealth: list):
    def wrapper(*args, **kwargs):
        out = evolve(*args, **kwargs)
        wealth.extend(_sha256(x.tobytes()) for x in out)
        return out
    return wrapper


def _recording_solve(solve, grids: list):
    def wrapper(*args, **kwargs):
        vg = solve(*args, **kwargs)
        grids.append({"f": _sha256(vg.f.tobytes()), "controls": _sha256(vg.controls.tobytes())})
        return vg
    return wrapper


def digest(name: str) -> dict:
    doc = copy.deepcopy(builtin_config(name).raw)
    if doc["experiment"]["kind"] == "power-compare":
        doc["paths"].update(horizon=POWER_HORIZON, n_steps=POWER_STEPS)
    else:
        doc["paths"]["n_steps"] = N_STEPS
    cfg = config_from_dict(doc, n_paths=N_PATHS)
    wealth, grids = [], []
    evolve, solve = experiments.evolve_wealth, experiments.solve_power_value
    experiments.evolve_wealth = _recording_evolve(evolve, wealth)
    experiments.solve_power_value = _recording_solve(solve, grids)
    try:
        result = KINDS[cfg.kind].runner(cfg)
    finally:
        experiments.evolve_wealth, experiments.solve_power_value = evolve, solve
    out = {"sha256": _sha256(result.to_csv().encode()), "rng_digest": result.rng_digest,
           "solver_health": result.health, "wealth": wealth}
    if grids:  # the runner solves the active grid, then the comparator's
        out.update(zip(("value_grid", "value_grid_const"), grids, strict=True))
    return out


def main():
    lines = [f"{json.dumps(name)}: {json.dumps(digest(name))}" for name in builtin_config_names()]
    print("{\n" + ",\n".join(lines) + "\n}")


if __name__ == "__main__":
    main()
