"""Time one shipped CLI run between two calibration loops.

    python3 tools/shipped_run.py CONFIG
    {"config": "power-benchmark", "calibration_s": [0.061, 0.063], "wall_time_s": 4.1,
     "sha256": "33e9afff...", "solver_health": {...}}

``CONFIG`` names a shipped config (``src/contagionopt/configs/CONFIG.json``).
The script times the calibration loop of ``tools/calibrate.py``, then runs
the config's experiment subcommand through the CLI of this checkout at
10,000 paths, in a fresh interpreter with one BLAS thread, then times the
calibration loop again.  It prints one JSON line: the two calibration times
in run order, the manifest's ``wall_time_s``, the sha256 of the output table
and the manifest's ``solver_health``.  A run time is comparable with another
only when their calibration times are close.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# importing calibrate sets one BLAS thread in os.environ, which the CLI run inherits
from calibrate import calibration_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_PATHS = 10_000


def shipped_run(name: str) -> dict:
    """Run the shipped config ``name`` once through the CLI; return its manifest."""
    kind = json.loads((SRC / "contagionopt" / "configs" / f"{name}.json").read_text())[
        "experiment"]["kind"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, "-m", "contagionopt.cli", kind, "--builtin", name,
                        "--paths", str(N_PATHS), "--out", out],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        return json.loads((Path(out) / "manifest.json").read_text())


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python3 tools/shipped_run.py CONFIG")
    before = calibration_seconds()
    manifest = shipped_run(args[0])
    after = calibration_seconds()
    (digest,) = manifest["outputs"].values()
    print(json.dumps({"config": args[0], "calibration_s": [round(before, 4), round(after, 4)],
                      "wall_time_s": manifest["wall_time_s"],
                      "sha256": digest.removeprefix("sha256:"),
                      "solver_health": manifest["solver_health"]}))


if __name__ == "__main__":
    main()
