import importlib.util
import json
import mmap
import subprocess
import sys
from pathlib import Path

import pytest

from contagionopt.experiments import builtin_config_names

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


line_count = _tool("line_count")
table_digests = _tool("table_digests")

# the sha256 of each shipped config's to_csv() at table_digests' sizes
TABLE_PINS = {
    "benchmark-inferred": "5ce97063762408df87d27e8154a524103c49bced0e62c8484591095fa62667f6",
    "crisis-reciprocal": "4fe9b2ad1c103517ec7fab24c90ece1f342c63d8e4d40c2bf4749a69286a59be",
    "paramset1": "d65515b3da14ba6d269e9ba2a7140b6dd1783e85d5166e1ca6bdd35b7e3c544c",
    "paramset2": "32b2f3ec023c44f4bd5d56bbc3711543801ca36e1d7a4a255ba18ab84a66bbe2",
    "power-benchmark": "750cd293f112e9d092bea5e97df36ca3e048786b7d329a0c7c139b88db7be993",
    "sweep-intensity": "94f047522dd9b544ea9136ea8a2a22faf405a2bf6224049d8b2f4a9117fe8413",
    "sweep-market": "05152c7dd4e6757fd47d560c3079a491b02c3f234d55e8524276a77a60ea447c",
}


@pytest.mark.parametrize("name", sorted(TABLE_PINS))
def test_every_shipped_table_is_pinned(name):
    """Each shipped config's output table at 400 paths and 40 steps (horizon
    0.02 and 10 steps for ``power-compare``) keeps its text, byte for byte.
    Only the CSV text is pinned: it prints 6 significant figures, so the
    last bits of ``f`` and of the wealth, which can follow the BLAS kernel,
    do not move it."""
    assert sorted(TABLE_PINS) == builtin_config_names()
    assert table_digests.digest(name)["sha256"] == TABLE_PINS[name]


def test_line_count_puts_each_line_in_one_category():
    text = (
        '"""A module docstring\n'      # 1 docstring
        'over two lines."""\n'         # 2 docstring
        "\n"                           # 3 blank
        "# a comment on its own\n"     # 4 comment
        "x = 1  # a trailing comment\n"  # 5 code
        "\n"                           # 6 blank
        "\n"                           # 7 blank
        "def f():\n"                   # 8 code
        '    """A docstring."""\n'     # 9 docstring
        '    return "a string"\n'      # 10 code
    )
    assert line_count.count(text) == {"code": 3, "comment": 1, "docstring": 3, "blank": 3,
                                      "lines": 10}


def test_kt_replay_of_a_checkout_against_itself():
    got = _tool("kt_replay").replay(ROOT, "benchmark-inferred", n_paths=40, n_steps=3,
                                    rounds=3)
    assert got["identical"] is True
    # step 0 poses one problem; steps 1 and 2 solve the paths not yet defaulted
    assert got["batches"] == 3 and 1 < got["rows"] <= 1 + 2 * 40
    assert got["rounds"] == 3 and 0 <= got["wins"] <= 3
    assert got["this_s"] > 0.0 and got["other_s"] > 0.0


def test_dp_replay_of_a_checkout_against_itself(monkeypatch):
    # dp_replay imports kt_replay from its own directory, as a script does
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    # n_control 3: 81 quarter-lattice points, indexed in uint8
    got = _tool("dp_replay").replay(ROOT, horizon=0.004, rounds=3, n_control=3,
                                    s_max=20.0, p_max=20.0)
    assert got["slices"] == 2
    # the active grid's fields, and the same fields for the comparator's
    for race in (got, got["comparator"]):
        assert race["f_identical"] is True and race["controls_identical"] is True
        assert race["rounds"] == 3 and 0 <= race["wins"] <= 3
        assert race["this_s"] > 0.0 and race["other_s"] > 0.0


def test_shipped_run_reads_the_peak_rss_of_its_child():
    # a fresh interpreter has waited for no other child; its one child maps
    # a 64 MB block in base pages, so that each page faults once whatever
    # the huge-page policy, and writes a byte on every page of it
    child = ("import mmap; m = mmap.mmap(-1, 64 << 20); m.madvise(mmap.MADV_NOHUGEPAGE); "
             "m[::mmap.PAGESIZE] = bytes(len(range(0, 64 << 20, mmap.PAGESIZE)))")
    parent = ("import json, subprocess, sys; sys.path.insert(0, sys.argv[1]); "
              "import shipped_run; subprocess.run([sys.executable, '-c', sys.argv[2]], "
              "check=True); print(json.dumps(shipped_run.child_usage()))")
    out = subprocess.run([sys.executable, "-c", parent, str(ROOT / "tools"), child],
                         check=True, capture_output=True, text=True).stdout
    usage = json.loads(out)
    assert sorted(usage) == ["minor_faults", "peak_rss_mb"]
    # the block plus the child interpreter's own few megabytes
    assert 64.0 <= usage["peak_rss_mb"] < 64.0 + 32.0
    # one fault per page of the block, plus the interpreter's own, fewer
    pages = (64 << 20) // mmap.PAGESIZE
    assert pages <= usage["minor_faults"] < 2 * pages
