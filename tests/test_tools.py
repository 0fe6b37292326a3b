import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


line_count = _tool("line_count")


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


def test_shipped_run_reads_the_peak_rss_of_its_child():
    # a fresh interpreter has waited for no other child; its one child
    # allocates a 64 MB block and writes a byte on every page of it
    child = "b = bytearray(64 << 20); b[::4096] = bytes(len(range(0, 64 << 20, 4096)))"
    parent = ("import subprocess, sys; sys.path.insert(0, sys.argv[1]); import shipped_run; "
              "subprocess.run([sys.executable, '-c', sys.argv[2]], check=True); "
              "print(shipped_run.child_peak_rss_mb())")
    out = subprocess.run([sys.executable, "-c", parent, str(ROOT / "tools"), child],
                         check=True, capture_output=True, text=True).stdout
    # the block plus the child interpreter's own few megabytes
    assert 64.0 <= float(out) < 64.0 + 32.0
