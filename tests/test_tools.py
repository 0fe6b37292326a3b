import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "line_count", Path(__file__).resolve().parents[1] / "tools" / "line_count.py")
line_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_count)


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
