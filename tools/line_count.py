"""Count the lines of each ``src`` module by ``tokenize`` category.

Prints one JSON object on one line: for every module under ``src`` (by
path relative to ``src``) and for their ``total``, the number of
``code``, ``comment``, ``docstring`` and ``blank`` lines, and ``lines``,
their sum.  A line is ``code`` when any token on it is code; otherwise
``docstring`` when it lies in a string that forms a statement by itself;
otherwise ``comment`` when it holds a comment; otherwise ``blank``.  A
code line with a trailing comment counts as code.

    python3 tools/line_count.py [SRC_DIR]
"""

from __future__ import annotations

import io
import json
import sys
import tokenize
from pathlib import Path

CATEGORIES = ("code", "comment", "docstring", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def count(text: str) -> dict:
    """Line counts of one module's source ``text`` by category."""
    kind = {}  # line number -> the first of CATEGORIES seen on it so far
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            cat = "comment"
        elif (tok.type == tokenize.STRING
              and (k == 0 or tokens[k - 1].type in _LAYOUT)
              and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            cat = "docstring"
        else:
            cat = "code"
        for line in range(tok.start[0], tok.end[0] + 1):
            kind[line] = min(kind.get(line, "blank"), cat, key=CATEGORIES.index)
    n = len(text.splitlines())
    out = {cat: sum(1 for line in range(1, n + 1) if kind.get(line, "blank") == cat)
           for cat in CATEGORIES}
    out["lines"] = n
    return out


def main(src: str = "src"):
    root = Path(src)
    report = {str(path.relative_to(root)): count(path.read_text())
              for path in sorted(root.rglob("*.py"))}
    report["total"] = {key: sum(r[key] for r in report.values())
                       for key in (*CATEGORIES, "lines")}
    print(json.dumps(report))


if __name__ == "__main__":
    main(*sys.argv[1:])
