"""Count the lines of the package's modules by kind: code, docstring,
comment and blank.

A docstring line is any line of a string statement (a module, class or
function docstring, or an attribute docstring after an assignment), blank
lines inside it included.  Of the other lines, a blank one is blank, one
whose first non-space character is ``#`` is a comment, and the rest are
code.  Prints one row per module, largest first, then the totals.

Run from the repository root:

    python tools/count_src.py [package directory, default src/scfqkd]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict:
    """The number of lines of each kind in ``source``, and ``lines``, all of them."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            doc.update(range(node.lineno, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        kind = ("docstring" if number in doc else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    counts["lines"] = len(lines)
    return counts


def main(argv: list) -> int:
    root = Path(argv[0] if argv else "src/scfqkd")
    rows = {path.stem: count(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    total = {key: sum(r[key] for r in rows.values()) for key in ("lines", *KINDS)}
    print(f"{'module':<12}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, r in sorted(rows.items(), key=lambda item: -item[1]["lines"]) + [("total", total)]:
        print(f"{name:<12}{r['lines']:>7,}" + "".join(f"{r[k]:>11,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
