"""Count the package's source lines by kind, read with ``ast``.

    python tests/source_size.py [DIR]

For each module of DIR (src/projsum by default) it prints its code,
docstring, comment and blank lines, and then their totals.  Every line is
one kind: a line a module, class or function docstring spans is a docstring
line (its blank lines too), and of the others, a line holding only
whitespace is blank, one whose first non-blank character is ``#`` a comment
and any other a code line (a multi-line string that is not a docstring
counts as code).  A change that deletes a docstring or a comment changes
the code count by nothing.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/projsum")
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = line_kinds(path.read_text())
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
        for kind in KINDS:
            totals[kind] += counts[kind]
    print(f"{'total':<16}" + "".join(f"{totals[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
