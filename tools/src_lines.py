"""Count the code lines of the wlhom package.

A code line is a line spanned by a code token: comments, blank lines and
docstrings (the string that opens a module, class or function body) do not
count, while every line of any other multi-line string does. Prints one
line per module of src/wlhom, then the total.

    python tools/src_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wlhom"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.Module) -> set[int]:
    """The first line of every docstring in the module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add(first.lineno)
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type in SKIPPED:
                continue
            if token.type == tokenize.STRING and token.start[0] in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
