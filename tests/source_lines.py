"""The size of the package source, module by module.

Usage: python tests/source_lines.py

For each module of ``src/walkorder/`` it prints the physical lines and the
code lines: the lines that hold a token of code, so blank lines, comment
lines and the lines of module, class and function docstrings do not count.
It needs only the standard library and only prints; no size is a bound.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code of their own
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "walkorder"
    total_physical = total_code = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        physical, code = len(source.splitlines()), code_lines(source)
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{path.name:16} {physical:6} {code:6}")
    print(f"{'total':16} {total_physical:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
