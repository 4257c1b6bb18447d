"""Count the code lines of each module of a package source tree.

    python3 tests/code_lines.py SRC

SRC is a directory, such as src/walkergeo; every *.py file directly in it
is counted. A code line is a physical line that holds a token of code:
blank lines, comment lines and the lines of docstrings (the leading string
of a module, class or function) are left out, and a string or a bracketed
expression that spans several lines counts every line it spans. The
script prints one `count module` line per module, then `count total`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are not code: layout and comments
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tests/code_lines.py SRC", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[1]).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
