"""Count each module's code lines: non-blank lines outside comments and docstrings.

A line counts when a token other than a comment, a line break or an
indentation change lies on it, and it is not part of a module, class or
function docstring; a string spanning several lines counts each of them.
So the count moves with the code, not with its comments or docstrings.

Usage, from a source checkout:

    python3 scripts/codelines.py [FILE ...]

With no FILE it counts src/streamfields/*.py. It prints one line per file,
its count and its path, then the total, as `wc -l` lays them out.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring of `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "streamfields").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
