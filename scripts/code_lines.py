"""Count the code lines of the package: lines that hold a token of code.

Blank lines, comments and docstrings do not count. A docstring is a string
literal standing alone as the first statement of a module, class or
function. Prints each module of ``src/pentagate`` with its code lines and
raw lines, then the totals.

Usage: python3 scripts/code_lines.py [source directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code: layout, comments and the file's ends.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code."""
    skip = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pentagate"
    total_code = total_raw = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, raw = code_lines(text), len(text.splitlines())
        total_code += code
        total_raw += raw
        print(f"{path.relative_to(root)!s:<16} {code:>6} {raw:>6}")
    print(f"{'total':<16} {total_code:>6} {total_raw:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
