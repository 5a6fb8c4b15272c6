"""Print the package's size measures: lines and code lines per module, and
the number of exported names.

A code line is one that is not blank, not a comment line and not inside a
docstring (the first statement of a module, class or function, when it is
a string). The numbers are shown, never checked.

    python3 tools/src_size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchdescent"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the tree's docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines that are not blank, not comments and not in a docstring."""
    docs = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docs)


def main() -> int:
    total = code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n_lines, n_code = len(text.splitlines()), code_lines(text)
        total += n_lines
        code += n_code
        print(f"{path.name:<16} {n_lines:>6} {n_code:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    sys.path.insert(0, str(PACKAGE.parent))
    import sketchdescent
    print(f"__all__: {len(sketchdescent.__all__)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
