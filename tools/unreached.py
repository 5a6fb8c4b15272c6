"""Print the package statements that the tier-1 tests never execute.

    python3 tools/unreached.py [pytest arguments]

Run from the root of a checkout. A line tracer (sys.settrace, and
threading.settrace for threads started later) is installed before the
package is imported; it records the lines executed in frames whose code
lives under src/sketchdescent and ignores every other frame. The tier-1
suite then runs in this process through pytest.main (default arguments:
-q --continue-on-collection-errors; any given here replace them).

A statement is one ast.stmt of a module, docstrings excluded. A compound
statement (def, class, if, for, while, with, try) stands for its header
lines only, decorators included; its body's statements count on their
own. A statement is reported when one of its lines has bytecode and none
of its lines ran. The report lists, per module, the first lines of the
statements never run, then a total. The script exits 0 whatever it finds
and whatever the tests do: the numbers are shown, never checked.

Not traced: tests that run a subprocess (the demos, the benchmark
self-test, the import footprint) and work done in worker processes, so
code reached only there shows as unreached. Tracing roughly doubles the
suite's wall time. Standard library only, besides the pytest it drives.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchdescent"
PREFIX = str(PACKAGE) + os.sep
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]

ran: dict[str, set[int]] = defaultdict(set)  # real path -> lines executed
_inside: dict[str, str | None] = {}  # co_filename -> real path, or None


def _local(frame, event, arg):
    if event == "line":
        ran[_inside[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    path = _inside.get(name, "")
    if path == "":
        real = os.path.realpath(name)
        path = _inside[name] = real if real.startswith(PREFIX) else None
    return _local if path is not None else None


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring statements of the tree's modules, classes and
    functions."""
    ids = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            ids.add(id(body[0]))
    return ids


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines with bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST):
    """(first line, span of lines) of every statement but docstrings."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docs:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        yield node.lineno, range(start, max(start, end) + 1)


def unreached(path: Path) -> list[int]:
    """First lines of the module's statements that have bytecode and never
    ran, sorted."""
    text = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(text, str(path), "exec"))
    done = ran.get(os.path.realpath(path), set())
    return sorted(first for first, span in _statements(ast.parse(text))
                  if code_lines.intersection(span) and not done.intersection(span))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    print(f"\npytest exit status {int(status)}; statements never executed:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unreached(path)
        total += len(lines)
        print(f"{path.name:<16}{len(lines):>4}  {' '.join(map(str, lines))}"
              .rstrip())
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
