"""List the statements of ``src/slicekit`` that the unit tests never run.

Usage, from any directory:

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process, under a ``sys.settrace`` line tracer, on
``tests/`` without the acceptance gate (or on ``PYTEST_ARGS`` when given),
then prints every statement of the package that never executed, as
``file:line: source``, and a count.  Docstrings, ``def`` and ``class``
lines, imports and ``try:`` lines are not listed.  A compound statement
counts as run when its header ran; any other statement when one of its
lines ran.  Code run only in a subprocess is not seen.  It needs nothing
beyond the standard library and pytest, for machines without ``coverage``.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slicekit"
DEFAULT_ARGS = ["tests", "--ignore=tests/test_acceptance.py", "-q", "-p", "no:cacheprovider"]

# Statements whose own line either runs at import or runs nothing.
SKIPPED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Try,
    ast.Global,
    ast.Nonlocal,
)


def statements(source: str) -> dict[int, range]:
    """Each listed statement's first line, mapped to the lines any of which
    running counts as running the statement."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or another bare constant
        body = getattr(node, "body", None)
        if body:  # if, for, while, with: the header only
            last = max(node.lineno, body[0].lineno - 1)
        else:
            last = node.end_lineno
        out[node.lineno] = range(node.lineno, last + 1)
    return out


def line_tracer(lines: set[int]):
    """A local trace function adding each line run to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}  # lines run, by real path
    tracers: dict[str, object] = {}  # by code file name; None outside the package
    prefix = str(PACKAGE) + os.sep

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            real = os.path.realpath(path)
            inside = real.startswith(prefix)
            tracers[path] = line_tracer(ran.setdefault(real, set())) if inside else None
        return tracers[path]

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        seen = ran.get(os.path.realpath(path), set())
        for first, span in sorted(statements(source).items()):
            total += 1
            if seen.isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
