"""Statements of src/primeorbits that a pytest run never executes.

    python scripts/unrun_lines.py [pytest arguments ...]

pytest runs in this process under sys.settrace and threading.settrace,
which record the lines run in code from src/primeorbits.  Each statement
none of whose lines ran (up to its body, for a compound one) is printed
as `path:line: statement`; docstrings and def, class, import, global and
try lines do not count.  The exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def run_traced(func, root):
    """func()'s result and the (file, line) pairs it ran under root; the
    tracers set before are set again after."""
    root, ran = os.path.abspath(root) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        return func(), ran
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def unrun(path, ran):
    """(line, text) of each statement in the file at path that ran lacks."""
    path, out = os.path.abspath(path), []
    text = Path(path).read_text()
    for node in ast.walk(ast.parse(text)):
        if (not isinstance(node, ast.stmt) or isinstance(node, _SKIP)
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        last = max(body[0].lineno - 1 if body else node.end_lineno, node.lineno)
        if not any((path, k) in ran for k in range(node.lineno, last + 1)):
            out.append((node.lineno, text.splitlines()[node.lineno - 1].strip()))
    return sorted(out)


def main(argv):
    src = ROOT / "src" / "primeorbits"
    code, ran = run_traced(lambda: pytest.main(argv), src)
    for path in sorted(src.glob("*.py")):
        for line, stmt in unrun(path, ran):
            print(f"{path.relative_to(ROOT)}:{line}: {stmt}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
