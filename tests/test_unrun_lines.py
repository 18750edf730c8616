"""scripts/unrun_lines.py's line tracer and its report.

The script is loaded by path and traces a two-branch toy module, so no
pytest run starts inside this one.
"""

import importlib.util
import sys
import threading
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"

_TOY = '''"""A toy module."""
import math


def sign(x):
    """Docstring."""
    if x >= 0:
        return "plus"
    return "minus"
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reports_only_the_untaken_branch(tmp_path):
    unrun_lines = _load("unrun_lines", _SCRIPT)
    (tmp_path / "toy.py").write_text(_TOY)
    toy = _load("toy", tmp_path / "toy.py")
    before = sys.gettrace(), threading.gettrace()
    try:
        got, ran = unrun_lines.run_traced(lambda: toy.sign(1.0), tmp_path)
        assert (sys.gettrace(), threading.gettrace()) == before
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    assert got == "plus"
    assert unrun_lines.unrun(tmp_path / "toy.py", ran) == [(9, 'return "minus"')]
