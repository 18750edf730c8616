"""The benchmark tracer's targets must exist on the library.

perfbench/tracing.py wraps each (module, attribute) of TARGETS by name
with getattr; a renamed or deleted function would make a traced run
fail.  The file is loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from primeorbits.zeta import ZeroSumBound

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_resolve():
    targets = _tracing().TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        obj = importlib.import_module(f"primeorbits.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"


def test_zero_sum_result_keeps_traced_fields():
    # the tracer's zeta.panel_zeros counter is n_panels * n_zeros of the
    # ZeroSumBound that zero_osc_sum returns
    names = {f.name for f in dataclasses.fields(ZeroSumBound)}
    assert {"n_panels", "n_zeros"} <= names
