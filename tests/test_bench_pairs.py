"""scripts/bench_pairs.py's summary of alternated benchmark pairs.

The script is loaded by path; only its pure functions run, on synthetic
runs, so no benchmark process starts.
"""

import importlib.util
import os
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runs(workload, metric, parent, change):
    """One run per side and seed, seeds 1, 2, ..."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": seed, "source": side,
                         "metrics": {metric: v}})
    return runs


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


@pytest.mark.parametrize("change, lower, want", [
    # 10/10 pairs lower by 0.10, against a parent IQR of about 0.02
    ([v - 0.10 for v in PARENT], True, "gain"),
    # 9/10 pairs still make a gain; ties count for neither side
    ([v - 0.10 for v in PARENT[:9]] + [PARENT[9]], True, "gain"),
    # 8/10 pairs lower do not, however large the difference
    ([v - 0.10 for v in PARENT[:8]] + PARENT[8:], True, "within bound"),
    # 10/10 lower, but the median moves less than the parent's IQR
    ([v - 0.005 for v in PARENT], True, "within bound"),
    # 30% higher against a 25% bound
    ([1.3 * v for v in PARENT], True, "worse"),
    # 20% higher is inside it
    ([1.2 * v for v in PARENT], True, "within bound"),
    # where higher is better, 30% lower is past the bound
    ([0.7 * v for v in PARENT], False, "worse"),
    ([v + 0.10 for v in PARENT], False, "gain"),
])
def test_verdict_follows_the_pair_rule(bench_pairs, change, lower, want):
    runs = _runs("zeros", "session_s", PARENT, change)
    medians, pairs = bench_pairs.summarize(runs, {"session_s": (lower, 0.25)})
    pair = pairs["zeros"]["session_s"]
    assert pair["pairs"] == 10
    assert pair["verdict"] == want
    par = medians["zeros"]["parent"]["session_s"]
    assert pair["parent_iqr"] == pytest.approx(par["q3"] - par["q1"])


def test_unpaired_runs_are_left_out(bench_pairs):
    runs = _runs("zeros", "session_s", PARENT[:3], PARENT[:3])
    runs.append({"workload": "zeros", "seed": 9, "source": "parent",
                 "metrics": {"session_s": 5.0}})
    _, pairs = bench_pairs.summarize(runs, {"session_s": (True, 0.25)})
    assert pairs["zeros"]["session_s"]["pairs"] == 3
    # a single pair has no quartiles, so nothing is summarized yet
    assert bench_pairs.summarize(runs[:2], {"session_s": (True, 0.25)}) == ({}, {})


def test_host_fields(bench_pairs):
    got = bench_pairs.host()
    assert got["cpu_count"] == os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert got["affinity"] == sorted(os.sched_getaffinity(0))
    assert got["python"].count(".") == 2
    assert got["numpy"]
