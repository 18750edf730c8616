"""The primeorbits benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass is a fresh process
(worker.py) that sets up, runs the workload's seeded request list once as
a closed loop (one client, one request at a time) and checks every
output.  A run makes about S seconds' worth of passes on the reference
box (see PASS_S), at least two.  With --trace 0 every pass is untraced
and the last line of output reports the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it reports the per-layer metrics.  Records of the
run, one row per request, go under perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("majorarc", "catalog", "waring", "zeros")
MIN_PASSES = 2
HARD_LIMIT_S = 170.0   # no pass starts that would end after this
# Seconds one pass (set-up and session) takes on the reference box, with
# a margin of up to 25%.  A run makes round(seconds / PASS_S) passes, so
# it lasts at most about --seconds there, and the number of samples,
# which decides the rank each percentile is read at, stays the same
# whatever the code under test does.
PASS_S = {"majorarc": 5.0, "catalog": 4.3, "waring": 10.0, "zeros": 4.7}
# BLAS runs on one thread.  With two, every small matmul and long float dot
# product waits for a second thread that a shared host may have descheduled,
# and on the reference box one thread was no slower.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def percentile_with_ten_beyond(samples: list[float], q: float = 0.9):
    """The q-quantile by nearest rank, lowered until ten samples lie
    beyond it but never below the median; returns (value, quantile read)."""
    xs = sorted(samples)
    n = len(xs)
    i = max(min(math.ceil(q * n) - 1, n - 11), (n - 1) // 2, 0)
    return xs[i], (i + 1) / n


def _source_id() -> dict:
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _pass(workload: str, seed: int, traced: bool, path: Path, budget: float):
    """One worker process; returns (record or None, setup_s, wall_s, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(path)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **WORKER_ENV),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, time.monotonic() - spawned, f"pass exceeded {budget:.0f} s"
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        return None, None, wall, f"worker exit {proc.returncode}: {err[-2000:]}"
    record = json.loads(path.read_text())
    return record, record["ready_at"] - spawned, wall, None


def _summary(record: dict, setup_s: float) -> dict:
    walls = [r["wall_s"] for r in record["requests"]]
    return {"traced": record["traced"], "setup_s": setup_s,
            "session_s": math.fsum(walls), "peak_rss_mb": record["peak_rss_mb"],
            "requests": len(walls)}


def _layers(record: dict) -> dict:
    """Per-layer metrics of one traced pass, plus where its time went."""
    spans = record["spans"]
    session = {r["id"] for r in record["requests"]}
    whole = tracing.layer_metrics(spans)
    in_session = tracing.layer_metrics(spans, session)
    covered = math.fsum(v for k, v in in_session.items() if k.endswith("_s"))
    traced_session = math.fsum(r["wall_s"] for r in record["requests"])
    return {"metrics": whole, "session_only": in_session,
            "session_layer_self_s": covered, "session_s": traced_session,
            "session_coverage": covered / traced_session if traced_session else 0.0,
            "spans": len(spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="primeorbits benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "primeorbits" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'primeorbits'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run_dir = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)

    passes, records, errors, durations = [], [], [], []
    for k in range(max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))):
        elapsed = time.monotonic() - started
        if k >= MIN_PASSES and elapsed + max(durations) > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and k % 2 == 1
        record, setup_s, wall, error = _pass(
            args.workload, args.seed, traced, run_dir / f"pass{k}.json",
            max(HARD_LIMIT_S - elapsed, 1.0))
        durations.append(wall)
        if error:
            errors.append(error)
            break
        passes.append(_summary(record, setup_s))
        records.append(record)

    rows = [dict(r, pass_index=i) for i, rec in enumerate(records)
            for r in rec["requests"]]
    failed = sum(not r["ok"] for r in rows) + len(errors)
    attempted = len(rows) + len(errors)
    setup_problems = [p for rec in records for p in rec["setup_problems"]]
    correct = failed == 0 and not setup_problems and not errors

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics, detail = {}, {}
    if plain:
        session = statistics.median(p["session_s"] for p in plain)
        walls = [r["wall_s"] for rec in records if not rec["traced"]
                 for r in rec["requests"]]
        p90, q = percentile_with_ten_beyond(walls)
        detail = {"req_samples": len(walls), "req_p90_quantile": q,
                  "fail_frac": failed / attempted if attempted else 0.0}
        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
                "session_s": (session, "s"),
                "req_p50_s": (statistics.median(walls), "s"),
                "req_p90_s": (p90, "s"),
                "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            }
    layers = [_layers(rec) for rec in records if rec["traced"]]
    if args.trace and layers and plain:
        for name in layers[0]["metrics"]:
            vals = [layer["metrics"][name] for layer in layers]
            unit = ("s" if name.endswith("_s") else "1/s" if name.endswith("_rate")
                    else "frac" if name.endswith("_frac") else "count")
            metrics[name] = (statistics.median(vals), unit)
        overhead = (statistics.median(p["session_s"] for p in traced)
                    / statistics.median(p["session_s"] for p in plain) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "frac")
    elif args.trace:
        correct = False
        errors.append("no traced and untraced pass pair completed")

    run_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "source": _source_id(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "env": records[0].get("env") if records else None,
        "passes": passes, "errors": errors, "setup_problems": setup_problems,
        "detail": detail, "layers": layers,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": rows,
    }
    (run_dir / "run.json").write_text(json.dumps(run_record, indent=1))
    for e in errors + setup_problems:
        print(e, file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
