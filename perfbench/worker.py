"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out FILE

Imports the library from src/ next to this directory, sets up (zero
table, sieve, functions, the layer self-test, one warm-up call per
request type), then runs the seeded request list once, one request at a
time, checking each output after its timer stops.  The pass record (set-up
end time, per-request rows, peak RSS and, when traced, the spans) goes to
FILE as JSON.  run.py starts one of these per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import primeorbits  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _environment() -> dict:
    """Interpreter, numpy, scipy and BLAS versions, and BLAS threads."""
    import ctypes

    import numpy
    import scipy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _run_checked(session, req, tracer, recorded=True) -> dict:
    """Run one request, then check its output with the timer stopped."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = session.run(req)
        else:
            with tracer.span("request"):
                out = session.run(req)
        error = None
    except Exception:  # a failing request is counted, not fatal
        out, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        problems = ([error] if error else
                    workloads.check(session, req, out, recorded=recorded))
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3)]
    if tracer is not None:
        tracer.paused = False
    row = {"id": req["id"], "kind": req["kind"], "args": req["args"],
           "wall_s": wall, "ok": not problems, "problems": problems,
           "output": None if out is None else workloads.recordable(req, out)}
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(primeorbits.__file__).resolve().parents:
        print(f"primeorbits imported from {primeorbits.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # CLI reports echo their --out path; one fixed relative directory keeps
    # their size, and so cli.bytes_out, the same from run to run
    cli_dir = os.path.relpath(ROOT / "perfbench" / "out" / "cli")
    os.makedirs(cli_dir, exist_ok=True)
    session = workloads.Session(args.workload, args.seed, cli_dir)
    requests = workloads.generate(args.workload, args.seed)

    setup_problems = []
    session.setup(requests)
    for name, test in workloads.selftest(session):
        if tracer is not None:
            tracer.request = f"selftest:{name}"
        try:
            setup_problems += [f"selftest {name}: {p}" for p in test()]
        except Exception:
            setup_problems.append(f"selftest {name} raised: "
                                  + traceback.format_exc(limit=3))
    for req in workloads.warmups(args.workload):
        if tracer is not None:
            tracer.request = f"warmup:{req['id']}"
        row = _run_checked(session, req, tracer, recorded=False)
        setup_problems += [f"warm-up {req['kind']}: {p}" for p in row["problems"]]
    ready_at = time.monotonic()

    rows = []
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        rows.append(_run_checked(session, req, tracer))

    record = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "ready_at": ready_at,
        "setup_problems": setup_problems,
        "requests": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
