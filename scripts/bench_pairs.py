"""Alternated parent/change benchmark pairs, written as BENCH_<pr>.json.

    python scripts/bench_pairs.py --parent DIR --change DIR --pr N \
        [--seeds 11-20] [--workloads waring,zeros] [--out BENCH_N.json]

DIR is the root of a source checkout holding perfbench/run.py.  For each
seed in turn, and each workload, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, the parent first on odd seeds and the change first
on even seeds, with T the run_seconds of the change's BENCHMARK.json.  It
reads the metrics from the last line each run prints and rewrites the
output file after every run, so a stopped session keeps what it measured.
The file holds the host (CPU count and affinity, Python and numpy
versions), every run, each side's median and inclusive quartiles per
workload and metric, and per pair whether the change read better, in the
direction BENCHMARK.json gives.  Each workload and metric gets a verdict:

    gain          the change better in at least 9/10 of the pairs (ties
                  count for neither) and its median better than the
                  parent's by more than the parent's interquartile range
    worse         the change's median past the parent's by more than the
                  metric's BENCHMARK.json bound (a fraction of the parent's)
    within bound  otherwise

Nothing under perfbench/ is imported or written by this script; run.py
keeps its own records under perfbench/out/ of the checkout it runs in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def source_id(root: Path) -> str:
    """The checkout's commit, or a digest of its src/ files if it has none."""
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    return "src sha256 " + digest.hexdigest()[:16]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def host() -> dict:
    """The machine and interpreter both sides run on."""
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"cpu_count": os.cpu_count(), "affinity": affinity,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(pair: dict, parent_median: float, lower: bool,
            bound: float) -> str:
    """The verdict of one workload and metric: "gain", "worse" or
    "within bound" (see the module docstring)."""
    diff = pair["median_change_minus_parent"]
    gain = -diff if lower else diff
    if -gain > bound * abs(parent_median):
        return "worse"
    if (pair["change_better"] >= 0.9 * pair["pairs"]
            and gain > pair["parent_iqr"]):
        return "gain"
    return "within bound"


def summarize(runs: list[dict], metrics: dict) -> tuple[dict, dict]:
    """(medians, pairs) over the runs so far, per workload and metric;
    metrics maps each name to (lower is better, bound)."""
    medians, pairs = {}, {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by = {(r["seed"], r["source"]): r["metrics"] for r in runs
              if r["workload"] == w}
        seeds = sorted({s for s, src in by if src == "change"
                        and (s, "parent") in by})
        if len(seeds) < 2:
            continue
        medians[w] = {side: {m: spread([by[s, side][m] for s in seeds])
                             for m in metrics} for side in SIDES}
        pairs[w] = {}
        for m, (lower, bound) in metrics.items():
            diffs = [by[s, "change"][m] - by[s, "parent"][m] for s in seeds]
            wins = sum(d < 0 if lower else d > 0 for d in diffs)
            par = medians[w]["parent"][m]
            pair = {"pairs": len(seeds), "change_better": wins,
                    "ties": diffs.count(0.0),
                    "median_change_minus_parent":
                        medians[w]["change"][m]["median"] - par["median"],
                    "parent_iqr": par["q3"] - par["q1"]}
            pair["verdict"] = verdict(pair, par["median"], lower, bound)
            pairs[w][m] = pair
    return medians, pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--seeds", default="11-20", help="first-last, inclusive")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every BENCHMARK.json workload")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"] == "lower", m["bound"])
               for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    seconds = float(bench["run_seconds"])
    out = args.out or Path(f"BENCH_{args.pr}.json")
    ids = {side: source_id(root) for side, root in roots.items()}

    record = {
        "pr": args.pr,
        "command": (f"python3 perfbench/run.py --workload <workload> --seed "
                    f"<seed> --seconds {seconds:g} --trace 0"),
        "order": (f"seeds {seeds.start}-{seeds.stop - 1} in turn, each seed "
                  f"running {', '.join(workloads)}; parent and change "
                  "alternate within each pair: odd seeds run the parent "
                  "first, even seeds the change first; each side from its "
                  "own copy of the tree"),
        "host": host(),
        "sources": list(SIDES),
        "runs": [],
    }
    for seed in seeds:
        for workload in workloads:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                got = run_once(roots[side], workload, seed, seconds)
                record["runs"].append({
                    "workload": workload, "seed": seed, "source": side,
                    "source_id": ids[side], "correct": got["correct"],
                    "attempted": got["attempted"], "failed": got["failed"],
                    "metrics": {k: v["value"]
                                for k, v in got["metrics"].items()}})
                record["medians"], record["pairs"] = summarize(
                    record["runs"], metrics)
                out.write_text(json.dumps(record, indent=1) + "\n")
                m = got["metrics"].get("session_s", {}).get("value", float("nan"))
                print(f"seed {seed} {workload} {side}: session_s {m:.4f} "
                      f"correct={got['correct']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
