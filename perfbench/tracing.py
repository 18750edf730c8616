"""Spans around the library's layer functions, installed from outside.

install() replaces each listed function or method by a wrapper that
records a span (name, start, end, parent span, request id) and, where
the layer has one, a work count read from the call's arguments or return
value.  A module that imported a function by name holds its own
reference, so every module attribute bound to the original is rebound.
Spans stay in memory; layer_metrics() turns them into self times and
counts once the pass is over.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent, request, work]
        self.stack: list[int] = []
        self.request = "setup"
        self.paused = False

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, out, span[3] >= 0 and spans[span[3]][0] == name)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t.stack[-1] if t.stack else -1,
                        t.request, None])
        t.stack.append(self.sid)
        t.spans[self.sid][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.sid][2] = time.perf_counter()
        t.stack.pop()
        return False


def _size(x) -> int:
    return int(np.size(x))


# Work counts.  Each takes (args, return value, nested) and returns
# {counter: value}; nested is true when the caller is a span of the same
# name (accum.phase conjugates negative xi through itself).
def _w_sieve(a, out, nested):
    return {"primes.sieved_n": max(int(a[1]) - max(int(a[0]), 0), 0)}


def _w_points(counter, index):
    def work(a, out, nested):
        return None if nested else {counter: _size(a[index])}
    return work


def _w_floor(a, out, nested):
    return {"expsum.floor_points": _size(a[1]), "expsum.floor_flagged": int(out[1])}


def _w_terms(counter):
    return lambda a, out, nested: {counter: int(out.n_terms)}


def _w_panels(a, out, nested):
    return {"zeta.panel_zeros": int(out.n_panels) * int(out.n_zeros)}


def _w_conv(a, out, nested):
    # output lengths of the two full convolutions: computed from sizes
    n = int(a[3]) + 1
    l1, l2, l3 = (min(_size(h), n) for h in a[:3])
    return {"waring.conv_len": (l1 + l2 - 1) + (min(l1 + l2 - 1, n) + l3 - 1)}


def _w_calls(counter):
    return lambda a, out, nested: {counter: 1}


def _w_out(counter):
    return lambda a, out, nested: {counter: _size(out)}


def _w_cli(a, out, nested):
    # the report and its JSON mirror, read back from the --out argument
    argv = list(a[0])
    if "--out" not in argv:
        return None
    path = argv[argv.index("--out") + 1]
    return {"cli.bytes_out": sum(os.path.getsize(f) for f in
                                 (path, path + ".json", path + ".txt")
                                 if os.path.exists(f))}


def _w_split(a, out, nested):
    return {"vaughan.split_terms": int(out.n_terms)}


# (module, attribute, span name, work count); a dotted attribute is a method
TARGETS = (
    ("primes", "sieve_range", "primes.sieve", _w_sieve),
    ("primes", "primes_upto", "primes.sieve", None),
    ("primes", "von_mangoldt_range", "primes.lambda", None),
    ("primes", "chebyshev_psi", "primes.lambda", None),
    ("regvar", "pure_power", "regvar.construct", None),
    ("regvar", "log_power", "regvar.construct", None),
    ("regvar", "exp_log", "regvar.construct", None),
    ("regvar", "iterated_log", "regvar.construct", None),
    ("regvar", "make_catalog", "regvar.construct", None),
    ("regvar", "InverseHandle.value", "regvar.inverse", _w_points("regvar.inverse_points", 1)),
    ("regvar", "InverseHandle.d1", "regvar.inverse_d1", _w_points("regvar.inverse_points", 1)),
    ("regvar", "RegVarFunction.value_and_d1", "regvar.newton",
     _w_points("regvar.newton_evals", 1)),
    ("regvar", "RegVarFunction.eval_mp", "regvar.eval_mp", _w_calls("regvar.eval_mp_calls")),
    ("expsum", "guarded_floor", "expsum.floor", _w_floor),
    ("expsum", "prime_floor_sum", "expsum.primesum", _w_terms("expsum.primesum_terms")),
    ("expsum", "von_mangoldt_sum", "expsum.primesum", _w_terms("expsum.primesum_terms")),
    ("expsum", "approximant_sum", "expsum.approximant", _w_terms("expsum.approximant_terms")),
    ("expsum", "osc_integral", "expsum.osc", None),
    ("expsum", "dyadic_block_check", "expsum.osc", None),
    ("accum", "phase", "accum.phase", _w_points("accum.phase_points", 0)),
    ("accum", "pairwise_sum", "accum.pairwise", _w_points("accum.pairwise_elems", 0)),
    ("zeta", "load_zeros", "zeta.load", None),
    ("zeta", "zero_osc_sum", "zeta.osc", _w_panels),
    ("zeta", "truncated_psi", "zeta.psi", None),
    ("waring", "floor_image_histogram", "waring.hist", None),
    ("waring", "prime_weighted_histogram", "waring.hist", None),
    ("waring", "triple_counts_all", "waring.conv", _w_conv),
    ("vaughan", "lambda_via_vaughan", "vaughan.identity", _w_calls("vaughan.identity_calls")),
    ("vaughan", "exp_sum_split", "vaughan.split", _w_split),
    ("ergodic", "orbit_indices", "ergodic.orbit", _w_out("ergodic.orbit_points")),
    ("ergodic", "rotation_points", "ergodic.orbit", _w_out("ergodic.orbit_points")),
    ("ergodic", "convergence_report", "ergodic.stats", None),
    ("ergodic", "lambda_weight_sum", "ergodic.stats", None),
    ("ergodic", "weighted_average", "ergodic.stats", None),
    ("cli", "main", "cli.self", _w_cli),
)

# span name -> the per-layer metric its self time adds to
SELF_TIME = {
    "primes.sieve": "primes.sieve_s", "primes.lambda": "primes.lambda_s",
    "regvar.construct": "regvar.construct_s", "regvar.inverse": "regvar.inverse_s",
    "regvar.inverse_d1": "regvar.inverse_s", "regvar.newton": "regvar.inverse_s",
    "regvar.eval_mp": "expsum.floor_s",
    "expsum.floor": "expsum.floor_s", "expsum.primesum": "expsum.primesum_s",
    "expsum.approximant": "expsum.approximant_s", "expsum.osc": "expsum.osc_s",
    "accum.phase": "accum.phase_s", "accum.pairwise": "accum.pairwise_s",
    "zeta.load": "zeta.load_s", "zeta.osc": "zeta.osc_s", "zeta.psi": "zeta.psi_s",
    "waring.hist": "waring.hist_s", "waring.conv": "waring.conv_s",
    "vaughan.identity": "vaughan.identity_s", "vaughan.split": "vaughan.split_s",
    "ergodic.orbit": "ergodic.orbit_s", "ergodic.stats": "ergodic.stats_s",
    "cli.self": "cli.self_s",
}

COUNTS = ("primes.sieved_n", "regvar.inverse_points", "regvar.newton_evals",
          "regvar.eval_mp_calls", "expsum.floor_points", "expsum.approximant_terms",
          "expsum.primesum_terms", "accum.phase_points", "accum.pairwise_elems",
          "zeta.panel_zeros", "waring.conv_len", "vaughan.identity_calls",
          "vaughan.split_terms", "ergodic.orbit_points", "cli.bytes_out")


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each module attribute that held it."""
    for modname, *_ in TARGETS:
        importlib.import_module(f"primeorbits.{modname}")
    mods = {name: mod for name, mod in sys.modules.items()
            if name.startswith("primeorbits.") and mod is not None}
    for modname, attr, span, work in TARGETS:
        mod = mods[f"primeorbits.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), work))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span, orig, work)
        for other in mods.values():
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, wrapped)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list, requests=None) -> dict:
    """Per-layer self times and counts over spans of the given request ids
    (all spans when requests is None)."""
    own = self_times(spans)
    out = {m: 0.0 for m in sorted(set(SELF_TIME.values()))}
    out.update({c: 0 for c in COUNTS})
    flagged = 0
    for s, t in zip(spans, own):
        if requests is not None and s[4] not in requests:
            continue
        metric = SELF_TIME.get(s[0])
        if metric:
            out[metric] += t
        for k, v in (s[5] or {}).items():
            if k == "expsum.floor_flagged":
                flagged += v
            else:
                out[k] += v
    out["expsum.floor_recompute_frac"] = (flagged / out["expsum.floor_points"]
                                          if out["expsum.floor_points"] else 0.0)
    out["expsum.phi_table_hit_frac"] = _hit_frac(spans, requests)
    out["zeta.panel_zero_rate"] = (out["zeta.panel_zeros"] / out["zeta.osc_s"]
                                   if out["zeta.osc_s"] > 0 else 0.0)
    return out


def _hit_frac(spans: list, requests) -> float:
    # an approximant call with no InverseHandle.d1 below it reused a table
    built = set()
    for s in spans:
        if s[0] == "regvar.inverse_d1":
            p = s[3]
            while p >= 0 and spans[p][0] != "expsum.approximant":
                p = spans[p][3]
            built.add(p)
    calls = [i for i, s in enumerate(spans) if s[0] == "expsum.approximant"
             and (requests is None or s[4] in requests)]
    return sum(i not in built for i in calls) / len(calls) if calls else 0.0
