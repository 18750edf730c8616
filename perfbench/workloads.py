"""The four workloads: seeded request lists, how each request runs, and how
its output is checked.

A request list is generated from the workload name and the seed alone;
the library sees only the generated arguments.  The seed moves frequencies,
parameters, draws and order, never the sizes, so every seed asks for about
the same work.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import checks
from primeorbits import (accum, cli, ergodic, expsum, primes, regvar,
                         vaughan, waring, zeta)

WORKLOADS = ("majorarc", "catalog", "waring", "zeros")

# majorarc: pure powers, every (c, N) with three named and two seeded xi
MAJOR_C = (1.1, 1.2)
MAJOR_N = (1e4, 3e4, 1e5)
MAJOR_SEEDED_XI = 2
SCAN_GRID = (1e4, 1e5, 1e6)

# catalog: one function per kind and c-stratum, each at these sizes.  The
# cost and the dyadic check's panel count (which sets the peak memory) grow
# with c and the shape parameters, so c sits within +-0.005 of its
# stratum's centre and a, b within +-0.02 of a centre; a seed's work and
# memory stay steady
CATALOG_KINDS = ("logpow", "explog", "itlog")
CATALOG_C = (1.1, 1.3)
CATALOG_STRATA = 3
CATALOG_N = 1e4
CATALOG_T = 1e6

# waring: lambda_max of each request; triples c_i drawn from WARING_C
WARING_LAMBDA = (10000,) * 8 + (20000,) * 3 + (40000,)
WARING_C = (1.01, 1.2)

# zeros: (c, t, T, share of the cutoff t^-theta1 that |xi| sits near).
# The kernel's cost is linear in |xi|, so a seed moves |xi| only within
# +-2.5% of the share.  The shares give every T >= 10^4 request about the
# same cost, so the tail percentile reads the same size class whatever
# the number of passes, and put the T = 10^3 requests at the edge of the
# major arc, where they cost enough (0.1 s and up) to time steadily.  The
# median falls on the two (1.2, 3e4, 1e3) requests, which are listed twice
# to give it twice the samples.  The
# order is fixed: which large arrays the allocator still holds, and so the
# peak RSS, depends on the order of the requests.
ZERO_SIZES = (
    (1.1, 1e4, 1e3, 0.95), (1.1, 1e4, 1e4, 0.25), (1.1, 1e4, "full", 0.05),
    (1.1, 1e5, 1e3, 0.95), (1.1, 1e5, 1e4, 0.06),
    (1.2, 1e4, 1e3, 0.95), (1.2, 1e4, 1e4, 0.25),
    (1.2, 3e4, 1e3, 0.95), (1.2, 3e4, 1e3, 0.95), (1.2, 3e4, 1e4, 0.12),
)
PSI_REQUESTS = 4

LARGEST_SIEVE = {"majorarc": max(SCAN_GRID), "catalog": 10 ** 7,
                 "waring": 10 ** 5, "zeros": 10 ** 7}


def theta1(c: float) -> float:
    """Major-arc cutoff exponent 6c/5 - 14/15 of the source paper."""
    return 6.0 * c / 5.0 - 14.0 / 15.0


def pure(c: float) -> dict:
    return {"kind": "pure", "c": c}


# -- generation -------------------------------------------------------------------


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded request list; ids are positions in the list."""
    rng = random.Random(f"{workload}:{seed}")
    body = {"majorarc": _majorarc, "catalog": _catalog, "waring": _waring,
            "zeros": _zeros}[workload](rng)
    return [{"id": f"r{i:02d}", "kind": kind, "args": args}
            for i, (kind, args) in enumerate(body)]


def _spread(items, rng, key):
    """A seeded order in which no two neighbours share a key."""
    while True:
        pool = items[:]
        rng.shuffle(pool)
        out = []
        while pool:
            free = [i for i, it in enumerate(pool)
                    if not out or key(it) != key(out[-1])]
            if not free:
                break
            out.append(pool.pop(rng.choice(free)))
        if not pool:
            return out


def _majorarc(rng):
    approx = []
    for c in MAJOR_C:
        for N in MAJOR_N:
            cut = N ** -theta1(c)
            xis = [0.0, 0.5 * cut, cut] + [rng.uniform(-cut, cut)
                                           for _ in range(MAJOR_SEEDED_XI)]
            approx += [("approx", {"h": pure(c), "N": N, "xi": xi}) for xi in xis]
    # requests sharing (h, N) are never adjacent, so every seed sees the
    # same table reuse: none from a one-entry cache
    body = _spread(approx, rng, key=lambda r: (r[1]["h"]["c"], r[1]["N"]))
    for c in MAJOR_C:
        body.insert(rng.randrange(len(body) + 1),
                    ("scan", {"h": pure(c), "grid": list(SCAN_GRID)}))
    return body


def theta_at(spec: dict, x: float) -> float:
    """theta(x) of a catalog spec, from its defining formula."""
    L = math.log(x)
    if spec["kind"] == "logpow":
        return spec["a"] / L
    if spec["kind"] == "explog":
        return spec["a"] * spec["b"] * L ** (spec["b"] - 1.0)
    q, lk = L, L
    for _ in range(1, spec["depth"]):
        lk = math.log(lk)
        q *= lk
    return 1.0 / q


def _draw_function(kind: str, c: float, rng) -> dict:
    # redraw until the constructor's |theta| < 0.1 past 10^6 holds with a
    # margin (theta decays for every kind), so no request is rejected
    while True:
        if kind == "logpow":
            spec = {"kind": kind, "c": c, "a": rng.uniform(0.48, 0.52)}
        elif kind == "explog":
            spec = {"kind": kind, "c": c, "a": rng.uniform(0.28, 0.32),
                    "b": rng.uniform(0.48, 0.52)}
        else:
            spec = {"kind": kind, "c": c, "depth": 2}
        if abs(theta_at(spec, 1e6)) < 0.09:
            return spec


def _catalog(rng):
    lo, hi = CATALOG_C
    body = []
    for kind in CATALOG_KINDS:
        for s in range(CATALOG_STRATA):
            c = lo + (hi - lo) * (s + 0.5) / CATALOG_STRATA + rng.uniform(-0.005, 0.005)
            body.append(("catalog_fn", {"h": _draw_function(kind, c, rng),
                                        "N": CATALOG_N, "t": CATALOG_T}))
    rng.shuffle(body)
    x_lo, x_hi = int(rng.uniform(1e4, 1e5)), int(rng.uniform(1e6, 1e7))
    argvs = [
        ["vaughan-check", "--nmax", str(rng.randint(1950, 2050)),
         "--v", str(rng.choice([2, 3, 4])), "--cases", "4",
         "--seed", str(rng.randrange(1000))],
        # h and start stay at the CLI defaults: the --check trend test is
        # a claim about that orbit, and fails for many other starts
        ["ergodic", "--jmin", "10", "--jmax", str(rng.choice([18, 19, 20])),
         "--kgrid", f"10,100,{rng.randint(500, 2000)}",
         "--seed", str(rng.randrange(1000))],
        ["regvar-check"],
        ["explicit", "--x", f"{x_lo},{x_hi}", "--T", "100,1000,10000"],
    ]
    for argv in argvs:
        body.insert(rng.randrange(len(body) + 1), ("cli", {"argv": argv}))
    return body


def _waring(rng):
    body = []
    for lam in WARING_LAMBDA:
        cs = [rng.uniform(*WARING_C) for _ in range(3)]
        body.append(("waring", {"h": [pure(c) for c in cs],
                                "lams": [1000, lam // 2, lam]}))
    rng.shuffle(body)
    return body


def _zeros(rng):
    body = []
    for c, t, T, share in ZERO_SIZES:
        xi = rng.choice([-1.0, 1.0]) * share * rng.uniform(0.975, 1.025) \
            * t ** -theta1(c)
        body.append(("zero_osc", {"h": pure(c), "t": t, "xi": xi, "T": T}))
    for _ in range(PSI_REQUESTS):
        body.append(("psi", {"x": float(int(rng.uniform(1e6, 1e7))),
                             "T": rng.choice([1e3, 1e4])}))
    return body


# -- execution ----------------------------------------------------------------------

_BUILD = {
    "pure": lambda s: regvar.pure_power(s["c"]),
    "logpow": lambda s: regvar.log_power(s["c"], a=s["a"]),
    "explog": lambda s: regvar.exp_log(s["c"], a=s["a"], b=s["b"]),
    "itlog": lambda s: regvar.iterated_log(s["c"], depth=s["depth"]),
}


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


class Session:
    """State one worker process keeps across its requests."""

    def __init__(self, workload: str, seed: int, cli_dir: str):
        self.workload = workload
        self.seed = seed
        self.cli_dir = cli_dir
        self.table = None
        self._fns: dict[str, regvar.RegVarFunction] = {}

    def function(self, spec: dict) -> regvar.RegVarFunction:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._fns:
            self._fns[key] = _BUILD[spec["kind"]](spec)
        return self._fns[key]

    def setup(self, requests: list[dict]) -> None:
        """Everything a request may rely on, before the first one."""
        self.table = zeta.load_zeros()
        primes.primes_upto(int(LARGEST_SIEVE[self.workload]))
        for req in requests:
            for spec in _specs(req):
                if req["kind"] != "catalog_fn":
                    self.function(spec)

    def run(self, req: dict):
        return RUNNERS[req["kind"]](self, req["args"])


def _specs(req: dict) -> list[dict]:
    h = req["args"].get("h")
    if h is None:
        return []
    return h if isinstance(h, list) else [h]


def run_approx(s: Session, a: dict) -> dict:
    r = expsum.approx_error(s.function(a["h"]), a["N"], a["xi"])
    return {"S": _pair(r.prime_sum), "F": _pair(r.approximant),
            "abs_error": r.abs_error, "rel_error": r.rel_error}


def run_scan(s: Session, a: dict) -> dict:
    p = expsum.minor_arc_scan(s.function(a["h"]), a["grid"])
    return {"max_abs": list(p.max_abs), "slope": p.slope, "chi": p.chi,
            "samples": [len(x) for x in p.xi_samples]}


def run_catalog_fn(s: Session, a: dict) -> dict:
    h = _BUILD[a["h"]["kind"]](a["h"])
    c = a["h"]["c"]
    r = expsum.approx_error(h, a["N"], a["N"] ** -theta1(c))
    b = expsum.dyadic_block_check(h, a["t"], a["t"] ** -theta1(c))
    return {"x0": h.x0, "S": _pair(r.prime_sum), "F": _pair(r.approximant),
            "abs_error": r.abs_error, "rel_error": r.rel_error,
            "block": _pair(b.block_sum), "integral": _pair(b.integral),
            "block_error": b.abs_error}


def run_cli(s: Session, a: dict) -> dict:
    out = f"{s.cli_dir}/{a['argv'][0]}"
    rc = cli.main(a["argv"] + ["--check", "--out", out])
    notes, rows = [], []
    try:
        with open(out) as fh:
            for line in fh:
                (notes if line.startswith("#") else rows).append(line.split())
    except FileNotFoundError:
        pass
    return {"rc": rc, "rows": [[_token(t) for t in row] for row in rows],
            "check_pass": ["#", "check:", "pass"] in notes}


def _token(t: str):
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def run_waring(s: Session, a: dict) -> dict:
    config = waring.WaringConfig(*(s.function(h) for h in a["h"]),
                                 lambda_max=max(a["lams"]))
    rep = waring.count_report(config, a["lams"])
    return {"r": [x.r for x in rep], "R": [x.R for x in rep],
            "main": [x.main_term for x in rep],
            "ratio": [x.ratio_r for x in rep]}


def _height(s: Session, T) -> float:
    return s.table.max_gamma if T == "full" else float(T)


def run_zero_osc(s: Session, a: dict) -> dict:
    b = zeta.zero_osc_sum(s.function(a["h"]), a["t"], a["xi"],
                          _height(s, a["T"]), s.table)
    return {"value": _pair(b.value), "n_zeros": b.n_zeros,
            "n_panels": b.n_panels, "normalizer": b.normalizer}


def run_psi(s: Session, a: dict) -> dict:
    return {"tpsi": zeta.truncated_psi(a["x"], a["T"], s.table),
            "psi": primes.chebyshev_psi(a["x"])}


RUNNERS = {"approx": run_approx, "scan": run_scan,
           "catalog_fn": run_catalog_fn, "cli": run_cli,
           "waring": run_waring, "zero_osc": run_zero_osc, "psi": run_psi}


# -- checks -------------------------------------------------------------------------

# the value each kind records at the seed commit, and its scale for REL_TOL
RECORDED = {
    "approx": (("S", "F"), lambda a, out: a["N"]),
    "scan": (("max_abs",), lambda a, out: 1.0),
    "catalog_fn": (("x0", "S", "F", "block", "integral"), lambda a, out: a["t"]),
    "cli": (("rows",), lambda a, out: 1.0),
    "waring": (("r", "R", "main"), lambda a, out: 1.0),
    "zero_osc": (("value", "n_zeros", "n_panels"), lambda a, out: out["normalizer"]),
    "psi": (("tpsi", "psi"), lambda a, out: a["x"]),
}


def recordable(req: dict, out: dict) -> dict:
    keys, _ = RECORDED[req["kind"]]
    return {k: out[k] for k in keys}


def check(s: Session, req: dict, out: dict, recorded: bool = True) -> list[str]:
    """Problems with one request's output; empty when it is right."""
    problems = CHECKS[req["kind"]](s, req["args"], out)
    ref = checks.recorded(s.workload, s.seed, req["id"]) if recorded else None
    if ref == "missing":
        problems.append("no recorded value for the default seed")
    elif ref is not None:
        _, scale = RECORDED[req["kind"]]
        problems += checks.compare(recordable(req, out), ref,
                                   scale(req["args"], out))
    return problems


def _finite(*vals) -> bool:
    return all(math.isfinite(v) for v in vals)


def _floor_sample(s: Session, spec: dict, h, hi: float) -> list[str]:
    rng = random.Random(f"floors:{s.seed}:{json.dumps(spec, sort_keys=True)}:{hi}")
    lo = max(2, int(math.ceil(h.x0)))
    xs = [rng.randint(lo, int(hi)) for _ in range(12)] + [int(hi)]
    return checks.check_floor_sample(expsum, h, spec, xs)


def _check_sums(s, spec, h, N, xi, out) -> list[str]:
    S, F = complex(*out["S"]), complex(*out["F"])
    p = []
    if not _finite(*out["S"], *out["F"]):
        return ["non-finite sum"]
    if out["abs_error"] != abs(S - F) or out["rel_error"] != out["abs_error"] / N:
        p.append("abs_error/rel_error inconsistent with the sums")
    theta = checks.own_theta(N)
    if xi == 0.0 and abs(S.real - theta) > checks.REL_TOL * N:
        p.append(f"S(0)={S.real!r} != theta(N)={theta!r}")
    # sum of phi'(n) up to h(N) is phi(h(N)) = N up to the ends and the
    # clamped stretch below h(x0)
    if xi == 0.0 and (abs(F.real - N) > h.x0 + 2.0 or F.imag != 0.0):
        p.append(f"F(0)={F!r} is not within x0 + 2 of N")
    if abs(S) > theta * (1 + checks.REL_TOL):
        p.append("|S| exceeds theta(N)")
    if abs(F) > N + h.x0 + 2.0:
        p.append("|F| exceeds sum of phi'")
    if out["rel_error"] > 0.1:
        p.append(f"major-arc error/N {out['rel_error']:.3g} above 0.1")
    return p + _floor_sample(s, spec, h, N)


def check_approx(s: Session, a: dict, out: dict) -> list[str]:
    return _check_sums(s, a["h"], s.function(a["h"]), a["N"], a["xi"], out)


def check_scan(s: Session, a: dict, out: dict) -> list[str]:
    p = []
    if len(out["max_abs"]) != len(a["grid"]) or min(out["samples"]) < 16:
        p.append("scan grid or sample count wrong")
    for N, m in zip(a["grid"], out["max_abs"]):
        if not 0.0 <= m <= checks.own_theta(N):
            p.append(f"max|S| at N={N:g} outside [0, theta(N)]")
    if not out["slope"] < 1.0:
        p.append(f"minor-arc slope {out['slope']:.4f} not below 1")
    return p


def check_catalog_fn(s: Session, a: dict, out: dict) -> list[str]:
    h = s.function(a["h"])
    p = _check_sums(s, a["h"], h, a["N"], a["N"] ** -theta1(a["h"]["c"]), out)
    t = a["t"]
    block, integral = complex(*out["block"]), complex(*out["integral"])
    mass = checks.own_psi(t) - checks.own_psi(t / 2)
    if abs(block) > mass * (1 + checks.REL_TOL):
        p.append("|block sum| exceeds the Lambda mass of (t/2, t]")
    if abs(integral) > (t / 2) * (1 + 1e-6):
        p.append("|integral| exceeds the interval length")
    if out["block_error"] != abs(block - integral):
        p.append("block error inconsistent")
    return p


_CLI_ROWS = {
    "vaughan-check": lambda argv: len(_opt(argv, "--v").split(",")) + 1,
    "ergodic": lambda argv: int(_opt(argv, "--jmax")) - int(_opt(argv, "--jmin")) + 1,
    "regvar-check": lambda argv: len(regvar.KINDS) + 1,
    "explicit": lambda argv: (len(_opt(argv, "--x").split(","))
                              * len(_opt(argv, "--T").split(","))),
}


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_cli(s: Session, a: dict, out: dict) -> list[str]:
    p = []
    if out["rc"] != 0:
        p.append(f"exit code {out['rc']}")
    if not out["check_pass"]:
        p.append("report lacks '# check: pass'")
    want = _CLI_ROWS[a["argv"][0]](a["argv"])
    if len(out["rows"]) != want:
        p.append(f"{len(out['rows'])} data rows, expected {want}")
    return p


def check_waring(s: Session, a: dict, out: dict) -> list[str]:
    p = []
    lam0 = a["lams"][0]
    want = checks.oracle_count_at(a["h"], lam0)
    if out["r"][0] != want:
        p.append(f"r({lam0})={out['r'][0]} != oracle {want}")
    for lam, ratio, R in zip(a["lams"], out["ratio"], out["R"]):
        if lam >= 1000 and not 0.5 <= ratio <= 2.0:
            p.append(f"r/main at lambda={lam} is {ratio:.4f}, outside [0.5, 2]")
        if not (R > 0.0 and math.isfinite(R)):
            p.append(f"R({lam}) not positive")
    return p


def check_zero_osc(s: Session, a: dict, out: dict) -> list[str]:
    p = []
    T = _height(s, a["T"])
    n = out["n_zeros"]
    if a["T"] == "full":
        if abs(n - checks.zero_count_estimate(T)) > 3.0:
            p.append(f"N({T:g})={n} far from the Riemann-von Mangoldt count")
    elif n != checks.KNOWN_ZERO_COUNT[T]:
        p.append(f"N({T:g})={n} != {checks.KNOWN_ZERO_COUNT[T]}")
    if out["n_panels"] < 8:
        p.append("fewer than 8 panels")
    t = a["t"]
    bound = 4.0 * n * (math.sqrt(t) - math.sqrt(t / 2.0))
    if not (_finite(*out["value"]) and abs(complex(*out["value"])) <= bound):
        p.append("zero sum not finite or beyond its trivial bound")
    return p


def check_psi(s: Session, a: dict, out: dict) -> list[str]:
    p = []
    x, T = a["x"], a["T"]
    own = checks.own_psi(x)
    if abs(out["psi"] - own) > checks.REL_TOL * x:
        p.append(f"psi({x:g})={out['psi']!r} != {own!r}")
    bound = 5.0 * x * math.log(x) ** 2 / T
    if abs(out["tpsi"] - own) > bound:
        p.append(f"truncated psi error beyond 5 x log^2 x / T at x={x:g}, T={T:g}")
    return p


CHECKS = {"approx": check_approx, "scan": check_scan,
          "catalog_fn": check_catalog_fn, "cli": check_cli,
          "waring": check_waring, "zero_osc": check_zero_osc, "psi": check_psi}


# -- set-up work ------------------------------------------------------------------------


def warmups(workload: str) -> list[dict]:
    """One small call per request type, at a size outside the list."""
    reqs = {
        "majorarc": [("approx", {"h": pure(c), "N": 5e3, "xi": 0.5 * 5e3 ** -theta1(c)})
                     for c in MAJOR_C]
        + [("scan", {"h": pure(MAJOR_C[0]), "grid": [2e3, 5e3]})],
        "catalog": [("catalog_fn", {"h": {"kind": "logpow", "c": 1.15, "a": 0.5},
                                    "N": 3e3, "t": 1e5})]
        + [("cli", {"argv": argv}) for argv in (
            ["vaughan-check", "--nmax", "300", "--v", "2", "--cases", "1"],
            ["ergodic", "--jmin", "10", "--jmax", "14", "--kgrid", "10,100"],
            ["regvar-check"],
            ["explicit", "--x", "1000", "--T", "100"])],
        "waring": [("waring", {"h": [pure(1.02), pure(1.1), pure(1.15)],
                               "lams": [1000, 6000, 12000]})],
        "zeros": [("zero_osc", {"h": pure(1.1), "t": 3e3, "T": 1e3,
                                "xi": 0.25 * 3e3 ** -theta1(1.1)}),
                  ("psi", {"x": 1e5, "T": 1e3})],
    }[workload]
    return [{"id": f"w{i}", "kind": k, "args": a} for i, (k, a) in enumerate(reqs)]


def selftest(s: Session) -> list[tuple[str, object]]:
    """Exact checks of every layer at tiny sizes, run before any request;
    each returns a list of problems."""
    def t_primes():
        return [f"pi({n})={primes.prime_count(n)} != {v}"
                for n, v in checks.KNOWN_PI.items() if primes.prime_count(n) != v]

    def t_expsum():
        h = regvar.pure_power(1.2)
        rng = random.Random(f"selftest:{s.seed}")
        p = checks.check_floor_sample(
            expsum, h, pure(1.2), [rng.randint(2, 10 ** 6) for _ in range(16)])
        out = run_approx(s, {"h": pure(1.2), "N": 1e3, "xi": 0.0})
        p += _check_sums(s, pure(1.2), h, 1e3, 0.0, out)
        b = expsum.dyadic_block_check(h, 1e3, 1e3 ** -theta1(1.2))
        mass = checks.own_psi(1e3) - checks.own_psi(500)
        if not (abs(b.block_sum) <= mass * (1 + checks.REL_TOL)
                and b.abs_error == abs(b.block_sum - b.integral)):
            p.append("dyadic block check at t=1000")
        return p

    def t_accum():
        n = np.arange(8, dtype=np.float64)
        ph = accum.phase(n, 0.25)
        want = np.array([1, 1j, -1, -1j] * 2)
        p = [] if np.max(np.abs(ph - want)) < 1e-15 else ["phase(n, 1/4) != i^n"]
        if accum.pairwise_sum(np.ones(10 ** 4)) != 10 ** 4:
            p.append("pairwise sum of ones")
        return p

    def t_zeta():
        p = [f"N({T:g})={s.table.count_upto(T)} != {v}"
             for T, v in checks.KNOWN_ZERO_COUNT.items()
             if s.table.count_upto(T) != v]
        b = zeta.zero_osc_sum(regvar.pure_power(1.1), 1e3, 0.5 * 1e3 ** -theta1(1.1),
                              100.0, s.table)
        if b.n_zeros != 29:
            p.append("zero_osc_sum zero count at T=100")
        if abs(zeta.truncated_psi(1e3, 100.0, s.table) - checks.own_psi(1e3)) \
                > 5e3 * math.log(1e3) ** 2 / 100.0:
            p.append("truncated psi at x=1000")
        return p

    def t_waring():
        specs = [pure(1.01), pure(1.05), pure(1.1)]
        hist = [waring.floor_image_histogram(regvar.pure_power(sp["c"]), 200)
                for sp in specs]
        got = waring.triple_counts_all(*hist, 200)
        return [] if np.array_equal(got, checks.oracle_counts(specs, 200)) \
            else ["r(lambda <= 200) differs from the exhaustive loop"]

    def t_vaughan():
        worst = max(abs(vaughan.lambda_via_vaughan(n, 3.0, 3.0) - checks.own_lambda(n))
                    for n in range(4, 200))
        split = vaughan.exp_sum_split(regvar.pure_power(1.2), 100.0, 400.0, 0.1, 1)
        p = [] if worst < 1e-10 else [f"Vaughan identity residual {worst:.2e}"]
        return p + ([] if split.residual < 1e-9 else ["four-sum split residual"])

    def t_ergodic():
        h = regvar.pure_power(1.1)
        got = ergodic.orbit_indices(h, 1000).tolist()
        p = [] if got == checks.own_floors(pure(1.1), checks.own_primes(1000)) \
            else ["orbit indices differ from 40-digit floors"]
        alpha = ergodic.golden_surrogate()
        pts = ergodic.rotation_points(alpha, 0.0, np.array([1, 10 ** 6, 10 ** 9]))
        want = [float((n * alpha) % 1) for n in (1, 10 ** 6, 10 ** 9)]
        if np.max(np.abs(pts - np.array(want))) > 1e-15:
            p.append("rotation points")
        if abs(ergodic.lambda_weight_sum(100) - 1.0) > 1e-12:
            p.append("lambda weights do not sum to 1")
        return p

    def t_cli():
        rc = cli.main(["regvar-check", "--check", "--out", f"{s.cli_dir}/selftest"])
        return [] if rc == 0 else [f"regvar-check exit code {rc}"]

    return [("primes", t_primes), ("expsum", t_expsum), ("accum", t_accum),
            ("zeta", t_zeta), ("waring", t_waring), ("vaughan", t_vaughan),
            ("ergodic", t_ergodic), ("cli", t_cli)]
