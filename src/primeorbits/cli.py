"""Command line surface: reproducible experiment runs over the library.

Each subcommand evaluates one family of quantities on a configured grid
and emits a columnar text report ('#'-prefixed header, one row per line)
plus a JSON mirror of the same schema with the effective configuration
embedded.  A flat key=value config file can seed any run; flags override
file entries.  With --check the run additionally tests the acceptance
thresholds for its subject and exits 2 on violation, so CI can drive the
whole suite through this entry point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, ergodic, expsum, primes, vaughan, waring, zeta
from .regvar import (InverseHandle, RegVarFunction, exp_log, iterated_log,
                     log_power, make_catalog, pure_power)

_KINDS = {
    "pure": lambda cfg: pure_power(cfg["c"]),
    "logpow": lambda cfg: log_power(cfg["c"], a=cfg.get("a", 0.5)),
    "explog": lambda cfg: exp_log(cfg["c"], a=cfg.get("a", 0.3),
                                  b=cfg.get("b", 0.5)),
    "itlog": lambda cfg: iterated_log(cfg["c"], depth=int(cfg.get("depth", 2))),
}


def _function_from(cfg: dict) -> RegVarFunction:
    kind = cfg.get("kind", "pure")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; pick one of {sorted(_KINDS)}")
    if "c" not in cfg:
        raise ValueError("function kind needs c")
    return _KINDS[kind](cfg)


# -- config handling ---------------------------------------------------------

_COMMON_KEYS = {"out", "format", "threads", "seed", "check", "epsilon"}
_SUB_KEYS = {
    "expsum": {"kind", "c", "a", "b", "depth", "N", "xi", "theta1"},
    "waring": {"c1", "c2", "c3", "lam"},
    "ergodic": {"kind", "c", "a", "b", "depth", "start", "jmin", "jmax",
                "kgrid"},
    "explicit": {"x", "T", "zero_table"},
    "vaughan-check": {"nmax", "v", "cases"},
    "regvar-check": set(),
}

_MEMORY_CAP = 2 << 30  # bytes a waring report or ergodic orbit may plan to hold
_TERM_CAP = 1 << 28  # approximant terms h(N) of one expsum row

_DEFAULTS = {
    "format": "text", "threads": 1, "seed": 0, "check": False,
    "epsilon": expsum.EPSILON,
}


def _coerce(key: str, raw):
    if not isinstance(raw, str):
        return raw
    if key in {"N", "lam", "kgrid"}:
        return [int(tok) for tok in raw.split(",") if tok]
    if key in {"x", "T", "v"}:
        return [float(tok) for tok in raw.split(",") if tok]
    if key == "xi":
        return [tok.strip() for tok in raw.split(",") if tok.strip()]
    if key in {"threads", "seed", "depth", "jmin", "jmax", "nmax", "cases"}:
        return int(raw)
    if key == "check":
        return raw.lower() in {"1", "true", "yes", "on"}
    if key in {"kind", "format", "out", "zero_table"}:
        return raw
    return float(raw)


def parse_config(argv: list[str]) -> dict:
    """Flags plus optional key=value file -> validated flat config."""
    parser = argparse.ArgumentParser(
        prog="primeorbits",
        description="experiments over prime-orbit exponential sums")
    parser.add_argument("subcommand", choices=sorted(_SUB_KEYS))
    parser.add_argument("--config", help="flat key=value file; flags override")
    known_keys = _COMMON_KEYS | set().union(*_SUB_KEYS.values())
    for key in sorted(known_keys):
        flag = "--" + key.replace("_", "-")
        if key == "check":
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag, default=None)
    args = vars(parser.parse_args(argv))
    sub = args.pop("subcommand")
    cfg: dict = {"subcommand": sub}
    allowed = _COMMON_KEYS | _SUB_KEYS[sub]

    file_path = args.pop("config", None)
    if file_path:
        with open(file_path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{file_path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in allowed:
                    raise ValueError(f"{file_path}:{lineno}: unknown key {key!r} "
                                     f"for {sub}")
                cfg[key] = _coerce(key, val)

    for key, val in args.items():
        if val is None:
            continue
        key = key.replace("-", "_")
        if key not in allowed and key != "out":
            raise ValueError(f"flag --{key} not valid for {sub}")
        cfg[key] = _coerce(key, val)

    for key, val in _DEFAULTS.items():
        cfg.setdefault(key, val)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    for key in ("c", "c1", "c2", "c3"):
        if key in cfg and not 1.0 < cfg[key] < 2.0:
            raise ValueError(f"{key}={cfg[key]} outside (1, 2)")
    if not 0.0 < cfg["epsilon"] < 1.0 / 3.0:
        raise ValueError(f"epsilon={cfg['epsilon']} outside (0, 1/3)")
    if cfg["threads"] < 1:
        raise ValueError("threads must be >= 1")
    for key in ("N", "lam", "x", "T"):
        if key in cfg:
            grid = cfg[key]
            if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{key} grid must be non-empty ascending")
    if cfg.get("format") not in {"text", "json"}:
        raise ValueError("format must be text or json")
    if cfg["subcommand"] == "expsum":
        h, n_grid = _expsum_inputs(cfg)
        terms = h.value(float(max(n_grid)))
        if terms > _TERM_CAP:
            raise ValueError(f"N={max(n_grid)} needs about {terms:.3g} "
                             f"approximant terms, over the 2^28 cap")
    if cfg["subcommand"] == "ergodic":
        h, jmin, jmax = _ergodic_inputs(cfg)
        if not 1 <= jmin <= jmax:
            raise ValueError(f"need 1 <= jmin <= jmax, got {jmin}, {jmax}")
        # primes, floors and orbit values hold 8 bytes each per prime
        # p <= 2^jmax, and pi(x) < 1.25506 x / log x (Rosser-Schoenfeld);
        # log2 of the bytes, so a huge jmax stays finite
        bits = jmax + math.log2(24.0 * 1.25506 / (jmax * math.log(2.0)))
        if bits > math.log2(_MEMORY_CAP):
            raise ValueError(f"jmax={jmax} needs about 2^{bits:.1f} bytes of "
                             f"orbit arrays, over the "
                             f"{_MEMORY_CAP / 2 ** 30:g} GiB cap")
        if h.value(2.0 ** jmax) >= 2.0 ** 53:
            raise ValueError(f"jmax={jmax}: h(2^{jmax}) reaches 2^53, where "
                             "a double has no fractional bit left")
    if cfg["subcommand"] == "waring":
        hs, lams = _waring_inputs(cfg)
        waring.check_lambda(hs, min(lams))
        need = waring.memory_estimate(hs, max(lams))
        if need > _MEMORY_CAP:
            raise ValueError(f"lambda={max(lams)} needs about "
                             f"{need / 2 ** 30:.1f} GiB, over the "
                             f"{_MEMORY_CAP / 2 ** 30:g} GiB cap")


# -- report emission ---------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render_text(cfg: dict, columns: list[str], rows: list[list],
                notes: list[str]) -> str:
    lines = [f"# primeorbits {__version__} {cfg['subcommand']}"]
    eff = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k != "subcommand")
    lines.append(f"# config: {eff}")
    lines += [f"# {note}" for note in notes]
    lines.append("# columns: " + " ".join(columns))
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(cfg: dict, columns: list[str], rows: list[list],
                notes: list[str]) -> str:
    def clean(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        return v

    payload = {
        "version": __version__,
        "subcommand": cfg["subcommand"],
        "config": {k: clean(v) for k, v in sorted(cfg.items())
                   if k != "subcommand"},
        "notes": notes,
        "columns": columns,
        "rows": [[clean(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _emit(cfg: dict, columns, rows, notes) -> None:
    text = render_text(cfg, columns, rows, notes)
    mirror = render_json(cfg, columns, rows, notes)
    if cfg["format"] == "json":
        text, mirror = mirror, text
        mirror_ext = ".txt"
    else:
        mirror_ext = ".json"
    out = cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        with open(out + mirror_ext, "w") as fh:
            fh.write(mirror)
    else:
        sys.stdout.write(text)


# -- subcommand bodies -------------------------------------------------------


def _resolve_xi(token: str, n: float, theta1: float) -> float:
    named = {"zero": 0.0, "cut": n ** (-theta1), "halfcut": 0.5 * n ** (-theta1)}
    if token in named:
        return named[token]
    return float(token)


def _expsum_inputs(cfg: dict):
    return _function_from(cfg), cfg.get("N", [10 ** 4, 10 ** 5])


def _run_expsum(cfg: dict):
    h, n_grid = _expsum_inputs(cfg)
    theta1 = cfg.get("theta1", expsum.theta1_default(h.c))
    tokens = cfg.get("xi", ["zero", "halfcut", "cut"])
    eps = cfg["epsilon"]
    primes.primes_upto(max(n_grid), threads=cfg["threads"])
    columns = ["N", "xi", "abs_sum", "approx_abs", "abs_err",
               "err_over_N", "norm_ratio"]
    rows, failures = [], []
    by_token: dict[str, list] = {tok: [] for tok in tokens}
    work = expsum.SumWork()
    for n in n_grid:
        for tok in tokens:
            xi = _resolve_xi(tok, float(n), theta1)
            res = expsum.approx_error(h, float(n), xi, epsilon=eps, work=work)
            rows.append([int(n), xi, abs(res.prime_sum),
                         abs(res.approximant), res.abs_error, res.rel_error,
                         res.ratio])
            by_token[tok].append(res)
    if cfg["check"]:
        for tok, series in by_token.items():
            for prev, cur in zip(series, series[1:]):
                if cur.rel_error > 1.2 * prev.rel_error:
                    failures.append(
                        f"err/N not decreasing at xi={tok}: "
                        f"{prev.rel_error:.3e} -> {cur.rel_error:.3e}")
            cap = 10.0 * series[0].ratio
            for res in series[1:]:
                if series[0].ratio > 0 and res.ratio > cap:
                    failures.append(f"normalized ratio blew past 10x "
                                    f"calibration at xi={tok}")
    notes = [f"theta1={theta1:.6f}", f"h={h.label()}", work.note()]
    return columns, rows, notes, failures


def _oracle_triple_loop(hs, lmax: int) -> np.ndarray:
    """Exhaustive r(lambda) for the --check oracle mode."""
    floors = []
    for h in hs:
        m = np.arange(1, int(InverseHandle(h).value(lmax + 1.0)) + 2)
        fl, _ = expsum.guarded_floor(h, m.astype(np.float64))
        floors.append(fl[fl <= lmax])
    r = np.zeros(lmax + 1, dtype=np.int64)
    for a in floors[0]:
        for b in floors[1]:
            if a + b > lmax:
                continue
            rest = lmax - a - b
            r[a + b:lmax + 1] += np.bincount(
                floors[2][floors[2] <= rest], minlength=rest + 1)
    return r


def _waring_inputs(cfg: dict):
    cs = (cfg.get("c1", 1.01), cfg.get("c2", 1.01), cfg.get("c3", 1.01))
    return [pure_power(c) for c in cs], cfg.get("lam", [100, 200])


def _run_waring(cfg: dict):
    hs, lams = _waring_inputs(cfg)
    config = waring.WaringConfig(*hs, lambda_max=max(lams))
    primes.primes_upto(max(waring.arg_cutoff(h, max(lams)) for h in hs),
                       threads=cfg["threads"])
    work = []
    report = waring.count_report(config, lams, epsilon=cfg["epsilon"],
                                 work=work)
    columns = ["lambda", "r", "R", "main_term", "ratio_r", "normalized_gap"]
    rows = [[rc.lam, rc.r, rc.R, rc.main_term, rc.ratio_r, rc.normalized_gap]
            for rc in report]
    failures = []
    if cfg["check"]:
        lmax = max(lams)
        if lmax <= 200:
            gs = [waring.floor_image_histogram(h, lmax) for h in hs]
            got = waring.triple_counts_all(*gs, lmax)
            want = _oracle_triple_loop(hs, lmax)
            if not np.array_equal(got, want):
                bad = int(np.flatnonzero(got != want)[0])
                failures.append(f"convolution r({bad})={got[bad]} != "
                                f"exhaustive {want[bad]}")
        else:
            for rc in report:
                if rc.lam >= 1000 and not 0.5 <= rc.ratio_r <= 2.0:
                    failures.append(f"ratio r/main at lambda={rc.lam} "
                                    f"outside [0.5, 2]: {rc.ratio_r:.4f}")
    r_work, R_work = work
    notes = [f"admissible={config.admissible()}",
             f"gammas=({', '.join(f'{g:.6f}' for g in config.gammas)})",
             f"work: transform_length={r_work.length} limbs={r_work.limbs} "
             f"r_bound={r_work.bound:.3e} R_bound={R_work.bound:.3e}"]
    return columns, rows, notes, failures


def _ergodic_inputs(cfg: dict):
    h = _function_from(cfg) if "c" in cfg else pure_power(1.1)
    return h, cfg.get("jmin", 10), cfg.get("jmax", 20)


def _run_ergodic(cfg: dict):
    h, jmin, jmax = _ergodic_inputs(cfg)
    x = cfg.get("start", 0.35)
    kgrid = cfg.get("kgrid", [10, 100, 1000])
    alpha = ergodic.golden_surrogate()
    primes.primes_upto(2 ** jmax, threads=cfg["threads"])
    system = ergodic.RotationSystem(alpha, ergodic.halfline_observable, x=x)
    grid = [2 ** j for j in range(jmin, jmax + 1)]
    rep = ergodic.convergence_report(system, h, grid, seed=cfg["seed"])
    prime_list = primes.primes_upto(grid[-1])
    vals = rep.orbit
    columns = ["N", "A_N", "abs_A_N", "D_N", "running_max_absf", "delta"]
    rows = []
    deltas = np.concatenate([[0.0], rep.deltas])
    for i, n in enumerate(rep.grid):
        cut = int(np.searchsorted(prime_list, n, side="right"))
        d_n = ergodic.weighted_average(vals[:cut], prime_list[:cut])
        rows.append([int(n), float(rep.values[i]), abs(float(rep.values[i])),
                     d_n, float(rep.running_max[i]), float(deltas[i])])
    failures = []
    weight_notes = []
    for k in kgrid:
        gap = abs(ergodic.lambda_weight_sum(int(k)) - 1.0)
        weight_notes.append(f"k={k}: |sum-1|={gap:.2e}")
        if cfg["check"] and gap > 1e-12:
            failures.append(f"lambda weights at k={k} sum off by {gap:.2e}")
    if cfg["check"]:
        v = rep.trend_violations()
        if v > 1:
            failures.append(f"|A_N| trajectory rose {v} times (allowed 1)")
    notes = ([f"alpha={alpha.numerator}/{alpha.denominator}",
              f"h={h.label()}", f"o2_dyadic={rep.o2_dyadic:.6e}",
              f"v2={rep.v2:.6e}"] + weight_notes)
    return columns, rows, notes, failures


def _run_explicit(cfg: dict):
    table = zeta.load_zeros(cfg.get("zero_table"))
    xs = cfg.get("x", [1e3, 1e4])
    Ts = cfg.get("T", [1e2, 1e3])
    primes.primes_upto(int(max(xs)), threads=cfg["threads"])
    columns = ["x", "T", "truncated_psi", "psi", "abs_err", "bound"]
    rows, failures = [], []
    for x in xs:
        psi = primes.chebyshev_psi(x)
        for T in Ts:
            tp = zeta.truncated_psi(x, T, table)
            err = abs(tp - psi)
            bound = 5.0 * x * math.log(x) ** 2 / T
            rows.append([x, T, tp, psi, err, bound])
            if cfg["check"] and err > bound:
                failures.append(f"explicit formula error {err:.3e} > bound "
                                f"{bound:.3e} at x={x:g}, T={T:g}")
    notes = [f"zeros={table.count}", f"max_gamma={table.max_gamma:.3f}",
             f"source={table.source}"]
    return columns, rows, notes, failures


def _run_vaughan(cfg: dict):
    nmax = cfg.get("nmax", 10 ** 4)
    vws = cfg.get("v", [2.0, 5.0, 10.0])
    cases = cfg.get("cases", 20)
    primes.primes_upto(nmax, threads=cfg["threads"])
    spf = primes.spf_table(nmax)
    lam_true = primes.von_mangoldt_range(0, nmax + 1)
    columns = ["kind", "param", "cases", "max_resid"]
    rows, failures = [], []
    for vw in vws:
        worst = 0.0
        for n in range(int(vw) + 1, nmax + 1):
            got = vaughan.lambda_via_vaughan(n, vw, vw, spf=spf)
            worst = max(worst, abs(got - lam_true[n]))
        rows.append(["identity", vw, nmax - int(vw), worst])
        if cfg["check"] and worst > 1e-10:
            failures.append(f"identity residual {worst:.2e} at v=w={vw}")
    rng = np.random.default_rng(cfg["seed"])
    h = pure_power(1.2)
    worst = 0.0
    for _ in range(cases):
        p1 = float(rng.uniform(2000.0, 12000.0))
        p = float(rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0))
        xi = float(rng.uniform(-0.5, 0.5))
        m = int(rng.integers(0, 4))
        split = vaughan.exp_sum_split(h, p, p1, xi, m)
        worst = max(worst, abs(split.residual))
    rows.append(["split", float("nan"), cases, worst])
    if cfg["check"] and worst > 1e-9:
        failures.append(f"four-sum split residual {worst:.2e}")
    return columns, rows, ["h=pure c=1.2 for the split"], failures


def _run_regvar(cfg: dict):
    columns = ["label", "c", "x0", "theta_1e6", "roundtrip", "index_err",
               "doubling_margin"]
    rows, failures = [], []
    for h in make_catalog():
        inv = InverseHandle(h)
        xs = np.geomspace(max(h.x0, 2.0), 1e8, 40)
        ys = h.value(xs)
        roundtrip = float(np.max(np.abs(inv.value(ys) - xs) / xs))
        xs_hi = np.geomspace(1e6, 1e9, 25)
        index_err = float(np.max(np.abs(
            xs_hi * h.d1(xs_hi) / h.value(xs_hi) - h.c)))
        ys_d = np.geomspace(h.value(max(h.x0, 2.0)) * 2.0, 1e9, 30)
        margin = float(np.max(inv.value(ys_d) / inv.value(2.0 * ys_d)
                              - inv.doubling_constant()))
        rows.append([h.label(), h.c, h.x0, float(h.theta(np.array(1e6))),
                     roundtrip, index_err, margin])
        if cfg["check"]:
            if roundtrip > 1e-8:
                failures.append(f"{h.label()}: roundtrip {roundtrip:.2e}")
            if index_err >= 0.05:
                failures.append(f"{h.label()}: index error {index_err:.3f}")
            if margin > 1e-9:
                failures.append(f"{h.label()}: doubling bound violated")
    return columns, rows, [], failures


_RUNNERS = {
    "expsum": _run_expsum,
    "waring": _run_waring,
    "ergodic": _run_ergodic,
    "explicit": _run_explicit,
    "vaughan-check": _run_vaughan,
    "regvar-check": _run_regvar,
}


def run(cfg: dict) -> int:
    """Execute one configured run; 0 ok, 2 check violation."""
    columns, rows, notes, failures = _RUNNERS[cfg["subcommand"]](cfg)
    if cfg["check"]:
        if failures:
            notes = notes + [f"check: FAIL {f}" for f in failures]
        else:
            notes = notes + ["check: pass"]
    _emit(cfg, columns, rows, notes)
    for f in failures:
        print(f"check failure: {f}", file=sys.stderr)
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
