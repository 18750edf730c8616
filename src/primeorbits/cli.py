"""Command line surface: reproducible experiment runs over the library.

Each subcommand evaluates one family of quantities on a configured grid
and emits a columnar text report ('#'-prefixed header, one row per line),
on stdout or, with --out, to that file plus a JSON mirror of the same
schema at <out>.json.  _SUBCOMMANDS holds one record per subcommand: its
keys with their parser and default (_COMMON: those of every subcommand),
its plan and its runner; each record has its own argparse subparser
holding exactly those keys, so any other key is argparse's usage error.
Every key with a default is filled in, so the '# config:' header and the
mirror's "config" are the configuration the run used.  --check also
tests the subject's acceptance thresholds and exits 2 on violation.

Every size key goes through one bounded integer parser, as every float
key goes through one finite-float parser, so each run's one memory plan
(its record's plan) is a finite float, compared with _MEMORY_CAP once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, ergodic, expsum, primes, vaughan, waring, zeta
from .regvar import (RegVarFunction, exp_log, iterated_log, log_power,
                     make_catalog, pure_power)

# kind -> constructor and the shape keys it takes; the constructors hold
# the defaults
_KINDS = {
    "pure": (pure_power, ()),
    "logpow": (log_power, ("a",)),
    "explog": (exp_log, ("a", "b")),
    "itlog": (iterated_log, ("depth",)),
}


def _function_from(cfg: dict) -> RegVarFunction:
    kind = cfg["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; pick one of {sorted(_KINDS)}")
    make, keys = _KINDS[kind]
    foreign = [k for k in _SHAPE if k in cfg and k not in keys]
    if foreign:
        raise ValueError(f"kind {kind} takes no {', '.join(foreign)}")
    if "c" not in cfg:
        raise ValueError("function kind needs c")
    return make(cfg["c"], **{k: cfg[k] for k in keys if k in cfg})


# -- config handling ---------------------------------------------------------

_MEMORY_CAP = 2 << 30  # bytes one run's tables may plan to hold
_TERM_CAP = 1 << 28  # approximant terms h(N) of one expsum row


def _checked(parse, ok, why: str):
    """Parser of one raw string that refuses a value failing `ok`."""
    def run(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(why)
        return value
    return run


def _tokens(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _finite(raw: str) -> float:
    """The parser of every float key: nan and +-inf are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


_XI_NAMES = ("zero", "halfcut", "cut")


def _xi_tokens(raw: str) -> list[str]:
    """--xi: named frequencies or finite numbers, kept as given."""
    tokens = _tokens(raw)
    for tok in tokens:
        if tok not in _XI_NAMES:
            _finite(tok)
    return tokens


# the parser of every size key (N, lam, nmax, cases, the kgrid entries,
# jmin and jmax), as _finite is of every float key
_size = _checked(int, lambda v: 0 <= v <= 1 << 62, "outside [0, 2^62]")


def _grid(kind):
    return _checked(lambda raw: [kind(tok) for tok in _tokens(raw)],
                    lambda g: g and all(a < b for a, b in zip(g, g[1:])),
                    "grid must be non-empty ascending")


_index = _checked(_finite, lambda v: 1.0 < v < 2.0, "outside (1, 2)")
# random.Random(seed) draws the same for -seed as for seed
_SEED = (_checked(int, lambda v: v >= 0, "must be >= 0"), 0)
# --threads above this is refused: sieve_range starts that many workers,
# and the thread-count determinism check compares 1, 4 and 8
_THREAD_CAP = 64

# key -> (parser of the raw string, default); None: absent unless given
_COMMON = {
    "out": (str, None),
    "threads": (_checked(int, lambda v: 1 <= v <= _THREAD_CAP,
                         f"must be in [1, {_THREAD_CAP}]"), 1),
    "check": (lambda raw: raw.lower() in {"1", "true", "yes", "on"}, False),
}
# no default here: a, b and depth take the constructors'
_SHAPE = {"a": (_finite, None), "b": (_finite, None), "depth": (int, None)}


def _set(cfg: dict, keys: dict, key: str, raw: str) -> None:
    try:
        cfg[key] = keys[key][0](raw)
    except ValueError as exc:
        raise ValueError(f"{key}={raw}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised as ValueError, so they exit 1 like
    every other refusal; exit 2 stays a --check violation's."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(message)


@functools.cache
def _parser() -> _Parser:
    """One subparser per record, holding _COMMON's keys and the record's
    as raw strings.  No flag abbreviates: --x would read as expsum's --xi."""
    parser = _Parser(
        prog="primeorbits", allow_abbrev=False,
        description="experiments over prime-orbit exponential sums")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub, record in _SUBCOMMANDS.items():
        subparser = subparsers.add_parser(sub, allow_abbrev=False)
        for key in sorted({**_COMMON, **record.keys}):
            flag = "--" + key.replace("_", "-")
            if key == "check":
                subparser.add_argument(flag, action="store_const", const="on")
            else:
                subparser.add_argument(flag)
    return parser


def parse_config(argv: list[str]) -> dict:
    """Flags -> validated effective config."""
    args = vars(_parser().parse_args(argv))
    cfg: dict = {"subcommand": args.pop("subcommand")}
    keys = {**_COMMON, **_SUBCOMMANDS[cfg["subcommand"]].keys}
    for key, raw in args.items():
        if raw is not None:
            _set(cfg, keys, key, raw)
    for key, (_, default) in keys.items():
        if default is not None:
            cfg.setdefault(key, default)
    _validate(cfg)
    return cfg


def _check_above_x0(h: RegVarFunction, what: str, n_min: float) -> None:
    """Refuse a grid reaching down to x0: at and below it h is the
    constant h(x0), so its rows would measure the extension, not h."""
    if n_min <= h.x0:
        raise ValueError(f"{what} is at or below x0={h.x0:g} of {h.label()}, "
                         f"where h is the constant h(x0)")


def _validate(cfg: dict) -> float:
    """Refuse, before any work, a request with nothing to compute, below
    x0 or too large to run.  Return its plan: the bytes of the tables alive
    together at its peak, by the per-unit figures of the modules that hold
    them, compared with _MEMORY_CAP once and refused in the keys it reads."""
    need, keys, tables = _SUBCOMMANDS[cfg["subcommand"]].plan(cfg)
    if need > _MEMORY_CAP:
        raise ValueError(f"{keys} needs about {need:.3g} bytes of {tables}, "
                         f"over the {_MEMORY_CAP / 2 ** 30:g} GiB cap")
    return need


# -- report emission ---------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, int):
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
    payload = {
        "version": __version__,
        "subcommand": cfg["subcommand"],
        "config": {k: v for k, v in cfg.items() if k != "subcommand"},
        "notes": notes,
        "columns": columns,
        "rows": rows,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _emit(cfg: dict, columns, rows, notes) -> None:
    text = render_text(cfg, columns, rows, notes)
    out = cfg.get("out")
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)
    with open(out + ".json", "w") as fh:
        fh.write(render_json(cfg, columns, rows, notes))


# -- subcommand bodies -------------------------------------------------------


def _resolve_xi(token: str, n: float, theta1: float) -> float:
    named = {"zero": 0.0, "cut": n ** (-theta1), "halfcut": 0.5 * n ** (-theta1)}
    if token in named:
        return named[token]
    return float(token)


def _plan_expsum(cfg: dict):
    h, n_min, n_max = _function_from(cfg), min(cfg["N"]), max(cfg["N"])
    _check_above_x0(h, f"N={n_min}", n_min)
    terms = h.value(float(n_max))
    if terms > _TERM_CAP:
        raise ValueError(f"N={n_max} needs about {terms:.3g} "
                         f"approximant terms, over the 2^28 cap")
    return (expsum.BYTES_PER_PRIME * primes.pi_bound(n_max), f"N={n_max}",
            "prime tables")


def _run_expsum(cfg: dict):
    h, n_grid, tokens = _function_from(cfg), cfg["N"], cfg["xi"]
    theta1 = expsum.theta1_default(h.c)
    primes.primes_upto(max(n_grid), threads=cfg["threads"])
    columns = ["N", "xi", "abs_sum", "approx_abs", "abs_err",
               "err_over_N", "norm_ratio"]
    rows, failures = [], []
    by_token: dict[str, list] = {tok: [] for tok in tokens}
    work = expsum.SumWork()
    for n in n_grid:
        for tok in tokens:
            xi = _resolve_xi(tok, float(n), theta1)
            res = expsum.approx_error(h, float(n), xi, work=work)
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
    notes = [f"theta1={theta1:.6f}", f"h={h.label()}", work.note()]
    return columns, rows, notes, failures


def _oracle_triple_loop(hs, lmax: int) -> np.ndarray:
    """Exhaustive r(lambda) for the --check oracle mode."""
    floors = []
    for h in hs:
        m = np.arange(1, int(h.inverse.value(lmax + 1.0)) + 2)
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


def _plan_waring(cfg: dict):
    hs, lams = [pure_power(cfg[k]) for k in ("c1", "c2", "c3")], cfg["lam"]
    waring.check_lambda(hs, min(lams))
    return (waring.memory_estimate(hs, max(lams)), f"lam={max(lams)}",
            "count tables")


def _run_waring(cfg: dict):
    hs, lams = [pure_power(cfg[k]) for k in ("c1", "c2", "c3")], cfg["lam"]
    config = waring.WaringConfig(*hs, lambda_max=max(lams))
    primes.primes_upto(max(waring.arg_cutoff(h, max(lams)) for h in hs),
                       threads=cfg["threads"])
    work = []
    report = waring.count_report(config, lams, work=work)
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
            # the rows come from count_report's own route, not the above
            for rc in report:
                if rc.r != want[rc.lam]:
                    failures.append(f"reported r({rc.lam})={rc.r} != "
                                    f"exhaustive {want[rc.lam]}")
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


def _plan_ergodic(cfg: dict):
    h, jmin, jmax = _function_from(cfg), cfg["jmin"], cfg["jmax"]
    if not 1 <= jmin < jmax <= 62:  # the grid 2^j stays a size
        raise ValueError(f"need 1 <= --jmin < --jmax <= 62, got --jmin "
                         f"{jmin} --jmax {jmax}")
    _check_above_x0(h, f"jmin={jmin}", 2.0 ** jmin)
    if h.value(2.0 ** jmax) >= 2.0 ** 53:
        raise ValueError(f"jmax={jmax}: h(2^{jmax}) reaches 2^53, where "
                         "a double has no fractional bit left")
    # the orbit and its primes stay alive while the weights are built
    kmax = cfg["kgrid"][-1]
    return (expsum.BYTES_PER_PRIME * primes.pi_bound(2.0 ** jmax)
            + ergodic.WEIGHT_BYTES_PER_K * (kmax + 1),
            f"jmax={jmax} kgrid={kmax}", "orbit and weight tables")


def _run_ergodic(cfg: dict):
    h, jmin, jmax = _function_from(cfg), cfg["jmin"], cfg["jmax"]
    alpha = ergodic.golden_surrogate()
    prime_list = primes.primes_upto(2 ** jmax, threads=cfg["threads"])
    orbit = ergodic.rotation_points(alpha, cfg["start"],
                                    ergodic.orbit_indices(h, 2 ** jmax))
    grid = [2 ** j for j in range(jmin, jmax + 1)]
    rep = ergodic.convergence_report(ergodic.halfline_observable(orbit), grid,
                                     seed=cfg["seed"])
    columns = ["N", "A_N", "abs_A_N", "D_N", "running_max_absf", "delta"]
    deltas = np.concatenate([[0.0], np.diff(rep.values)])
    rows = [[int(n), float(a), abs(float(a)), float(d), float(m), float(dl)]
            for n, a, d, m, dl in zip(rep.grid, rep.values, rep.weighted,
                                      rep.running_max, deltas)]
    failures = []
    weight_notes = []
    for k in cfg["kgrid"]:
        gap = abs(ergodic.lambda_weight_sum(int(k)) - 1.0)
        weight_notes.append(f"k={k}: |sum-1|={gap:.2e}")
        if cfg["check"] and gap > 1e-12:
            failures.append(f"lambda weights at k={k} sum off by {gap:.2e}")
    notes = ([f"alpha={alpha.numerator}/{alpha.denominator}",
              f"h={h.label()}", f"o2_dyadic={rep.o2_dyadic:.6e}",
              f"o2_random_max={rep.o2_random.max():.6e}",
              f"v2={rep.v2:.6e}"] + weight_notes
             + [f"work: orbit_points={prime_list.size}"])
    return columns, rows, notes, failures


def _plan_explicit(cfg: dict):
    xs, Ts = cfg["x"], cfg["T"]
    if not 2.0 <= Ts[0] <= Ts[-1] <= xs[0]:
        raise ValueError(f"need 2 <= T <= min x = {xs[0]:g}, got T from "
                         f"{Ts[0]:g} to {Ts[-1]:g}")
    path = cfg.get("zero_table")
    need = (primes.TABLE_BYTES_PER_PRIME * primes.pi_bound(xs[-1])
            + zeta.read_bytes(path))
    if not path:
        return need, f"x={xs[-1]:g}", "prime tables"
    return need, f"x={xs[-1]:g} zero_table={path}", "prime and zero tables"


def _run_explicit(cfg: dict):
    table = zeta.load_zeros(cfg.get("zero_table"))
    xs, Ts = cfg["x"], cfg["T"]
    if Ts[-1] > table.max_gamma:
        raise ValueError(f"T={Ts[-1]:g} beyond table coverage "
                         f"{table.max_gamma:.3f}")
    primes.primes_upto(int(max(xs)), threads=cfg["threads"])
    columns = ["x", "T", "truncated_psi", "psi", "abs_err", "bound"]
    rows, failures = [], []
    summed = 0  # zero terms over all rows: N(T) per row
    for x in xs:
        psi = primes.chebyshev_psi(x)
        for T in Ts:
            tp = zeta.truncated_psi(x, T, table)
            summed += table.count_upto(T)
            err = abs(tp - psi)
            bound = 5.0 * x * math.log(x) ** 2 / T
            rows.append([x, T, tp, psi, err, bound])
            if cfg["check"] and err > bound:
                failures.append(f"explicit formula error {err:.3e} > bound "
                                f"{bound:.3e} at x={x:g}, T={T:g}")
    notes = [f"zeros={table.count}", f"max_gamma={table.max_gamma:.3f}",
             f"source={table.source}", f"work: zeros_summed={summed}"]
    return columns, rows, notes, failures


def _plan_vaughan(cfg: dict):
    nmax = cfg["nmax"]
    if nmax <= max(cfg["v"]):
        raise ValueError(f"nmax={nmax} must exceed the largest cutoff "
                         f"v={max(cfg['v']):g}")
    return (vaughan.IDENTITY_BYTES_PER_N * (nmax + 1) + vaughan.SPLIT_BYTES,
            f"nmax={nmax}", "identity tables")


def _run_vaughan(cfg: dict):
    nmax, vws, cases = cfg["nmax"], cfg["v"], cfg["cases"]
    primes.primes_upto(nmax, threads=cfg["threads"])
    lam_true = primes.von_mangoldt_range(0, nmax + 1)
    columns = ["kind", "param", "cases", "max_resid"]
    rows, failures = [], []
    work = vaughan.VaughanWork()
    for vw in vws:
        got = vaughan.lambda_via_vaughan_upto(nmax, vw, vw, work=work)
        worst = float(np.max(np.abs(got - lam_true[int(vw) + 1:]),
                             initial=0.0))
        rows.append(["identity", vw, nmax - int(vw), worst])
        if cfg["check"] and worst > 1e-10:
            failures.append(f"identity residual {worst:.2e} at v=w={vw}")
    rng = random.Random(cfg["seed"])
    h = pure_power(1.2)
    worst = 0.0
    for _ in range(cases):
        p1 = rng.uniform(2000.0, 12000.0)
        p = rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0)
        xi = rng.uniform(-0.5, 0.5)
        m = rng.randrange(4)
        split = vaughan.exp_sum_split(h, p, p1, xi, m, work=work)
        worst = max(worst, abs(split.residual))
    rows.append(["split", float("nan"), cases, worst])
    if cfg["check"] and worst > 1e-9:
        failures.append(f"four-sum split residual {worst:.2e}")
    return columns, rows, ["h=pure c=1.2 for the split", work.note()], failures


def _run_regvar(cfg: dict):
    columns = ["label", "c", "x0", "theta_1e6", "roundtrip", "index_err",
               "doubling_margin"]
    rows, failures = [], []
    for h in make_catalog():
        inv = h.inverse
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


class _Subcommand(NamedTuple):
    keys: dict  # besides _COMMON, in its form
    plan: Callable[[dict], tuple]  # refuses, or (bytes, keys, tables)
    run: Callable[[dict], tuple]  # (columns, rows, notes, failures)


_SUBCOMMANDS = {
    "expsum": _Subcommand(
        {"kind": (str, "pure"), "c": (_index, None), **_SHAPE,
         "N": (_grid(_size), [10 ** 4, 10 ** 5]),
         "xi": (_xi_tokens, list(_XI_NAMES))},
        _plan_expsum, _run_expsum),
    "waring": _Subcommand(
        {"c1": (_index, 1.01), "c2": (_index, 1.01), "c3": (_index, 1.01),
         "lam": (_grid(_size), [100, 200])},
        _plan_waring, _run_waring),
    "ergodic": _Subcommand(
        {"kind": (str, "pure"), "c": (_index, 1.1), **_SHAPE,
         "start": (_finite, 0.35), "jmin": (_size, 10), "jmax": (_size, 20),
         "kgrid": (_checked(_grid(_size), lambda g: g[0] >= 2,
                            "entries must be >= 2"), [10, 100, 1000]),
         "seed": _SEED},
        _plan_ergodic, _run_ergodic),
    "explicit": _Subcommand(
        {"x": (_grid(_finite), [1e3, 1e4]), "T": (_grid(_finite), [1e2, 1e3]),
         "zero_table": (str, None)},
        _plan_explicit, _run_explicit),
    "vaughan-check": _Subcommand(
        {"nmax": (_size, 10 ** 4),
         "v": (_checked(_grid(_finite), lambda g: g[0] >= 1.0,
                        "cutoffs must be >= 1"), [2.0, 5.0, 10.0]),
         "cases": (_size, 20), "seed": _SEED},
        _plan_vaughan, _run_vaughan),
    # no key sizes the fixed catalog run: nothing to plan
    "regvar-check": _Subcommand({}, lambda cfg: (0, "", ""), _run_regvar),
}


def run(cfg: dict) -> int:
    """Execute one configured run; 0 ok, 2 check violation."""
    columns, rows, notes, failures = _SUBCOMMANDS[cfg["subcommand"]].run(cfg)
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
