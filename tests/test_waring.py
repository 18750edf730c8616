"""Ternary floor-representation counts: histograms, convolutions, main term."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import waring
from primeorbits.regvar import pure_power
from primeorbits.waring import (
    WaringConfig,
    WaringCount,
    assumption_check,
    count_report,
    floor_image_histogram,
    gamma_constant,
    gamma_fn,
    main_term,
    prime_weighted_histogram,
    triple_counts_all,
)


# ---------------------------------------------------------------- oracles

def oracle_floors(c: float, lambda_max: int) -> np.ndarray:
    """floor(m^c) for m = 1.. until the floor exceeds lambda_max, at 40 digits.

    Values within 1e-30 of an integer are snapped to it; a 40-digit
    recomputation of a genuinely integral power (4**1.5 = 8) can land an
    epsilon on either side of the integer.
    """
    out = []
    m = 1
    with mpmath.workdps(40):
        cc = mpmath.mpf(c)
        while True:
            v = mpmath.mpf(m) ** cc
            r = mpmath.nint(v)
            f = int(r) if abs(v - r) < mpmath.mpf("1e-30") else int(mpmath.floor(v))
            if f > lambda_max:
                break
            out.append(f)
            m += 1
    return np.array(out, dtype=np.int64)


def small_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]


def oracle_hist(c: float, lambda_max: int) -> np.ndarray:
    return np.bincount(oracle_floors(c, lambda_max), minlength=lambda_max + 1)


def oracle_prime_hist(c: float, lambda_max: int) -> np.ndarray:
    floors = oracle_floors(c, lambda_max)
    w = np.zeros(lambda_max + 1)
    for p in small_primes(floors.size):
        w[floors[p - 1]] += math.log(p)
    return w


def oracle_triple(c1: float, c2: float, c3: float, lambda_max: int) -> np.ndarray:
    """r(lam) for all lam <= lambda_max by brute outer sum of floor arrays."""
    f1 = oracle_floors(c1, lambda_max)
    f2 = oracle_floors(c2, lambda_max)
    f3 = oracle_floors(c3, lambda_max)
    total = (f1[:, None, None] + f2[None, :, None] + f3[None, None, :]).ravel()
    total = total[total <= lambda_max]
    return np.bincount(total, minlength=lambda_max + 1)


def oracle_prime_triple(c1: float, c2: float, c3: float,
                        lambda_max: int) -> np.ndarray:
    """R(lam) over prime arguments weighted by log p1 log p2 log p3."""
    out = np.zeros(lambda_max + 1)
    fs, ps = [], []
    for c in (c1, c2, c3):
        f = oracle_floors(c, lambda_max)
        pr = small_primes(f.size)
        fs.append(f[np.array(pr) - 1])
        ps.append(np.log(np.array(pr, dtype=np.float64)))
    tot = (fs[0][:, None, None] + fs[1][None, :, None]
           + fs[2][None, None, :]).ravel()
    wts = (ps[0][:, None, None] * ps[1][None, :, None]
           * ps[2][None, None, :]).ravel()
    keep = tot <= lambda_max
    np.add.at(out, tot[keep], wts[keep])
    return out


# ------------------------------------------------------------- histograms

def test_floor_image_histogram_small():
    # floors of 1, 2^1.2=2.297, 3^1.2=3.737 put one m in each of 1, 2, 3
    g = floor_image_histogram(pure_power(1.2), 3)
    assert g.tolist() == [0, 1, 1, 1]


def test_histogram_sum_inverse_identity():
    # sum g = #{m : floor(h(m)) <= lmax}, i.e. floor(phi(lmax+1)) up to
    # the open/closed boundary
    h = pure_power(1.2)
    for lmax in (3, 50, 400):
        g = floor_image_histogram(h, lmax)
        expect = math.floor((lmax + 1) ** (1.0 / 1.2))
        assert abs(int(g.sum()) - expect) <= 1


@pytest.mark.parametrize("c,lmax", [(1.2, 200), (1.1, 150), (1.5, 120)])
def test_floor_image_histogram_oracle(c, lmax):
    g = floor_image_histogram(pure_power(c), lmax)
    assert g.tolist() == oracle_hist(c, lmax).tolist()


def test_prime_weighted_histogram_small():
    # primes 2, 3 land in cells 2, 3 with weights log 2, log 3
    w = prime_weighted_histogram(pure_power(1.2), 3)
    assert w[0] == 0.0 and w[1] == 0.0
    assert w[2] == pytest.approx(math.log(2), rel=1e-15)
    assert w[3] == pytest.approx(math.log(3), rel=1e-15)


@pytest.mark.parametrize("c,lmax", [(1.2, 200), (1.3, 150)])
def test_prime_weighted_histogram_oracle(c, lmax):
    w = prime_weighted_histogram(pure_power(c), lmax)
    ref = oracle_prime_hist(c, lmax)
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-12)


def test_histogram_rejects_bad_lambda_max():
    with pytest.raises(ValueError):
        floor_image_histogram(pure_power(1.2), 0)
    with pytest.raises(ValueError):
        prime_weighted_histogram(pure_power(1.2), -3)


# ------------------------------------------------------------ convolution

def test_triple_count_diagonal_examples():
    h = pure_power(1.2)
    gs = [floor_image_histogram(h, 10) for _ in range(3)]
    # only (1,1,1) sums to 3; nothing reaches 2
    counts = triple_counts_all(*gs, 10)
    assert counts[3] == 1
    assert counts[:3].tolist() == [0, 0, 0]


@pytest.mark.parametrize("cs,lmax", [
    ((1.2, 1.2, 1.2), 200),
    ((1.1, 1.3, 1.2), 200),   # non-diagonal
    ((1.5, 1.5, 1.5), 120),   # dyadic-exact floors (4**1.5 = 8, ...)
])
def test_triple_counts_match_exhaustive(cs, lmax):
    gs = [floor_image_histogram(pure_power(c), lmax) for c in cs]
    got = triple_counts_all(*gs, lmax)
    assert np.issubdtype(got.dtype, np.integer)
    assert got.tolist() == oracle_triple(*cs, lmax).tolist()


@pytest.mark.parametrize("cs,lmax", [
    ((1.2, 1.2, 1.2), 200),
    ((1.1, 1.3, 1.2), 150),
])
def test_prime_triple_counts_match_exhaustive(cs, lmax):
    ws = [prime_weighted_histogram(pure_power(c), lmax) for c in cs]
    got = triple_counts_all(*ws, lmax)
    want = oracle_prime_triple(*cs, lmax)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
    # the FFT leaves no +-1e-15 noise where R(lambda) is exactly zero
    assert (want == 0.0).any()
    assert np.array_equal(got == 0.0, want == 0.0)


@settings(max_examples=15, deadline=None)
@given(st.tuples(*(st.floats(min_value=1.05, max_value=1.6) for _ in range(3))))
def test_triple_counts_random_exponents(cs):
    lmax = 60
    gs = [floor_image_histogram(pure_power(c), lmax) for c in cs]
    got = triple_counts_all(*gs, lmax)
    assert got.tolist() == oracle_triple(*cs, lmax).tolist()


def test_permutation_symmetry():
    import itertools
    cs = (1.1, 1.3, 1.2)
    lams = [10, 57, 130, 200]
    base_g = None
    base_w = None
    for perm in itertools.permutations(cs):
        gs = [floor_image_histogram(pure_power(c), 200) for c in perm]
        ws = [prime_weighted_histogram(pure_power(c), 200) for c in perm]
        g_vals = triple_counts_all(*gs, 200)[lams].tolist()
        w_vals = triple_counts_all(*ws, 200)[lams]
        if base_g is None:
            base_g, base_w = g_vals, w_vals
        else:
            assert g_vals == base_g
            np.testing.assert_allclose(w_vals, base_w, rtol=1e-12)


def convolve_oracle(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                    lmax: int) -> np.ndarray:
    """Direct threefold convolution, int64 or float64 as the inputs are."""
    n = lmax + 1
    return np.convolve(np.convolve(a[:n], b[:n])[:n], c[:n])[:n]


@pytest.mark.parametrize("cs", [(1.01, 1.01, 1.01), (1.05, 1.1, 1.15)])
def test_fft_counts_match_direct_convolution(cs):
    lmax = 20000
    gs = [floor_image_histogram(pure_power(c), lmax) for c in cs]
    work = []
    got = triple_counts_all(*gs, lmax, work=work)
    assert got.dtype == np.int64
    assert np.array_equal(got, convolve_oracle(*gs, lmax))
    assert work[0].limbs == 1 and work[0].bound < 0.25
    assert work[0].length == 2 ** 16


def test_fft_limb_split_is_exact():
    # entries near 2^31 push the unsplit bound past 1/4; 16-bit limbs of
    # the larger operand bring every product back under it
    rng = np.random.default_rng(7)
    big = rng.integers(2 ** 30, 2 ** 31, size=3000)
    small = rng.integers(0, 8, size=(2, 3000))
    work = []
    got = triple_counts_all(big, small[0], small[1], 2999, work=work)
    assert work[0].limbs > 1 and work[0].bound < 0.25
    assert np.array_equal(got, convolve_oracle(big, small[0], small[1], 2999))
    with pytest.raises(OverflowError, match="16-bit limb"):
        # both operands large: one split side is not enough
        triple_counts_all(rng.integers(0, 2 ** 23, size=100000),
                          np.ones(1, dtype=np.int64),
                          rng.integers(0, 2 ** 23, size=100000), 99999)


def test_fft_weighted_counts_within_bound():
    lmax = 10000
    cs = (1.01, 1.05, 1.1)
    ws = [prime_weighted_histogram(pure_power(c), lmax) for c in cs]
    work = []
    got = triple_counts_all(*ws, lmax, work=work)
    err = np.abs(got - convolve_oracle(*ws, lmax)).max()
    assert 0.0 < work[0].bound < math.log(2) ** 3 / 2
    assert err <= work[0].bound
    assert (got >= 0.0).all()


def test_convolution_overflow_guard():
    big = np.full(4, 2 ** 32, dtype=np.int64)
    with pytest.raises(OverflowError, match="64-bit"):
        triple_counts_all(big, big, big, 9)


def test_float_histograms_take_float_path():
    h = pure_power(1.2)
    g = floor_image_histogram(h, 10)
    w = prime_weighted_histogram(h, 10)
    mixed = triple_counts_all(g, g, w, 10)
    assert mixed.dtype == np.float64


# -------------------------------------------------------- gamma machinery

def test_gamma_fn_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(3.0) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("x", [0.0, -1.0, 20.5])
def test_gamma_fn_domain(x):
    with pytest.raises(ValueError, match="domain"):
        gamma_fn(x)


def test_assumption_check():
    assert assumption_check((1.0, 1.0, 1.0))
    g = 1.0 / 1.01
    assert assumption_check((g, g, g))          # LHS about 0.2624
    assert not assumption_check((5 / 6, 5 / 6, 5 / 6))   # LHS about 4.417


def test_gamma_constant_formal_limit():
    # gammas (1,1,1) would mean c = 1: Gamma(1)^3 / Gamma(3) = 1/2
    h = pure_power(1.2)
    cfg = WaringConfig(h, h, h, 10)
    g = 5.0 / 6.0
    expect = gamma_fn(g) ** 3 / gamma_fn(3 * g)
    assert gamma_constant(cfg) == pytest.approx(expect, rel=1e-15)


def test_admissible_gate():
    mk = lambda c: WaringConfig(pure_power(c), pure_power(c), pure_power(c), 10)
    assert mk(1.02).admissible()
    assert not mk(1.05).admissible()    # assumption LHS about 1.26
    assert not mk(1.2).admissible()


def test_main_term_closed_form():
    # diagonal pure power: phi'(lam) = g lam^(g-1), so the main term is
    # (Gamma(g)^3 / Gamma(3g)) g^3 lam^(3g - 1)
    c = 1.2
    g = 1.0 / c
    h = pure_power(c)
    cfg = WaringConfig(h, h, h, 10 ** 4)
    for lam in (100.0, 5000.0):
        expect = (gamma_fn(g) ** 3 / gamma_fn(3 * g)) * g ** 3 * lam ** (3 * g - 1)
        assert main_term(cfg, lam) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------ count_report

def test_count_report_field_consistency():
    h = pure_power(1.2)
    cfg = WaringConfig(h, h, h, 300)
    rows = count_report(cfg, [50, 200])
    gs = [floor_image_histogram(h, 200) for _ in range(3)]
    ws = [prime_weighted_histogram(h, 200) for _ in range(3)]
    r_all, R_all = triple_counts_all(*gs, 200), triple_counts_all(*ws, 200)
    for row in rows:
        assert row.r == r_all[row.lam]
        assert row.R == pytest.approx(R_all[row.lam], rel=1e-12)
        assert row.main_term == pytest.approx(main_term(cfg, float(row.lam)),
                                              rel=1e-12)
        assert row.ratio_r == pytest.approx(row.r / row.main_term, rel=1e-12)
        phis = row.main_term / gamma_constant(cfg)
        damp = math.exp(-math.log(row.lam) ** (1.0 / 3.0 - waring.EPSILON))
        assert row.normalized_gap == pytest.approx(
            abs(row.R - row.r) / (phis * damp), rel=1e-12)


def test_count_report_rejects_lambda_below_domain(monkeypatch):
    # refused before any histogram is built
    h = pure_power(1.2)
    cfg = WaringConfig(h, h, h, 100)
    monkeypatch.setattr(waring, "floor_image_histogram", None)
    with pytest.raises(ValueError, match="below h"):
        count_report(cfg, [0, 100])


def test_count_report_rejects_lambda_beyond_config():
    h = pure_power(1.2)
    cfg = WaringConfig(h, h, h, 100)
    with pytest.raises(ValueError, match="beyond"):
        count_report(cfg, [50, 101])


def test_waring_count_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        WaringCount(lam=3, r=-1, R=0.0, main_term=1.0,
                    ratio_r=0.0, normalized_gap=0.0)


def test_config_validation():
    h = pure_power(1.2)
    with pytest.raises(ValueError):
        WaringConfig(h, h, h, 0)


def test_ratio_trend_near_one():
    # c close to 1 is where the main term is sharpest: the count ratio
    # should sit in a sane band and drift toward 1 as lambda grows, and
    # the raw normalized gap |R - r| / (lam^2 phi'^3) should shrink
    h = pure_power(1.01)
    cfg = WaringConfig(h, h, h, 11000)
    rows = count_report(cfg, [1000, 10000])
    gc = gamma_constant(cfg)
    gaps = []
    for row in rows:
        assert 0.5 <= row.ratio_r <= 2.0
        gaps.append(abs(row.R - row.r) / (row.main_term / gc))
    assert abs(rows[1].ratio_r - 1.0) <= abs(rows[0].ratio_r - 1.0) + 0.1
    assert gaps[1] < gaps[0]
