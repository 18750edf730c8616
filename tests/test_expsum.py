import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import accum, ergodic, expsum, primes, waring, zeta
from primeorbits.primes import chebyshev_psi, chebyshev_theta
from primeorbits.regvar import (InverseHandle, exp_log, iterated_log, log_power,
                                make_catalog, pure_power)

H12 = pure_power(1.2)


def test_theta1_default():
    assert abs(expsum.theta1_default(1.2) - (6 * 1.2 / 5 - 14 / 15)) < 1e-15
    assert abs(expsum.theta1_default(1.2) - 0.5066666666666666) < 1e-12


def test_chi_bound():
    assert abs(expsum.chi_bound(1.2) - (8 - 6 * 1.2) / 45) < 1e-12
    with pytest.raises(ValueError):
        expsum.chi_bound(1.5)  # 8 - 6c < 0, no saving left
    with pytest.raises(ValueError):
        expsum.chi_bound(1.2, theta1=0.578)


def test_normalizer():
    n = 1e4
    want = n * math.exp(-math.log(n) ** (1 / 3 - expsum.EPSILON))
    assert abs(expsum.normalizer(n) - want) < 1e-9
    with pytest.raises(ValueError):
        expsum.normalizer(10.0, epsilon=0.5)


def test_guarded_floor_exact_integers():
    # dyadic exponents make h(n) an exact integer: 4**1.5=8, 9**1.5=27,
    # 16**1.25=32; the floor must not slip to 7/26/31
    fl, _ = expsum.guarded_floor(pure_power(1.5), np.array([4, 9]))
    assert fl[0] == 8 and fl[1] == 27
    fl, _ = expsum.guarded_floor(pure_power(1.25), np.array([16, 81]))
    assert fl[0] == 32 and fl[1] == 243


def test_guarded_floor_snaps_large_integers():
    # x^1.5 at 2335**2 and 1e10 is the integer 2335**3 and 10**15; the
    # 40-digit values sit 2.4e-30 and 1.3e-25 below, inside the |v| * 1e-36
    # snap of _mp_floor.  The double h(1e10) = 999999999999998.8 leaves the
    # guard band unflagged, so 1e10 is checked on the recompute alone
    h = pure_power(1.5)
    fl, bad = expsum.guarded_floor(h, np.array([5452225]))
    assert fl.tolist() == [2335 ** 3] and bad == 1
    assert expsum._mp_floor(h.eval_mp(1e10)) == 10 ** 15


def test_guarded_floor_resolves_ieee_exponent():
    # float 1.2 sits just below 6/5, so 32**c is strictly under 64 and the
    # exact floor is 63, whatever sloppy rounding would suggest
    fl, _ = expsum.guarded_floor(H12, np.array([32]))
    assert fl[0] == 63


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_guarded_floor_matches_mpmath(n):
    # the oracle exponent must be the float64 the function holds, not the
    # decimal string: mpf("1.2") rounds >= 6/5 at 40 digits and would call
    # 32**c = 64, while float 1.2 < 6/5 puts it just below (see the ieee
    # exponent test above)
    fl, _ = expsum.guarded_floor(H12, np.array([n]))
    with mpmath.workdps(40):
        want = int(mpmath.floor(mpmath.mpf(n) ** mpmath.mpf(1.2)))
    assert fl[0] == want


def test_prime_floor_sum_zero_xi():
    got = expsum.prime_floor_sum(H12, 10, 0.0).value
    assert abs(got - chebyshev_theta(10)) < 1e-12
    assert abs(got.imag) == 0.0


def test_prime_floor_sum_hand_value():
    # floors of p**1.2 for p=2,3,5,7 are 2,3,6,10; xi=1/2 gives signs +,-,+,+
    want = math.log(2) - math.log(3) + math.log(5) + math.log(7)
    got = expsum.prime_floor_sum(H12, 10, 0.5).value
    assert abs(got - want) < 1e-12


def test_prime_floor_sum_conjugation():
    a = expsum.prime_floor_sum(H12, 500, 0.1234).value
    b = expsum.prime_floor_sum(H12, 500, -0.1234).value
    assert a == np.conj(b)


def test_von_mangoldt_sum_zero_xi():
    got = expsum.von_mangoldt_sum(H12, 10, 0.0).value
    assert abs(got - chebyshev_psi(10)) < 1e-12


def test_von_mangoldt_sum_empty():
    assert expsum.von_mangoldt_sum(H12, 1, 0.37).value == 0j


def test_prime_vs_von_mangoldt_gap():
    # prime-power correction is O(sqrt(N) log N) uniformly in xi
    N = 10**4
    for xi in (0.0, 0.37):
        d = abs(
            expsum.prime_floor_sum(H12, N, xi).value
            - expsum.von_mangoldt_sum(H12, N, xi).value
        )
        assert d <= 3.0 * math.sqrt(N) * math.log(N)


def test_approximant_matches_N_at_zero_xi():
    r = expsum.approximant_sum(H12, 1e4, 0.0)
    assert abs(r.value.imag) < 1e-12
    assert 1e4 - 5 <= r.value.real <= 1e4 + 5


def test_approximant_tail_bound():
    # away from the arcs the smooth sum stays O(1/||xi||); C frozen from a
    # four-decade pilot sweep (max |value| was 0.63)
    for N in (1e3, 1e4, 1e5):
        v = abs(expsum.approximant_sum(H12, N, 0.3).value)
        assert v <= 0.5 / 0.3


def test_approximant_never_empty_for_valid_h():
    # construction pushes x0 up until h(x0) >= 1, so even a tiny leading
    # coefficient leaves at least one integer below h(N) for every N
    h = pure_power(1.2, coeff=0.5)
    assert h.value(h.x0) >= 1.0
    r = expsum.approximant_sum(h, 0.9, 0.2)
    assert r.n_terms >= 1


def test_approx_error_fields():
    r = expsum.approx_error(H12, 1000, 0.001)
    assert r.abs_error == abs(r.prime_sum - r.approximant)
    assert abs(r.ratio - r.abs_error / r.normalizer) < 1e-15
    assert abs(r.rel_error - r.abs_error / 1000.0) < 1e-18
    assert r.normalizer == expsum.normalizer(1000.0, r.epsilon)


def test_osc_integral_zero_xi():
    assert expsum.osc_integral(H12, 1.0, 3.5, 0.0) == 2.5


def test_osc_integral_riemann_oracle():
    # oracle: 2e6-point trapezoid rule, frozen 0.9944582075641238+0.10245823948496274j
    got = expsum.osc_integral(H12, 1.0, 2.0, 0.01)
    want = 0.9944582075641238 + 0.10245823948496274j
    assert abs(got - want) < 1e-7


def test_osc_integral_scipy_oracle():
    # oracle: scipy.integrate.quad on cos/sin parts, frozen below
    got = expsum.osc_integral(H12, 2.0, 50.0, 0.37)
    want = 0.30274216447476293 + 0.33227589485827663j
    assert abs(got - want) < 1e-8


def test_osc_integral_conjugation():
    a = expsum.osc_integral(H12, 1.0, 40.0, 0.25)
    b = expsum.osc_integral(H12, 1.0, 40.0, -0.25)
    assert a == np.conj(b)


# oracle: 30-digit mpmath.quad of mpmath.expjpi(2 xi h.eval_mp(s)) over
# [a, b], split at x0 and at about one point per cycle of xi h, frozen below
_OSC_ORACLE = [
    (H12, 0.7, 1.4, 0.2, 0.09471666440260187 + 0.678826291826719j),
    (log_power(1.15), 500.0, 1000.0, 0.37,
     -0.06423660857755552 - 0.05405970193077725j),
    (exp_log(1.1), 5e3, 1e4, 1e4 ** -expsum.theta1_default(1.1),
     1.380376807173244 - 0.2946903998883065j),
]


@pytest.mark.parametrize("h, a, b, xi, want", _OSC_ORACLE)
def test_osc_integral_mpmath_oracle(h, a, b, xi, want):
    # the first window crosses x0 = 1, where h has a kink
    got = expsum.osc_integral(h, a, b, xi)
    assert abs(got - want) <= 1e-12 * (b - a)


def test_osc_integral_work_does_not_grow_with_xi(monkeypatch):
    # the panels depend on the window alone, not on the cycles of xi h
    points = []
    d1 = InverseHandle.d1

    def counted(self, y):
        points.append(np.size(y))
        return d1(self, y)

    monkeypatch.setattr(InverseHandle, "d1", counted)
    h, t = log_power(1.15), 1e6
    xi = t ** -expsum.theta1_default(h.c)
    counts = []
    for x in (xi, 100.0 * xi):
        points.clear()
        expsum.osc_integral(h, t / 2.0, t, x)
        counts.append(sum(points))
    assert counts[0] == counts[1] > 0


def test_osc_integral_degenerate_range():
    assert expsum.osc_integral(H12, 5.0, 5.0, 0.3) == 0j
    assert expsum.osc_integral(H12, 7.0, 5.0, 0.3) == 0j


# -- Legendre moments 2 i^k j_k(omega) -----------------------------------------

_K = np.arange(17)
_PHASE = 2.0 * 1j ** _K


def _mp_bessel(w: float, k: int) -> float:
    """j_k(w) at 40 digits, from the exact double w."""
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(w))
        if a == 0:
            return float(k == 0)
        v = mpmath.sqrt(mpmath.pi / (2 * a)) * mpmath.besselj(k + mpmath.mpf(0.5), a)
        return float(v if w > 0 or k % 2 == 0 else -v)


_MOMENT_POINTS = (
    [0.0, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.5,
     np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0, math.pi,
     2.0 * math.pi, 3.0 * math.pi, 10.0, np.nextafter(16.0, 0.0), 16.0,
     np.nextafter(16.0, 17.0), 17.0, 100.0, 999.5, 1e3]
    + list(np.linspace(0.1, 15.9, 12)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_legendre_moments_match_mpmath(sign):
    # both recurrences, both sides of j_0 = 0 at pi, 2 pi and 3 pi, and the
    # odd orders' sign flip for negative omega
    w = sign * np.array(_MOMENT_POINTS)
    got = expsum.legendre_moments(w) / _PHASE
    assert np.all(got.imag == 0.0)
    want = np.array([[_mp_bessel(x, k) for k in _K] for x in w])
    assert np.abs(got.real - want).max() <= 1e-15


def test_legendre_moments_at_zero_are_exact():
    got = expsum.legendre_moments(np.array([0.0, -0.0]))
    assert np.array_equal(got, np.tile(np.eye(17)[0] * 2.0 + 0j, (2, 1)))


def test_legendre_moments_bit_identical_to_scipy_above_16():
    # above the highest order both take the same upward recurrence
    from scipy.special import spherical_jn

    w = np.concatenate([[np.nextafter(16.0, 17.0), 16.5, 1e4, 12345.678, 1e6],
                        np.linspace(16.25, 3e3, 4000)])
    want = _PHASE * spherical_jn(_K, w[:, None])
    assert np.array_equal(expsum.bessel_rows(w), spherical_jn(_K[:, None], w))
    assert np.array_equal(expsum.legendre_moments(w), want)
    assert np.array_equal(expsum.legendre_moments(-w), np.conj(want))
    # a call that mixes both recurrences gives each point its own row, and
    # the moments are the real rows times 2 i^k
    mixed = np.array([0.0, 20.0, 3.0, 400.0])
    rows = expsum.legendre_moments(mixed)
    for x, row in zip(mixed, rows):
        assert np.array_equal(row, expsum.legendre_moments(np.array([x]))[0])
    assert np.array_equal(rows, _PHASE * expsum.bessel_rows(mixed).T)


def test_legendre_moments_warn_nowhere():
    w = np.concatenate([[0.0, 1e-300, 1e-20, math.pi, 16.0, 17.0],
                        np.geomspace(1e-12, 1e3, 200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = expsum.legendre_moments(np.concatenate([w, -w]))
    assert np.all(np.isfinite(m))


def test_library_import_leaves_scipy_special_out():
    # scipy.special alone costs about 0.2 s and 24 MB RSS at import
    src = str(Path(expsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, primeorbits.cli; print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_sample_frequencies():
    xs = expsum.sample_frequencies(1e4, 0.5066666666666666)
    cut = 1e4 ** (-0.5066666666666666)
    dist = np.minimum(np.abs(xs) % 1.0, 1.0 - np.abs(xs) % 1.0)
    assert xs.size == 24
    assert np.all(dist > cut)
    assert np.array_equal(xs, expsum.sample_frequencies(1e4, 0.5066666666666666))


def test_minor_arc_scan_small_grid():
    prof = expsum.minor_arc_scan(H12, [1e3, 1e4])
    assert prof.slope < 1.0
    assert prof.chi == pytest.approx(expsum.chi_bound(1.2))
    assert len(prof.max_abs) == 2
    assert all(m > 0 for m in prof.max_abs)


def test_minor_arc_scan_validations():
    with pytest.raises(ValueError):
        expsum.minor_arc_scan(H12, [1e3])
    with pytest.raises(ValueError):
        expsum.minor_arc_scan(H12, [1e3, 1e4], theta1=0.9)


def test_dyadic_block_zero_xi():
    b = expsum.dyadic_block_check(H12, 1000.0, 0.0)
    # at xi=0 the comparison is psi(t)-psi(t/2) against t/2
    want = abs(chebyshev_psi(1000) - chebyshev_psi(500) - 500.0)
    assert abs(b.abs_error - want) < 1e-9
    assert b.ratio == pytest.approx(b.abs_error / b.normalizer)


def test_dyadic_block_empty():
    b = expsum.dyadic_block_check(H12, 1.4, 0.2)
    assert b.block_sum == 0j
    assert b.abs_error == pytest.approx(abs(expsum.osc_integral(H12, 0.7, 1.4, 0.2)))


def test_dyadic_block_finite_ratio():
    b = expsum.dyadic_block_check(pure_power(1.1), 1e4, 1e4 ** (-0.51))
    assert np.isfinite(b.ratio) and b.ratio >= 0.0


# -- per-function tables ------------------------------------------------------


def _sums(h, N, xi):
    return (expsum.prime_floor_sum(h, N, xi).value,
            expsum.approximant_sum(h, N, xi).value)


@pytest.fixture
def small_chunk(monkeypatch):
    # a small chunk, so growth starts mid-chunk and spans several chunks
    monkeypatch.setattr(expsum, "_CHUNK", 1000)


def test_tables_same_sums_cold_grown_and_fresh(small_chunk):
    cold = _sums(log_power(1.15, a=0.5), 5000, 0.0123)
    cold_big = _sums(log_power(1.15, a=0.5), 20000, -0.271)
    h = log_power(1.15, a=0.5)
    assert _sums(h, 5000, 0.0123) == cold
    # growing from the 5000 tables computes only the tail
    assert _sums(h, 20000, -0.271) == cold_big
    assert _sums(h, 5000, 0.0123) == cold


def test_tables_are_freed_with_their_function():
    h = log_power(1.15, a=0.5)
    expsum.approx_error(h, 5000, 0.0123)
    p, fl = expsum.prime_floors(h, 5000)
    assert h.inverse.blocks_built > 0 and fl.size == p.size > 0
    floors = weakref.ref(h.tables.prime_floors)
    # an equal function has tables of its own, empty until used
    twin = log_power(1.15, a=0.5)
    assert twin == h
    assert twin.inverse.blocks_built == 0 and twin.tables.prime_floors.size == 0
    del h, fl
    gc.collect()
    assert floors() is None


def test_tables_grow_by_tail_only(small_chunk, monkeypatch):
    h = pure_power(1.3)
    calls = []
    real = expsum.guarded_floor

    def counting(f, n):
        calls.append(n.size)
        return real(f, n)

    monkeypatch.setattr(expsum, "guarded_floor", counting)
    expsum.prime_floors(h, 5000)
    expsum.prime_floors(h, 4000)
    expsum.prime_floors(h, 20000)
    pi5, pi20 = primes.prime_count(5000), primes.prime_count(20000)
    # pi(5000) = 669 at once, nothing for the prefix, then the tail in
    # chunks of 1000
    assert calls == [pi5, 1000, pi20 - pi5 - 1000]


def test_orbit_and_histogram_match_direct_floors(small_chunk):
    h = exp_log(1.1, a=0.3, b=0.5)
    expsum.prime_floors(h, 60000)  # later requests are prefix views
    p = primes.primes_upto(30000)
    want, _ = expsum.guarded_floor(h, p)
    assert np.array_equal(ergodic.orbit_indices(h, 30000), want)
    lmax = 4000
    p = primes.primes_upto(waring.arg_cutoff(h, lmax))
    fl, _ = expsum.guarded_floor(h, p)
    keep = fl <= lmax
    want = np.bincount(fl[keep], weights=np.log(p[keep].astype(np.float64)),
                       minlength=lmax + 1)
    assert np.array_equal(waring.prime_weighted_histogram(h, lmax), want)


def test_tables_are_read_only():
    p, fl = expsum.prime_floors(H12, 1000)
    given = np.array([zeta._FIRST_GAMMA, 21.0, 25.0])
    zeros = zeta.ZetaZeroTable(given)
    tables = [p, fl, ergodic.orbit_indices(H12, 1000), primes.primes_upto(100),
              zeros.gammas, zeta.load_zeros().gammas]
    for t in tables:
        with pytest.raises(ValueError):
            t[0] = 4
    # the shared tables are unchanged, and the caller's array is not frozen
    assert primes.primes_upto(10).tolist() == [2, 3, 5, 7]
    assert chebyshev_theta(10) == pytest.approx(math.log(210.0), rel=1e-14)
    given[1] = 22.0
    assert zeros.gammas.tolist() == [zeta._FIRST_GAMMA, 21.0, 25.0]


# -- streamed approximant -----------------------------------------------------


@pytest.mark.parametrize("c", [1.01, 1.2, 1.5, 1.95])
@pytest.mark.parametrize("coeff", [1.0, 0.5])
def test_pure_phi_closed_form_matches_newton(c, coeff):
    # the approximant's pure-power weights: the closed form, within 2e-15 of
    # 40-digit values and 1e-14 of phi' = 1/h'(x) after ten Newton steps
    h = pure_power(c, coeff=coeff)
    ylo = h.value(h.x0)
    y = np.concatenate([[0.5, 1.0, ylo, np.nextafter(ylo, np.inf)],
                        np.geomspace(ylo, 2.0 ** 28, 4000),
                        np.arange(1.0, 3000.0)])
    got = InverseHandle(h).d1(y)
    x = np.maximum((np.maximum(y, ylo) / h.coeff) ** h.gamma, h.x0)
    for _ in range(10):
        hv, hd = h.value_and_d1(x)
        x = np.maximum(x - (hv - y) / hd, h.x0)
    newton = 1.0 / h.d1(np.where(y <= ylo, h.x0, x))
    # at and below h(x0) both are 1/h'(x0)
    assert np.array_equal(got[y <= ylo], newton[y <= ylo])
    assert np.max(np.abs(got - newton) / newton) <= 1e-14
    with mpmath.workdps(40):
        g = mpmath.mpf(1) / mpmath.mpf(c)
        for yi, di in zip(y[y > ylo][::40], got[y > ylo][::40]):
            want = g * mpmath.mpf(coeff) ** -g * mpmath.mpf(yi) ** (g - 1)
            assert abs(di - want) <= 2e-15 * want


@pytest.mark.parametrize("N, terms", [(9, 27), (25, 125), (36, 216)])
def test_approximant_term_count_is_the_guarded_floor(N, terms):
    # h(N) = N^1.5 is an integer; the double is 27.0, 124.99999999999994
    # and 216.00000000000006, and the guard band settles each at 40 digits
    assert expsum.approximant_sum(pure_power(1.5), N, 0.1).n_terms == terms


def _direct_approximant(h, N, xi, weights=None):
    """The approximant term by term, phi'(n) e(n xi) for every n <= h(N)
    in _phase_sum's chunks: the sum Euler-Maclaurin replaces, kept as its
    oracle."""
    lam = int(expsum.guarded_floor(h, np.array([float(N)]))[0][0])
    if weights is None:
        weights = InverseHandle(h).d1(np.arange(1.0, lam + 1.0))
    return expsum._phase_sum(lam, lambda lo, hi: weights[lo:hi], None, xi)


def test_nonpure_approximant_is_the_chunked_newton_sum(monkeypatch):
    monkeypatch.setattr(expsum, "_CHUNK", 1000)
    h = log_power(1.15, a=0.5)
    N, xi = 3000.0, 0.0123
    res = expsum.approximant_sum(h, N, xi)
    want = _direct_approximant(h, N, xi)
    assert res.n_terms > 3000
    assert abs(res.value - want) <= 1e-14 * N
    # with no order meeting the tolerance, M doubles past lam and every
    # term is summed directly: the oracle itself, bit for bit
    monkeypatch.setattr(expsum, "_EM_TOL", 0.0)
    work = expsum.SumWork()
    assert expsum.approximant_sum(h, N, xi, work).value == want
    assert work.approximant_direct == res.n_terms and work.em_order == 0


# the four kinds, and x^1.95 log^-0.5 x, whose phi has a branch point just
# below h(x0), x0 = 2
_EM_KINDS = [pure_power(1.2), log_power(1.15, a=0.5), exp_log(1.1, a=0.3, b=0.5),
             iterated_log(1.2, depth=2), log_power(1.95, a=-0.5)]


@pytest.mark.parametrize("h", _EM_KINDS, ids=lambda h: h.label())
def test_euler_maclaurin_matches_direct_sum(h):
    # lam from below the head size M to 1e6, and xi from 0 through the
    # cutoff to next to 1/2
    inv = InverseHandle(h)
    top = 10 ** 6
    weights = inv.d1(np.arange(1.0, top + 1.0))
    for lam in (expsum._head_size(h) // 2, expsum._head_size(h) + 37, 10 ** 4, top):
        N = inv.value(lam + 0.5)
        cut = N ** -expsum.theta1_default(h.c)
        for xi in (0.0, cut, -cut, 0.0123, -0.0123, 0.3, -(0.5 - 1e-12)):
            work = expsum.SumWork()
            res = expsum.approximant_sum(h, N, xi, work)
            assert res.n_terms == lam
            want = _direct_approximant(h, N, xi, weights)
            assert abs(res.value - want) <= 1e-14 * N, (lam, xi)
            assert (work.em_order > 0) == (lam > expsum._head_size(h))


@pytest.mark.parametrize("h", make_catalog() + _EM_KINDS[-1:],
                         ids=lambda h: h.label())
def test_phi_prime_derivatives_keep_their_sign(h):
    # the remainder bound integrates |phi'^(j)| as |phi'^(j-1)(lam) -
    # phi'^(j-1)(M)|, which holds where phi'^(j) keeps its sign on [M, lam];
    # for pure powers it is (-1)^j, here checked on jets over M .. 2^28 for
    # every j <= 2p the bound can use
    order = 2 * expsum._EM_MAX_P + 1
    y = np.geomspace(expsum._head_size(h), 2.0 ** 28, 64)
    rows = InverseHandle(h).taylor(y, order)[1:]  # phi'^(j)(y) y^(j+1) / (j+1)!
    signs = (-1.0) ** np.arange(order)
    assert np.all(np.sign(rows) == signs[:, None])


@pytest.mark.parametrize("h", _EM_KINDS[:3], ids=lambda h: h.label())
def test_approximant_conjugate_symmetric_and_real_at_zero(h):
    for xi in (1e-9, 0.0123, 0.3, 0.5 - 1e-12, 0.75, 1.3):
        a = expsum.approximant_sum(h, 2e4, xi).value
        assert expsum.approximant_sum(h, 2e4, -xi).value == a.conjugate()
    for zero in (0.0, -0.0, 1.0, -2.0):
        assert expsum.approximant_sum(h, 2e4, zero).value.imag == 0.0
    # F is 1-periodic: xi is reduced by its nearest integer first
    assert (expsum.approximant_sum(h, 2e4, 1.25).value
            == expsum.approximant_sum(h, 2e4, 0.25).value)


def test_approximant_cost_does_not_grow_with_lam():
    # at lam >= 1e6 the Euler-Maclaurin route is at least 10x faster than
    # the direct sum, next to 1/2 too, and its peak memory stays put
    h = pure_power(1.2)
    N = 2e5                                    # lam = 2.3e6
    lam = expsum.approximant_sum(h, N, 0.0).n_terms
    assert lam > 10 ** 6
    for xi in (0.0, N ** -expsum.theta1_default(1.2), 0.3, -(0.5 - 1e-12)):
        fast = _best_time(lambda: expsum.approximant_sum(h, N, xi))
        slow = _best_time(lambda: _direct_approximant(h, N, xi), repeat=1)
        assert 10.0 * fast < slow, (xi, fast, slow)
    peaks = []
    for n in (3e3, 2e5):
        tracemalloc.start()
        try:
            expsum.approximant_sum(h, n, -(0.5 - 1e-12))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def _best_time(fn, repeat=5):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_approximant_memory_does_not_grow_with_terms(monkeypatch):
    monkeypatch.setattr(expsum, "_CHUNK", 1 << 14)
    h = pure_power(1.2)
    expsum.approximant_sum(h, 1e3, 0.01)  # first-call allocations
    tracemalloc.start()
    try:
        res = expsum.approximant_sum(h, 1e5, 1e5 ** -expsum.theta1_default(1.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stored phi' would alone take 8 bytes per term
    assert res.n_terms == 10**6 - 1  # 1.2 as a double is just below 6/5
    assert peak < 2 * res.n_terms


# -- integer phase route ------------------------------------------------------


@pytest.mark.parametrize("h", [H12, log_power(1.15, a=0.5)], ids=["pure", "logpow"])
@pytest.mark.parametrize("xi", [0.0, 0.0123, -0.271, 1e-9, -(0.5 - 1e-12)])
def test_integer_route_sums_match_direct_kernel(h, xi):
    # each sum against sum w * phase(m) with the same weights: the digit
    # tables move every term by at most DigitPhase.bound + PHASE_ERROR
    N = 20000
    p, fl = expsum.prime_floors(h, N)
    lam = primes.von_mangoldt_range(0, N + 1)
    n = np.flatnonzero(lam)
    terms = expsum.approximant_sum(h, N, xi).n_terms
    cases = [
        (expsum.prime_floor_sum(h, N, xi), np.log(p.astype(np.float64)), fl),
        (expsum.von_mangoldt_sum(h, N, xi), lam[n], expsum.guarded_floor(h, n)[0]),
        (expsum.approximant_sum(h, N, xi),
         InverseHandle(h).d1(np.arange(1.0, terms + 1.0)), np.arange(1, terms + 1)),
    ]
    for res, w, m in cases:
        direct = complex(accum.pairwise_sum(w * accum.phase(m.astype(np.float64), xi)))
        bound = accum.DigitPhase(xi, int(m.max())).bound + accum.PHASE_ERROR
        assert abs(res.value - direct) <= np.abs(w).sum() * bound


def test_phase_sum_routes_by_dtype_and_counts_each():
    # 13-bit arguments: two digits, so the integer route is a product
    work = expsum.SumWork()
    w = np.ones(5000)
    m = np.arange(5000, dtype=np.int64)
    ints = expsum._phase_sum(m.size, lambda lo, hi: w[lo:hi], m, 0.1, work)
    reals = expsum._phase_sum(m.size, lambda lo, hi: w[lo:hi],
                              m.astype(np.float64), 0.1, work)
    dp = accum.DigitPhase(0.1, 4999)
    assert len(dp.tables) == 2
    assert (work.digit_terms, work.direct_terms) == (5000, 5000)
    assert work.table_entries == dp.entries
    direct = complex(accum.pairwise_sum(accum.phase(m.astype(np.float64), 0.1)))
    assert reals == direct
    assert abs(ints - direct) <= 5000 * (dp.bound + accum.PHASE_ERROR)
