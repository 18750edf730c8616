import math
import tracemalloc
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import accum, ergodic, expsum, primes, waring
from primeorbits.primes import chebyshev_psi, chebyshev_theta
from primeorbits.regvar import InverseHandle, exp_log, log_power, pure_power

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


def test_fourier_cut():
    assert abs(expsum.fourier_cut(1.2) - 0.017777777777777778) < 1e-15


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


def test_osc_integral_blocks_do_not_change_value(monkeypatch):
    # panels are evaluated in blocks of _PANELS; blocking must not move a bit
    h = log_power(1.15, a=0.5)
    whole = expsum.osc_integral(h, 500.0, 1000.0, 0.37)
    monkeypatch.setattr(expsum, "_PANELS", 7)
    assert expsum.osc_integral(h, 500.0, 1000.0, 0.37) == whole


def test_osc_integral_budget():
    with pytest.raises(ValueError):
        expsum.osc_integral(H12, 1.0, 1e6, 0.4, max_panels=10)


def test_osc_integral_degenerate_range():
    assert expsum.osc_integral(H12, 5.0, 5.0, 0.3) == 0j
    assert expsum.osc_integral(H12, 7.0, 5.0, 0.3) == 0j


def test_fractional_min_sum_m2():
    # at M=2 every term saturates at 1
    assert expsum.fractional_min_sum(H12, 100, 2.0) == 100.0


def test_fractional_min_sum_huge_m():
    # only exact integer images survive M=2**30: n=1, 32, 243 for x^1.2
    s = expsum.fractional_min_sum(H12, 1000, 2.0**30)
    assert 3.0 <= s <= 3.1


def test_fractional_min_sum_rejects_bad_m():
    with pytest.raises(ValueError):
        expsum.fractional_min_sum(H12, 100, 0.0)


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
def small_store(monkeypatch):
    # an empty store and a small chunk, so growth starts mid-chunk and
    # spans several chunks
    monkeypatch.setattr(expsum, "_tables", OrderedDict())
    monkeypatch.setattr(expsum, "_CHUNK", 1000)


def test_tables_same_sums_cold_grown_and_evicted(small_store):
    h = log_power(1.15, a=0.5)
    cold = _sums(h, 5000, 0.0123)
    cold_big = _sums(h, 20000, -0.271)
    expsum._tables.clear()
    assert _sums(h, 5000, 0.0123) == cold
    # growing from the 5000 tables computes only the tail
    assert _sums(h, 20000, -0.271) == cold_big
    assert _sums(h, 5000, 0.0123) == cold
    for c in (1.3, 1.4, 1.5, 1.6):
        _sums(pure_power(c), 3000, 0.1)
    assert h not in expsum._tables
    assert len(expsum._tables) == expsum._KEEP
    assert _sums(h, 5000, 0.0123) == cold


def test_tables_grow_by_tail_only(small_store, monkeypatch):
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


def test_orbit_and_histogram_match_direct_floors(small_store):
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


def test_tables_are_read_only(small_store):
    p, fl = expsum.prime_floors(H12, 1000)
    tables = [p, fl, ergodic.orbit_indices(H12, 1000)]
    for t in tables:
        with pytest.raises(ValueError):
            t[0] = 1


# -- streamed approximant -----------------------------------------------------


@pytest.mark.parametrize("c", [1.01, 1.2, 1.5, 1.95])
@pytest.mark.parametrize("coeff", [1.0, 0.5])
def test_pure_phi_closed_form_matches_newton(c, coeff):
    h = pure_power(c, coeff=coeff)
    ylo = h.value(h.x0)
    y = np.concatenate([[0.5, 1.0, ylo, np.nextafter(ylo, np.inf)],
                        np.geomspace(ylo, 2.0 ** 28, 4000),
                        np.arange(1.0, 3000.0)])
    got = expsum._phi_d1(h)(y)
    want = InverseHandle(h).d1(y)
    # at and below h(x0) both are clamped to 1/h'(x0)
    assert np.array_equal(got[y <= ylo], want[y <= ylo])
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_nonpure_approximant_is_the_chunked_newton_sum(monkeypatch):
    monkeypatch.setattr(expsum, "_CHUNK", 1000)
    h = log_power(1.15, a=0.5)
    N, xi = 3000.0, 0.0123
    res = expsum.approximant_sum(h, N, xi)
    w = InverseHandle(h).d1(np.arange(1, res.n_terms + 1, dtype=np.float64))
    want = expsum._phase_sum(w.size, lambda lo, hi: w[lo:hi], None, xi)
    assert res.n_terms > 3000
    assert res.value == want


def test_approximant_memory_does_not_grow_with_terms(monkeypatch):
    monkeypatch.setattr(expsum, "_tables", OrderedDict())
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
         expsum._phi_d1(h)(np.arange(1.0, terms + 1.0)), np.arange(1, terms + 1)),
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
