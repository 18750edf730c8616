import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import primes
from primeorbits.accum import pairwise_sum
from primeorbits.primes import (
    chebyshev_psi,
    chebyshev_theta,
    divisors,
    factorize,
    mobius,
    prime_count,
    prime_powers,
    primes_upto,
    sieve_range,
    spf_table,
    theta_pi_prefix,
    von_mangoldt,
    von_mangoldt_range,
)


def trial_primes(lo: int, hi: int) -> list[int]:
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


def test_sieve_basic_ranges():
    assert list(sieve_range(1, 10)) == [2, 3, 5, 7]
    assert sieve_range(1, 1).size == 0
    assert list(sieve_range(90, 100)) == [97]
    # base primes come from the same sieve, recursing over sqrt(n) down to
    # n < 9: all n < 200 and n around p^2 and 2^k, and windows below hi
    # where the largest base prime sqrt(hi - 1) crosses those points
    for n in [*range(200), 961, 1024, 3162, 3163]:
        assert list(primes._base_primes(n)) == trial_primes(0, n)
    for r in (3, 7, 31, 32, 961, 1024, 3162, 3163):
        for hi in (r * r - 1, r * r, r * r + 1, r * r + 2):
            assert list(sieve_range(hi - 30, hi)) == trial_primes(hi - 30, hi - 1)


def test_sieve_half_open():
    # range is [lo, hi): lo included, hi excluded
    assert list(sieve_range(7, 20)) == [7, 11, 13, 17, 19]
    assert list(sieve_range(7, 19)) == [7, 11, 13, 17]


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=600))
@settings(max_examples=60, deadline=None)
def test_sieve_matches_trial_division(lo, width):
    hi = lo + width
    assert list(sieve_range(lo, hi)) == trial_primes(lo, hi - 1)


def test_sieve_segment_boundaries():
    # spans crossing the internal segment size must agree with one big sieve
    ps = sieve_range(0, 3 * 10**5)
    cut = 10**5
    joined = np.concatenate([sieve_range(0, cut), sieve_range(cut, 3 * 10**5)])
    assert np.array_equal(ps, joined)


def test_sieve_thread_counts_identical():
    a = sieve_range(0, 2 * 10**6, threads=1)
    b = sieve_range(0, 2 * 10**6, threads=4)
    c = sieve_range(0, 2 * 10**6, threads=8)
    assert np.array_equal(a, b) and np.array_equal(b, c)


def test_prime_count_classics():
    assert prime_count(10) == 4
    assert prime_count(10**4) == 1229
    assert prime_count(10**6) == 78498


def _theta_by_pairwise_sum(n: int) -> float:
    p = sieve_range(0, n + 1)
    return pairwise_sum(np.log(p.astype(np.float64)))


def _psi_by_pairwise_sum(n: int) -> float:
    # theta(n) + theta(n^(1/2)) + theta(n^(1/3)) + ..., added in that order
    total = _theta_by_pairwise_sum(n) if n >= 2 else 0.0
    for k in range(2, max(n, 1).bit_length()):
        r = int(n ** (1.0 / k)) + 1
        while r ** k > n:
            r -= 1
        total += _theta_by_pairwise_sum(r)
    return total


def test_theta_and_psi_from_kept_chunk_sums_are_the_tree(monkeypatch):
    # from an empty cache: n = 1000 needs no whole chunk and keeps none,
    # 7e5 grows the table and keeps every whole chunk of it, a larger n
    # grows both, a smaller one reads a prefix; n comes in shuffled order,
    # at the primes that end and start chunks (index 4095, 4096, ...) and
    # below 2
    monkeypatch.setattr(primes, "_cache",
                        {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
    edges = sieve_range(0, 200_000)[[4094, 4095, 4096, 8191, 8192, 16383, 16384]]
    rng = random.Random(48)
    ns = [int(p) + d for p in edges for d in (-1, 0, 1)]
    ns += [rng.randrange(2, 3_000_000) for _ in range(20)] + [-3, 0, 1, 2, 3]
    rng.shuffle(ns)
    kept = []
    for n in [1000, 700_000] + ns + [100]:
        assert chebyshev_theta(n) == _theta_by_pairwise_sum(n), n
        kept.append(primes._cache.get("theta", np.empty(0)).size)
    assert kept[0] == 0
    assert kept[1] == primes_upto(700_000).size // 4096 == 13
    assert kept == sorted(kept) and kept[-1] >= prime_count(max(ns)) // 4096
    assert not primes._cache["theta"].flags.writeable
    for n in ns[:10] + [-3, 1, 2, 4, 2_999_999]:
        assert chebyshev_psi(n) == _psi_by_pairwise_sum(n), n


def test_primes_upto_cache_consistency():
    small = primes_upto(100)
    big = primes_upto(10**5)
    assert np.array_equal(small, big[big <= 100])


def test_primes_upto_grows_by_sieving_the_tail(monkeypatch):
    calls = []

    def recording(lo, hi, threads=1):
        calls.append((lo, hi))
        return sieve_range(lo, hi, threads)

    monkeypatch.setattr(primes, "_cache",
                        {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
    monkeypatch.setattr(primes, "sieve_range", recording)
    primes_upto(1000)
    old_hi = primes._cache["hi"]
    primes_upto(3 * old_hi)
    new_hi = primes._cache["hi"]
    assert calls == [(0, old_hi), (old_hi, new_hi)]
    assert np.array_equal(primes._cache["primes"], sieve_range(0, new_hi))


def test_von_mangoldt_values():
    assert von_mangoldt(1) == 0.0
    assert abs(von_mangoldt(4) - math.log(2)) < 1e-15
    assert von_mangoldt(6) == 0.0
    assert abs(von_mangoldt(9) - math.log(3)) < 1e-15
    assert abs(von_mangoldt(13) - math.log(13)) < 1e-15


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=80, deadline=None)
def test_von_mangoldt_matches_factorization(n):
    # oracle: direct factorization by trial division
    m, fac = n, {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    want = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
    assert abs(von_mangoldt(n) - want) < 1e-12


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(2) == -1
    assert mobius(30) == -1
    with pytest.raises(ValueError, match="n >= 1"):
        mobius(0)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_mobius_dirichlet_identity(n):
    # sum of mu over divisors is the unit indicator
    s = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
    assert s == (1 if n == 1 else 0)


def test_chebyshev_small_values():
    assert abs(chebyshev_theta(10) - sum(math.log(p) for p in (2, 3, 5, 7))) < 1e-12
    # psi(10) = theta(10) + log2 (from 4,8) + log3 (from 9)
    want = sum(math.log(p) for p in (2, 3, 5, 7)) + 2 * math.log(2) + math.log(3)
    assert abs(chebyshev_psi(10) - want) < 1e-12
    # theta(10) = ln 210, psi(10) = ln 2520
    assert abs(chebyshev_theta(10) - 5.347107530717468) < 1e-12
    assert abs(chebyshev_psi(10) - 7.832014180505469) < 1e-12


def test_chebyshev_non_integer_cutoff():
    assert chebyshev_theta(10.9) == chebyshev_theta(10)
    assert chebyshev_psi(2.5) == math.log(2)


@pytest.mark.parametrize("n", [-5, 0, 1, 1.9])
def test_chebyshev_psi_below_two_is_zero(n):
    assert chebyshev_psi(n) == 0.0


@pytest.mark.parametrize("n", [1, 2, 100, 10 ** 5, 10 ** 6])
def test_chebyshev_theta_is_pairwise_sum_of_the_logs(n):
    # the whole chunks' sums are kept, the tail's made per call; the tree
    # is the whole array's
    p = primes_upto(n)
    assert chebyshev_theta(n) == pairwise_sum(np.log(p.astype(np.float64)))


def test_von_mangoldt_range_matches_pointwise(monkeypatch):
    # lo > 0, windows across the cache's first bound, hi <= lo and hi <= 2
    for lo, hi in [(1, 301), (0, 2), (0, 3), (-3, 2), (1000, 1100),
                   (65500, 65600), (6, 2), (7, 7)]:
        lam = von_mangoldt_range(lo, hi)
        assert lam.shape == (max(hi - lo, 0),)
        for n in range(lo, hi):
            assert abs(lam[n - lo] - von_mangoldt(max(n, 1))) < 1e-12
    # from an empty cache a window far above 0 sieves [0, hi) once
    calls = []

    def recording(lo, hi, threads=1):
        calls.append((lo, hi))
        return sieve_range(lo, hi, threads)

    monkeypatch.setattr(primes, "_cache",
                        {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
    monkeypatch.setattr(primes, "sieve_range", recording)
    lo, hi = 200003, 200403  # 200003 is prime
    lam = von_mangoldt_range(lo, hi)
    assert calls == [(0, hi)]
    assert lam[0] == math.log(lo)
    for n in range(lo, hi):
        assert abs(lam[n - lo] - von_mangoldt(n)) < 1e-12


@pytest.mark.parametrize("lo, hi", [
    # the windows of test_von_mangoldt_range_matches_pointwise
    (1, 301), (0, 2), (0, 3), (-3, 2), (1000, 1100), (65500, 65600),
    (6, 2), (7, 7),
    # 2^10; 31^2; 2^20 with primes and composites around it
    (1020, 1030), (961, 962), (2**20 - 3, 2**20 + 3)])
def test_prime_powers_match_pointwise(lo, hi):
    n, lam = prime_powers(lo, hi)
    assert n.dtype == np.int64 and lam.dtype == np.float64
    assert np.all(np.diff(n) > 0)
    want = [m for m in range(max(lo, 2), hi) if von_mangoldt(m)]
    assert n.tolist() == want
    for m, value in zip(want, lam.tolist()):
        (p, e), = factorize(m)
        if e > 1:
            assert value == math.log(p)  # bit for bit
        else:
            assert abs(value - math.log(p)) < 1e-12


def test_prime_powers_from_empty_cache_sieve_once(monkeypatch):
    calls = []

    def recording(lo, hi, threads=1):
        calls.append((lo, hi))
        return sieve_range(lo, hi, threads)

    monkeypatch.setattr(primes, "_cache",
                        {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
    monkeypatch.setattr(primes, "sieve_range", recording)
    lo, hi = 2**20 - 3, 2**20 + 3
    n, lam = prime_powers(lo, hi)
    assert calls == [(0, hi)]
    assert n.tolist() == [lo, 2**20]  # 2^20 - 3 is prime
    assert lam[1] == math.log(2)


def test_spf_table_values():
    spf = spf_table(50)
    for n in range(2, 51):
        d = 2
        while n % d:
            d += 1
        assert spf[n] == d
    for n in range(5):
        assert spf_table(n).tolist() == [0, 1, 2, 3, 2][:n + 1]
    # p^2 is the first entry p strikes; the table ends there or just past
    for p in (2, 3, 5, 7, 31, 97, 1009):
        for n in (p * p, p * p + 1):
            spf = spf_table(n)
            assert spf[p] == spf[p * p] == p
            assert spf[n] == factorize(n)[0][0]


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=20000))
@settings(max_examples=60, deadline=None)
def test_divisors_brute_force(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_theta_pi_prefix():
    theta, pi = theta_pi_prefix(100)
    assert pi[10] == 4 and pi[100] == 25
    assert abs(theta[10] - chebyshev_theta(10)) < 1e-12
    # prefix arrays are cumulative: differences vanish off the primes
    ps = set(sieve_range(0, 100).tolist())
    for n in range(2, 101):
        step = theta[n] - theta[n - 1]
        if n in ps:
            assert abs(step - math.log(n)) < 1e-12
        else:
            assert step == 0.0


def test_pi_bound_bounds_pi():
    # every x up to 2^20: pi steps up only at primes, and the bound is
    # constant below e and increasing above it
    pr = primes_upto(1 << 20)
    bounds = np.array([primes.pi_bound(x) for x in pr.tolist()])
    assert np.all(np.arange(1, pr.size + 1) <= bounds)
    assert primes.pi_bound(-1.0) == primes.pi_bound(math.e) >= 1.0
    assert math.isfinite(primes.pi_bound(1.7e308))


def _theta_pi_per_step(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the Neumaier running prefix stepped over every s <= kmax."""
    lam = np.zeros(kmax + 1, dtype=np.float64)
    pr = primes_upto(kmax)
    lam[pr] = np.log(pr.astype(np.float64))
    ind = np.zeros(kmax + 1, dtype=np.int64)
    ind[pr] = 1
    theta = np.zeros(kmax + 1, dtype=np.float64)
    run = comp = 0.0
    for s in range(1, kmax + 1):
        v = lam[s]
        t = run + v
        if abs(run) >= abs(v):
            comp += (run - t) + v
        else:
            comp += (v - t) + run
        run = t
        theta[s] = run + comp
    return theta, np.cumsum(ind)


@pytest.mark.parametrize("kmax", [0, 1, 2, 3, 4, 96, 97, 99989, 99990,
                                  99991, 10 ** 5])
def test_theta_pi_prefix_matches_the_per_step_loop(kmax):
    # stepping over the primes and filling forward adds the +0.0 of each
    # non-prime step nowhere, which changes no bit
    theta, pi = theta_pi_prefix(kmax)
    want_theta, want_pi = _theta_pi_per_step(kmax)
    assert theta.dtype == want_theta.dtype and pi.dtype == want_pi.dtype
    assert theta.tobytes() == want_theta.tobytes()
    assert pi.tobytes() == want_pi.tobytes()


def test_build_table_threads_identical():
    # a range that starts past 0 (criterion 10 only sieves from 0) and
    # spans three segment jobs, so the thread pool actually runs
    hi = 10**5 + 5 * primes.SEGMENT
    a = sieve_range(10**5, hi, threads=1)
    b = sieve_range(10**5, hi, threads=7)
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(a, primes_upto(hi - 1)[primes_upto(10**5 - 1).size:])
