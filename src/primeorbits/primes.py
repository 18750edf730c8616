"""Prime tables, Chebyshev sums and small arithmetic functions.

Sieving is segmented and vectorized: a boolean block of odd numbers per
segment, base primes struck out with numpy slice strides.  Segments are
independent, so a thread pool may process them concurrently; results are
combined in segment order, which keeps every derived quantity identical
whatever the worker count.  Only primes_upto's cache calls sieve_range;
Lambda ranges and spf tables read that cache, so a run sieves once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .accum import kahan_sum, pairwise_sum

SEGMENT = 1 << 20  # odd numbers per block, ~1 MiB of flags


def _simple_sieve(n: int) -> np.ndarray:
    """All primes <= n by a dense odd-only sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n < 3:
        return np.array([2], dtype=np.int64)
    m = (n - 1) // 2  # flags for 3, 5, ..., indices i -> 2i+3
    flags = np.ones(m, dtype=bool)
    for i in range(min(int(math.isqrt(n)) // 2 + 1, m)):
        if flags[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            flags[start::p] = False
    return np.concatenate([[2], 2 * np.flatnonzero(flags) + 3]).astype(np.int64)


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi)."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    out = []
    if lo <= 2 < hi:
        out.append(np.array([2], dtype=np.int64))
    first = max(lo, 3) | 1  # first odd candidate
    if first < hi:
        m = (hi - first + 1) // 2
        flags = np.ones(m, dtype=bool)
        for p in base[1:]:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((first + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                flags[(start - first) // 2::p] = False
        out.append(first + 2 * np.flatnonzero(flags).astype(np.int64))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def sieve_range(lo: int, hi: int, threads: int = 1) -> np.ndarray:
    """Primes in [lo, hi), segmented; deterministic for any thread count."""
    lo = max(int(lo), 0)
    hi = int(hi)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    base = _simple_sieve(math.isqrt(max(hi - 1, 1)))
    bounds = list(range(lo, hi, 2 * SEGMENT)) + [hi]
    jobs = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ab: _sieve_segment(*ab, base), jobs))
    else:
        parts = [_sieve_segment(a, b, base) for a, b in jobs]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# -- cached global table ---------------------------------------------------

_cache: dict = {"hi": 0, "primes": np.empty(0, dtype=np.int64)}


def primes_upto(n: int, threads: int = 1) -> np.ndarray:
    """Primes <= n from a grow-on-demand module cache, as a read-only
    view of it."""
    n = int(n)
    if n >= _cache["hi"]:
        new_hi = max(n + 1, 2 * _cache["hi"], 1 << 16)
        tail = sieve_range(_cache["hi"], new_hi, threads=threads)
        table = np.concatenate([_cache["primes"], tail])
        table.flags.writeable = False
        _cache["primes"] = table
        _cache["hi"] = new_hi
    k = np.searchsorted(_cache["primes"], n, side="right")
    return _cache["primes"][:k]


def prime_count(n: int) -> int:
    """pi(n)."""
    return int(primes_upto(n).size)


def chebyshev_theta(n: float) -> float:
    """Sum of log p over primes p <= n, fixed-tree summation."""
    p = primes_upto(int(n))
    if p.size == 0:
        return 0.0
    return float(pairwise_sum(np.log(p.astype(np.float64))))


def _int_root(n: int, k: int) -> int:
    """Floor of n**(1/k) in exact integer arithmetic."""
    if n < 1:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def chebyshev_psi(n: float) -> float:
    """Sum of von Mangoldt Lambda(m) for m <= n."""
    n = int(n)
    if n < 2:
        return 0.0
    total = chebyshev_theta(n)
    k = 2
    while True:
        r = _int_root(n, k)
        if r < 2:
            break
        total += chebyshev_theta(r)
        k += 1
    return total


def von_mangoldt_range(lo: int, hi: int) -> np.ndarray:
    """Lambda(n) for n in [lo, hi) as a dense array, off the prime cache."""
    lo, hi = int(lo), int(hi)
    if hi <= lo:
        return np.empty(0, dtype=np.float64)
    arr = np.zeros(hi - lo, dtype=np.float64)
    pr = primes_upto(hi - 1)
    pr = pr[np.searchsorted(pr, lo):]
    arr[pr - lo] = np.log(pr.astype(np.float64))
    for p in primes_upto(math.isqrt(max(hi - 1, 0))).tolist():
        pw = p * p
        while pw < hi:
            if pw >= lo:
                arr[pw - lo] = math.log(p)
            pw *= p
    return arr


# -- scalar arithmetic functions -------------------------------------------


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor for 0..n (0 and 1 map to themselves)."""
    n = int(n)
    spf = np.arange(n + 1, dtype=np.int64)
    # descending, so the smallest prime dividing m is written last
    for p in primes_upto(math.isqrt(n))[::-1].tolist():
        spf[p * p::p] = p
    return spf


def factorize(n: int, spf: np.ndarray | None = None) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs."""
    n = int(n)
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: list[tuple[int, int]] = []
    if spf is not None and n < spf.size:
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int, spf: np.ndarray | None = None) -> list[int]:
    """All positive divisors, ascending."""
    ds = [1]
    for p, e in factorize(n, spf):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def von_mangoldt(n: int, spf: np.ndarray | None = None) -> float:
    """Lambda(n): log p if n is a power of the prime p, else 0."""
    if n < 2:
        return 0.0
    f = factorize(n, spf)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def mobius(n: int, spf: np.ndarray | None = None) -> int:
    """Moebius function."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    if n == 1:
        return 1
    f = factorize(n, spf)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


# -- prefix sums for weighted averages --------------------------------------


def theta_pi_prefix(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays theta[s], pi[s] for s = 0..kmax with compensated prefixes."""
    kmax = int(kmax)
    lam = np.zeros(kmax + 1, dtype=np.float64)
    pr = primes_upto(kmax)
    lam[pr] = np.log(pr.astype(np.float64))
    ind = np.zeros(kmax + 1, dtype=np.int64)
    ind[pr] = 1
    theta = np.zeros(kmax + 1, dtype=np.float64)
    run = 0.0
    comp = 0.0
    for s in range(1, kmax + 1):  # Neumaier running prefix
        v = lam[s]
        t = run + v
        if abs(run) >= abs(v):
            comp += (run - t) + v
        else:
            comp += (v - t) + run
        run = t
        theta[s] = run + comp
    return theta, np.cumsum(ind)
