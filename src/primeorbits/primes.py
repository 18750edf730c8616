"""Prime tables, Chebyshev sums and small arithmetic functions.

Sieving is segmented and vectorized: a boolean block of odd numbers per
segment, base primes struck out with numpy slice strides.  Segments are
independent, so a thread pool may process them concurrently; results are
combined in segment order, which keeps every derived quantity identical
whatever the worker count.  Only primes_upto's cache calls sieve_range;
prime powers, Lambda ranges and spf tables read that cache, so a run
sieves once.

The cache also keeps, frozen, the sum of log p over each whole CHUNK of
the prime table: the first level of pairwise_sum's tree over the logs.
chebyshev_theta(n) adds the kept sums of the whole chunks below n and
the one sum of the partial tail by halving_sum, the tree bit for bit, so
a theta or psi call takes the logarithm of fewer than CHUNK primes.  A
call past the kept sums extends them over the whole current table, a
_BLOCK of logs at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .accum import _BLOCK, CHUNK, chunk_sums, chunked, halving_sum

SEGMENT = 1 << 20  # odd numbers per block, ~1 MiB of flags
# bytes per prime p <= x that a cold primes_upto(x) and then
# chebyshev_psi(x) hold at their peak: the sieve's parts and their join
# into the cache's int64 table; theta's logs are made a block at a time
# (tracemalloc: 16.01 at x = 3e7, 16.00 at 1e8)
TABLE_BYTES_PER_PRIME = 17


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi)."""
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


def _base_primes(n: int) -> np.ndarray:
    """All primes <= n, by _sieve_segment over the primes <= sqrt(n) found
    the same way; below 9 no odd number is composite, so none are needed."""
    base = _base_primes(math.isqrt(n)) if n >= 9 else np.empty(0, dtype=np.int64)
    return _sieve_segment(0, n + 1, base)


def sieve_range(lo: int, hi: int, threads: int = 1) -> np.ndarray:
    """Primes in [lo, hi), segmented; deterministic for any thread count."""
    lo = max(int(lo), 0)
    hi = int(hi)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    base = _base_primes(math.isqrt(max(hi - 1, 1)))
    bounds = list(range(lo, hi, 2 * SEGMENT)) + [hi]
    jobs = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ab: _sieve_segment(*ab, base), jobs))
    else:
        parts = [_sieve_segment(a, b, base) for a, b in jobs]
    return np.concatenate(parts)


# -- cached global table ---------------------------------------------------

# primes_upto's table, and from the first theta that needs them the kept
# chunk sums of log p under "theta".  The sums depend on the primes alone,
# which every table holds in the same order, so a cache reset to an empty
# table may keep them
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


def pi_bound(x: float) -> float:
    """An upper bound on pi(x) for every real x: 1.25506 x / log x
    (Rosser-Schoenfeld, Illinois J. Math. 6 (1962)), taken at x >= e,
    where it is at least pi(e) = 1.  Finite for every finite x."""
    x = max(float(x), math.e)
    return x / math.log(x) * 1.25506


def prime_count(n: int) -> int:
    """pi(n)."""
    return int(primes_upto(n).size)


def _theta_chunks(count: int) -> np.ndarray:
    """The sums of log p over the first `count` whole CHUNKs of the prime
    table, from the kept ones.  Past them the kept sums are extended over
    every whole chunk of the table, the logs made a _BLOCK at a time;
    _BLOCK is a multiple of CHUNK, so they are chunk_sums of the whole."""
    kept = _cache.get("theta", np.empty(0))
    if kept.size < count:
        table = _cache["primes"]
        start, stop = kept.size * CHUNK, table.size - table.size % CHUNK
        sums = np.empty(stop // CHUNK)
        sums[:kept.size] = kept
        for lo, hi in chunked(stop - start, _BLOCK):
            sums[(start + lo) // CHUNK:(start + hi) // CHUNK] = chunk_sums(
                np.log(table[start + lo:start + hi].astype(np.float64)))
        sums.flags.writeable = False
        _cache["theta"] = kept = sums
    return kept[:count]


def chebyshev_theta(n: float) -> float:
    """Sum of log p over primes p <= n by pairwise_sum's tree: the kept
    sums of the whole chunks, then the sum of the partial tail."""
    p = primes_upto(int(n))
    whole = p.size // CHUNK
    tail = chunk_sums(np.log(p[whole * CHUNK:].astype(np.float64)))
    return float(halving_sum(np.concatenate([_theta_chunks(whole), tail])))


def _int_root(n: int, k: int) -> int:
    """Floor of n**(1/k) in exact integer arithmetic, n >= 1."""
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


def prime_powers(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n in [lo, hi), ascending as int64, and Lambda(n)
    as float64, off the prime cache.

    The primes are a slice of primes_upto(hi - 1), weighted by np.log;
    the powers p^k, k >= 2, of the cached primes up to sqrt(hi - 1) are
    weighted by math.log(p) and merged into place.  With no power in the
    window, n is a read-only view of the cache.
    """
    lo, hi = int(lo), int(hi)
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    pr = primes_upto(hi - 1)
    n = pr[np.searchsorted(pr, lo):]
    lam = np.log(n.astype(np.float64))
    powers = []
    for p in primes_upto(math.isqrt(max(hi - 1, 0))).tolist():
        pw = p * p
        while pw < hi:
            if pw >= lo:
                powers.append((pw, math.log(p)))
            pw *= p
    if not powers:
        return n, lam
    # merged by a list sort and a mask: on first use np.argsort and the
    # sort inside np.insert raised a process's peak RSS by 0.25-0.5 MB
    powers.sort()
    pk = np.array([q for q, _ in powers], dtype=np.int64)
    at = np.searchsorted(n, pk) + np.arange(pk.size)  # places in the merge
    rest = np.ones(n.size + pk.size, dtype=bool)
    rest[at] = False
    out_n, out_lam = np.empty(rest.size, dtype=np.int64), np.empty(rest.size)
    out_n[at], out_n[rest] = pk, n
    out_lam[at], out_lam[rest] = [w for _, w in powers], lam
    return out_n, out_lam


def von_mangoldt_range(lo: int, hi: int) -> np.ndarray:
    """Lambda(n) for n in [lo, hi) as a dense array: prime_powers
    scattered into zeros."""
    lo, hi = int(lo), int(hi)
    arr = np.zeros(max(hi - lo, 0), dtype=np.float64)
    n, lam = prime_powers(lo, hi)
    arr[n - lo] = lam
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, by trial division."""
    n = int(n)
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: list[tuple[int, int]] = []
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


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p if n is a power of the prime p, else 0."""
    if n < 2:
        return 0.0
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def mobius(n: int) -> int:
    """Moebius function."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    if n == 1:
        return 1
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


# -- prefix sums for weighted averages --------------------------------------


def theta_pi_prefix(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays theta[s], pi[s] for s = 0..kmax with compensated prefixes.

    The Neumaier running sum steps over the pi(kmax) primes only and is
    filled forward to the s between them: at a non-prime s the per-s loop
    would add exactly +0.0 to the sum and to its compensation, so theta is
    the same bit for bit."""
    kmax = int(kmax)
    pr = primes_upto(kmax)
    at_prime = np.empty(pr.size + 1, dtype=np.float64)  # [0]: before 2
    at_prime[0] = run = comp = 0.0
    for i, v in enumerate(np.log(pr.astype(np.float64)).tolist(), start=1):
        t = run + v
        if abs(run) >= abs(v):
            comp += (run - t) + v
        else:
            comp += (v - t) + run
        run = t
        at_prime[i] = run + comp
    pi = np.zeros(kmax + 1, dtype=np.int64)
    pi[pr] = 1
    pi = np.cumsum(pi)
    return at_prime[pi], pi
