"""Reference values the benchmark checks the library's outputs against.

Nothing here calls the library to produce a reference: primes come from a
sieve written here, floors of h from a 40-digit mpmath evaluation of the
function's defining formula, integer counts from known tables or from
exhaustive loops.  The library is only called to produce the values under
test.  For the default seed, every float a request returns is also
compared with the value recorded at the seed commit (reference.json),
within REL_TOL of the request's scale.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np

DEFAULT_SEED = 1
REL_TOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# pi(10^k), and the zero counting function N(T) at T = 100, 1000, 10000
KNOWN_PI = {10 ** 4: 1229, 10 ** 5: 9592, 10 ** 6: 78498, 10 ** 7: 664579}
KNOWN_ZERO_COUNT = {100.0: 29, 1000.0: 649, 10000.0: 10142}


# -- primes and von Mangoldt ---------------------------------------------------


@lru_cache(maxsize=4)
def _sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def own_primes(n: int) -> np.ndarray:
    """Primes <= n by a plain sieve of Eratosthenes to the next power of 10."""
    p = _sieve(10 ** max(3, math.ceil(math.log10(max(int(n), 2)))))
    return p[:np.searchsorted(p, n, side="right")]


def own_theta(x: float) -> float:
    return math.fsum(np.log(own_primes(int(x)).astype(np.float64)))


def own_lambda(n: int) -> float:
    """Lambda(n) by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n) if n > 1 else 0.0


def own_psi(x: float) -> float:
    """Chebyshev psi(x) = sum over prime powers p^k <= x of log p."""
    x = int(x)
    p = own_primes(x)
    total = own_theta(x)
    for q in p[p <= math.isqrt(x)]:
        q = int(q)
        k = math.floor(math.log(x) / math.log(q)) + 1
        while q ** k > x:
            k -= 1
        total += (k - 1) * math.log(q)
    return total


def zero_count_estimate(T: float) -> float:
    """Riemann-von Mangoldt main term for N(T)."""
    return T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0


# -- floors of h ------------------------------------------------------------------


def mp_value(spec: dict, x: int) -> mpmath.mpf:
    """h(x) at 40 digits from the defining formula of the spec's kind."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(int(x))
        L = mpmath.log(xm)
        c = mpmath.mpf(spec["c"])
        kind = spec["kind"]
        if kind == "pure":
            v = xm ** c
        elif kind == "logpow":
            v = xm ** c * L ** mpmath.mpf(spec["a"])
        elif kind == "explog":
            v = xm ** c * mpmath.exp(mpmath.mpf(spec["a"]) * L ** mpmath.mpf(spec["b"]))
        elif kind == "itlog":
            lk = L
            for _ in range(1, spec["depth"]):
                lk = mpmath.log(lk)
            v = xm ** c * lk
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return +v


def mp_floor(spec: dict, x: int) -> int:
    """floor(h(x)); a value within 1e-30 of an integer is that integer."""
    v = mp_value(spec, x)
    r = mpmath.nint(v)
    return int(r) if abs(v - r) < mpmath.mpf("1e-30") else int(mpmath.floor(v))


def own_floors(spec: dict, xs) -> list[int]:
    return [mp_floor(spec, int(x)) for x in xs]


def check_floor_sample(expsum, h, spec: dict, xs) -> list[str]:
    """The library's guarded floors at xs against the 40-digit floors."""
    xs = np.asarray(sorted(set(int(x) for x in xs)), dtype=np.int64)
    got, _ = expsum.guarded_floor(h, xs.astype(np.float64))
    want = own_floors(spec, xs)
    bad = [f"floor h({x})={g} != {w}" for x, g, w in zip(xs, got.tolist(), want)
           if g != w]
    return bad[:3]


# -- Waring counts ------------------------------------------------------------------


def own_histogram(spec: dict, lam_max: int) -> np.ndarray:
    """g[s] = #{m >= 1 : floor(h(m)) = s}, s <= lam_max, for a pure power."""
    if spec["kind"] != "pure":
        raise ValueError("histogram oracle covers pure powers only")
    g = np.zeros(lam_max + 1, dtype=np.int64)
    m = 1
    while True:
        f = _fast_floor(spec, m)
        if f > lam_max:
            return g
        g[f] += 1
        m += 1


def _fast_floor(spec: dict, m: int) -> int:
    # a double evaluation decides unless it lies within 1e-9 of an integer
    v = m ** spec["c"]
    fl = math.floor(v)
    if 1e-9 < v - fl < 1.0 - 1e-9:
        return fl
    return mp_floor(spec, m)


def oracle_counts(specs, lam_max: int) -> np.ndarray:
    """r(lambda) for lambda <= lam_max by an exhaustive loop over (m1, m2),
    with the third index counted from its histogram."""
    f1 = [s for s, k in enumerate(own_histogram(specs[0], lam_max)) for _ in range(k)]
    f2 = [s for s, k in enumerate(own_histogram(specs[1], lam_max)) for _ in range(k)]
    g3 = own_histogram(specs[2], lam_max)
    r = np.zeros(lam_max + 1, dtype=np.int64)
    for a in f1:
        for b in f2:
            base = a + b
            if base > lam_max:
                break
            r[base:] += g3[:lam_max + 1 - base]
    return r


def oracle_count_at(specs, lam: int) -> int:
    """r(lam) from histograms built here, summed exactly."""
    g = [own_histogram(s, lam) for s in specs]
    total = 0
    for a in np.flatnonzero(g[0]):
        rest = lam - a
        total += int(g[0][a]) * int(np.dot(g[1][:rest + 1], g[2][rest::-1]))
    return total


# -- recorded values ------------------------------------------------------------------


@lru_cache(maxsize=1)
def _reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def recorded(workload: str, seed: int, rid: str):
    """The value recorded at the seed commit, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    table = _reference().get(workload, {})
    return table.get(rid, "missing")


def compare(got, want, scale: float = 1.0, path: str = "") -> list[str]:
    """Integers and strings must match exactly, floats within
    REL_TOL * max(|want|, scale); NaN matches NaN."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            out += compare(got[k], want[k], scale, f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, scale, f"{path}[{i}]")
        return out
    if isinstance(want, bool) or isinstance(want, str) or isinstance(want, int):
        return [] if got == want and type(got) is type(want) else \
            [f"{path}: {got!r} != recorded {want!r}"]
    if want is None or got is None:
        return [] if got is want else [f"{path}: {got!r} != recorded {want!r}"]
    if math.isnan(want):
        return [] if math.isnan(got) else [f"{path}: {got!r} != recorded nan"]
    if abs(got - want) <= REL_TOL * max(abs(want), scale):
        return []
    return [f"{path}: {got!r} differs from recorded {want!r}"]
