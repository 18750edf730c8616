"""Combinatorial decomposition of von Mangoldt weighted sums.

For cutoffs v, w >= 1 and n > v the weight Lambda(n) splits exactly into

    Lambda(n) =   sum_{kl=n, l<=w}        log(k) mu(l)
                - sum_{kl=n, l<=vw}       pi_vw(l)
                + sum_{kl=n, k>v, l>w}    Lambda(k) xi_w(l)

with pi_vw(l) = sum_{rs=l, r<=v, s<=w} Lambda(r) mu(s) and
xi_w(l) = sum_{d|l, d>w} mu(d).  Applying the split to a smooth phase
g(n) = e((xi + m) h(n)) over a block (P, P1] turns the block sum into
four bilinear sums S1, S21, S22, S3 with S1 - S21 - S22 + S3 equal to
the direct sum; everything here is exact integer combinatorics paired
with float weights, so the identity holds to rounding error.

The scalar pi_vw, xi_w and lambda_via_vaughan transcribe the formulas
literally, one integer at a time.  lambda_via_vaughan_upto and
exp_sum_split read the same coefficients off arithmetic tables built
once per call (mu up to w, pi_vw up to vw, xi_w by Dirichlet sieving,
Lambda only over the k that S3 reads) and never factorize an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes
from .accum import chunked, halving_sum
from .expsum import _CHUNK, _phase_sum, von_mangoldt_block_sum
from .regvar import RegVarFunction

# bytes per n that a vaughan-check identity row holds at its peak: the
# range form's log k, t1, t2, t3 and xi_w tables, plus the caller's
# Lambda and difference (tracemalloc, primes cached: 48.7-50.7 at 1e6;
# a whole cold vaughan-check, sieve and split cases included: 58.0-58.2
# at nmax = 2e5 and 1e6)
IDENTITY_BYTES_PER_N = 80
# peak bytes of one exp_sum_split with P1 <= 12000, the size of the
# vaughan-check split cases: Lambda up to P1 and the gathered terms
# (tracemalloc: at most 1.87 MB over 300 seeded cases and P = 23)
SPLIT_BYTES = 2 << 20
# terms of a bilinear sum gathered at once: the gather holds about 64
# bytes a term at its peak, so a quarter of expsum's chunk is 17 MB
_PIECE = _CHUNK >> 2


@dataclass(frozen=True)
class VaughanParams:
    v: float
    w: float

    def __post_init__(self):
        if self.v < 1.0 or self.w < 1.0:
            raise ValueError("cutoffs must be >= 1")


class VaughanWork:
    """What one vaughan-check did, as counts, for its `# work:` note."""

    def __init__(self):
        self.sieve_terms = 0  # entries the range identity's t1, t2, t3 added
        self.split_terms = 0  # VaughanSplit.n_terms over all split cases
        self.phase_sums = 0   # the splits' _phase_sum calls, references too

    def note(self) -> str:
        return "work: " + " ".join(f"{k}={v}" for k, v in vars(self).items())


def default_params(P1: float) -> VaughanParams:
    """The block-sum choice v = w = P1**(1/3) / 2."""
    v = float(P1) ** (1.0 / 3.0) / 2.0
    return VaughanParams(max(v, 1.0), max(v, 1.0))


def pi_vw(l: int, v: float, w: float) -> float:
    """sum of Lambda(r) mu(s) over factorizations l = r*s, r<=v, s<=w."""
    total = 0.0
    for r in primes.divisors(l):
        if r > v:
            break
        lam = primes.von_mangoldt(r)
        if lam == 0.0:
            continue
        s = l // r
        if s <= w:
            total += lam * primes.mobius(s)
    return total


def xi_w(l: int, w: float) -> int:
    """sum of mu(d) over divisors d of l exceeding w."""
    return sum(primes.mobius(d) for d in primes.divisors(l) if d > w)


def kahan_sum(values) -> float:
    """Neumaier-compensated sum of a scalar Python loop."""
    s = comp = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


def lambda_via_vaughan(n: int, v: float, w: float) -> float:
    """Reassemble Lambda(n) from the three combinatorial terms (n > v)."""
    n = int(n)
    if n <= v:
        raise ValueError("identity requires n > v")
    ds = primes.divisors(n)
    t1 = kahan_sum(math.log(n // l) * primes.mobius(l)
                   for l in ds if l <= w and n // l >= 1)
    t2 = kahan_sum(pi_vw(l, v, w) for l in ds if l <= v * w)
    t3 = kahan_sum(primes.von_mangoldt(n // l) * xi_w(l, w)
                   for l in ds if l > w and n // l > v)
    return t1 - t2 + t3


# -- arithmetic tables -------------------------------------------------------


def _mobius_upto(n: int) -> np.ndarray:
    """mu(0..n) from the smallest-prime-factor table.

    mu(m) = -mu(m/p) for p = spf(m), or 0 when p divides m/p.  On the
    dyadic block [2^j, 2^(j+1)) every m/p lies below 2^j, so one block
    at a time reads only values already set.
    """
    spf = primes.spf_table(n)
    mu = np.zeros(n + 1, dtype=np.int64)
    mu[1:2] = 1
    lo = 2
    while lo <= n:
        hi = min(2 * lo, n + 1)
        p = spf[lo:hi]
        q = np.arange(lo, hi) // p
        mu[lo:hi] = np.where(q % p == 0, 0, -mu[q])
        lo = hi
    return mu


def _pi_table(mu: np.ndarray, v: float, w: float, top: int) -> np.ndarray:
    """pi_vw(0..top) for top <= vw, added over the prime powers r <= v
    ascending as pi_vw adds, so the values are pi_vw's bits.  mu covers
    0..min(w, top)."""
    pi = np.zeros(top + 1)
    rs, lam_r = primes.prime_powers(2, math.floor(v) + 1)
    for r, lam in zip(rs.tolist(), lam_r.tolist()):
        s = np.arange(1, min(math.floor(w), top // r) + 1)
        pi[r * s] += lam * mu[s]
    return pi


def _xi_table(mu: np.ndarray, w: float, top: int) -> np.ndarray:
    """xi_w(0..top) as [l=1] - sum_{d|l, d<=w} mu(d) (the full divisor
    sum of mu is [l=1]); mu covers 0..min(w, top)."""
    xi = np.zeros(top + 1, dtype=np.int64)
    xi[1:2] = 1
    for d in range(1, min(math.floor(w), top) + 1):
        if mu[d]:
            xi[d::d] -= mu[d]
    return xi


def lambda_via_vaughan_upto(nmax: int, v: float, w: float,
                            work: VaughanWork | None = None) -> np.ndarray:
    """lambda_via_vaughan(n, v, w) for n = floor(v) + 1, ..., nmax.

    Each term is a Dirichlet sieve over the table of n: t1 adds
    mu(l) log(k) at n = kl for l <= w, t2 adds pi_vw(l) at every multiple
    of l <= vw, and t3 adds Lambda(k) xi_w(l) at n = kl for each prime
    power k > v and every l > w.  Entry i of the result is n = floor(v) +
    1 + i; it agrees with the scalar form to rounding.
    """
    VaughanParams(v, w)  # refuses cutoffs below 1
    nmax, n0, iw = int(nmax), math.floor(v) + 1, math.floor(w)
    if nmax < n0:
        return np.empty(0)
    # no l above nmax divides an n <= nmax
    mu = _mobius_upto(min(iw, nmax))
    pi = _pi_table(mu, v, w, min(math.floor(v * w), nmax))
    xi = _xi_table(mu, w, nmax // n0)
    logk = np.log(np.arange(1, nmax + 1, dtype=np.float64))
    t1, t2, t3 = (np.zeros(nmax + 1) for _ in range(3))
    added = 0
    for l in np.flatnonzero(mu).tolist():
        t1[l::l] += mu[l] * logk[:nmax // l]
        added += nmax // l
    del logk
    for l in np.flatnonzero(pi).tolist():
        t2[l::l] += pi[l]
        added += nmax // l
    # prime powers k > v with room for an l > w below nmax / k
    ks, lam_k = primes.prime_powers(n0, nmax // (iw + 1) + 1)
    for k, lk in zip(ks.tolist(), lam_k.tolist()):
        top = nmax // k
        t3[k * (iw + 1)::k] += lk * xi[iw + 1:top + 1]
        added += top - iw
    if work is not None:
        work.sieve_terms += added
    t1 -= t2
    t1 += t3
    return t1[n0:]


# -- bilinear block sums -----------------------------------------------------


@dataclass(frozen=True)
class VaughanSplit:
    params: VaughanParams
    s1: complex
    s21: complex
    s22: complex
    s3: complex
    reference: complex
    n_terms: int

    @property
    def combined(self) -> complex:
        return self.s1 - self.s21 - self.s22 + self.s3

    @property
    def residual(self) -> float:
        return abs(self.combined - self.reference)


class _Bilinear:
    """sum over l of coef(l) sum_k weight(k) e(freq h(kl)), k running over
    the integers in (max(floor(P/l), kfloor), floor(P1/l)].

    The terms, l by l, are one sequence; it is summed in pieces of
    _PIECE terms, cut across l where one l has more, each piece one
    _phase_sum over its non-zero weights, so memory does not grow with
    the number of l or of terms.
    """

    def __init__(self, P: float, P1: float, ls: np.ndarray,
                 coef: np.ndarray, kfloor: int = 0):
        keep = coef != 0
        self.ls, self.coef = ls[keep], coef[keep]
        first = np.maximum(np.floor(P / self.ls).astype(np.int64), kfloor) + 1
        count = np.maximum(np.floor(P1 / self.ls).astype(np.int64) - first
                           + 1, 0)
        self.ends = np.cumsum(count)
        self.shift = first - self.ends + count  # k = term index + shift(l)
        self.terms = int(self.ends[-1]) if self.ends.size else 0

    def _terms(self, h: RegVarFunction, lo: int, hi: int, weight):
        """h(kl) and coef(l) weight(k) for the terms lo..hi-1 of non-zero
        weight; only these two arrays outlive the call."""
        seg = np.searchsorted(self.ends, np.arange(lo, hi), side="right")
        k = np.arange(lo, hi) + self.shift[seg]
        wts = self.coef[seg] * weight(k)
        keep = np.flatnonzero(wts)
        n = k[keep].astype(np.float64)  # kl <= P1: exact in a double
        del k
        n *= self.ls[seg[keep]]
        wts = wts[keep]
        del seg, keep
        return h.value(n), wts

    def sum(self, h: RegVarFunction, freq: float, weight,
            work: VaughanWork | None) -> complex:
        parts = []
        for lo, hi in chunked(self.terms, _PIECE):
            vals, wts = self._terms(h, lo, hi, weight)
            parts.append(_phase_sum(lambda a, b: wts[a:b], vals, [freq])[0])
        if work is not None:
            work.phase_sums += len(parts)
        return complex(halving_sum(np.array(parts, dtype=np.complex128)))


def exp_sum_split(h: RegVarFunction, P: float, P1: float, xi: float, m: int,
                  params: VaughanParams | None = None,
                  work: VaughanWork | None = None) -> VaughanSplit:
    """Four bilinear sums for sum_{P<n<=P1} Lambda(n) e((xi+m) h(n))."""
    P, P1 = float(P), float(P1)
    if not 2.0 <= P < P1:
        raise ValueError("need 2 <= P < P1")
    if params is None:
        params = default_params(P1)
    v, w = params.v, params.w
    if P < v:
        raise ValueError("identity requires P >= v")
    freq = float(xi) + float(m)
    iP1, iw = math.floor(P1), math.floor(w)
    # an l above P1 has no k >= 1 with kl <= P1
    mu = _mobius_upto(min(iw, iP1))
    pi = _pi_table(mu, v, w, min(math.floor(v * w), iP1))
    l1 = np.arange(1, mu.size)
    l2 = np.arange(1, pi.size)
    l3 = np.arange(iw + 1, math.floor(P1 / v) + 1)
    # S3's k run up to P1 / l with every l > w
    lam = primes.von_mangoldt_range(0, math.floor(P1 / (iw + 1)) + 1)
    xi_tab = _xi_table(mu, w, math.floor(P1 / v))
    low = l2 <= v
    sums = (
        (_Bilinear(P, P1, l1, mu[l1]),
         lambda k: np.log(k.astype(np.float64))),
        (_Bilinear(P, P1, l2[low], pi[l2[low]]), np.ones_like),
        (_Bilinear(P, P1, l2[~low], pi[l2[~low]]), np.ones_like),
        (_Bilinear(P, P1, l3, xi_tab[l3], kfloor=math.floor(v)),
         lambda k: lam[k]),
    )
    s1, s21, s22, s3 = (b.sum(h, freq, weight, work) for b, weight in sums)
    terms = sum(b.terms for b, _ in sums)
    ref, powers = von_mangoldt_block_sum(h, P, P1, freq)
    if work is not None:
        work.split_terms += terms
        work.phase_sums += int(powers > 0)
    return VaughanSplit(params, s1, s21, s22, s3, complex(ref), terms)
