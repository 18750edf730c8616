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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes
from .accum import kahan_sum, reduce_parts
from .expsum import _phase_sum
from .regvar import RegVarFunction


@dataclass(frozen=True)
class VaughanParams:
    v: float
    w: float

    def __post_init__(self):
        if self.v < 1.0 or self.w < 1.0:
            raise ValueError("cutoffs must be >= 1")


def default_params(P1: float) -> VaughanParams:
    """The block-sum choice v = w = P1**(1/3) / 2."""
    v = float(P1) ** (1.0 / 3.0) / 2.0
    return VaughanParams(max(v, 1.0), max(v, 1.0))


def pi_vw(l: int, v: float, w: float,
          spf: np.ndarray | None = None) -> float:
    """sum of Lambda(r) mu(s) over factorizations l = r*s, r<=v, s<=w."""
    total = 0.0
    for r in primes.divisors(l, spf):
        if r > v:
            break
        lam = primes.von_mangoldt(r, spf)
        if lam == 0.0:
            continue
        s = l // r
        if s <= w:
            total += lam * primes.mobius(s, spf)
    return total


def xi_w(l: int, w: float, spf: np.ndarray | None = None) -> int:
    """sum of mu(d) over divisors d of l exceeding w."""
    return sum(primes.mobius(d, spf) for d in primes.divisors(l, spf) if d > w)


def lambda_via_vaughan(n: int, v: float, w: float,
                       spf: np.ndarray | None = None) -> float:
    """Reassemble Lambda(n) from the three combinatorial terms (n > v)."""
    n = int(n)
    if n <= v:
        raise ValueError("identity requires n > v")
    ds = primes.divisors(n, spf)
    t1 = kahan_sum(math.log(n // l) * primes.mobius(l, spf)
                   for l in ds if l <= w and n // l >= 1)
    t2 = kahan_sum(pi_vw(l, v, w, spf) for l in ds if l <= v * w)
    t3 = kahan_sum(primes.von_mangoldt(n // l, spf) * xi_w(l, w, spf)
                   for l in ds if l > w and n // l > v)
    return t1 - t2 + t3


# -- bilinear block sums -----------------------------------------------------


@dataclass(frozen=True)
class VaughanSplit:
    P: float
    P1: float
    xi: float
    m: int
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


def _phase_weighted(h: RegVarFunction, idx: np.ndarray, freq: float,
                    weights: np.ndarray) -> complex:
    return _phase_sum(weights.size, lambda lo, hi: weights[lo:hi],
                      h.value(idx.astype(np.float64)), freq)


def exp_sum_split(h: RegVarFunction, P: float, P1: float, xi: float, m: int,
                  params: VaughanParams | None = None) -> VaughanSplit:
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
    iP1 = int(math.floor(P1))
    spf = primes.spf_table(iP1)
    lam_dense = primes.von_mangoldt_range(0, iP1 + 1)

    def k_range(l: int) -> np.ndarray:
        lo = int(math.floor(P / l))
        hi = int(math.floor(P1 / l))
        return np.arange(lo + 1, hi + 1, dtype=np.int64)

    terms = 0
    parts1, parts21, parts22, parts3 = [], [], [], []
    for l in range(1, int(math.floor(w)) + 1):
        mu = primes.mobius(l, spf)
        ks = k_range(l)
        if mu and ks.size:
            parts1.append(mu * _phase_weighted(
                h, ks * l, freq, np.log(ks.astype(np.float64))))
            terms += ks.size
    for l in range(1, int(math.floor(v * w)) + 1):
        coef = pi_vw(l, v, w, spf)
        if coef == 0.0:
            continue
        ks = k_range(l)
        if ks.size:
            ones = np.ones(ks.size)
            target = parts21 if l <= v else parts22
            target.append(coef * _phase_weighted(h, ks * l, freq, ones))
            terms += ks.size
    for l in range(int(math.floor(w)) + 1, int(math.floor(P1 / v)) + 1):
        coef = xi_w(l, w, spf)
        if coef == 0:
            continue
        ks = k_range(l)
        ks = ks[ks > v]
        if ks.size:
            wts = lam_dense[ks]
            mask = wts != 0.0
            if mask.any():
                parts3.append(coef * _phase_weighted(
                    h, ks[mask] * l, freq, wts[mask]))
            terms += ks.size
    n = np.arange(int(math.floor(P)) + 1, iP1 + 1, dtype=np.int64)
    wts = lam_dense[n]
    mask = wts != 0.0
    ref = _phase_weighted(h, n[mask], freq, wts[mask]) if mask.any() else 0j
    return VaughanSplit(P, P1, float(xi), int(m), params,
                        reduce_parts(parts1), reduce_parts(parts21),
                        reduce_parts(parts22), reduce_parts(parts3),
                        complex(ref), terms)
