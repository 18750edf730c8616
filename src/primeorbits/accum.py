"""Deterministic accumulation helpers and the phase kernels.

Every real or complex reduction in this package goes through one of the
functions below.  The reduction tree depends only on the input length
(fixed chunk size, pairwise combination in index order), never on worker
count or scheduling, so repeated runs produce byte-identical results.

Phases e(x) = exp(2*pi*i*x) take one of two routes:

  phase        any real argument n*xi: reduced modulo 1 in double-double
               arithmetic, then one complex exp per point, within
               PHASE_ERROR of the exact value;
  DigitPhase   integer arguments m*xi, 0 <= m <= top < 2^53: a product of
               entries of a few small tables of phase, one per base-2^b
               digit of m, within its stated bound; no exp per point.

Both work through their input in blocks of _BLOCK points with reused
buffers, so their temporaries stay cache-sized whatever the input size.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

CHUNK = 4096
_BLOCK = 1 << 14  # points per pass of phase and DigitPhase; buffers stay in cache
_DIGIT_BITS = 12  # widest DigitPhase digit (64 kB table); 8 timed slower, 10-14 alike
_U = 2.0 ** -53  # unit roundoff of a double
PHASE_ERROR = 28 * _U  # |phase(n, xi) - e(n*xi)| at most; see phase


def pairwise_sum(x: np.ndarray) -> complex | float:
    """Sum a 1-d array with a fixed-shape pairwise tree."""
    a = np.asarray(x).ravel()
    if a.size == 0:
        return a.dtype.type(0).item() if a.dtype != object else 0.0
    # pad to a multiple of CHUNK, sum each chunk, then halve until scalar
    n = a.size
    pad = (-n) % CHUNK
    if pad:
        a = np.concatenate([a, np.zeros(pad, dtype=a.dtype)])
    parts = a.reshape(-1, CHUNK).sum(axis=1)
    while parts.size > 1:
        if parts.size % 2:
            parts = np.concatenate([parts, np.zeros(1, dtype=parts.dtype)])
        parts = parts[0::2] + parts[1::2]
    return parts[0].item()


def reduce_parts(parts: Iterable[complex]) -> complex:
    """Combine per-chunk partial sums pairwise in index order."""
    vals = list(parts)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def kahan_sum(values: Iterable[float]) -> float:
    """Neumaier-compensated sum for scalar Python loops."""
    s = 0.0
    comp = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


def chunked(n: int, size: int = 1 << 20):
    """Yield (lo, hi) index ranges covering range(n) in fixed-size blocks."""
    lo = 0
    while lo < n:
        hi = min(lo + size, n)
        yield lo, hi
        lo = hi


def _two_prod_into(a: np.ndarray, b: float, hi: np.ndarray, lo: np.ndarray,
                   t: np.ndarray, s: np.ndarray) -> None:
    """two_prod into hi and lo, with t and s as scratch of a's length.

    Every rounding is one of the expression in two_prod, taken in the
    same order, so the bits are the same.
    """
    split = 134217729.0  # 2**27 + 1
    cb = split * b
    bhi = cb - (cb - b)
    blo = b - bhi
    np.multiply(a, b, out=hi)
    np.multiply(split, a, out=t)        # ca
    np.subtract(t, a, out=lo)           # ca - a
    np.subtract(t, lo, out=t)           # ahi = ca - (ca - a)
    np.subtract(a, t, out=lo)           # alo = a - ahi
    np.multiply(t, bhi, out=s)
    s -= hi                             # ahi*bhi - hi
    t *= blo
    s += t                              # ... + ahi*blo
    np.multiply(lo, bhi, out=t)
    s += t                              # ... + alo*bhi
    lo *= blo
    np.add(s, lo, out=lo)               # (...) + alo*blo


def two_prod(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Error-free product: a*b = hi + lo exactly (Dekker splitting).

    With ca = (2**27 + 1)*a, ahi = ca - (ca - a), alo = a - ahi and bhi,
    blo split alike: hi = a*b, lo = ((ahi*bhi - hi) + ahi*blo + alo*bhi)
    + alo*blo.
    """
    a = np.asarray(a, dtype=np.float64)
    hi, lo, t, s = (np.empty_like(a) for _ in range(4))
    _two_prod_into(a, b, hi, lo, t, s)
    return hi, lo


def _frac_blocks(n: np.ndarray, xi: float):
    """Yield (lo, hi, f), f = frac_mod1(n.ravel()[lo:hi], xi), block by block.

    f and the scratch are _BLOCK-sized buffers reused for every block.
    """
    a = np.asarray(n, dtype=np.float64).ravel()
    bufs = [np.empty(min(a.size, _BLOCK)) for _ in range(4)]
    for lo, hi in chunked(a.size, _BLOCK):
        p_hi, p_lo, f, s = (buf[:hi - lo] for buf in bufs)
        _two_prod_into(a[lo:hi], xi, p_hi, p_lo, f, s)
        np.floor(p_hi, out=f)
        np.subtract(p_hi, f, out=f)     # f = hi - floor(hi)
        f += p_lo                       # f = f + lo
        np.floor(f, out=p_hi)
        f -= p_hi                       # f -= floor(f)
        yield lo, hi, f


def frac_mod1(n: np.ndarray, xi: float) -> np.ndarray:
    """Fractional part of n*xi computed in double-double precision.

    n is an exact-integer-valued float array.  The naive product n*xi
    loses the low bits that determine the phase once n*xi is large; the
    two_prod correction restores them: with hi + lo = n*xi exactly,
    f = hi - floor(hi), f = f + lo, f -= floor(f).
    """
    out = np.empty(np.shape(n))
    flat = out.reshape(-1)
    for lo, hi, f in _frac_blocks(n, xi):
        flat[lo:hi] = f
    return out


def phase(n: np.ndarray, xi: float) -> np.ndarray:
    """exp(2*pi*i*n*xi) with double-double argument reduction.

    Negative xi is evaluated through the positive-xi path and conjugated,
    which makes conjugate symmetry in xi exact at the bit level.

    This is the direct route, one complex exp per point.  For integer
    n with |n| <= 2**53 and |xi| <= 1 its error is at most PHASE_ERROR
    (u = 2**-53): hi + lo = n*xi exactly and hi - floor(hi) is exact; the
    rounding of f + lo costs at most u and the wrap of a negative f + lo
    into [0, 1) at most u/2, so f is within 1.5u of frac(n*xi) modulo 1.
    The roundings of 2*pi and of 2*pi*f add 2*pi*(2u + u^2), so the angle
    is within 7*pi*u (and 2*pi*u^2); cos and sin add at most 2u each.
    7*pi + 2*sqrt(2) < 25, so 28u has room.
    """
    if xi < 0:
        out = phase(n, -xi)
        return np.conjugate(out, out=out)
    out = np.empty(np.shape(n), dtype=np.complex128)
    flat = out.reshape(-1)
    for lo, hi, f in _frac_blocks(n, xi):
        z = flat[lo:hi]
        np.multiply(2j * math.pi, f, out=z)
        np.exp(z, out=z)
    return out


class DigitPhase:
    """e(m*xi) for integers 0 <= m <= top from a few small tables of phase.

    The integer route.  With bits the bit length of top, D = ceil(bits /
    12) digits of b = ceil(bits / D) bits write m = sum_d m_d 2**(b*d), and

        e(m*xi) = prod_d T_d[m_d],  T_d[j] = phase(j * 2**(b*d), xi).

    The tables are built once, with phase itself; the last stops at the
    leading digit of top, so every argument is an exact double <= top.
    Each point then costs D gathers and D - 1 complex multiplies, no exp.
    Below 2**24 that is at most 2 x 4096 entries, below 2**30 3 x 1024.

    Error: every table entry is within PHASE_ERROR of its exact value (of
    modulus 1), and a complex multiply adds at most sqrt(5)*u relative
    (u = 2**-53; Brent, Percival and Zimmermann, Math. Comp. 76 (2007)).
    So every value is within

        bound = (1 + PHASE_ERROR)**D * (1 + sqrt(5)*u)**(D - 1) - 1

    of the exact e(m*xi), and within bound + PHASE_ERROR of phase(m, xi).
    For xi < 0 the xi > 0 result is conjugated, which keeps conjugate
    symmetry exact; at xi = 0 every value is exactly 1.
    """

    def __init__(self, xi: float, top: int):
        top = int(top)
        if not 0 <= top < 1 << 53:
            raise ValueError(f"top={top} outside [0, 2^53)")
        bits = max(top.bit_length(), 1)
        digits = -(-bits // _DIGIT_BITS)
        self.xi, self.top, self.b = float(xi), top, -(-bits // digits)
        sizes = [1 << self.b] * (digits - 1) + [(top >> (self.b * (digits - 1))) + 1]
        self.tables = [phase(np.arange(k, dtype=np.float64) * float(1 << (self.b * d)),
                             abs(self.xi)) for d, k in enumerate(sizes)]
        self.entries = sum(sizes)
        self.bound = math.expm1(digits * math.log1p(PHASE_ERROR)
                                + (digits - 1) * math.log1p(math.sqrt(5.0) * _U))

    def __call__(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=np.int64)
        if m.size and (m.min() < 0 or m.max() > self.top):
            raise ValueError(f"integer phase argument outside [0, {self.top}]")
        out = np.empty(m.shape, dtype=np.complex128)
        flat, mf = out.reshape(-1), m.ravel()
        mask, last = (1 << self.b) - 1, len(self.tables) - 1
        idx = np.empty(min(m.size, _BLOCK), dtype=np.int64)
        tmp = np.empty(idx.size, dtype=np.complex128)
        for lo, hi in chunked(m.size, _BLOCK):
            k = hi - lo
            z, ix, t = flat[lo:hi], idx[:k], tmp[:k]
            for d, table in enumerate(self.tables):
                np.right_shift(mf[lo:hi], self.b * d, out=ix)
                if d < last:
                    ix &= mask
                table.take(ix, out=t if d else z, mode="clip")
                if d:
                    z *= t
        if self.xi < 0:
            np.conjugate(out, out=out)
        return out
