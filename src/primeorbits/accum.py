"""Deterministic accumulation helpers and the phase kernels.

The package's long sums run pairwise_sum's tree: chunk_sums adds each
CHUNK of 4096 entries (the short tail zero-padded), then halving_sum adds
neighbours in index order until one value is left.  The tree depends
only on the input length, so runs are byte-identical whatever the worker
count.  numpy adds a chunk in blocks of 128 doubles, halved 5 times (6
for complex entries), with 8 accumulators of 15 additions each, joined
by 3 more (2 per complex part); tests/test_accum.py checks this against
a copy.  So with m chunk sums no entry meets more than d = 23 +
ceil(log2 m) roundings, and with u = 2^-53 (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., sec. 4.2; complex entries
part by part)

    |pairwise_sum(x) - sum x_i| <= d u / (1 - d u) * sum |x_i|.

The bound is for the entries as given.  Short fixed contractions and the
compensated checks (math.fsum, vaughan.kahan_sum) are outside the tree.

Phases e(x) = exp(2*pi*i*x) take one of two routes:

  phase        any real argument n*xi: reduced modulo 1 in double-double
               arithmetic, then one complex exp per point, within
               PHASE_ERROR of the exact value;
  DigitPhase   integer arguments m*xi, 0 <= m <= top < 2^53: a product of
               entries of a few small tables of phase, one per base-2^b
               digit of m, within its stated bound; no exp per point.

Both work through their input in blocks of _BLOCK points with reused
buffers (DigitPhase.lookup one block per call, cut by its callers), so
their temporaries stay cache-sized whatever the input size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

CHUNK = 4096
# points per pass of phase and DigitPhase, so buffers stay in cache; a
# multiple of CHUNK, so block-wise chunk_sums are those of the whole
_BLOCK = 1 << 14
_DIGIT_BITS = 12  # widest DigitPhase digit (64 kB table); 8 timed slower, 10-14 alike
_U = 2.0 ** -53  # unit roundoff of a double
PHASE_ERROR = 28 * _U  # |phase(n, xi) - e(n*xi)| at most; see phase


def chunk_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each CHUNK of the 1-d a, the short tail zero-padded (and
    alone copied): the first level of pairwise_sum's tree."""
    cut = a.size - a.size % CHUNK
    parts = a[:cut].reshape(-1, CHUNK).sum(axis=1)
    if cut < a.size:
        tail = np.zeros((1, CHUNK), dtype=a.dtype)
        tail[0, :a.size - cut] = a[cut:]
        parts = np.concatenate([parts, tail.sum(axis=1)])
    return parts


def halving_sum(parts: np.ndarray) -> complex | float:
    """Add neighbours in index order, an odd end zero-padded, until one
    value is left: the rest of pairwise_sum's tree.  0 for no parts."""
    parts = parts if parts.size else np.zeros(1, dtype=parts.dtype)
    while parts.size > 1:
        if parts.size % 2:
            parts = np.concatenate([parts, np.zeros(1, dtype=parts.dtype)])
        parts = parts[0::2] + parts[1::2]
    return parts[0].item()


def pairwise_sum(x: np.ndarray) -> complex | float:
    """Sum a 1-d array by the fixed tree: chunk_sums, then halving_sum."""
    return halving_sum(chunk_sums(np.asarray(x).ravel()))


def pairwise_roundings(n: int) -> int:
    """d = 23 + ceil(log2 m), m the chunk sums of n entries: the most
    roundings an entry meets in pairwise_sum's tree (see the module's
    bound)."""
    return 23 + (max(-(-n // CHUNK), 1) - 1).bit_length()


def chunked(n: int, size: int):
    """Yield (lo, hi) index ranges covering range(n) in fixed-size blocks."""
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _two_prod_into(a: np.ndarray, b: float, hi: np.ndarray, lo: np.ndarray,
                   t: np.ndarray, s: np.ndarray) -> None:
    """Error-free product a*b = hi + lo exactly (Dekker splitting), into
    hi and lo, with t and s as scratch of a's length.

    With ca = (2**27 + 1)*a, ahi = ca - (ca - a), alo = a - ahi and bhi,
    blo split alike: hi = a*b, lo = ((ahi*bhi - hi) + ahi*blo + alo*bhi)
    + alo*blo, every rounding taken in that order.
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


def _frac_blocks(n: np.ndarray, xi: float):
    """Yield (lo, hi, f), f the fractional part of n.ravel()[lo:hi] * xi,
    block by block.

    n is any double array in phase's domain.  The naive product n*xi
    loses the low bits that determine the phase once n*xi is large; the
    double-double product restores them: with hi + lo = n*xi exactly,
    f = hi - floor(hi), f = f + lo, f -= floor(f).  f and the scratch are
    _BLOCK-sized buffers reused for every block.
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


def phase(n: np.ndarray, xi: float) -> np.ndarray:
    """exp(2*pi*i*n*xi) with double-double argument reduction.

    Negative xi is evaluated through the positive-xi path and conjugated,
    which makes conjugate symmetry in xi exact at the bit level.

    This is the direct route, one complex exp per point.  For doubles n,
    integer or not, and xi with |n|, |xi| <= 2**996 and |n*xi| <= 2**1022,
    where no step overflows (|n| = 2**997 gives nan), its error against
    e(n*xi) is at most PHASE_ERROR (u = 2**-53).  hi + lo = n*xi exactly
    (Dekker; below |n*xi| = 2**-969 an underflow of lo moves f by under
    2**-1000).  hi - floor(hi) is exact unless -1/2 < hi < 0, where it
    rounds into [1/2, 1] by at most u/2, f + lo (|lo| <= u/4) by at most
    u/2, and nothing wraps; otherwise the rounding of f + lo costs at most
    u and the wrap of a negative f + lo into [0, 1) at most u/2.  So f is
    within 1.5u of frac(n*xi) modulo 1.  The roundings of 2*pi and of
    2*pi*f add 2*pi*(2u + u^2), so the angle is within 7*pi*u (and
    2*pi*u^2); cos and sin add at most 2u each.  7*pi + 2*sqrt(2) < 25, so
    28u has room.  Measured against 300-bit values at sampled arguments
    over the domain, the error stayed below 8u (tests/test_accum.py).
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
    The digits depend on top alone: digits(m) splits the integers once,
    and lookup(ix, out) gathers and multiplies one block of them.  So a
    sum over several frequencies splits its arguments once and builds one
    table set per frequency.

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
        # every table's arguments in one phase call, cut into views
        ends = list(itertools.accumulate(sizes))
        args = np.empty(ends[-1])
        for d, (lo, hi) in enumerate(zip([0] + ends, ends)):
            np.multiply(np.arange(hi - lo, dtype=np.float64),
                        float(1 << (self.b * d)), out=args[lo:hi])
        flat = phase(args, abs(self.xi))
        self.tables = [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]
        self.entries = sum(sizes)
        self._tmp = None  # lookup's scratch, made on first use
        self.bound = math.expm1(digits * math.log1p(PHASE_ERROR)
                                + (digits - 1) * math.log1p(math.sqrt(5.0) * _U))

    def digits(self, m: np.ndarray) -> np.ndarray:
        """The base-2**b digits of the integers m, as (D, m.size) table
        indices.  They depend on top alone, not on xi."""
        m = np.asarray(m, dtype=np.int64).ravel()
        if m.size and (m.min() < 0 or m.max() > self.top):
            raise ValueError(f"integer phase argument outside [0, {self.top}]")
        ix = np.empty((len(self.tables), m.size), dtype=np.intp)
        for d, row in enumerate(ix):
            np.right_shift(m, self.b * d, out=row)
            if d < len(self.tables) - 1:
                row &= (1 << self.b) - 1
        return ix

    def lookup(self, ix: np.ndarray, out: np.ndarray) -> np.ndarray:
        """e(m*xi) into out, from the digits ix = self.digits(m); returns
        out.  Callers pass a block at a time, so the scratch stays small."""
        self.tables[0].take(ix[0], out=out, mode="clip")
        if len(self.tables) > 1:
            if self._tmp is None or self._tmp.size < out.size:
                self._tmp = np.empty(out.size, dtype=np.complex128)
            t = self._tmp[:out.size]
            for table, row in zip(self.tables[1:], ix[1:]):
                table.take(row, out=t, mode="clip")
                out *= t
        if self.xi < 0:
            np.conjugate(out, out=out)
        return out
