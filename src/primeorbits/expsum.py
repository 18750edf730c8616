"""Exponential sums along floors of a regularly varying function.

The three sums of interest, all at frequency xi in [-1/2, 1/2):

    prime sum        sum over p <= N of log p * e(floor(h(p)) * xi)
    von Mangoldt sum sum over n <= N of Lambda(n) * e(floor(h(n)) * xi)
    approximant      sum over n <= h(N) of phi'(n) * e(n * xi)

with e(x) = exp(2*pi*i*x) and phi the compositional inverse of h.

Floors are guarded: a double evaluation is accepted only when its
fractional part is inside (1e-9, 1 - 1e-9); the few values outside the
band are recomputed at 40 significant digits before flooring.  Every
phase, including the non-integer ones of the oscillatory integral, is
accum.phase: the argument is reduced modulo 1 in double-double
arithmetic.  Every accumulation uses the fixed-shape pairwise tree from
accum, so results are reproducible bit for bit and conjugate-symmetric
in xi.

One table is kept per function h: floor(h(p)) over the primes of
primes.primes_upto.  prime_floors hands out read-only prefix views; a
longer request computes only the missing tail.  The tables of the four
most recently used functions are kept.  The approximant's weights
phi'(n) are made one chunk at a time inside the sum and never stored:
in closed form for pure powers, by Newton on h otherwise.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath
import numpy as np

from . import primes
from .accum import chunked, pairwise_sum, phase, reduce_parts
from .regvar import InverseHandle, RegVarFunction

EPSILON = 1.0 / 12.0  # default subpolynomial-decay parameter
GUARD = 1.0e-9

_CHUNK = 1 << 20
_KEEP = 4  # functions whose tables are kept, least recently used out first


def theta1_default(c: float) -> float:
    """Major-arc cutoff exponent 6c/5 - 14/15."""
    return 6.0 * c / 5.0 - 14.0 / 15.0


def fourier_cut(c: float) -> float:
    """Truncation exponent (8 - 6c)/45 used for frequency cutoffs."""
    return (8.0 - 6.0 * c) / 45.0


def chi_bound(c: float, theta1: float | None = None) -> float:
    """Largest admissible minor-arc saving exponent for this c, theta1."""
    if theta1 is None:
        theta1 = theta1_default(c)
    cap = min((8.0 - 6.0 * c) / 45.0, (6.0 * c - 2.0 - 9.0 * theta1) / 36.0)
    if cap <= 0.0:
        raise ValueError(f"no positive saving for c={c}, theta1={theta1}")
    return cap


def normalizer(n: float, epsilon: float = EPSILON) -> float:
    """n * exp(-(log n)**(1/3 - epsilon))."""
    if not 0.0 <= epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in [0, 1/3)")
    return float(n) * math.exp(-math.log(n) ** (1.0 / 3.0 - epsilon))


@dataclass(frozen=True)
class ExpSumResult:
    value: complex
    n_terms: int
    N: float
    xi: float
    kind: str


def _mp_floor(v: mpmath.mpf) -> int:
    """Floor that treats values within 1e-30 of an integer as that integer.

    The 40-digit recomputation of a genuinely integral h(n) can land an
    epsilon on either side; without the snap the floor would flip on e.g.
    9**1.5.  A true non-integer within 1e-30 of an integer is far beyond
    what the catalog functions produce at any feasible argument.
    """
    r = mpmath.nint(v)
    if abs(v - r) < mpmath.mpf("1e-30"):
        return int(r)
    return int(mpmath.floor(v))


def guarded_floor(h: RegVarFunction, n: np.ndarray) -> tuple[np.ndarray, int]:
    """floor(h(n)) as exact integers, with out-of-band values recomputed."""
    x = n.astype(np.float64)
    v = h.value(x)
    fl = np.floor(v)
    frac = v - fl
    bad = np.flatnonzero((frac <= GUARD) | (frac >= 1.0 - GUARD))
    out = fl.astype(np.int64)
    for i in bad:
        out[i] = _mp_floor(h.eval_mp(float(n[i])))
    return out, int(bad.size)


# -- per-function floor tables ------------------------------------------------

_tables: OrderedDict = OrderedDict()  # h -> floor(h(p)) over cached primes


def _frozen(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def prime_floors(h: RegVarFunction, N: float) -> tuple[np.ndarray, np.ndarray]:
    """(primes p <= N, floor(h(p))), both read-only.

    Growth copies the old prefix and floors the missing tail chunk by
    chunk into one new array.
    """
    p = primes.primes_upto(int(N))
    fl = _tables.get(h, np.empty(0, np.int64))
    if p.size > fl.size:
        new = np.empty(p.size, np.int64)
        new[:fl.size] = fl
        for lo in range(fl.size, p.size, _CHUNK):
            hi = min(lo + _CHUNK, p.size)
            new[lo:hi] = guarded_floor(h, p[lo:hi])[0]
        fl = new
    _tables[h] = fl
    _tables.move_to_end(h)
    if len(_tables) > _KEEP:
        _tables.popitem(last=False)
    return _frozen(p), _frozen(fl[:p.size])


def _phi_d1(h: RegVarFunction):
    """phi'(y) as a function of a float array y.

    For a pure power coeff * x**c it is gamma * coeff**-gamma * y**(gamma-1),
    and 1/h'(x0) for y <= h(x0) where InverseHandle clamps phi to x0;
    every other kind takes InverseHandle(h).d1.
    """
    if h.kind != "pure":
        return InverseHandle(h).d1
    ylo, low = h.value(h.x0), 1.0 / h.d1(h.x0)
    scale, power = h.gamma * h.coeff ** -h.gamma, h.gamma - 1.0

    def d1(y: np.ndarray) -> np.ndarray:
        out = y ** power
        out *= scale
        np.putmask(out, y <= ylo, low)
        return out

    return d1


# -- sums ---------------------------------------------------------------------


def _phase_sum(size: int, weight, n: np.ndarray | None, xi: float) -> complex:
    """Sum of w[i] e(n[i] xi), i < size, in fixed chunks.

    weight(lo, hi) returns w[lo:hi], so weights exist one chunk at a
    time; n=None stands for 1, 2, ...
    """
    parts = []
    for lo, hi in chunked(size, _CHUNK):
        m = np.arange(lo + 1, hi + 1) if n is None else n[lo:hi]
        parts.append(pairwise_sum(weight(lo, hi) * phase(m.astype(np.float64), xi)))
    return complex(reduce_parts(parts))


def prime_floor_sum(h: RegVarFunction, N: float, xi: float) -> ExpSumResult:
    """Log-weighted exponential sum over primes up to N."""
    p, fl = prime_floors(h, N)
    value = _phase_sum(p.size, lambda lo, hi: np.log(p[lo:hi].astype(np.float64)),
                       fl, xi)
    return ExpSumResult(value, int(p.size), float(N), float(xi), "prime")


def von_mangoldt_sum(h: RegVarFunction, N: float, xi: float) -> ExpSumResult:
    """Same sum with Lambda weights over all n <= N."""
    N = int(N)
    lam = primes.von_mangoldt_range(0, N + 1)
    n = np.flatnonzero(lam)
    fl, _ = guarded_floor(h, n)
    w = lam[n]
    return ExpSumResult(_phase_sum(w.size, lambda lo, hi: w[lo:hi], fl, xi),
                        int(n.size), float(N), float(xi), "vonmangoldt")


def approximant_sum(h: RegVarFunction, N: float, xi: float) -> ExpSumResult:
    """Smooth major-arc approximant: sum of phi'(n) e(n xi), n <= h(N)."""
    hN = h.value(float(N))
    lam = int(math.floor(hN))
    if abs(hN - round(hN)) <= GUARD:
        lam = _mp_floor(h.eval_mp(float(N)))
    d1 = _phi_d1(h)
    value = _phase_sum(lam, lambda lo, hi: d1(
        np.arange(lo + 1, hi + 1, dtype=np.float64)), None, xi)
    return ExpSumResult(value, lam, float(N), float(xi), "approximant")


@dataclass(frozen=True)
class ApproxError:
    N: float
    xi: float
    prime_sum: complex
    approximant: complex
    abs_error: float
    rel_error: float       # abs_error / N
    normalizer: float      # N * exp(-(log N)**(1/3 - epsilon))
    ratio: float
    epsilon: float


def approx_error(h: RegVarFunction, N: float, xi: float,
                 epsilon: float = EPSILON) -> ApproxError:
    """Distance between the prime sum and its smooth approximant."""
    s = prime_floor_sum(h, N, xi)
    f = approximant_sum(h, N, xi)
    err = abs(s.value - f.value)
    norm = normalizer(N, epsilon)
    return ApproxError(float(N), float(xi), s.value, f.value, err,
                       err / float(N), norm, err / norm, epsilon)


# -- minor-arc scanning ------------------------------------------------------


def sample_frequencies(N: float, theta1: float, count: int = 24) -> np.ndarray:
    """Deterministic minor-arc frequencies: near-rationals plus a
    golden-ratio low-discrepancy sweep, all with ||xi|| > N**(-theta1)."""
    cut = float(N) ** (-theta1)
    delta = max(2.0 * cut, 1.0e-4)
    base = [1 / 2, 1 / 3, 1 / 4, 1 / 5, 2 / 5, 1 / 7, 1 / 8, 3 / 8]
    pts = []
    for r in base:
        pts.extend([r - delta, r + delta])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    j = 1
    while len(pts) < count:
        pts.append((j * g) % 1.0)
        j += 1
    # map to [-1/2, 1/2) and keep the minor-arc condition
    out = []
    for x in pts:
        x = x - math.floor(x + 0.5)
        if min(abs(x), 1.0 - abs(x)) > cut:
            out.append(x)
    return np.array(sorted(set(out)), dtype=np.float64)


@dataclass(frozen=True)
class ArcProfile:
    n_grid: tuple
    theta1: float
    chi: float
    epsilon: float
    xi_samples: tuple          # one tuple of frequencies per N
    abs_values: tuple          # matching |S| magnitudes
    max_abs: tuple             # per-N maxima
    slope: float               # least-squares log-log slope of max_abs

    def summary(self) -> str:
        rows = [f"N={n:>10.0f}  max|S|={m:.6e}" for n, m in
                zip(self.n_grid, self.max_abs)]
        return "\n".join(rows + [f"slope={self.slope:.4f} (chi cap {self.chi:.5f})"])


def minor_arc_scan(h: RegVarFunction, n_grid, theta1: float | None = None,
                   samples=None) -> ArcProfile:
    """Max prime-sum magnitude over minor-arc frequencies, per N."""
    if theta1 is None:
        theta1 = theta1_default(h.c)
    if not 0.0 < theta1 < (6.0 * h.c - 2.0) / 9.0:
        raise ValueError("theta1 outside (0, (6c-2)/9)")
    chi = chi_bound(h.c, theta1)
    n_grid = [float(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ValueError("need at least two N values for a slope")
    all_xi, all_abs, maxima = [], [], []
    for n in n_grid:
        xs = (np.asarray(samples, dtype=np.float64) if samples is not None
              else sample_frequencies(n, theta1))
        if xs.size < 16:
            raise ValueError("need at least 16 frequency samples")
        mags = np.array([abs(prime_floor_sum(h, n, float(x)).value) for x in xs])
        all_xi.append(tuple(xs.tolist()))
        all_abs.append(tuple(mags.tolist()))
        maxima.append(float(mags.max()))
    slope = float(np.polyfit(np.log(n_grid), np.log(maxima), 1)[0])
    return ArcProfile(tuple(n_grid), float(theta1), float(chi), EPSILON,
                      tuple(all_xi), tuple(all_abs), tuple(maxima), slope)


# -- oscillatory integral ----------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS = 1 << 12


def osc_integral(h: RegVarFunction, a: float, b: float, xi: float,
                 max_panels: int = 1 << 20) -> complex:
    """Integral of e(h(s) * xi) over [a, b] by phase-adaptive panels.

    Panel boundaries follow the inverse function so each panel carries at
    most a quarter cycle of phase; 16-point Gauss-Legendre then leaves
    error far below 1e-8 * (b - a).  Exceeding max_panels raises, which
    flags a frequency outside the intended major-arc regime.
    """
    a, b, xi = float(a), float(b), float(xi)
    if b <= a:
        return 0j
    if xi == 0.0:
        return complex(b - a)
    if xi < 0.0:
        return complex(np.conj(osc_integral(h, a, b, -xi, max_panels)))
    span = h.value(b) - h.value(a)
    n_panels = max(8, int(math.ceil(4.0 * xi * span)))
    if n_panels > max_panels:
        raise ValueError(f"panel budget exceeded: {n_panels} > {max_panels}; "
                         "|xi| too large for this window")
    inv = InverseHandle(h)
    cuts = np.linspace(h.value(a), h.value(b), n_panels + 1)
    edges = inv.value(cuts)
    edges[0], edges[-1] = a, b
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = np.empty(n_panels, dtype=np.complex128)
    # panels go in blocks: a panel's value does not depend on the blocking,
    # and the phase's double-double temporaries stay cache-sized
    for lo, hi in chunked(n_panels, _PANELS):
        s = mid[lo:hi, None] + half[lo:hi, None] * _GL_NODES[None, :]
        ph = phase(h.value(s), xi)
        vals[lo:hi] = (ph * _GL_WEIGHTS[None, :]).sum(axis=1) * half[lo:hi]
    return complex(pairwise_sum(vals))


@dataclass(frozen=True)
class BlockCheck:
    t: float
    xi: float
    block_sum: complex
    integral: complex
    abs_error: float
    normalizer: float
    ratio: float
    epsilon: float


def dyadic_block_check(h: RegVarFunction, t: float, xi: float,
                       epsilon: float = EPSILON) -> BlockCheck:
    """Compare the Lambda-weighted block sum on (t/2, t] with the plain
    oscillatory integral, normalized subpolynomially."""
    t = float(t)
    lo, hi = int(math.floor(t / 2.0)), int(math.floor(t))
    lam = primes.von_mangoldt_range(lo + 1, hi + 1)
    n = np.flatnonzero(lam) + lo + 1
    w = lam[n - lo - 1]
    block = _phase_sum(w.size, lambda a, b: w[a:b], h.value(n.astype(np.float64)),
                       xi)
    integral = osc_integral(h, t / 2.0, t, xi)
    err = abs(block - integral)
    norm = normalizer(t, epsilon)
    return BlockCheck(t, float(xi), block, integral, err, norm, err / norm,
                      epsilon)


def fractional_min_sum(h: RegVarFunction, N: float, M: float) -> float:
    """Sum over n <= N of min(1, 1/(M * ||h(n)||))."""
    N, M = int(N), float(M)
    if M <= 0.0:
        raise ValueError("M must be positive")
    parts = []
    for lo, hi in chunked(N, _CHUNK):
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        v = h.value(n)
        fr = v - np.floor(v)
        dist = np.minimum(fr, 1.0 - fr)
        with np.errstate(divide="ignore"):
            vals = np.minimum(1.0, 1.0 / (M * dist))
        parts.append(pairwise_sum(vals))
    return float(reduce_parts(parts))
