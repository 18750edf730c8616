"""Exponential sums along floors of a regularly varying function.

The three sums of interest, all at frequency xi in [-1/2, 1/2):

    prime sum        sum over p <= N of log p * e(floor(h(p)) * xi)
    von Mangoldt sum sum over n <= N of Lambda(n) * e(floor(h(n)) * xi)
    approximant      sum over n <= h(N) of phi'(n) * e(n * xi)

with e(x) = exp(2*pi*i*x) and phi the compositional inverse of h.

Floors are guarded: a double evaluation is accepted only when its
fractional part is inside (1e-9, 1 - 1e-9); the few values outside the
band are recomputed at 40 significant digits before flooring.  Where a
pure power x^c with c = a/2^k, k <= 5, takes an integer value, at
x = m^(2^k), the floor is set to m^a exactly.

Phases take one of two routes, chosen by the argument's dtype.  Integer
arguments, the floors of the prime and von Mangoldt sums and the
approximant's head 1, 2, ..., M - 1, go through accum.DigitPhase: one
set of small digit tables per sum, sized from its largest argument, and
a product of table entries per term, within DigitPhase's stated bound of
the exact phase.  Real arguments, h(n) in von_mangoldt_block_sum and in
vaughan's bilinear sums, the panel centres of the Filon integrals, the
Euler-Maclaurin ends and osc_integral's h(x0), go through accum.phase:
reduced modulo 1 in double-double arithmetic and exponentiated.  Every
accumulation uses the fixed-shape pairwise tree from accum, so results
are reproducible bit for bit and conjugate-symmetric in xi.

Each function h keeps floor(h(p)) over the primes of primes.primes_upto
on itself (h.tables), so the floors are freed with h.  prime_floors
hands out read-only prefix views; a longer request computes only the
missing tail.

The approximant sums its terms n < M directly, M = _head_size(h) (256
for the pure powers), with weights phi'(n) from regvar.InverseHandle.d1,
which alone decides how phi' is made.  The tail M <= n <= floor(h(N)) is
Euler-Maclaurin summation (Olver, Asymptotics and Special Functions,
1974, ch. 8): the Filon integral of phi'(y) e(xi y) that osc_integral
also uses, the two end terms, and the corrections from the derivatives
of phi' at both ends, which InverseHandle.taylor gives as Taylor jets.
The order p is the smallest whose remainder bound is within 2^-52 of
phi(floor(h(N))) - phi(M), so the sum matches the term-by-term one
within a few u times N, and its cost does not grow with h(N).  For a
non-pure h, h.inverse builds each Chebyshev block of phi' that the head,
the integral and the jets read once over all of h's calls; the `# work:`
note counts the blocks a call added, the long-double evaluations of h at
their nodes, the head terms and the orders p.

osc_integral, the smooth integral of e(xi h(s)), is a Filon quadrature
in y = h(s): phi' is fitted on a few panels geometric in y and each
Legendre mode is integrated against e(xi y) exactly, so its cost does
not grow with xi.  zeta.zero_osc_sum uses the same Legendre tables.  The
exact integrals, the moments 2 i^k j_k(omega) of legendre_moments, come
from one recurrence pass over the 17 orders, upward above omega = 16 and
Miller's downward below, within 1.7e-16 of 40-digit values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import mpmath
import numpy as np

from . import primes
from .accum import (_BLOCK, CHUNK, DigitPhase, chunk_sums, chunked,
                    halving_sum, pairwise_sum, phase)
from .regvar import InverseHandle, RegVarFunction

EPSILON = 1.0 / 12.0  # the epsilon of the saving exp(-(log n)^(1/3 - eps))
GUARD = 1.0e-9
_DYADIC_MAX_K = 5  # x^(a/2^k) has integer values below 2^53 only for k <= 5

_CHUNK = 1 << 20
# bytes per prime p <= max N (expsum) or 2^jmax (ergodic's orbit) that a
# run holds at its peak: the sieve and the prime cache, h's prime floors
# and the temporaries of the guarded floor over at most _CHUNK primes or
# of rotation_points (tracemalloc from an empty prime cache: 57.1-57.4 at
# N = 1e6 to 8e6; the orbit 57.7, 56.1, 48.1 and 48.0 at 2^22 to 2^26),
# counted on primes.pi_bound
BYTES_PER_PRIME = 60


def theta1_default(c: float) -> float:
    """Major-arc cutoff exponent 6c/5 - 14/15."""
    return 6.0 * c / 5.0 - 14.0 / 15.0


def chi_bound(c: float) -> float:
    """Largest minor-arc saving exponent for c, at theta1_default(c)."""
    theta1 = theta1_default(c)
    cap = min((8.0 - 6.0 * c) / 45.0, (6.0 * c - 2.0 - 9.0 * theta1) / 36.0)
    if cap <= 0.0:
        raise ValueError(f"no positive saving for c={c}, theta1={theta1}")
    return cap


def saving(n: float) -> float:
    """exp(-(log n)**(1/3 - EPSILON)), the subpolynomial saving."""
    return math.exp(-math.log(n) ** (1.0 / 3.0 - EPSILON))


def normalizer(n: float) -> float:
    """n * saving(n)."""
    return float(n) * saving(n)


@dataclass
class SumWork:
    """What the sums of one report did, as counts, for its `# work:` note."""
    floor_points: int = 0       # floors of h computed, store growth included
    recomputes: int = 0         # of those, settled at 40 digits
    approximant_terms: int = 0  # lam = floor(h(N)), per approximant
    approximant_direct: int = 0  # of those, the head terms summed directly
    em_order: int = 0           # Euler-Maclaurin orders p of the tails
    digit_terms: int = 0        # phase terms through accum.DigitPhase
    table_entries: int = 0      # DigitPhase table entries built
    inverse_blocks: int = 0     # phi' interpolant blocks built (non-pure h)
    node_newton: int = 0        # long-double evaluations of h at their nodes

    def note(self) -> str:
        return "work: " + " ".join(f"{f.name}={getattr(self, f.name)}"
                                   for f in fields(self))


@dataclass(frozen=True)
class ExpSumResult:
    value: complex | np.ndarray  # an array for an array of xi
    n_terms: int


def _mp_floor(v: mpmath.mpf) -> int:
    """Floor that treats values within |v| * 1e-36 of an integer as that
    integer.

    The 40-digit recomputation of a genuinely integral h(n) lands within
    about |v| * 1e-40 of it on either side (x^1.5 at n = 10**10 gives
    10**15 - 1.3e-25); without the snap the floor would flip.  The band
    scales with |v| because 40 significant digits do.  A true non-integer
    that close to an integer is far beyond what the catalog functions
    produce at any feasible argument.
    """
    r = mpmath.nint(v)
    if abs(v - r) <= abs(v) * mpmath.mpf("1e-36"):
        return int(r)
    return int(mpmath.floor(v))


def _integer_values(h: RegVarFunction, x: np.ndarray,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices i, exact h(x[i])) at the points x where h(x) is an integer,
    both empty for an h without integer values.

    Only a pure power has such points.  Its double c is a/2^k in lowest
    terms, and for an integer n >= 2, n^c is an integer exactly when
    n = m^(2^k), where it is m^a; below 2^53 that needs k <= 5.  m is
    the rint of the 2^k-th root, and m^(2^k) = n is checked in int64.
    """
    a, den = h.c.as_integer_ratio()
    k = den.bit_length() - 1
    if h.kind != "pure" or k > _DYADIC_MAX_K:
        none = np.empty(0, dtype=np.int64)
        return none, none
    # m^a < 2^63 wherever v < 2^62, since v is m^a within a few ulps
    idx = np.flatnonzero((x >= h.x0) & (x <= 2.0 ** 53) & (x == np.floor(x))
                         & (v < 2.0 ** 62))
    root = x[idx]
    for _ in range(k):
        root = np.sqrt(root)
    m = np.rint(root).astype(np.int64)
    hit = m ** (1 << k) == x[idx].astype(np.int64)
    return idx[hit], m[hit] ** a


def guarded_floor(h: RegVarFunction, n: np.ndarray) -> tuple[np.ndarray, int]:
    """floor(h(n)) as exact integers: integer values of h set exactly,
    out-of-band values recomputed."""
    x = n.astype(np.float64)
    v = h.value(x)
    fl = np.floor(v)
    frac = v - fl
    near = (frac <= GUARD) | (frac >= 1.0 - GUARD)
    out = fl.astype(np.int64)
    exact, values = _integer_values(h, x, v)
    out[exact] = values
    near[exact] = False
    bad = np.flatnonzero(near)
    if h.kind == "pure" and h.x0 <= 1.0:
        # 1^c = 1 for every double c, also where c is not a/2^k, k <= 5
        one = x[bad] == 1.0
        out[bad[one]] = 1
        bad = bad[~one]
    for i in bad:
        out[i] = _mp_floor(h.eval_mp(float(n[i])))
    return out, int(bad.size)


# -- per-function floor tables ------------------------------------------------


def prime_floors(h: RegVarFunction, N: float,
                 work: SumWork | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(primes p <= N, floor(h(p))), both read-only.

    The floors live on h (h.tables.prime_floors).  Growth copies the old
    prefix and floors the missing tail chunk by chunk into one new array,
    frozen before it replaces the old one.
    """
    p = primes.primes_upto(int(N))
    fl = h.tables.prime_floors
    if p.size > fl.size:
        new = np.empty(p.size, np.int64)
        new[:fl.size] = fl
        for lo in range(fl.size, p.size, _CHUNK):
            hi = min(lo + _CHUNK, p.size)
            new[lo:hi], bad = guarded_floor(h, p[lo:hi])
            if work is not None:
                work.floor_points += hi - lo
                work.recomputes += bad
        new.flags.writeable = False
        h.tables.prime_floors = fl = new
    return p, fl[:p.size]


# -- sums ---------------------------------------------------------------------


def _phase_sum(weight, n: np.ndarray, xis,
               work: SumWork | None = None) -> list[complex]:
    """Sums of w[i] e(n[i] xi) over the entries of n, one per frequency of
    the 1-d xis, in fixed chunks.

    weight(lo, hi) returns w[lo:hi], so weights exist one chunk at a time,
    made once for all frequencies.  Integer arguments go through
    DigitPhase, sized from the largest of them: a chunk's digits are split
    once, and each frequency builds its own tables, one set alive at a
    time (kept across chunks while the frequency repeats).  Real
    arguments go through phase.  Frequency by frequency, the phases are
    made block by block into one reused buffer, weighted and summed by
    CHUNK into that frequency's row of chunk sums; one halving_sum per row
    ends pairwise_sum's tree.  With _CHUNK a multiple of CHUNK, as it is,
    every sum is bit for bit pairwise_sum of the whole weighted product,
    whatever the other frequencies.
    """
    freqs = [float(xi) for xi in xis]
    integer = n.dtype.kind in "iu"
    top = int(n.max(initial=0)) if integer else 0
    sums = np.empty((len(freqs), -(-n.size // _CHUNK) * -(-_CHUNK // CHUNK)),
                    dtype=np.complex128)
    buf = np.empty(min(n.size, _BLOCK), dtype=np.complex128)
    e, first = None, 0  # first: the row slot of the chunk's first sum
    for lo, hi in chunked(n.size, _CHUNK):
        w, ix = weight(lo, hi), None
        for xi, row in zip(freqs, sums):
            if integer and (e is None or e.xi != xi):
                e = None  # the old tables go before the new are built
                e = DigitPhase(xi, top)
                if work is not None:
                    work.table_entries += e.entries
            if integer and ix is None:
                ix = e.digits(n[lo:hi])
            for a, b in chunked(hi - lo, _BLOCK):
                if integer:
                    z = e.lookup(ix[:, a:b], buf[:b - a])
                else:
                    z = phase(n[lo + a:lo + b], xi)
                z *= w[a:b]
                row[first + a // CHUNK:first + -(-b // CHUNK)] = chunk_sums(z)
        first += -(-(hi - lo) // CHUNK)
    if integer and work is not None:
        work.digit_terms += n.size * len(freqs)
    return [complex(halving_sum(row[:first])) for row in sums]


def prime_floor_sum(h: RegVarFunction, N: float, xi,
                    work: SumWork | None = None) -> ExpSumResult:
    """Log-weighted exponential sum over primes up to N.

    xi is one frequency or a 1-d array of them; for an array, value is
    the complex array of the sums, each bit for bit the one-frequency
    value, and the floors, the log p and the digits are made once.
    """
    p, fl = prime_floors(h, N, work)
    xis = np.asarray(xi, dtype=np.float64)
    value = _phase_sum(lambda lo, hi: np.log(p[lo:hi].astype(np.float64)),
                       fl, xis.reshape(-1), work)
    if xis.ndim == 0:
        return ExpSumResult(value[0], int(p.size))
    return ExpSumResult(np.array(value), int(p.size))


def von_mangoldt_sum(h: RegVarFunction, N: float, xi: float) -> ExpSumResult:
    """Same sum with Lambda weights over all n <= N."""
    N = int(N)
    n, w = primes.prime_powers(0, N + 1)
    fl, _ = guarded_floor(h, n)
    value = _phase_sum(lambda lo, hi: w[lo:hi], fl, [xi])[0]
    return ExpSumResult(value, int(n.size))


# B_2k / (2k)!, k = 1 .. _EM_MAX_P.  The remainder bound's
# 2 zeta(2p) (2 pi)^-2p is |B_2p| / (2p)!, so no zeta values are needed
_BERNOULLI_OVER_FACTORIAL = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50, -1.6501309906896525e-51, 4.179830628539476e-53,
    -1.058763466770291e-54, 2.6818791912607708e-56, -6.793279351107421e-58,
    1.7207577616681404e-59, -4.358730329348894e-61, 1.1040792903684666e-62,
    -2.7966655133781345e-64])
_EM_MAX_P = _BERNOULLI_OVER_FACTORIAL.size
_EM_K = np.arange(1, _EM_MAX_P + 1)
# |B_2p|, the remainder bound's constant, and B_2k / (2k), the weight of
# the (2k-1)-th Taylor coefficient of g in the correction
_EM_BOUND = np.abs(_BERNOULLI_OVER_FACTORIAL) * np.array(
    [float(math.factorial(2 * k)) for k in _EM_K])
_EM_WEIGHT = _BERNOULLI_OVER_FACTORIAL * np.array(
    [float(math.factorial(2 * k - 1)) for k in _EM_K])
_EM_TOL = 2.0 ** -52
_HEAD_MIN = 256


def _head_size(h: RegVarFunction) -> int:
    """Smallest power of two >= max(256, 4 h(x0)): the approximant sums
    n below it directly."""
    return max(_HEAD_MIN, 1 << math.ceil(math.log2(4.0 * h.value(h.x0))))


def _em_tail(inv: InverseHandle, M: int, lam: int,
             xi: float) -> tuple[complex, int, int]:
    """Sum of g(n) = phi'(n) e(n xi) over M <= n <= lam, 0 <= xi <= 1/2, by
    Euler-Maclaurin: (tail, M, p), with M doubled as needed; M >= lam
    means nothing was summed and the caller sums every term directly.

    The tail is the Filon integral of g over [M, lam], plus
    (g(M) + g(lam)) / 2, plus sum_{k<=p} B_2k/(2k)! (g^(2k-1)(lam) -
    g^(2k-1)(M)).  The remainder is at most 2 zeta(2p) (2 pi)^-2p times
    the integral of |g^(2p)| (Olver, Asymptotics and Special Functions,
    ch. 8), and with w = 2 pi xi,
    |g^(2p)| <= sum_j C(2p, j) w^(2p-j) |phi'^(j)|.  Where phi'^(j) keeps
    its sign on [M, lam], its integral is V_j = |phi'^(j-1)(lam) -
    phi'^(j-1)(M)| (V_0 = phi(lam) - phi(M)).  That is proved for pure
    powers, where the sign of phi'^(j) is (-1)^j, and checked on a grid
    for the other catalog kinds.  p is the smallest with the bound at
    most 2^-52 V_0; its lower bound from the j = 0 term, xi alone, sizes
    the first jets, of order 2p.  The jets (InverseHandle.taylor) take
    both ends in one pass; their order doubles up to 2 _EM_MAX_P, and
    then M doubles.
    """
    w = 2.0 * math.pi * xi
    p_lo = 1 + int(np.argmax(np.abs(_BERNOULLI_OVER_FACTORIAL) * w ** (2 * _EM_K)
                             <= _EM_TOL))
    order = 2 * p_lo
    while M < lam:
        y = np.array([M, lam], dtype=np.float64)
        c = inv.taylor(y, order)
        # Taylor coefficients of phi' at both ends, and phi(lam) - phi(M)
        j = np.arange(1.0, order + 1.0)
        d = j[:, None] * c[1:] * np.cumprod(np.tile(1.0 / y, (order, 1)), axis=0)
        v0 = c[0, 1] - c[0, 0]
        u = np.concatenate([[v0], np.abs(d[:, 1] - d[:, 0]) / j])
        w_pow = np.cumprod(np.concatenate([[1.0], w / j]))  # w^m / m!
        bound = _EM_BOUND[:order // 2] * np.convolve(w_pow, u)[2:order + 1:2]
        ok = np.flatnonzero(bound[p_lo - 1:] <= _EM_TOL * v0)
        if ok.size:
            p = p_lo + int(ok[0])
            break
        if order < 2 * _EM_MAX_P:
            order = min(2 * order, 2 * _EM_MAX_P)
        else:
            M *= 2
    else:
        return 0j, M, 0
    # g's Taylor coefficients at each end: e(xi y) times those of
    # e^(i w s) phi'(y + s)
    ends = phase(y, xi)
    iw_pow = np.cumprod(np.concatenate([[1.0], 1j * w / j[:2 * p - 1]]))
    g = [np.convolve(iw_pow, d[:2 * p, i])[1:2 * p:2] * ends[i] for i in (0, 1)]
    corr = complex(np.dot(_EM_WEIGHT[:p], g[1] - g[0]))
    trap = 0.5 * (d[0, 0] * ends[0] + d[0, 1] * ends[1])
    return _filon(inv, float(M), float(lam), xi) + trap + corr, M, p


def approximant_sum(h: RegVarFunction, N: float, xi: float,
                    work: SumWork | None = None) -> ExpSumResult:
    """Smooth major-arc approximant: sum of phi'(n) e(n xi), n <= h(N).

    xi is first reduced by its nearest integer (the sum is 1-periodic in
    xi) and the sum taken at |xi|, then conjugated for xi < 0, so
    F(-xi) == conj(F(xi)) bit for bit and F(0) is real.  The terms
    n < M, M = _head_size(h), are summed directly; the rest by
    Euler-Maclaurin (_em_tail), within 2^-52 (phi(lam) - phi(M)) plus
    rounding.  So the cost does not grow with lam = floor(h(N)).  h's one
    InverseHandle (h.inverse) serves the head's weights, the Filon
    integral and the jets, so a non-pure h builds each block once, over
    all its calls.
    """
    lam = int(guarded_floor(h, np.array([float(N)]))[0][0])
    x = math.remainder(float(xi), 1.0)
    inv = h.inverse
    blocks, evals = inv.blocks_built, inv.node_evals
    tail, M, p = _em_tail(inv, _head_size(h), lam, abs(x))
    head = M - 1 if M < lam else lam
    value = tail + _phase_sum(lambda lo, hi: inv.d1(
        np.arange(lo + 1, hi + 1, dtype=np.float64)),
        np.arange(1, head + 1), [abs(x)], work)[0]
    if x < 0.0:
        value = value.conjugate()
    if work is not None:
        work.approximant_terms += lam
        work.approximant_direct += head
        work.em_order += p
        work.inverse_blocks += inv.blocks_built - blocks
        work.node_newton += inv.node_evals - evals
    return ExpSumResult(value, lam)


@dataclass(frozen=True)
class ApproxError:
    prime_sum: complex
    approximant: complex
    abs_error: float
    rel_error: float       # abs_error / N
    normalizer: float      # normalizer(N)
    ratio: float


def approx_error(h: RegVarFunction, N: float, xi: float,
                 work: SumWork | None = None) -> ApproxError:
    """Distance between the prime sum and its smooth approximant."""
    s = prime_floor_sum(h, N, xi, work)
    f = approximant_sum(h, N, xi, work)
    err = abs(s.value - f.value)
    norm = normalizer(N)
    return ApproxError(s.value, f.value, err, err / float(N), norm, err / norm)


# -- minor-arc scanning ------------------------------------------------------


_SAMPLES = 24  # candidate frequencies per N before the minor-arc filter


def sample_frequencies(N: float, theta1: float) -> np.ndarray:
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
    while len(pts) < _SAMPLES:
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
    theta1: float
    chi: float
    xi_samples: tuple          # one tuple of frequencies per N
    abs_values: tuple          # matching |S| magnitudes
    max_abs: tuple             # per-N maxima
    slope: float               # least-squares log-log slope of max_abs


def minor_arc_scan(h: RegVarFunction, n_grid) -> ArcProfile:
    """Max prime-sum magnitude over minor-arc frequencies, per N, at the
    default theta1(c); chi_bound refuses c >= 4/3."""
    theta1 = theta1_default(h.c)
    chi = chi_bound(h.c)
    n_grid = [float(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ValueError("need at least two N values for a slope")
    all_xi, all_abs, maxima = [], [], []
    for n in n_grid:
        xs = sample_frequencies(n, theta1)
        if xs.size < 16:
            raise ValueError("need at least 16 frequency samples")
        sums = prime_floor_sum(h, n, xs).value
        mags = np.array([abs(v) for v in sums.tolist()])
        all_xi.append(tuple(xs.tolist()))
        all_abs.append(tuple(mags.tolist()))
        maxima.append(float(mags.max()))
    slope = float(np.polyfit(np.log(n_grid), np.log(maxima), 1)[0])
    return ArcProfile(float(theta1), float(chi), tuple(all_xi),
                      tuple(all_abs), tuple(maxima), slope)


# -- transform lengths -------------------------------------------------------

# transform lengths are 2^a m: pocketfft's radix-3 and radix-5 passes keep
# these about as fast per point as a power of two; adding 9, 25, 27, 45 or
# 75 won at some lambda and lost at others (README "Waring counts")
_ODD_PARTS = (1, 3, 5, 15)


def transform_length(full: int) -> int:
    """Smallest 2^a m >= full, m in (1, 3, 5, 15): the FFT length that
    holds a linear convolution of `full` coefficients (waring) or a grid
    of `full` points (zeta)."""
    return min(m << max(-(-full // m) - 1, 0).bit_length() for m in _ODD_PARTS)


# -- oscillatory integral ----------------------------------------------------

# Both Filon kernels, osc_integral here and zeta.zero_osc_sum, project a
# slow factor on Legendre modes of degree < 17 from 17 Gauss-Legendre
# nodes per panel and integrate the oscillation against each mode exactly
_NODES_PER_PANEL = 17
# the nodes and weights of np.polynomial.legendre.leggauss(17), written
# out so that no run imports numpy.polynomial (a test compares the bits)
_GL_U = np.array([
    -0.9905754753144174, -0.9506755217687677, -0.8802391537269859,
    -0.7815140038968014, -0.6576711592166907, -0.5126905370864769,
    -0.3512317634538763, -0.17848418149584785, 0.0, 0.17848418149584785,
    0.3512317634538763, 0.5126905370864769, 0.6576711592166907,
    0.7815140038968014, 0.8802391537269859, 0.9506755217687677,
    0.9905754753144174])
_GL_W = np.array([
    0.02414830286854758, 0.05545952937398796, 0.08503614831717912,
    0.11188384719340397, 0.1351363684685255, 0.15404576107681026,
    0.1680041021564499, 0.17656270536699253, 0.17944647035620653,
    0.17656270536699253, 0.1680041021564499, 0.15404576107681026,
    0.1351363684685255, 0.11188384719340397, 0.08503614831717912,
    0.05545952937398796, 0.02414830286854758])


def _legendre_values(x: np.ndarray, deg: int) -> np.ndarray:
    """P_k(x_j) as (x.size, deg + 1): legvander's forward three-term
    recurrence, in its operations and layout, so bit for bit its table."""
    v = np.empty((deg + 1, x.size))
    v[0], v[1] = 1.0, x
    for i in range(2, deg + 1):
        v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


# P_k(v_j) table reused by every projection
_LEG_VALS = _legendre_values(_GL_U, _NODES_PER_PANEL - 1)
_PROJ = _GL_W[:, None] * _LEG_VALS * (2.0 * np.arange(_NODES_PER_PANEL) + 1.0) / 2.0
_K_RANGE = np.arange(_NODES_PER_PANEL)
_MOMENT_PHASE = 2.0 * (1j ** _K_RANGE)
_ODD = 2.0 * _K_RANGE + 1.0
# above the highest order the upward recurrence for j_k is stable
_UPWARD_FROM = float(_NODES_PER_PANEL - 1)
# Miller start orders at or below _UPWARD_FROM, and below 1; 34 at 16 and
# 26 just below 1 already reach full accuracy
_MILLER_TOP, _MILLER_TOP_BELOW_1 = 46, 30
_MILLER_C = [0.0] + [1.0 / ((2 * k + 1) * (2 * k + 3))
                     for k in range(1, _MILLER_TOP + 1)]
# largest y1/y0 of one osc_integral panel: a pure power's phi' then sits
# 9 half-widths from its singularity at 0, and its degree-16 fit is exact
# to rounding
_PANEL_RATIO = 1.25


def _bessel_upward(x: np.ndarray) -> np.ndarray:
    """j_0 .. j_16 (rows) at x > 16 by the upward recurrence
    j_{k+1} = (2k+1) j_k / x - j_{k-1}, in the operations and order of
    scipy.special.spherical_jn, so bit for bit its values."""
    j = np.empty((_NODES_PER_PANEL, x.size))
    j[0] = np.sin(x) / x
    j[1] = (j[0] - np.cos(x)) / x
    for k in range(1, _NODES_PER_PANEL - 1):
        j[k + 1] = (2 * k + 1) * j[k] / x - j[k - 1]
    return j


def _bessel_miller(x: np.ndarray) -> np.ndarray:
    """j_0 .. j_16 (rows) at 0 <= x <= 16 by Miller's downward recurrence.

    It runs on t_k = j_k (2k+1)!! / x^k, for which
    t_{k-1} = t_k - x^2 t_{k+1} / ((2k+1)(2k+3)) has no 1/x, so nothing
    overflows as x -> 0 and x = 0 gives (1, 0, ..., 0) exactly.  Started
    from t = 1 above t = 0 at order 46 (30 when every x < 1), then scaled
    by whichever of j_0 = sin x / x and j_1 = (j_0 - cos x) / x is the
    larger, so the scale never divides by a value near a zero of j_0.
    """
    top = _MILLER_TOP if x.max() >= 1.0 else _MILLER_TOP_BELOW_1
    x2 = x * x
    t = np.empty((_NODES_PER_PANEL, x.size))
    nxt, cur, tmp = np.zeros(x.size), np.ones(x.size), np.empty(x.size)
    for k in range(top, 0, -1):
        np.multiply(x2, _MILLER_C[k], out=tmp)
        tmp *= nxt
        np.subtract(cur, tmp, out=nxt)
        cur, nxt = nxt, cur
        if k <= _NODES_PER_PANEL:
            t[k - 1] = cur
    # p_k = x^k / (2k+1)!!, so that j_k = scale * t_k * p_k
    p = np.empty_like(t)
    p[0] = 1.0
    np.cumprod(x / _ODD[1:, None], axis=0, out=p[1:])
    nonzero = x != 0.0
    j0 = np.divide(np.sin(x), x, out=np.ones_like(x), where=nonzero)
    j1 = np.divide(j0 - np.cos(x), x, out=np.zeros_like(x), where=nonzero)
    by_j0 = np.abs(j0) >= np.abs(j1)
    t *= p
    t *= np.where(by_j0, j0, j1) / np.where(by_j0, t[0], t[1])
    return t


def bessel_rows(x: np.ndarray) -> np.ndarray:
    """j_0 .. j_16 at every x >= 0, as (17, n) rows.

    Upward for x > 16, where the values are bit for bit those of
    scipy.special.spherical_jn, and Miller's downward recurrence at or
    below it (_bessel_miller).  Within 1.7e-16 absolute of 40-digit values
    over 2,000 sampled points up to 1e3.
    """
    up = x > _UPWARD_FROM
    if up.all():
        return _bessel_upward(x)
    j = np.empty((_NODES_PER_PANEL, x.size))
    if up.any():
        j[:, up] = _bessel_upward(x[up])
    j[:, ~up] = _bessel_miller(x[~up])
    return j


def legendre_moments(omega: np.ndarray) -> np.ndarray:
    """int_{-1}^{1} P_k(v) e^{i omega v} dv = 2 i^k j_k(omega), k < 17,
    one row per omega.

    All 17 orders come from one recurrence pass over (17, n) rows
    (bessel_rows at |omega|).  j_k(-w) = (-1)^k j_k(w), so a negative
    omega gives the conjugate row.
    """
    omega = np.asarray(omega, dtype=np.float64)
    j = bessel_rows(np.abs(omega))
    out = np.empty((omega.size, _NODES_PER_PANEL), dtype=np.complex128)
    np.multiply(j.T, _MOMENT_PHASE, out=out)
    np.conjugate(out, out=out, where=(omega < 0.0)[:, None])
    return out


def _filon(inv: InverseHandle, y0: float, y1: float, xi: float) -> complex:
    """Integral of phi'(y) e(xi y) over [y0, y1], h(x0) <= y0 < y1, by
    Filon quadrature.

    The range is cut into panels [Y - H, Y + H] geometric in y, of ratio
    at most _PANEL_RATIO; phi' (inv.d1) is projected on Legendre modes of
    degree < 17 from 17 Gauss-Legendre nodes, and each mode is integrated
    against e(xi y) exactly: a panel is
    H e(xi Y) sum_k c_k 2 i^k j_k(w), w = 2 pi xi H.

    Error: the fit of phi' on a panel converges like 17.9^-17 (the
    Bernstein ellipse of y^(gamma - 1) at ratio 1.25), so what is left is
    rounding, a few u (u = 2^-53) times phi(y1) - phi(y0).  Cost: 17 phi'
    points per panel, ceil(log(y1/y0) / log 1.25) panels, whatever xi; one
    phase per panel.
    """
    n = max(1, math.ceil(math.log(y1 / y0) / math.log(_PANEL_RATIO)))
    edges = y0 * (y1 / y0) ** (np.arange(n + 1) / n)
    edges[-1] = y1
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    coeffs = inv.d1(mid[:, None] + half[:, None] * _GL_U) @ _PROJ
    modes = (coeffs * legendre_moments(2.0 * math.pi * xi * half)).sum(axis=1)
    return complex(pairwise_sum(half * phase(mid, xi) * modes))


def osc_integral(h: RegVarFunction, a: float, b: float, xi: float) -> complex:
    """Integral of e(h(s) * xi) over [a, b] by Filon quadrature in y = h(s).

    Below x0, h is the constant h(x0), so that stretch contributes
    (min(b, x0) - a) e(xi h(x0)) exactly.  Above it s = phi(y) and the
    integral is that of e(xi y) phi'(y) over [h(max(a, x0)), h(b)], which
    _filon takes; within 1e-12 (b - a) of 30-digit values in the tests.
    A negative xi needs no branch of its own: phase and legendre_moments
    conjugate exactly, as do the sums and products _filon makes of them,
    so the value at -xi is the conjugate of that at xi bit for bit.
    """
    a, b, xi = float(a), float(b), float(xi)
    if b <= a:
        return 0j
    if xi == 0.0:
        return complex(b - a)
    y0, y1 = h.value(max(a, h.x0)), h.value(b)
    below = 0j
    if a < h.x0:
        below = (min(b, h.x0) - a) * complex(phase(np.array([y0]), xi)[0])
        if b <= h.x0:
            return below
    return _filon(h.inverse, y0, y1, xi) + below


def von_mangoldt_block_sum(h: RegVarFunction, P: float, P1: float,
                           freq: float) -> tuple[complex, int]:
    """Sum of Lambda(n) e(freq h(n)) over P < n <= P1, and the number of
    prime powers it ran over."""
    n, w = primes.prime_powers(math.floor(P) + 1, math.floor(P1) + 1)
    return (_phase_sum(lambda a, b: w[a:b], h.value(n.astype(np.float64)),
                       [freq])[0], int(n.size))


@dataclass(frozen=True)
class BlockCheck:
    block_sum: complex
    integral: complex
    abs_error: float
    normalizer: float
    ratio: float


def dyadic_block_check(h: RegVarFunction, t: float, xi: float) -> BlockCheck:
    """Compare the Lambda-weighted block sum on (t/2, t] with the plain
    oscillatory integral, normalized subpolynomially."""
    t = float(t)
    block, _ = von_mangoldt_block_sum(h, t / 2.0, t, xi)
    integral = osc_integral(h, t / 2.0, t, xi)
    err = abs(block - integral)
    norm = normalizer(t)
    return BlockCheck(block, integral, err, norm, err / norm)

