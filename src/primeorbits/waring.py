"""Ternary representation counts along floors of regularly varying powers.

r(lambda) counts triples (m1, m2, m3) with floor(h1(m1)) + floor(h2(m2))
+ floor(h3(m3)) = lambda; R(lambda) is the same count over prime arguments
weighted by log(p1) log(p2) log(p3).  Both are threefold convolutions of
per-function histograms h1, h2, h3, taken in two stages.  The first,
h12 = h1 * h2 up to lambda_max, is a real FFT at the smallest length
2^a m with m in {1, 3, 5, 15} that holds it (expsum.transform_length),
whose error is held under an a-priori bound of Percival's form (Math.
Comp. 72 (2003)); integer counts are rounded only while that bound stays
below 1/4, and otherwise the larger operand is split into 16-bit limbs,
so the integer h12 is exact.  Two readers take h12 on:

  triple_counts_all  convolves h12 with h3 by a second such product,
                     which gives every lambda <= lambda_max at once;
  triple_counts_at   sums S(lambda) = sum_{c <= lambda} h12[lambda - c]
                     h3[c] directly at each requested lambda (Vaughan,
                     The Hardy-Littlewood Method, 2nd ed. 1997, ch. 2):
                     in int64 under a 64-bit guard, so r is exact, and
                     by accum.pairwise_sum for R, within a stated bound.

count_report, which reads two or three lambda, takes the second.  The
expected main term is Gamma(g1) Gamma(g2) Gamma(g3) / Gamma(g1+g2+g3) *
lambda^2 phi1'(lambda) phi2'(lambda) phi3'(lambda) with gi = 1/ci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import pairwise_roundings, pairwise_sum
from .expsum import guarded_floor, prime_floors, saving, transform_length
from .regvar import RegVarFunction

_INT64_CAP = 2 ** 62  # headroom under the signed 64-bit limit

# peak bytes of a count_report, measured on numpy 2.4.6 for lambda from 1e4
# to 3e6 at c = 1.01, 1.5 and 1.99 and rounded up: beyond its histograms a
# report held up to 49 bytes of RSS per transform slot at lambda = 1e4 and
# 28-31 from 1e5 on, with one FFT product per triple (51 with two)
_BYTES_PER_SLOT = 52
_BYTES_PER_ARG = 64      # floor evaluation and sieve per argument m
_BYTES_PER_LAMBDA = 48   # the six float64/int64 histograms


def assumption_check(gammas: tuple[float, float, float]) -> bool:
    """4(1-g1) + (45/4)(1-g2) + (45/4)(1-g3) < 1, the admissibility gate."""
    g1, g2, g3 = gammas
    return 4.0 * (1.0 - g1) + 11.25 * (1.0 - g2) + 11.25 * (1.0 - g3) < 1.0


@dataclass(frozen=True)
class WaringConfig:
    h1: RegVarFunction
    h2: RegVarFunction
    h3: RegVarFunction
    lambda_max: int

    def __post_init__(self):
        if self.lambda_max < 1:
            raise ValueError("lambda_max must be >= 1")

    @property
    def gammas(self) -> tuple[float, float, float]:
        return (self.h1.gamma, self.h2.gamma, self.h3.gamma)

    @property
    def functions(self) -> tuple[RegVarFunction, ...]:
        return (self.h1, self.h2, self.h3)

    def admissible(self) -> bool:
        # the asymptotic comparison additionally wants each c in (1, 4/3)
        return (all(f.c < 4.0 / 3.0 for f in self.functions)
                and assumption_check(self.gammas))


@dataclass(frozen=True)
class WaringCount:
    lam: int
    r: int
    R: float
    main_term: float
    ratio_r: float
    normalized_gap: float

    def __post_init__(self):
        if self.lam >= 0 and self.r < 0:
            raise ValueError("negative count")


def arg_cutoff(h: RegVarFunction, lambda_max: int) -> int:
    """Largest argument m the histograms up to lambda_max evaluate."""
    # floor(h(m)) <= lambda_max forces m < phi(lambda_max + 1); one spare
    # index absorbs inverse roundoff, the floor mask does the exact cut
    return int(h.inverse.value(float(lambda_max + 1))) + 1


def memory_estimate(functions, lambda_max: int) -> int:
    """Bytes a count_report up to lambda_max is expected to hold at peak."""
    m_max = max(arg_cutoff(f, lambda_max) for f in functions)
    return (_BYTES_PER_ARG * m_max + _BYTES_PER_LAMBDA * (lambda_max + 1)
            + _BYTES_PER_SLOT * transform_length(2 * lambda_max + 1))


def floor_image_histogram(h: RegVarFunction, lambda_max: int) -> np.ndarray:
    """g[s] = #{m >= 1 : floor(h(m)) = s} for 0 <= s <= lambda_max."""
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    m_max = arg_cutoff(h, lambda_max)
    m = np.arange(1, m_max + 1, dtype=np.float64)
    floors, _ = guarded_floor(h, m)
    keep = floors <= lambda_max
    return np.bincount(floors[keep], minlength=lambda_max + 1).astype(np.int64)


def prime_weighted_histogram(h: RegVarFunction, lambda_max: int) -> np.ndarray:
    """w[s] = sum of log p over primes p with floor(h(p)) = s."""
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    p, floors = prime_floors(h, arg_cutoff(h, lambda_max))
    keep = floors <= lambda_max
    logs = np.log(p[keep].astype(np.float64))
    return np.bincount(floors[keep], weights=logs, minlength=lambda_max + 1)


@dataclass(frozen=True)
class ConvolutionWork:
    """What one threefold convolution did.

    length is the FFT length, limbs the most 16-bit limbs any operand was
    split into (1: no split), bound the absolute error bound of the
    result: for integer histograms the largest bound that was accepted
    before rounding (the counts themselves are exact), for real ones the
    bound on every returned coefficient.  triple_counts_at runs only the
    first product, so its record has that product's length, limbs and
    accepted bound, or for real histograms the largest bound of a
    returned S(lambda).
    """
    length: int
    limbs: int
    bound: float


_UNIT_ROUNDOFF = 2.0 ** -53
_ROUND_BOUND = 0.25   # rint is exact below 1/2; keep a factor 2 in hand
_LIMB_BITS = 16


def _percival_factor(length: int) -> float:
    """Factor f with |computed - exact| <= ||a||_2 ||b||_2 f per coefficient.

    Percival's bound for a radix-2 complex FFT of length 2^n with unit
    roundoff u and twiddle error beta is ((1+u)^3n (1+u sqrt5)^(3n+1)
    (1+beta)^3n - 1).  numpy's pocketfft is a mixed-radix real transform,
    not that exact algorithm, so u and beta are both taken at twice the
    unit roundoff, and n counts ceil(log2 r) levels for each radix-r
    factor of length (1 for 2, 2 for 3, 3 for 5) plus one spare level,
    as margin.  For a power of two n is one above log2(length).
    """
    n, rest = 1, length
    for radix in (2, 3, 5):
        while rest % radix == 0:
            rest //= radix
            n += (radix - 1).bit_length()
    if rest != 1:
        raise ValueError(f"transform length {length} is not 2^a 3^b 5^c")
    u = 2.0 * _UNIT_ROUNDOFF
    return math.expm1(6 * n * math.log1p(u)
                      + (3 * n + 1) * math.log1p(u * math.sqrt(5.0)))


def _fft_convolve(a: np.ndarray, b: np.ndarray,
                  out_len: int) -> tuple[np.ndarray, float, int]:
    """First out_len coefficients of a * b by real FFT: (coefficients,
    error bound, transform length).

    Every returned coefficient lies within the bound of the exact
    convolution of the float64 inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    full = a.size + b.size - 1
    length = transform_length(full)
    bound = (float(np.linalg.norm(a)) * float(np.linalg.norm(b))
             * _percival_factor(length))
    spec = np.fft.rfft(a, length)
    spec *= np.fft.rfft(b, length)
    return np.fft.irfft(spec, length)[:min(full, out_len)], bound, length


def _limbs(x: np.ndarray) -> list[np.ndarray]:
    """16-bit limbs with x = sum_k limb_k 2^(16k); only the top one signed."""
    bits = int(np.abs(x).max(initial=0)).bit_length()
    k = max(1, -(-bits // _LIMB_BITS))
    mask = (1 << _LIMB_BITS) - 1
    return ([(x >> (_LIMB_BITS * i)) & mask for i in range(k - 1)]
            + [x >> (_LIMB_BITS * (k - 1))])


def _int64_guard(a: np.ndarray, b: np.ndarray) -> None:
    """Refuse int64 sums of products a[i] b[j] that could leave the range.

    No coefficient of a * b, nor any partial sum of one, exceeds
    sum |a| * max |b|.  Both factors are taken in float64, whose relative
    error here is far inside the factor 2 that 2^62 leaves under 2^63.
    """
    bound = (float(np.abs(a, dtype=np.float64).sum())
             * float(np.abs(b, dtype=np.float64).max(initial=0.0)))
    if bound >= _INT64_CAP:
        raise OverflowError(f"convolution coefficient bound {bound:.4g} "
                            f"exceeds the 64-bit guard")


def _convolve_exact(a: np.ndarray, b: np.ndarray,
                    out_len: int) -> tuple[np.ndarray, int, float, int]:
    """Exact int64 convolution: (coefficients, limbs used, accepted bound,
    transform length)."""
    _int64_guard(a, b)
    z, err, length = _fft_convolve(a, b, out_len)
    if err < _ROUND_BOUND:
        return np.rint(z).astype(np.int64), 1, err, length
    if np.abs(a).max(initial=0) < np.abs(b).max(initial=0):
        a, b = b, a
    parts = _limbs(a.astype(np.int64))
    out = np.zeros(z.size, dtype=np.int64)
    worst = 0.0
    for i, limb in enumerate(parts):
        z, err, _ = _fft_convolve(limb, b, out_len)
        if err >= _ROUND_BOUND:
            raise OverflowError(f"FFT error bound {err:.3g} of a 16-bit limb "
                                f"leaves no exact rounding")
        # int64 wraps modulo 2^64 and the guard keeps the sum in range
        out += np.rint(z).astype(np.int64) << (_LIMB_BITS * i)
        worst = max(worst, err)
    return out, len(parts), worst, length


def _operands(hists, out_len: int) -> tuple[list[np.ndarray], bool]:
    """The histograms cut to out_len entries, and whether all are integer;
    if not, all are taken as float64."""
    hs = [np.asarray(h)[:out_len] for h in hists]
    if all(np.issubdtype(h.dtype, np.integer) for h in hs):
        return hs, True
    return [np.asarray(h, dtype=np.float64) for h in hs], False


def _first_stage(hs: list[np.ndarray], exact: bool,
                 out_len: int) -> tuple[np.ndarray, int, float, int]:
    """h12 = hs[0] * hs[1] up to out_len: (coefficients, limbs, bound,
    transform length), exact int64 for integer histograms, else float64
    within bound of every exact coefficient."""
    if exact:
        return _convolve_exact(hs[0], hs[1], out_len)
    h12, bound, length = _fft_convolve(hs[0], hs[1], out_len)
    return h12, 1, bound, length


def _snap_zeros(values: np.ndarray, bound, hs: list[np.ndarray]) -> None:
    """Set to 0.0 the values within `bound` (a scalar, or one per value)
    of 0 where that proves the exact value 0."""
    if all((h >= 0).all() for h in hs):
        # a nonzero coefficient is at least the product of the smallest
        # positive entries; while the bound is below half of that, a
        # value within the bound of 0 can only be an exact 0
        least = math.prod(float(h[h > 0].min(initial=math.inf)) for h in hs)
        values[(np.abs(values) <= bound) & (bound < 0.5 * least)] = 0.0


def triple_counts_all(hist1: np.ndarray, hist2: np.ndarray,
                      hist3: np.ndarray, lambda_max: int,
                      work: list | None = None) -> np.ndarray:
    """All coefficients 0..lambda_max of the threefold convolution.

    Integer histograms give exact int64 counts.  Otherwise the result is
    float64 within ConvolutionWork.bound of the exact convolution, and for
    nonnegative histograms the coefficients that are exactly zero come
    back as 0.0.  A ConvolutionWork record is appended to `work` if given.
    """
    out_len = lambda_max + 1
    hs, exact = _operands((hist1, hist2, hist3), out_len)
    h12, limbs12, err12, _ = _first_stage(hs, exact, out_len)
    if exact:
        full, limbs, err, length = _convolve_exact(h12, hs[2], out_len)
        record = ConvolutionWork(length, max(limbs12, limbs), max(err12, err))
    else:
        full, err, length = _fft_convolve(h12, hs[2], out_len)
        # the error of h12 passes through the second product times ||h3||_1
        bound = err12 * float(np.abs(hs[2]).sum()) + err
        _snap_zeros(full, bound, hs)
        record = ConvolutionWork(length, 1, bound)
    if work is not None:
        work.append(record)
    return full


def triple_counts_at(hist1: np.ndarray, hist2: np.ndarray,
                     hist3: np.ndarray, lams: list[int],
                     work: list | None = None) -> np.ndarray:
    """The threefold convolution at each lambda of lams, one per entry.

    h12 = hist1 * hist2 is formed up to max(lams) as in triple_counts_all,
    and S(lam) = sum_{c <= lam} h12[lam - c] hist3[c] is summed directly.
    Integer histograms give exact int64 counts, summed in int64 under the
    64-bit guard.  Otherwise S(lam) is pairwise_sum of the float64
    products, and lies within

        err12 * sum_{c <= lam} |hist3[c]| + g * sum_c |h12[lam - c] hist3[c]|

    of the exact value, with err12 the first product's bound and
    g = (d+1)u / (1 - (d+1)u): pairwise_sum's d roundings and one for the
    product, u = 2^-53.  For nonnegative histograms the values that are
    exactly zero come back as 0.0, as in triple_counts_all.  A
    ConvolutionWork record is appended to `work` if given.
    """
    out_len = max(lams) + 1
    hs, exact = _operands((hist1, hist2, hist3), out_len)
    h12, limbs, err12, length = _first_stage(hs, exact, out_len)
    h3 = hs[2]
    out = np.zeros(len(lams), dtype=np.int64 if exact else np.float64)
    bounds = np.zeros(len(lams))
    for i, lam in enumerate(lams):
        # c runs over [lo, hi), where both h12[lam - c] and h3[c] exist
        lo, hi = max(0, lam - h12.size + 1), min(lam + 1, h3.size)
        a, b = h12[lam - hi + 1:lam - lo + 1][::-1], h3[lo:hi]
        if exact:
            _int64_guard(a, b)
            out[i] = np.dot(a, b)
        else:
            prod = a * b
            out[i] = pairwise_sum(prod)
            d = pairwise_roundings(prod.size) + 1
            bounds[i] = (err12 * pairwise_sum(np.abs(b))
                         + d * _UNIT_ROUNDOFF / (1.0 - d * _UNIT_ROUNDOFF)
                         * pairwise_sum(np.abs(prod)))
    if exact:
        record = ConvolutionWork(length, limbs, err12)
    else:
        _snap_zeros(out, bounds, hs)
        record = ConvolutionWork(length, 1, float(bounds.max(initial=0.0)))
    if work is not None:
        work.append(record)
    return out


def check_lambda(functions, lam: float) -> None:
    """Refuse lambda below h(x0) of any function, where phi' is undefined."""
    for f in functions:
        if lam < f.value(f.x0):
            raise ValueError(f"lambda={lam} below h(x0) for {f.label()}")


def gamma_constant(config: WaringConfig) -> float:
    g1, g2, g3 = config.gammas
    return (math.gamma(g1) * math.gamma(g2) * math.gamma(g3)
            / math.gamma(g1 + g2 + g3))


def count_report(config: WaringConfig, lams: list[int],
                 work: list | None = None) -> list[WaringCount]:
    """r, R, main term, and the normalized r-vs-R gap at each requested lambda.

    r and R come from triple_counts_at: one FFT product of the first two
    histograms up to max(lams), then a direct sum at each lambda, so the
    report never convolves over every lambda.  r is exact; R is within
    the bound of its ConvolutionWork record.  The records of r and then
    R are appended to `work` if given.
    """
    lmax = max(lams)
    if lmax > config.lambda_max:
        raise ValueError(f"lambda {lmax} beyond configured {config.lambda_max}")
    check_lambda(config.functions, min(lams))
    gs = [floor_image_histogram(f, lmax) for f in config.functions]
    r_at = triple_counts_at(*gs, lams, work=work)
    # the two triples of histograms are never alive together
    del gs
    ws = [prime_weighted_histogram(f, lmax) for f in config.functions]
    R_at = triple_counts_at(*ws, lams, work=work)
    out = []
    for lam, r, R in zip(lams, r_at.tolist(), R_at.tolist()):
        phis = lam * lam * math.prod(f.inverse.d1(float(lam))
                                     for f in config.functions)
        mt = gamma_constant(config) * phis
        out.append(WaringCount(
            lam=lam, r=r, R=R, main_term=mt,
            ratio_r=r / mt if mt > 0 else math.inf,
            normalized_gap=abs(R - r) / (phis * saving(lam))))
    return out
