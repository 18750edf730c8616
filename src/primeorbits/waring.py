"""Ternary representation counts along floors of regularly varying powers.

r(lambda) counts triples (m1, m2, m3) with floor(h1(m1)) + floor(h2(m2))
+ floor(h3(m3)) = lambda; R(lambda) is the same count over prime arguments
weighted by log(p1) log(p2) log(p3).  Both reduce to two convolutions of
per-function histograms, which makes the full lambda range available at
once.  Each convolution is a real FFT whose error is held under an
a-priori bound of Percival's form (Math. Comp. 72 (2003)); integer
counts are rounded only while that bound stays below 1/4, and otherwise
the larger operand is split into 16-bit limbs, so r is exact.  The
expected main term is Gamma(g1) Gamma(g2) Gamma(g3) / Gamma(g1+g2+g3) *
lambda^2 phi1'(lambda) phi2'(lambda) phi3'(lambda) with gi = 1/ci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expsum import EPSILON, guarded_floor, prime_floors
from .regvar import RegVarFunction

_INT64_CAP = 2 ** 62  # headroom under the signed 64-bit limit

# peak bytes of a count_report, measured on numpy 2.4 and rounded up: the
# FFT buffers took about 70 bytes of RSS per transform slot
_BYTES_PER_SLOT = 80
_BYTES_PER_ARG = 64      # floor evaluation and sieve per argument m
_BYTES_PER_LAMBDA = 48   # the six float64/int64 histograms


def gamma_fn(x: float) -> float:
    """Euler Gamma on (0, 20], the range the main term needs."""
    if not 0.0 < x <= 20.0:
        raise ValueError(f"gamma_fn domain is (0, 20], got {x}")
    return math.gamma(x)


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
            + _BYTES_PER_SLOT * _transform_length(2 * lambda_max + 1))


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
    bound on every returned coefficient.
    """
    length: int
    limbs: int
    bound: float


_UNIT_ROUNDOFF = 2.0 ** -53
_ROUND_BOUND = 0.25   # rint is exact below 1/2; keep a factor 2 in hand
_LIMB_BITS = 16


def _transform_length(full: int) -> int:
    """Power of two holding a linear convolution of `full` coefficients."""
    return 1 << max(full - 1, 0).bit_length()


def _percival_factor(length: int) -> float:
    """Factor f with |computed - exact| <= ||a||_2 ||b||_2 f per coefficient.

    Percival's bound for a radix-2 complex FFT of length 2^n with unit
    roundoff u and twiddle error beta is ((1+u)^3n (1+u sqrt5)^(3n+1)
    (1+beta)^3n - 1).  numpy's pocketfft is a mixed-radix real transform,
    not that exact algorithm, so u and beta are both taken at twice the
    unit roundoff and n one level above log2(length), as margin.
    """
    n = length.bit_length()
    u = 2.0 * _UNIT_ROUNDOFF
    return math.expm1(6 * n * math.log1p(u)
                      + (3 * n + 1) * math.log1p(u * math.sqrt(5.0)))


def _fft_convolve(a: np.ndarray, b: np.ndarray,
                  out_len: int) -> tuple[np.ndarray, float]:
    """First out_len coefficients of a * b by real FFT, with an error bound.

    Every returned coefficient lies within the bound of the exact
    convolution of the float64 inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    full = a.size + b.size - 1
    length = _transform_length(full)
    bound = (float(np.linalg.norm(a)) * float(np.linalg.norm(b))
             * _percival_factor(length))
    spec = np.fft.rfft(a, length)
    spec *= np.fft.rfft(b, length)
    return np.fft.irfft(spec, length)[:min(full, out_len)], bound


def _limbs(x: np.ndarray) -> list[np.ndarray]:
    """16-bit limbs with x = sum_k limb_k 2^(16k); only the top one signed."""
    bits = int(np.abs(x).max(initial=0)).bit_length()
    k = max(1, -(-bits // _LIMB_BITS))
    mask = (1 << _LIMB_BITS) - 1
    return ([(x >> (_LIMB_BITS * i)) & mask for i in range(k - 1)]
            + [x >> (_LIMB_BITS * (k - 1))])


def _convolve_exact(a: np.ndarray, b: np.ndarray,
                    out_len: int) -> tuple[np.ndarray, int, float]:
    """Exact int64 convolution: (coefficients, limbs used, accepted bound)."""
    # pre-check that no coefficient can overflow
    bound = int(a.sum()) * int(b.max(initial=0))
    if bound >= _INT64_CAP:
        raise OverflowError(f"convolution coefficient bound {bound} "
                            f"exceeds the 64-bit guard")
    z, err = _fft_convolve(a, b, out_len)
    if err < _ROUND_BOUND:
        return np.rint(z).astype(np.int64), 1, err
    if np.abs(a).max(initial=0) < np.abs(b).max(initial=0):
        a, b = b, a
    parts = _limbs(a.astype(np.int64))
    out = np.zeros(z.size, dtype=np.int64)
    worst = 0.0
    for i, limb in enumerate(parts):
        z, err = _fft_convolve(limb, b, out_len)
        if err >= _ROUND_BOUND:
            raise OverflowError(f"FFT error bound {err:.3g} of a 16-bit limb "
                                f"leaves no exact rounding")
        # int64 wraps modulo 2^64 and the guard keeps the sum in range
        out += np.rint(z).astype(np.int64) << (_LIMB_BITS * i)
        worst = max(worst, err)
    return out, len(parts), worst


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
    hs = [h[:out_len] for h in (hist1, hist2, hist3)]
    length = _transform_length(min(hs[0].size + hs[1].size - 1, out_len)
                               + hs[2].size - 1)
    if all(np.issubdtype(h.dtype, np.integer) for h in hs):
        h12, limbs12, err12 = _convolve_exact(hs[0], hs[1], out_len)
        full, limbs, err = _convolve_exact(h12, hs[2], out_len)
        record = ConvolutionWork(length, max(limbs12, limbs), max(err12, err))
    else:
        hs = [np.asarray(h, dtype=np.float64) for h in hs]
        h12, err12 = _fft_convolve(hs[0], hs[1], out_len)
        full, err = _fft_convolve(h12, hs[2], out_len)
        # the error of h12 passes through the second product times ||h3||_1
        bound = err12 * float(np.abs(hs[2]).sum()) + err
        if all((h >= 0).all() for h in hs):
            # a nonzero coefficient is at least the product of the smallest
            # positive entries; while the bound is below half of that, a
            # value within the bound of 0 can only be an exact 0
            least = math.prod(float(h[h > 0].min(initial=math.inf)) for h in hs)
            if bound < 0.5 * least:
                full[np.abs(full) <= bound] = 0.0
        record = ConvolutionWork(length, 1, bound)
    if work is not None:
        work.append(record)
    return full


def check_lambda(functions, lam: float) -> None:
    """Refuse lambda below h(x0) of any function, where phi' is undefined."""
    for f in functions:
        if lam < f.value(f.x0):
            raise ValueError(f"lambda={lam} below h(x0) for {f.label()}")


def _phi_d1_product(config: WaringConfig, lam: float) -> float:
    check_lambda(config.functions, lam)
    prod = 1.0
    for f in config.functions:
        prod *= f.inverse.d1(float(lam))
    return prod


def gamma_constant(config: WaringConfig) -> float:
    g1, g2, g3 = config.gammas
    return (gamma_fn(g1) * gamma_fn(g2) * gamma_fn(g3)
            / gamma_fn(g1 + g2 + g3))


def main_term(config: WaringConfig, lam: float) -> float:
    """Gamma-factor constant times lambda^2 phi1' phi2' phi3' at lambda."""
    return gamma_constant(config) * lam * lam * _phi_d1_product(config, lam)


def count_report(config: WaringConfig, lams: list[int],
                 epsilon: float = EPSILON,
                 work: list | None = None) -> list[WaringCount]:
    """r, R, main term, and the normalized r-vs-R gap at each requested lambda.

    The ConvolutionWork records of r and then R are appended to `work`
    if given.
    """
    lmax = max(lams)
    if lmax > config.lambda_max:
        raise ValueError(f"lambda {lmax} beyond configured {config.lambda_max}")
    check_lambda(config.functions, min(lams))
    gs = [floor_image_histogram(f, lmax) for f in config.functions]
    ws = [prime_weighted_histogram(f, lmax) for f in config.functions]
    r_all = triple_counts_all(*gs, lmax, work=work)
    w_all = triple_counts_all(*ws, lmax, work=work)
    out = []
    for lam in lams:
        r = int(r_all[lam])
        R = float(w_all[lam])
        phis = lam * lam * _phi_d1_product(config, float(lam))
        mt = gamma_constant(config) * phis
        damp = math.exp(-math.log(lam) ** (1.0 / 3.0 - epsilon)) if lam > 1 else 1.0
        out.append(WaringCount(
            lam=lam, r=r, R=R, main_term=mt,
            ratio_r=r / mt if mt > 0 else math.inf,
            normalized_gap=abs(R - r) / (phis * damp)))
    return out
