"""Zeta zero tables, the truncated explicit formula, and zero-indexed sums.

The table is a plain ascending list of positive ordinates gamma with an
assumed common real part beta (default 1/2; every public table satisfies
that in its range).  On top of it sit the truncated Chebyshev-psi formula
and the two zero-indexed quantities used by the major-arc analysis: a
power-sum bound and an oscillatory integral summed over zeros up to a
height cut.

The oscillatory sum I(gamma) = int_{t/2}^t s^{beta-1} e(h(s) xi) s^{i gamma} ds
is evaluated by a Filon scheme in u = log s: the slow factor
f(u) = e^{beta u} e(xi h(e^u)) is projected on degree-16 Legendre pieces
over P equal panels sized by the xi*h phase, and the e^{i gamma u} factor
is integrated exactly against each Legendre mode via spherical Bessel
moments (expsum.legendre_moments, with the tables of expsum.osc_integral).
One panel decomposition therefore serves every zero.

The panels cover the window [u0, u1] of width L = 2 P half; u_c is its
midpoint.  With u = u_c + v, each zero's integral is
F(gamma) = e^{i gamma u_c} G(gamma), where G is the Fourier transform of
the projected f on |v| <= L/2.  So G is band-limited, and it is read off
a uniform grid in gamma at least twice as fine as its Nyquist step 2 pi / L
(the type-2 nonuniform FFT of Barnett, Magland and af Klinteberg, SIAM J.
Sci. Comput. 41 (2019) C479-C504):

- Grid.  M >= 2P is the smallest 2^a {1, 3, 5, 15}, and the step is
  pi / (M half).  At gamma = n step every panel carrier is an M-th root of
  unity, so G there is half e^{i pi n (1 - P) / M} sum_k 2 i^k
  j_k(n pi / M) D_k[n mod M], with D = the unscaled inverse FFT of the
  coefficients over the panels (_panel_transform): one inverse FFT of
  length M along each row of the (orders, M) array, in a single call.
  The orders whose moments stay below 2^-60 at every tap
  (|j_k(x)| <= x^k / (2k+1)!!) are left out.
- Interpolation.  G(gamma) = sum over the 16 grid points n within 8 of
  gamma / step of ES(gamma / step - n) Gc(n step), with the kernel
  ES(x) = exp(beta (sqrt(1 - (x/8)^2) - 1)), beta = 2.30 * 16, and Gc the
  grid transform of f / Psi: the node values are divided, before they
  are projected, by Psi(s) = int ES(x) cos(pi s x) dx, the kernel's
  Fourier transform at the node's offset s = (u - u_c) / (M half), which
  |s| <= P / M <= 1/2 bounds.  1 / Psi is a shipped polynomial in 4 s^2
  (_PSI_INV).  The 16 weights of a zero depend only on
  f = frac(gamma / step); as FINUFFT does, they are read off fitted
  piecewise polynomials rather than exp and sqrt: per tap a degree-16
  Chebyshev series in rho = 2 f - 1 (_ES_CHEB, fitted to 40-digit
  values), so a chunk's weights are the Chebyshev rows T_k(rho) by their
  three-term recurrence times one 17 x 16 matrix.  They are within
  4.1e-16 of ES, where exp and sqrt in double are within 3.0e-15.
  -gamma has the same weights on the mirrored taps.
- Sum.  The zeros are taken in chunks of at most _ZERO_CHUNK whose taps
  span at most _GRID_CHUNK + 16 grid points.  Each chunk spreads
  e^{i gamma u_c} ES(gamma / step - n) onto its grid points (one
  bincount), and the spread meets Gc at n and, conjugated, at -n.

Cost: about 17 M log M for the transforms, 17 per grid point up to
T / step, and per zero one exponential, 17 Chebyshev rows, a 17 x 16
product and 2 x 16 spread weights, against 68 P per zero for a GEMM over
panels x zeros.  Against the direct kernel (one exponential per panel
and zero, the oracle in tests/test_zeta.py) the measured deviation is at
most 6.2e-13 of the normalizer.  Memory: D takes 16 bytes per kept order
and grid point, at most 680 per panel, and the chunks of panels and of
zeros a few MiB.  A request whose estimated peak, panels x _PANEL_BYTES
+ _CHUNK_PEAK, exceeds _MAX_BYTES is refused before any exponential is
formed.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .accum import pairwise_sum
from .expsum import (_GL_U, _ODD, _PROJ, legendre_moments, normalizer,
                     theta1_default, transform_length)
from .regvar import RegVarFunction

_FIRST_GAMMA = 14.1347
# the interpolation kernel ES(x) = exp(beta (sqrt(1 - (2x/W)^2) - 1)) on
# |x| <= W/2 (Barnett, Magland, af Klinteberg 2019): W = 16 taps, beta =
# 2.30 W, the width and shape they give for a grid twice as fine as
# Nyquist; its Fourier transform Psi(s) = int ES(x) cos(pi s x) dx
_ES_TAPS = 16
_ES_BETA = 2.30 * _ES_TAPS
# 1 / Psi(s) on |s| <= 1/2 as a polynomial in 4 s^2, lowest power first:
# the interpolant at 16 Chebyshev nodes of 8 s^2 - 1, from 40-digit
# quadrature (a test re-derives it), within 2.7e-16 relative of 1 / Psi.
# All coefficients but one (-2.5e-6) are positive, so Horner's rule
# hardly cancels, in 2 array operations a term against Clenshaw's 3
_PSI_INV = np.array([
    0.3056547542910235, 0.6292581379817044, 0.6653094939960703,
    0.48167987047705435, 0.26864677604969817, 0.12311469259606685,
    0.048289248887027326, 0.016673739934434075, 0.005170246997417104,
    0.0014707489372466148, 0.00037241234178012, 0.00010773570097934666,
    8.280631449204674e-06, 1.3176719999245368e-05, -2.513072378249698e-06,
    9.504172401672527e-07])
# ES at the 16 taps of a zero, ES(x_i), x_i = (f + 7 - i) / 8 for
# f = frac(gamma / step), as degree-16 Chebyshev series in rho = 2 f - 1:
# row i holds tap i's coefficients of T_0 ... T_16, the interpolant at
# the 17 Chebyshev nodes from 40-digit values (a test re-derives it).
# Evaluated in double it is within 4.1e-16 absolute of ES, where exp and
# sqrt in double are within 3.0e-15.  Taps 0 to 7:
_ES_CHEB = np.array([
    [1.117062460229303e-09, -1.977940522057531e-09, 1.373830579337337e-09,
     -7.505580443814597e-10, 3.237040510687795e-10, -1.1064029529512372e-10,
     3.006403691584762e-11, -6.502587328524181e-12, 1.1169483196436364e-12,
     -1.5107434783590497e-13, 1.575826926609293e-14, -1.2095018217419833e-15,
     5.728807592621336e-17, -1.758087234974968e-18, -1.0426278551494878e-18,
     -5.573414918870647e-19, -2.8381036373454654e-19],
    [9.868978960156682e-07, -1.5878218807725724e-06, 8.606967650728245e-07,
     -3.3030435963002207e-07, 9.316371818198092e-08, -1.9775959141712117e-08,
     3.192443921560915e-09, -3.8995250864436476e-10, 3.4941639407143274e-11,
     -2.0776293693819924e-12, 4.8613279956469295e-14, 4.365792099042474e-15,
     -5.245362616912097e-16, 2.1533872898472145e-17, 2.8125860166221184e-19,
     -7.522061365807774e-20, 2.9791984451690124e-21],
    [9.688556525146744e-05, -0.00013754957234795396, 5.786261391250765e-05,
     -1.601176841910322e-05, 3.0758231715093316e-06, -4.170993555558019e-07,
     3.885537835111827e-08, -2.1615244897404983e-09, 1.6064025228537596e-11,
     8.614127844754423e-12, -7.250065697793499e-13, 1.7086543526651508e-14,
     1.3700259832558217e-15, -1.2257868309672644e-16, 2.0405421013768735e-18,
     2.1712440843725274e-19, -1.2892065285698777e-20],
    [0.0027129075622052633, -0.003256184805271195, 0.001031304961778804,
     -0.0001985486521159713, 2.3982422005680806e-05, -1.645858895054663e-06,
     2.1195993965777356e-08, 7.288823995176071e-09, -6.631740745094743e-10,
     1.312889101602694e-11, 1.7196194782447038e-12, -1.3068126366894563e-13,
     6.786855820692665e-16, 3.2923768689516035e-16, -1.3461613747656094e-17,
     -3.177726758804261e-19, 3.764208244923817e-20],
    [0.03107330781540723, -0.029722310282433915, 0.0065996269762569875,
     -0.0007618094880221551, 3.374993083243386e-05, 2.4090295526433632e-06,
     -4.0143122164188135e-07, 1.4025760683369452e-08, 1.0227126270036673e-09,
     -1.049934194366047e-10, 8.532983728478776e-13, 2.974320547411299e-13,
     -1.222981935488013e-14, -4.041890795137067e-16, 3.9461315144916616e-17,
     -7.152454956066273e-20, -7.723216359208571e-20],
    [0.17403002330129178, -0.12095713884358891, 0.015582218294995114,
     -0.00036704881119516635, -0.00011020446340897949, 1.008292219078847e-05,
     1.0201884983983885e-07, -5.511182882826851e-08, 1.6851319896392284e-09,
     1.52480852601607e-10, -1.0081761962926665e-11, -2.0054865237692032e-13,
     3.194925683245592e-14, -1.545419297289796e-16, -6.943071645776377e-17,
     1.4720342799223633e-18, 1.114473605839055e-19],
    [0.525514693752586, -0.22155376090969614, 0.004696016497739964,
     0.002327923962153065, -0.00015981326420912089, -1.0009691386457588e-05,
     1.2398570549281163e-06, 1.5813667448968224e-08, -5.565944545402608e-09,
     5.009166105652792e-11, 1.7340944916749045e-11, -4.068930183604619e-13,
     -4.0501902871485846e-14, 1.4650801702876661e-15, 7.364975173234726e-17,
     -3.695359501164289e-18, -1.0574352157186444e-19],
    [0.9024037566447086, -0.12749003383551766, -0.027967891415278442,
     0.0021515111223771874, 0.0002091160641859618, -1.7589173624425964e-05,
     -1.003718563286964e-06, 9.328209223697484e-08, 3.4691512742806963e-09,
     -3.613640184887625e-10, -9.171503684642626e-12, 1.0910992666390808e-12,
     1.9197693634420742e-14, -2.675297292728626e-15, -3.239057104106862e-17,
     5.479855567783765e-18, 4.4193608921400376e-20],
])
# ES is even, so tap 15 - i at rho is tap i at -rho
_ES_CHEB = np.vstack([_ES_CHEB, _ES_CHEB[::-1] * (-1.0) ** np.arange(17)])
# moments j_k below this at every grid point are left out of the sum
_MOMENT_FLOOR = 2.0 ** -60
# panels projected at a time (_panel_transform): the temporaries of their
# nodes take about 1.4 kB a panel
_PANEL_CHUNK = 2048
# a chunk of zeros holds at most _ZERO_CHUNK zeros, whose taps span at most
# _GRID_CHUNK + _ES_TAPS grid points
_ZERO_CHUNK = 4096
_GRID_CHUNK = 512
# peak bytes of zero_osc_sum past the transform D: a panel chunk's
# temporaries, or a chunk of zeros with its grid values (tracemalloc: at
# most 2.7 MiB, a full panel chunk, at 8-40,670 panels with 1 to 56,412
# zeros)
_CHUNK_PEAK = 1 << 22
# peak bytes per panel: D holds 16 bytes per order kept and grid point,
# at most 17 orders of M < 2.5 P points (680 B a panel), and the in-place
# transform of a row copies it (40 B a panel)
_PANEL_BYTES = 720
# largest estimated peak, panels x _PANEL_BYTES + _CHUNK_PEAK, it accepts
_MAX_BYTES = 1 << 29
# peak bytes of reading the packaged table: each ordinate twice, parsed
# and copied, and the ascending check's one-byte mask (tracemalloc: 0.96 MB
# for its 56,412 ordinates)
READ_BYTES = 1 << 20


def read_bytes(path: str | None = None) -> int:
    """Peak bytes of reading the zero table at path, planned from the file's
    size before it is read: at most (size + 1)/3 ordinates, '15\\n' being
    the shortest valid line, at 17 bytes each.  READ_BYTES without a path."""
    if not path:
        return READ_BYTES
    return 17 * (os.path.getsize(path) + 1) // 3


def theta3_default(c: float) -> float:
    """Height-cut exponent 1 - (1 - (c - theta1))/4 for the zero sums."""
    return 1.0 - (1.0 - (c - theta1_default(c))) / 4.0


@dataclass(frozen=True)
class ZetaZeroTable:
    """Ascending positive zero ordinates with an assumed common real part.

    `gammas` is a read-only copy of the ordinates it was given."""

    gammas: np.ndarray
    source: str = "unknown"
    assumed_beta: float = 0.5

    def __post_init__(self):
        g = np.array(self.gammas, dtype=np.float64)
        g.flags.writeable = False
        object.__setattr__(self, "gammas", g)
        if g.size == 0:
            raise ValueError("empty zero table")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite ordinate in zero table")
        if g[0] <= 0.0:
            raise ValueError("ordinates must be positive")
        if np.any(g[1:] <= g[:-1]):
            k = int(np.flatnonzero(g[1:] <= g[:-1])[0])
            raise ValueError(f"ordinates not strictly ascending at index {k + 1}")
        if abs(g[0] - _FIRST_GAMMA) > 1e-4:
            raise ValueError(f"first ordinate {g[0]:.6f} is not the known "
                             f"lowest zero {_FIRST_GAMMA}")
        # counting-function sanity: N(T) stays below T log T on the range
        T = float(g[-1])
        if g.size > T * math.log(T):
            raise ValueError("zero count exceeds T log T at the table top")

    @property
    def count(self) -> int:
        return int(self.gammas.size)

    @property
    def max_gamma(self) -> float:
        return float(self.gammas[-1])

    def count_upto(self, T: float) -> int:
        """N(T): number of ordinates <= T."""
        return int(np.searchsorted(self.gammas, T, side="right"))


@functools.cache
def _packaged_table() -> ZetaZeroTable:
    from importlib.resources import files

    return _read_table(str(files("primeorbits").joinpath("data/zeta_zeros.txt")))


def load_zeros(path: str | None = None) -> ZetaZeroTable:
    """The zero table in the file at path, or without one the packaged
    table, read once per process and shared (a table is frozen)."""
    return _read_table(path) if path else _packaged_table()


def _read_table(source: str) -> ZetaZeroTable:
    """One decimal ordinate per line, '#' comments."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is refused below
            gammas = np.loadtxt(source, comments="#", ndmin=2)
        if gammas.shape[1] != 1:
            raise ValueError("more than one number on a line")
    except ValueError as exc:
        # read again line by line only to name the first bad line
        with open(source) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                try:
                    if text:
                        float(text)
                except ValueError:
                    raise ValueError(f"{source}: parse error at line "
                                     f"{lineno}: {text[:40]!r}") from None
        raise ValueError(f"{source}: parse error: {exc}") from None
    if not gammas.size:
        raise ValueError(f"{source}: empty table")
    return ZetaZeroTable(gammas[:, 0], source=source)


def truncated_psi(x: float, T: float, table: ZetaZeroTable) -> float:
    """x - sum over 0<gamma<=T of 2 Re(x^rho / rho), rho = beta + i gamma.

    Conjugate pairs are folded analytically, so the result is real by
    construction; numerically it is exact up to the pairwise summation.
    """
    if not 2.0 <= T <= x:
        raise ValueError(f"need 2 <= T <= x, got T={T}, x={x}")
    if T > table.max_gamma:
        raise ValueError(f"T={T} beyond table coverage {table.max_gamma:.3f}")
    g = table.gammas[: table.count_upto(T)]
    rho = table.assumed_beta + 1j * g
    terms = 2.0 * np.real(x ** table.assumed_beta
                          * np.exp(1j * g * math.log(x)) / rho)
    return float(x - pairwise_sum(terms))


@dataclass(frozen=True)
class ZeroSumBound:
    """A zero-indexed sum next to the target normalizer t e^{-(log t)^{1/3-eps}}."""

    value: complex
    n_zeros: int
    normalizer: float
    n_panels: int = 0

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.normalizer


def zero_power_sum(t: float, T1: float, table: ZetaZeroTable) -> ZeroSumBound:
    """(1/sqrt(T1)) * sum_{0<gamma<=T1} t^beta, against the normalizer.

    With a common assumed beta the sum collapses to N(T1) t^beta.
    """
    if not 1.0 <= T1 <= table.max_gamma:
        raise ValueError(f"need 1 <= T1 <= {table.max_gamma:.3f}, got {T1}")
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    n = table.count_upto(T1)
    value = n * t ** table.assumed_beta / math.sqrt(T1)
    return ZeroSumBound(value=value, n_zeros=n, normalizer=normalizer(t))


def _osc_panels(h: RegVarFunction, t: float,
                xi: float) -> tuple[float, float, int]:
    """Equal panels in u = log s, at least 4 per cycle of the xi*h phase.

    Returns (c0, half, n_panels): panel j has half-width `half` and is
    centred at c0 + 2*half*j.  Refuses, from h at the two window ends
    alone, a request whose estimated peak memory exceeds _MAX_BYTES.
    """
    cycles = abs(xi) * (h.value(t) - h.value(t / 2.0))
    n_panels = int(math.ceil(4.0 * cycles)) + 8
    need = n_panels * _PANEL_BYTES + _CHUNK_PEAK
    if need > _MAX_BYTES:
        raise ValueError(f"memory budget exceeded: {n_panels} panels for "
                         f"xi={xi:g}, t={t:g} need about {need / 2**20:.0f} MiB "
                         f"(cap {_MAX_BYTES / 2**20:.0f} MiB)")
    u0, u1 = math.log(t / 2.0), math.log(t)
    half = 0.5 * (u1 - u0) / n_panels
    return u0 + half, half, n_panels


def _panel_transform(h: RegVarFunction, xi: float, beta: float, c0: float,
                     half: float, n_panels: int, length: int,
                     kept: int) -> np.ndarray:
    """D[k, n] = sum_j c_jk e^{2 pi i n j / length}, k < kept, n < length:
    the unscaled inverse DFT over the panels of the degree-16 Legendre
    coefficients c_jk of f(u) / Psi(s), f(u) = e^{beta u} e(xi h(e^u)), on
    the panels of _osc_panels.  s = (u - u_c) / (length half) is a node's
    offset from the window's midpoint u_c; the coefficients are projected
    _PANEL_CHUNK panels at a time."""
    d = np.zeros((kept, length), dtype=np.complex128)
    for lo in range(0, n_panels, _PANEL_CHUNK):
        j = np.arange(lo, min(lo + _PANEL_CHUNK, n_panels))
        u = (c0 + 2.0 * half * j)[:, None] + half * _GL_U[None, :]
        # 4 s^2, s = (2 j - (P - 1) + v) / length at the node v of panel j
        y = np.square(((2.0 * j - (n_panels - 1))[:, None] + _GL_U[None, :])
                      * (2.0 / length))
        # Horner in place: polyval's temporaries add 2 ms at P = 7483
        corr = np.full_like(y, _PSI_INV[-1])
        for a in _PSI_INV[-2::-1]:
            corr *= y
            corr += a
        f = np.exp(beta * u + 2j * np.pi * xi * h.value(np.exp(u)))
        f *= corr
        d[:, lo:lo + j.size] = (f @ _PROJ[:, :kept]).T
    np.fft.ifft(d, axis=1, norm="forward", out=d)
    return d


def _es_weights(offset: np.ndarray) -> np.ndarray:
    """ES at the 16 taps of each zero, (zeros, taps), from offset =
    gamma / step - (its first tap) = frac(gamma / step) + 7: T_k(rho) by
    the three-term recurrence, then one product with _ES_CHEB."""
    rho = 2.0 * offset - (_ES_TAPS - 1)
    t = np.empty((_ES_CHEB.shape[1], rho.size))
    t[0], t[1] = 1.0, rho
    rho *= 2.0
    for k in range(1, t.shape[0] - 1):  # T_{k+1} = 2 rho T_k - T_{k-1}
        np.multiply(rho, t[k], out=t[k + 1])
        t[k + 1] -= t[k - 1]
    return t.T @ _ES_CHEB.T


def zero_osc_sum(h: RegVarFunction, t: float, xi: float, T: float,
                 table: ZetaZeroTable) -> ZeroSumBound:
    """Sum over zeros gamma <= T of int_{t/2}^t s^{rho-1} e(h(s) xi) ds,
    including the conjugate zero of each, against the normalizer.

    pre: t >= 2 x0 and |xi| <= t^{-theta1(c)} (major-arc regime).
    """
    if t < 2.0 * h.x0:
        raise ValueError(f"need t >= 2 x0 = {2.0 * h.x0:g}, got {t}")
    if abs(xi) > t ** (-theta1_default(h.c)) * (1.0 + 1e-12):
        raise ValueError(f"|xi|={abs(xi):g} outside the major arc at t={t:g}")
    if T > table.max_gamma:
        raise ValueError(f"T={T} beyond table coverage {table.max_gamma:.3f}")
    beta = table.assumed_beta
    g = table.gammas[: table.count_upto(T)]
    c0, half, n_panels = _osc_panels(h, t, xi)
    if g.size == 0:
        return ZeroSumBound(value=0.0 + 0.0j, n_zeros=0,
                            normalizer=normalizer(t), n_panels=n_panels)

    P, W = n_panels, _ES_TAPS
    M = transform_length(2 * P)
    # at gamma = n step every carrier e^{i gamma 2 half j} is an M-th root
    # of unity and the moments' argument gamma half is n pi / M
    step = np.pi / (M * half)
    # |j_k(x)| <= x^k / (2k+1)!!: the orders past the last one above
    # _MOMENT_FLOOR at the highest tap are left out
    x_top = (int(g[-1] / step) + W // 2) * np.pi / M
    bound = np.cumprod(x_top / _ODD[1:])
    kept = 1 + int(np.count_nonzero(bound >= _MOMENT_FLOOR))
    d = _panel_transform(h, xi, beta, c0, half, P, M, kept)
    u_c = c0 + half * (P - 1)
    taps = np.arange(W)
    total, lo = 0j, 0
    while lo < g.size:
        hi = min(lo + _ZERO_CHUNK,
                 int(np.searchsorted(g, g[lo] + _GRID_CHUNK * step)))
        gs = g[lo:hi]
        y = gs / step
        first = np.floor(y).astype(np.int64) - (W // 2 - 1)
        # G at the grid points n step and -n step, n = first[0], ... the
        # last tap; the moments at -n are the conjugates of those at n
        n = np.arange(first[0], first[-1] + W)
        mom = legendre_moments(n * (np.pi / M))[:, :kept].T
        rot = np.exp((1j * np.pi / M) * (n * (1 - P) % (2 * M)))
        pos = rot * (mom * d[:, n % M]).sum(axis=0)
        neg = rot.conj() * (mom.conj() * d[:, -n % M]).sum(axis=0)
        # a[n] sums e^{i gamma u_c} ES(gamma / step - n) over the zeros
        # whose taps hold n; the taps of -gamma are those of gamma mirrored,
        # with the same weights, so conj(a) spreads e^{-i gamma u_c}
        w = _es_weights(y - first)
        e = np.exp(1j * (gs * u_c))
        at = ((first - first[0])[:, None] + taps).ravel()
        a = (np.bincount(at, (w * e.real[:, None]).ravel(), n.size)
             + 1j * np.bincount(at, (w * e.imag[:, None]).ravel(), n.size))
        total += pos @ a + neg @ a.conj()
        lo = hi
    return ZeroSumBound(value=complex(half * total), n_zeros=int(g.size),
                        normalizer=normalizer(t), n_panels=n_panels)
