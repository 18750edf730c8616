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
moments.  One panel decomposition therefore serves every zero, which is
what makes height cuts in the tens of thousands affordable.

The panel centers form one arithmetic progression c_j = c0 + s j, used
by both the Legendre nodes and the carriers e^{i c_j gamma}.  With
j = a B + b, A = round(sqrt(P / 17)) and B = ceil(P / A), each carrier is
the product of E2[a] = e^{i (c0 + s B a) gamma} and E1[b] = e^{i s b gamma},
both read off power tables (_carriers): a zero costs A + B carriers, from
2 + log2 A + log2 B complex exponentials, instead of P.  With a common
beta the moments 2 i^k j_k(gamma s / 2) have real j_k, so a zero and its
conjugate together add sum_{j,k} c_jk 2 Re(e^{i c_j gamma} 2 i^k j_k)
times s / 2.  The kernel therefore sums over zeros first, into the real
P x 17 matrix W[j, k] = sum over zeros of Re(E1[b] E2[a] i^k j_k), and
returns 2 s sum_{j,k} c_jk W[j, k].  Per block of zeros, W grows by one
real matrix product: the E1 table, each zero's entry as its (re, im)
pair, against the (A, 17) products conj(E2[a] i^k j_k), which is 68 P
flops per zero; the panels x zeros carrier matrix is never formed.
Zeros are taken in blocks whose tables stay under _BLOCK_BYTES, and a
block's product runs over slices of _GEMM_BYTES, since BLAS keeps the
pages of the copies it packs.  The Legendre tables are those of expsum.osc_integral, and j_0 .. j_16 come
from one recurrence pass over the orders (expsum.bessel_rows).  A
request whose estimated peak memory, panels x _PANEL_BYTES +
_BLOCK_PEAK, exceeds _MAX_BYTES is refused before any exponential is
formed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .accum import pairwise_sum
from .expsum import (_GL_U, _K_RANGE, _NODES_PER_PANEL, _PROJ, EPSILON,
                     bessel_rows, normalizer, theta1_default)
from .regvar import RegVarFunction

_FIRST_GAMMA = 14.1347
# (-i)^k, k < 17: the conjugate of the moments' phase i^k
_CONJ_PHASE = np.array([1.0, -1.0j, -1.0, 1.0j])[_K_RANGE % 4][:, None]
# bytes of one block's tables, per zero 16 ((17 + 1) A + B + 2 * 17):
# the (A, 17) products, the carriers E2 and E1 and the moments
_BLOCK_BYTES = 1 << 21
# bytes of the two operands of one matrix product, 16 (B + 17 A) per
# zero: BLAS packs copies of them into buffers whose pages then stay
# resident, so a block's product runs over slices of this many bytes
_GEMM_BYTES = 1 << 18
# peak bytes of one block: its tables and the temporaries of the moments'
# recurrence and the carriers (tracemalloc: at most 2.14 MiB on top of
# panels x _PANEL_BYTES, at 9-7,483 panels with 1 to 56,412 zeros)
_BLOCK_PEAK = 5 * _BLOCK_BYTES // 4
# peak bytes per panel of zero_osc_sum on top of the blocks of zeros
# (1,088-1,089 measured with tracemalloc at 2e3 to 4e4 panels with one
# zero and with 649; _panel_coeffs' temporaries set it)
_PANEL_BYTES = 1100
# largest estimated peak, panels x _PANEL_BYTES + _BLOCK_PEAK, it accepts
_MAX_BYTES = 1 << 29

ZERO_TABLE_ENV = "PRIMEORBITS_ZERO_TABLE"


def theta3_default(c: float, theta1: float | None = None) -> float:
    """Height-cut exponent 1 - (1 - (c - theta1))/4 for the zero sums."""
    if theta1 is None:
        theta1 = theta1_default(c)
    return 1.0 - (1.0 - (c - theta1)) / 4.0


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
        if np.any(np.diff(g) <= 0.0):
            k = int(np.flatnonzero(np.diff(g) <= 0.0)[0])
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


def _packaged_table_path() -> str:
    from importlib.resources import files

    return str(files("primeorbits").joinpath("data/zeta_zeros.txt"))


def load_zeros(path: str | None = None, assumed_beta: float = 0.5) -> ZetaZeroTable:
    """Read a zero table: one decimal ordinate per line, '#' comments.

    Resolution order: explicit path, then the PRIMEORBITS_ZERO_TABLE
    environment variable, then the packaged table.
    """
    source = path or os.environ.get(ZERO_TABLE_ENV) or _packaged_table_path()
    with open(source) as fh:
        lines = fh.read().split("\n")
    data = [s for s in map(str.strip, lines) if s and s[0] != "#"]
    if not data:
        raise ValueError(f"{source}: empty table")
    try:
        gammas = np.array(data, dtype=np.float64)
    except ValueError:
        # parse again line by line only to name the first bad line
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line and line[0] != "#":
                try:
                    float(line)
                except ValueError:
                    raise ValueError(f"{source}: parse error at line "
                                     f"{lineno}: {line[:40]!r}") from None
        raise
    return ZetaZeroTable(gammas, source=source, assumed_beta=assumed_beta)


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
    if g.size == 0:
        return float(x)
    rho = table.assumed_beta + 1j * g
    terms = 2.0 * np.real(x ** table.assumed_beta
                          * np.exp(1j * g * math.log(x)) / rho)
    return float(x - pairwise_sum(terms))


@dataclass(frozen=True)
class ZeroSumBound:
    """A zero-indexed sum next to the target normalizer t e^{-(log t)^{1/3-eps}}."""

    value: complex
    n_zeros: int
    t: float
    normalizer: float
    n_panels: int = 0

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.normalizer


def zero_power_sum(t: float, T1: float, table: ZetaZeroTable,
                   epsilon: float = EPSILON) -> ZeroSumBound:
    """(1/sqrt(T1)) * sum_{0<gamma<=T1} t^beta, against the normalizer.

    With a common assumed beta the sum collapses to N(T1) t^beta.
    """
    if not 1.0 <= T1 <= table.max_gamma:
        raise ValueError(f"need 1 <= T1 <= {table.max_gamma:.3f}, got {T1}")
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    n = table.count_upto(T1)
    value = n * t ** table.assumed_beta / math.sqrt(T1)
    return ZeroSumBound(value=value, n_zeros=n, t=t,
                        normalizer=normalizer(t, epsilon))


def _osc_panels(h: RegVarFunction, t: float,
                xi: float) -> tuple[float, float, int]:
    """Equal panels in u = log s, at least 4 per cycle of the xi*h phase.

    Returns (c0, half, n_panels): panel j has half-width `half` and is
    centred at c0 + 2*half*j.  Refuses, from h at the two window ends
    alone, a request whose estimated peak memory exceeds _MAX_BYTES.
    """
    cycles = abs(xi) * (h.value(t) - h.value(t / 2.0))
    n_panels = int(math.ceil(4.0 * cycles)) + 8
    need = n_panels * _PANEL_BYTES + _BLOCK_PEAK
    if need > _MAX_BYTES:
        raise ValueError(f"memory budget exceeded: {n_panels} panels for "
                         f"xi={xi:g}, t={t:g} need about {need / 2**20:.0f} MiB "
                         f"(cap {_MAX_BYTES / 2**20:.0f} MiB)")
    u0, u1 = math.log(t / 2.0), math.log(t)
    half = 0.5 * (u1 - u0) / n_panels
    return u0 + half, half, n_panels


def _panel_coeffs(h: RegVarFunction, xi: float, beta: float, c0: float,
                  half: float, n_panels: int) -> np.ndarray:
    """Degree-16 Legendre coefficients (panels x modes) of
    f(u) = e^{beta u} e(xi h(e^u)) on the panels of _osc_panels."""
    u = (c0 + 2.0 * half * np.arange(n_panels))[:, None] + half * _GL_U[None, :]
    return np.exp(beta * u + 2j * np.pi * xi * h.value(np.exp(u))) @ _PROJ


def _carriers(g: np.ndarray, start: float, step: float,
              out: np.ndarray) -> np.ndarray:
    """e^{i g (start + step a)} for a < out.shape[0], one row per a, into
    out (count x zeros, complex).

    A power table: row 0 is e^{i g start}, and the rows [w, 2w) are the
    rows [0, w) times e^{i g step w}, each of those exponentials computed
    directly, for w = 1, 2, 4, ...  So row a is the product
    of at most 1 + log2(a) direct exponentials whose phases add up to
    g (start + step a): its phase error is a few u (|g start| +
    2 |g step a| + 1), as for a direct exponential of the whole phase.
    """
    count = out.shape[0]
    out[0] = np.exp(1j * (g * start))
    w = 1
    while w < count:
        hi = min(2 * w, count)
        np.multiply(out[:hi - w], np.exp(1j * (g * (step * w))), out=out[w:hi])
        w = hi
    return out


def zero_osc_sum(h: RegVarFunction, t: float, xi: float, T: float,
                 table: ZetaZeroTable, epsilon: float = EPSILON) -> ZeroSumBound:
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
        return ZeroSumBound(value=0.0 + 0.0j, n_zeros=0, t=t,
                            normalizer=normalizer(t, epsilon),
                            n_panels=n_panels)

    K = _NODES_PER_PANEL
    # panel j = a*B + b is centred at c_j = c0 + 2*half*j, so its carrier
    # e^{i c_j gamma} is E2[a] * E1[b], E2 = e^{i (c0 + 2 half B a) gamma}
    # and E1 = e^{i 2 half b gamma}: A + B carriers per zero, not P, and
    # A = sqrt(P / 17) makes the 17 A + B table entries per zero fewest
    A = max(1, round(math.sqrt(n_panels / K)))
    B = -(-n_panels // A)
    A = -(-n_panels // B)
    # W[b, a K + k] sums Re(E1[b] E2[a] i^k j_k) over the zeros; padded
    # panels j >= P have zero coefficients
    cw = np.zeros((A * B, K), dtype=np.complex128)
    cw[:n_panels] = _panel_coeffs(h, xi, beta, c0, half, n_panels)
    cw = cw.reshape(A, B, K).transpose(1, 0, 2)
    cols = np.stack([cw.real, cw.imag]).reshape(2, B * A * K)
    del cw

    block = max(1, _BLOCK_BYTES // (16 * ((K + 1) * A + B + 2 * K)))
    n = min(block, g.size)
    chunk = max(1, _GEMM_BYTES // (16 * (B + K * A)))
    e1_buf = np.empty(B * n, dtype=np.complex128)
    e2_buf = np.empty(A * n, dtype=np.complex128)
    q_buf = np.empty(A * K * n, dtype=np.complex128)
    gemm, w = np.empty((B, A * K)), np.zeros((B, A * K))
    for lo in range(0, g.size, block):
        gs = g[lo:lo + block]
        m = gs.size
        e1 = _carriers(gs, 0.0, 2.0 * half, e1_buf[:B * m].reshape(B, m))
        e2_conj = _carriers(gs, -c0, -2.0 * half * B,
                            e2_buf[:A * m].reshape(A, m))
        # q = conj(E2[a] i^k j_k); over each zero's (re, im) pair,
        # Re E1 Re(E2 i^k j_k) - Im E1 Im(E2 i^k j_k) = Re(E1 E2 i^k j_k)
        q = q_buf[:A * K * m].reshape(A, K, m)
        np.multiply(e2_conj[:, None, :], bessel_rows(gs * half) * _CONJ_PHASE,
                    out=q)
        q = q.reshape(A * K, m)
        for z in range(0, m, chunk):
            np.matmul(e1[:, z:z + chunk].view(np.float64),
                      q[:, z:z + chunk].view(np.float64).T, out=gemm)
            w += gemm
    # a zero and its conjugate add half c_jk 2 Re(e^{i c_j gamma} 2 i^k j_k)
    re, im = 4.0 * half * (cols @ w.ravel())
    return ZeroSumBound(value=complex(re, im), n_zeros=int(g.size), t=t,
                        normalizer=normalizer(t, epsilon),
                        n_panels=n_panels)
