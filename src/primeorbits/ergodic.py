"""Ergodic averages along floor(h(p)), with oscillation and variation
diagnostics.

The system simulated is circle rotation by a rational surrogate
alpha = p/q with huge denominator, so that orbit points n*alpha mod 1
are exact integer arithmetic mod q; convergence_report takes an
observable's values along the orbit, one per prime.  On top of the
one-parameter averages A_N sit the log-weighted averages D_N, the lambda
weights tying the two together by summation by parts, and the O^2 / V^2
statistics of average trajectories along lacunary time grids.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accum import pairwise_sum
from .expsum import prime_floors
from .primes import primes_upto, theta_pi_prefix
from .regvar import RegVarFunction

# golden-mean surrogate: ratio of consecutive Fibonacci numbers; the
# denominator exceeds 1e12, and |alpha - (sqrt(5)-1)/2| < 1/F62^2 ~ 6e-26
_F61 = 2504730781961
_F62 = 4052739537881
# rotation_points splits n < 2^54 into three 18-bit digits; each digit
# times (p 2^(18k) mod q) is below 2^61 for q < 2^43, so three fit int64
_DIGIT_BITS = 18
_MAX_INDEX = 1 << 3 * _DIGIT_BITS
_MAX_DENOMINATOR = 1 << 43
# seeded random increasing sequences in the O^2 ensemble of a report
_RANDOM_SEQUENCES = 100
# bytes per k that lambda_weight_sum(k) holds at its peak, sieve included
# (tracemalloc from an empty prime cache: 56.5-56.8 at k = 1e5 to 3e7)
WEIGHT_BYTES_PER_K = 57


def golden_surrogate() -> Fraction:
    return Fraction(_F61, _F62)


def orbit_indices(h: RegVarFunction, N: int) -> np.ndarray:
    """floor(h(p)) over primes p <= N, read-only, from h's prime floors
    (expsum.prime_floors)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return prime_floors(h, N)[1]


def rotation_points(alpha: Fraction, x: float, indices: np.ndarray) -> np.ndarray:
    """(x + n*alpha) mod 1 for each orbit index n, x and n*alpha each
    reduced exactly first.

    x mod 1 is exact for every x with a representable result (so 1e300
    starts where 0 does, and -0.75 where 0.25 does).  n p mod q,
    alpha = p/q, is summed in int64 from the 18-bit digits of n against
    p 2^(18k) mod q, which needs 0 <= n < 2^54 and q < 2^43; only the
    final division by q rounds.
    """
    p, q = alpha.numerator, alpha.denominator
    if q >= _MAX_DENOMINATOR:
        raise ValueError(f"denominator {q} not below 2^43")
    n = np.asarray(indices)
    if n.size and not (0 <= n.min() and n.max() < _MAX_INDEX):
        raise ValueError("orbit indices must lie in [0, 2^54)")
    n = n.astype(np.int64)
    mask = (1 << _DIGIT_BITS) - 1
    rem = np.zeros(n.shape, dtype=np.int64)
    for k in range(3):
        shift = k * _DIGIT_BITS
        rem += ((n >> shift) & mask) * ((p << shift) % q)
    return (x % 1.0 + (rem % q).astype(np.float64) / q) % 1.0


def weighted_average(values: np.ndarray, primes: np.ndarray) -> float:
    """D_N: log-weighted orbit average, sum log(p) f / theta(N)."""
    logs = np.log(primes.astype(np.float64))
    return float(pairwise_sum(logs * values) / pairwise_sum(logs))


def lambda_weights(k: int) -> np.ndarray:
    """Summation-by-parts weights lam[s] with A_k = sum_s lam[s] D_s.

    lam[s] = theta(s) (1/log s - 1/log(s+1)) / pi(k) for 2 <= s <= k-1
    and theta(k)/(pi(k) log k) at s = k; nonnegative, sums to 1 exactly.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    theta, pi = theta_pi_prefix(k)
    s = np.arange(k + 1, dtype=np.float64)
    lam = np.zeros(k + 1)
    body = slice(2, k)
    lam[body] = theta[body] * (1.0 / np.log(s[body])
                               - 1.0 / np.log(s[body] + 1.0)) / pi[k]
    lam[k] = theta[k] / (pi[k] * math.log(k))
    return lam


def lambda_weight_sum(k: int) -> float:
    return math.fsum(lambda_weights(k))


def oscillation(grid: np.ndarray, values: np.ndarray, I) -> float:
    """O^2 over the finite grid: sqrt of sum over blocks [I_j, I_{j+1})
    of sup |a_t - a_{I_j}|^2."""
    grid = np.asarray(grid)
    values = np.asarray(values, dtype=np.float64)
    I = np.asarray(I)
    if I.size < 2 or np.any(np.diff(I) <= 0):
        raise ValueError("I must be strictly increasing with J >= 1")
    pos = np.searchsorted(grid, I)
    if np.any(pos >= grid.size) or np.any(grid[pos] != I):
        raise ValueError("I must consist of grid points")
    total = 0.0
    for j in range(I.size - 1):
        lo, hi = pos[j], pos[j + 1]  # block [I_j, I_{j+1}) in grid indices
        total += float(np.max(np.abs(values[lo:hi] - values[lo]))) ** 2
    return math.sqrt(total)


def variation2(values) -> float:
    """V^2: sup over increasing sample subsequences of the l^2 increment
    sum; exact on a finite grid by quadratic-time dynamic programming."""
    v = np.asarray(values, dtype=np.float64)
    m = v.size
    if m < 2:
        return 0.0
    best = np.zeros(m)
    for i in range(1, m):
        best[i] = np.max(best[:i] + (v[i] - v[:i]) ** 2)
    return math.sqrt(float(best.max()))


@dataclass(frozen=True)
class OscillationReport:
    grid: np.ndarray
    values: np.ndarray
    running_max: np.ndarray
    i_dyadic: np.ndarray
    o2_dyadic: float
    o2_random: np.ndarray
    v2: float
    weighted: np.ndarray  # D_N, the log-weighted average, at each grid N

    def trend_violations(self) -> int:
        """How often |values| fails to decrease along the grid."""
        mags = np.abs(self.values)
        return int(np.sum(np.diff(mags) > 0))


def _dyadic_subsequence(m: int) -> np.ndarray:
    idx = [0]
    step = 1
    while idx[-1] + step < m - 1:
        idx.append(idx[-1] + step)
        step *= 2
    if idx[-1] != m - 1:  # m = 1: the start is already the last index
        idx.append(m - 1)
    return np.array(idx)


def convergence_report(values, N_grid, seed: int = 0) -> OscillationReport:
    """Average trajectory along N_grid with O^2 / V^2 diagnostics.

    values holds f along the orbit at each prime p <= max(N_grid), prefix-
    sliced per N for A_N, the |f| average and D_N alike; the I ensemble is
    every dyadic subsequence start plus seeded random increasing
    sequences, since the supremum over all I is untestable.
    """
    grid = np.asarray(sorted(N_grid), dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    primes = primes_upto(int(grid[-1]))
    if vals.shape != primes.shape:
        raise ValueError(f"need one value per prime up to {grid[-1]}")
    counts = np.searchsorted(primes, grid, side="right")
    if counts[0] == 0:
        raise ValueError("smallest N has no primes")
    traj = np.array([float(pairwise_sum(vals[:c]) / c) for c in counts])
    traj_abs = np.array([float(pairwise_sum(np.abs(vals[:c])) / c)
                         for c in counts])
    weighted = np.array([weighted_average(vals[:c], primes[:c])
                         for c in counts])
    rng = random.Random(seed)
    i_dyadic = grid[_dyadic_subsequence(grid.size)]
    o2_dyadic = oscillation(grid, traj, i_dyadic)
    o2_random = []
    for _ in range(_RANDOM_SEQUENCES):
        size = rng.randint(2, grid.size)
        pick = sorted(rng.sample(range(grid.size), size))
        o2_random.append(oscillation(grid, traj, grid[pick]))
    return OscillationReport(
        grid=grid, values=traj, running_max=np.maximum.accumulate(traj_abs),
        i_dyadic=i_dyadic, o2_dyadic=o2_dyadic,
        o2_random=np.array(o2_random), v2=variation2(traj), weighted=weighted)


def halfline_observable(y: np.ndarray) -> np.ndarray:
    """Zero-mean indicator 1_[0,1/2) - 1/2 on the circle."""
    return np.where(np.asarray(y) < 0.5, 0.5, -0.5)
