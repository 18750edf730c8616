"""Ergodic averages along floor(h(p)) on concrete systems, with
oscillation and variation diagnostics.

Two systems are simulated: the integer shift (observables with finite
support on Z, or Z^2 for the two-parameter average) and circle rotation
by a rational surrogate alpha = p/q with huge denominator, so that orbit
points n*alpha mod 1 are exact integer arithmetic mod q.  On top of the
plain averages A_N sit the log-weighted averages D_N, the lambda weights
tying the two together by summation by parts, and the O^2 / V^2
statistics of average trajectories along lacunary time grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accum import kahan_sum, pairwise_sum
from .expsum import prime_floors
from .primes import primes_upto, theta_pi_prefix
from .regvar import RegVarFunction

# golden-mean surrogate: ratio of consecutive Fibonacci numbers; the
# denominator exceeds 1e12, and |alpha - (sqrt(5)-1)/2| < 1/F62^2 ~ 6e-26
_F61 = 2504730781961
_F62 = 4052739537881


def golden_surrogate() -> Fraction:
    return Fraction(_F61, _F62)


def orbit_indices(h: RegVarFunction, N: int) -> np.ndarray:
    """floor(h(p)) over primes p <= N, read-only, from h's prime floors
    (expsum.prime_floors)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return prime_floors(h, N)[1]


def rotation_points(alpha: Fraction, x: float, indices: np.ndarray) -> np.ndarray:
    """(x + n*alpha) mod 1 for each orbit index n, n*alpha reduced exactly.

    n * numerator overflows int64 for large orbits, hence the Python-int
    loop; only the final division by the denominator rounds.
    """
    p, q = alpha.numerator, alpha.denominator
    fracs = np.array([(int(n) * p) % q for n in indices], dtype=np.float64)
    return (x + fracs / q) % 1.0


@dataclass(frozen=True)
class ShiftSystem:
    """Integer shift; the observable is a finite-support map on Z."""

    f: dict[int, float]
    x: int = 0

    def orbit_values(self, h: RegVarFunction, N: int) -> np.ndarray:
        idx = orbit_indices(h, N)
        get = self.f.get
        return np.array([get(self.x - int(n), 0.0) for n in idx])


@dataclass(frozen=True)
class RotationSystem:
    """Circle rotation by a rational surrogate; f maps [0,1) arrays to values."""

    alpha: Fraction
    f: object
    x: float = 0.0

    def orbit_values(self, h: RegVarFunction, N: int) -> np.ndarray:
        idx = orbit_indices(h, N)
        return np.asarray(self.f(rotation_points(self.alpha, self.x, idx)),
                          dtype=np.float64)


def average_shift(f: dict[int, float], x: int, h: RegVarFunction, N: int) -> float:
    """(1/pi(N)) sum over p <= N of f(x - floor(h(p)))."""
    vals = ShiftSystem(f, x).orbit_values(h, N)
    return float(pairwise_sum(vals) / vals.size)


def average_rotation(alpha: Fraction, f, x: float, h: RegVarFunction,
                     N: int) -> float:
    """(1/pi(N)) sum over p <= N of f(x + floor(h(p)) alpha mod 1)."""
    vals = RotationSystem(alpha, f, x).orbit_values(h, N)
    return float(pairwise_sum(vals) / vals.size)


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
    return float(kahan_sum(lambda_weights(k)))


def average_multi_rotation(alphas, f, x, h_list, Ns, factors=None) -> float:
    """Multiparameter rotation average on the k-torus, k in {1, 2}.

    With factors=(f1, f2) a product observable splits into the product of
    one-parameter averages; otherwise the double loop is evaluated on the
    full prime grid (capped at N_i <= 10^4).
    """
    k = len(alphas)
    if k == 1:
        return average_rotation(alphas[0], f, x[0], h_list[0], Ns[0])
    if k != 2:
        raise ValueError("only k in {1, 2} supported")
    if factors is not None:
        f1, f2 = factors
        return (average_rotation(alphas[0], f1, x[0], h_list[0], Ns[0])
                * average_rotation(alphas[1], f2, x[1], h_list[1], Ns[1]))
    if max(Ns) > 10 ** 4:
        raise ValueError("direct double loop capped at N_i <= 10^4")
    y1 = rotation_points(alphas[0], x[0], orbit_indices(h_list[0], Ns[0]))
    y2 = rotation_points(alphas[1], x[1], orbit_indices(h_list[1], Ns[1]))
    vals = np.asarray(f(y1[:, None], y2[None, :]), dtype=np.float64)
    return float(pairwise_sum(vals.ravel()) / vals.size)


def _hits(indices: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """How often each target occurs in the nondecreasing array indices."""
    return (np.searchsorted(indices, targets, side="right")
            - np.searchsorted(indices, targets, side="left"))


def average_multi_shift(f: dict, x, h_list, Ns) -> float:
    """Two-parameter shift average; f is finite-support on Z^2.

    Each support point (i, j) is hit by the pairs (a, b) of orbit indices
    with x - (a, b) = (i, j), and their number is the product of the
    counts of x[0] - i and x[1] - j in the two sorted orbits; so the cost
    is the support size times log pi(N), not pi(N1) pi(N2).
    """
    if len(Ns) == 1:
        g = {i: v for (i,), v in f.items()} if all(
            isinstance(key, tuple) for key in f) else f
        return average_shift(g, x[0], h_list[0], Ns[0])
    # floors of an increasing h at increasing primes: already sorted
    n1 = orbit_indices(h_list[0], Ns[0])
    n2 = orbit_indices(h_list[1], Ns[1])
    keys = np.array(list(f), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(f.values()), dtype=np.float64)
    hits = _hits(n1, x[0] - keys[:, 0]) * _hits(n2, x[1] - keys[:, 1])
    return float(kahan_sum(vals * hits) / (n1.size * n2.size))


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


def box_oscillation(grid: np.ndarray, values2d: np.ndarray, I) -> float:
    """Two-parameter O^2 over square boxes [I_j, I_{j+1})^2, anchored at
    the box corner (I_j, I_j)."""
    grid = np.asarray(grid)
    a = np.asarray(values2d, dtype=np.float64)
    I = np.asarray(I)
    pos = np.searchsorted(grid, I)
    if np.any(pos >= grid.size) or np.any(grid[pos] != I):
        raise ValueError("I must consist of grid points")
    total = 0.0
    for j in range(I.size - 1):
        lo, hi = pos[j], pos[j + 1]
        block = a[lo:hi, lo:hi]
        total += float(np.max(np.abs(block - a[lo, lo]))) ** 2
    return math.sqrt(total)


@dataclass(frozen=True)
class OscillationReport:
    grid: np.ndarray
    values: np.ndarray
    deltas: np.ndarray
    running_max: np.ndarray
    i_dyadic: np.ndarray
    o2_dyadic: float
    o2_random: np.ndarray
    v2: float
    seed: int
    orbit: np.ndarray  # orbit values over the primes p <= max(grid)

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


def convergence_report(system, h: RegVarFunction, N_grid,
                       seed: int = 0, n_random: int = 100) -> OscillationReport:
    """Average trajectory along N_grid with O^2 / V^2 diagnostics.

    One orbit at max(N_grid) is computed and prefix-sliced per N; the I
    ensemble is every dyadic subsequence start plus seeded random
    increasing sequences, since the supremum over all I is untestable.
    """
    grid = np.asarray(sorted(N_grid), dtype=np.int64)
    n_max = int(grid[-1])
    vals = system.orbit_values(h, n_max)
    primes = primes_upto(n_max)
    counts = np.searchsorted(primes, grid, side="right")
    if counts[0] == 0:
        raise ValueError("smallest N has no primes")
    traj = np.array([float(pairwise_sum(vals[:c]) / c) for c in counts])
    traj_abs = np.array([float(pairwise_sum(np.abs(vals[:c])) / c)
                         for c in counts])
    rng = np.random.default_rng(seed)
    i_dyadic = grid[_dyadic_subsequence(grid.size)]
    o2_dyadic = oscillation(grid, traj, i_dyadic)
    o2_random = []
    for _ in range(n_random):
        size = int(rng.integers(2, grid.size + 1))
        pick = np.sort(rng.choice(grid.size, size=size, replace=False))
        o2_random.append(oscillation(grid, traj, grid[pick]))
    return OscillationReport(
        grid=grid, values=traj, deltas=np.diff(traj),
        running_max=np.maximum.accumulate(traj_abs),
        i_dyadic=i_dyadic, o2_dyadic=o2_dyadic,
        o2_random=np.array(o2_random), v2=variation2(traj), seed=seed,
        orbit=vals)


def halfline_observable(y: np.ndarray) -> np.ndarray:
    """Zero-mean indicator 1_[0,1/2) - 1/2 on the circle."""
    return np.where(np.asarray(y) < 0.5, 0.5, -0.5)
