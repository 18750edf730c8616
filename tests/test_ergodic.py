"""Ergodic averages along floor(h(p)): orbits, weights, O^2 / V^2."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits.ergodic import (
    OscillationReport,
    convergence_report,
    golden_surrogate,
    halfline_observable,
    lambda_weight_sum,
    lambda_weights,
    orbit_indices,
    oscillation,
    rotation_points,
    variation2,
    weighted_average,
)
from primeorbits.primes import primes_upto
from primeorbits.regvar import pure_power


def shift_values(f: dict[int, float], x: int, h, N: int) -> np.ndarray:
    """f(x - floor(h(p))) over primes p <= N: the integer shift's orbit
    under an observable f of finite support on Z."""
    return np.array([f.get(x - int(n), 0.0) for n in orbit_indices(h, N)])


def rotation_values(f, x: float, h, N: int) -> np.ndarray:
    """f along the golden rotation's orbit of x over primes p <= N."""
    return f(rotation_points(golden_surrogate(), x, orbit_indices(h, N)))


def v2_oracle(vals) -> float:
    """Exhaustive V^2 over all increasing subsequences, m <= 10."""
    m = len(vals)
    best = 0.0
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if len(idx) < 2:
            continue
        s = sum((vals[b] - vals[a]) ** 2 for a, b in zip(idx, idx[1:]))
        best = max(best, s)
    return math.sqrt(best)


# ------------------------------------------------------------------ orbits

def test_orbit_indices_example():
    # p in {2,3,5,7}, floors of {2.297, 3.737, 6.899, 10.33}
    idx = orbit_indices(pure_power(1.2), 10)
    assert idx.tolist() == [2, 3, 6, 10]


def test_orbit_indices_single_prime():
    assert orbit_indices(pure_power(1.2), 2).tolist() == [2]


def test_orbit_indices_increasing():
    idx = orbit_indices(pure_power(1.2), 1000)
    assert np.all(np.diff(idx) > 0)


def test_orbit_indices_rejects_small_N():
    with pytest.raises(ValueError):
        orbit_indices(pure_power(1.2), 1)


def test_golden_surrogate():
    alpha = golden_surrogate()
    assert isinstance(alpha, Fraction)
    assert alpha.denominator > 10 ** 12
    with mpmath.workdps(40):
        target = (mpmath.sqrt(5) - 1) / 2
        err = abs(mpmath.mpf(alpha.numerator) / alpha.denominator - target)
        assert err < mpmath.mpf("1e-24")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10 ** 15),
                min_size=1, max_size=8),
       st.floats(min_value=0.0, max_value=0.999))
def test_rotation_points_exact_reduction(ns, x):
    # int64 would overflow at n*numerator ~ 1e15 * 2.5e12; the exact
    # reduction must agree with Fraction arithmetic
    alpha = golden_surrogate()
    got = rotation_points(alpha, x, np.array(ns, dtype=object))
    for n, y in zip(ns, got):
        ref = (x + float(Fraction(n) * alpha % 1)) % 1.0
        assert y == pytest.approx(ref, abs=1e-12)


def test_rotation_points_matches_python_int_loop():
    # the former loop, n p mod q in Python ints, is the reference: the
    # int64 digit route must give its bits, digit boundaries included
    alpha = golden_surrogate()
    p, q = alpha.numerator, alpha.denominator
    ns = np.array([0, 1, 2 ** 18 - 1, 2 ** 18, 2 ** 36 + 5, 2 ** 54 - 1]
                  + list(np.random.default_rng(3).integers(0, 2 ** 54, 50)))
    want = np.array([(int(n) * p) % q for n in ns], dtype=np.float64)
    assert np.array_equal(rotation_points(alpha, 0.35, ns),
                          (0.35 + want / q) % 1.0)


@pytest.mark.parametrize("alpha, ns", [
    (golden_surrogate(), [-1]),
    (golden_surrogate(), [2 ** 54]),
    (golden_surrogate(), np.array([2 ** 70], dtype=object)),
    (Fraction(1, 2 ** 43), [1]),
])
def test_rotation_points_refuses_outside_int64_route(alpha, ns):
    with pytest.raises(ValueError):
        rotation_points(alpha, 0.0, np.asarray(ns))


# ------------------------------------------------------- weighted averages

def test_weighted_average_constant():
    p = primes_upto(500)
    vals = np.full(p.size, 0.7)
    assert weighted_average(vals, p) == pytest.approx(0.7, rel=1e-14)


# ----------------------------------------------------------- lambda weights

def test_lambda_weights_small_k_closed_form():
    lam = lambda_weights(3)
    l2 = math.log(2) * (1 / math.log(2) - 1 / math.log(3)) / 2
    l3 = math.log(6) / (2 * math.log(3))
    assert lam[2] == pytest.approx(l2, rel=1e-14)
    assert lam[3] == pytest.approx(l3, rel=1e-14)
    assert lam[0] == lam[1] == 0.0


@pytest.mark.parametrize("k", [2, 10, 100, 1000, 10 ** 4])
def test_lambda_weights_sum_to_one(k):
    lam = lambda_weights(k)
    assert np.all(lam >= 0.0)
    assert abs(lambda_weight_sum(k) - 1.0) < 1e-12


def test_lambda_partial_sums_decrease_in_k():
    # sum_{s<=N} lam_s^k non-increasing as k grows, fixed N
    N = 50
    prev = None
    for k in (50, 100, 200, 400, 1000):
        part = float(np.sum(lambda_weights(k)[:N + 1]))
        if prev is not None:
            assert part <= prev + 1e-12
        prev = part


def test_lambda_weights_rejects_small_k():
    with pytest.raises(ValueError):
        lambda_weights(1)


# --------------------------------------------------------------- O^2 / V^2

def test_oscillation_definition_example():
    # one block [1,3): sup over t in {1,2} of |a_t - a_1| = 5
    grid = np.array([1, 2, 3])
    vals = np.array([0.0, 5.0, 7.0])
    assert oscillation(grid, vals, [1, 3]) == pytest.approx(5.0)


def test_oscillation_constant_zero():
    grid = np.arange(1, 9)
    assert oscillation(grid, np.full(8, 2.5), [1, 4, 8]) == 0.0


def test_oscillation_single_point_blocks():
    grid = np.arange(1, 6)
    vals = np.array([3.0, -1.0, 4.0, 1.0, 5.0])
    assert oscillation(grid, vals, [1, 2, 3, 4, 5]) == 0.0


def test_oscillation_validations():
    grid = np.array([1, 2, 3])
    vals = np.zeros(3)
    with pytest.raises(ValueError, match="grid"):
        oscillation(grid, vals, [1, 2.5])
    with pytest.raises(ValueError, match="increasing"):
        oscillation(grid, vals, [2, 2])
    with pytest.raises(ValueError, match="increasing"):
        oscillation(grid, vals, [2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=3,
                max_size=12),
       st.randoms(use_true_random=False))
def test_oscillation_dominated_by_sup_bound(vals, rnd):
    grid = np.arange(len(vals))
    k = rnd.randint(2, len(vals))
    I = np.sort(rnd.sample(range(len(vals)), k))
    o2 = oscillation(grid, vals, I)
    J = len(I) - 1
    assert o2 <= 2.0 * max(abs(v) for v in vals) * math.sqrt(J) + 1e-9


def test_variation2_basics():
    assert variation2([4.0]) == 0.0
    assert variation2(np.full(6, 1.3)) == 0.0
    assert variation2([1.0, 3.5]) == pytest.approx(2.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2,
                max_size=10))
def test_variation2_matches_exhaustive(vals):
    assert variation2(vals) == pytest.approx(v2_oracle(vals), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3,
                max_size=10),
       st.randoms(use_true_random=False))
def test_variation2_dominates_oscillation(vals, rnd):
    grid = np.arange(len(vals))
    k = rnd.randint(2, len(vals))
    I = np.sort(rnd.sample(range(len(vals)), k))
    assert variation2(vals) >= oscillation(grid, vals, I) - 1e-9


# ------------------------------------------------------------------ reports

def test_convergence_report_constant_observable():
    one = lambda y: np.ones_like(np.asarray(y, dtype=np.float64))
    grid = [2 ** j for j in range(4, 11)]
    rep = convergence_report(rotation_values(one, 0.0, pure_power(1.2),
                                             grid[-1]), grid)
    np.testing.assert_allclose(rep.values, 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.diff(rep.values), 0.0, atol=1e-14)
    assert rep.o2_dyadic == 0.0
    assert np.all(rep.o2_random == 0.0)
    assert rep.v2 == 0.0
    np.testing.assert_allclose(rep.running_max, 1.0, rtol=1e-14)


def test_convergence_report_delta_at_zero():
    # f = indicator of {0}: the orbit of 0 never returns, trajectory is 0
    rep = convergence_report(shift_values({0: 1.0}, 0, pure_power(1.2), 256),
                             [16, 64, 256])
    np.testing.assert_allclose(rep.values, 0.0, atol=1e-15)
    assert rep.trend_violations() == 0


def test_convergence_report_structure():
    grid = [2 ** j for j in range(4, 12)]
    vals = rotation_values(halfline_observable, 0.35, pure_power(1.2),
                           grid[-1])
    rep = convergence_report(vals, grid, seed=7)
    assert rep.grid.tolist() == sorted(grid)
    assert np.all(np.diff(rep.running_max) >= 0.0)
    assert rep.o2_random.size == 100
    assert rep.i_dyadic[0] == grid[0] and rep.i_dyadic[-1] == grid[-1]
    assert rep.v2 >= rep.o2_dyadic - 1e-12
    assert rep.v2 >= float(rep.o2_random.max()) - 1e-12
    again = convergence_report(vals, grid, seed=7)
    np.testing.assert_array_equal(rep.o2_random, again.o2_random)
    other = convergence_report(vals, grid, seed=8)
    assert not np.array_equal(rep.o2_random, other.o2_random)
    # D_N over the primes p <= N of the one orbit at max(grid)
    p = primes_upto(grid[-1])
    assert rep.weighted.tolist() == [
        weighted_average(vals[:c], p[:c])
        for c in np.searchsorted(p, grid, side="right")]


def test_convergence_report_needs_primes():
    vals = shift_values({0: 1.0}, 0, pure_power(1.2), 16)
    with pytest.raises(ValueError, match="no primes"):
        convergence_report(vals, [1, 16])
    # one value per prime p <= max(N_grid): 6 up to 16, 7 up to 17
    with pytest.raises(ValueError, match="one value per prime up to 17"):
        convergence_report(vals, [16, 17])


def test_trend_violations_counts():
    rep = OscillationReport(
        grid=np.arange(4), values=np.array([3.0, -2.0, 2.5, 1.0]),
        running_max=np.zeros(4), i_dyadic=np.arange(2), o2_dyadic=0.0,
        o2_random=np.zeros(1), v2=0.0, weighted=np.zeros(4))
    # |values| = 3, 2, 2.5, 1: one rise
    assert rep.trend_violations() == 1


def test_halfline_observable():
    y = np.array([0.0, 0.25, 0.4999, 0.5, 0.75])
    np.testing.assert_array_equal(halfline_observable(y),
                                  [0.5, 0.5, 0.5, -0.5, -0.5])
    grid = (np.arange(1000) + 0.5) / 1000
    assert abs(halfline_observable(grid).mean()) < 1e-12
