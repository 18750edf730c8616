"""Ergodic averages along floor(h(p)): systems, weights, O^2 / V^2."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits.ergodic import (
    OscillationReport,
    RotationSystem,
    ShiftSystem,
    average_multi_rotation,
    average_multi_shift,
    average_rotation,
    average_shift,
    box_oscillation,
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
from primeorbits.regvar import log_power, pure_power


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


# ---------------------------------------------------------------- averages

def test_average_shift_all_ones():
    h = pure_power(1.2)
    f = {-int(n): 1.0 for n in orbit_indices(h, 100)}
    assert average_shift(f, 0, h, 100) == 1.0


def test_average_shift_never_returns():
    # floor(h(p)) >= 1 so the orbit of 0 never revisits 0
    assert average_shift({0: 1.0}, 0, pure_power(1.2), 100) == 0.0


def test_average_shift_hand_value():
    # orbit indices [2,3,6,10]; f picks up 1 at -2 and 2 at -3
    f = {-2: 1.0, -3: 2.0}
    assert average_shift(f, 0, pure_power(1.2), 10) == pytest.approx(0.75)


def test_average_shift_convexity():
    rng = np.random.default_rng(5)
    h = pure_power(1.2)
    for _ in range(10):
        support = rng.integers(-30, 5, size=8)
        f = {int(s): float(v) for s, v in zip(support, rng.normal(size=8))}
        a = average_shift(f, 0, h, 200)
        lo = min(min(f.values()), 0.0)  # unvisited points read as 0
        hi = max(max(f.values()), 0.0)
        assert lo - 1e-12 <= a <= hi + 1e-12


def test_average_rotation_constant():
    one = lambda y: np.ones_like(np.asarray(y, dtype=np.float64))
    a = average_rotation(golden_surrogate(), one, 0.3, pure_power(1.2), 500)
    assert a == pytest.approx(1.0, abs=1e-15)


def test_average_rotation_alpha_zero_fixed_point():
    f = lambda y: np.cos(2 * np.pi * np.asarray(y))
    x = 0.31
    a = average_rotation(Fraction(0), f, x, pure_power(1.2), 300)
    assert a == pytest.approx(math.cos(2 * math.pi * x), rel=1e-12)


def test_average_rotation_hand_value():
    # alpha=1/4, orbit [2,3,6,10] -> points 0.5, 0.75, 0.5, 0.5
    f = lambda y: np.asarray(y, dtype=np.float64)
    a = average_rotation(Fraction(1, 4), f, 0.0, pure_power(1.2), 10)
    assert a == pytest.approx((0.5 + 0.75 + 0.5 + 0.5) / 4, rel=1e-15)


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


# ----------------------------------------------------------- multiparameter

def test_multi_rotation_direct_ones():
    h = pure_power(1.2)
    f = lambda y1, y2: np.ones(np.broadcast(y1, y2).shape)
    a = average_multi_rotation([Fraction(1, 3), Fraction(1, 5)], f,
                               [0.0, 0.0], [h, h], [100, 200])
    assert a == pytest.approx(1.0, abs=1e-15)


def test_multi_rotation_caps_and_arity():
    h = pure_power(1.2)
    f = lambda y1, y2: y1 + y2
    with pytest.raises(ValueError, match="capped"):
        average_multi_rotation([Fraction(1, 3), Fraction(1, 5)], f,
                               [0.0, 0.0], [h, h], [100, 10 ** 4 + 1])
    with pytest.raises(ValueError, match="k = 2"):
        average_multi_rotation([Fraction(1, 3)] * 3, f, [0.0] * 3,
                               [h] * 3, [100] * 3)


def test_multi_shift_hand_value():
    # both orbits are [2,3,6,10]; only (a,b) = (2,3) hits the support
    h = pure_power(1.2)
    f = {(-2, -3): 1.0}
    a = average_multi_shift(f, [0, 0], [h, h], [10, 10])
    assert a == pytest.approx(1.0 / 16, rel=1e-15)


@pytest.mark.parametrize("Ns", [(50, 80), (300, 200)])
def test_multi_shift_matches_double_loop(Ns):
    h1, h2 = pure_power(1.2), log_power(1.15)
    n1, n2 = orbit_indices(h1, Ns[0]), orbit_indices(h2, Ns[1])
    rng = np.random.default_rng(7)
    # support on every orbit pair and as many points off the orbits
    f = {(3 - int(a), -1 - int(b)): float(rng.normal())
         for a in n1[::3] for b in n2[::2]}
    f.update({(int(i), int(j)): float(rng.normal())
              for i, j in rng.integers(-5000, 5000, size=(200, 2))})
    total = math.fsum(f.get((3 - int(a), -1 - int(b)), 0.0)
                      for a in n1 for b in n2)
    got = average_multi_shift(f, [3, -1], [h1, h2], Ns)
    assert got == pytest.approx(total / (n1.size * n2.size), rel=1e-13)


def test_multi_shift_runs_past_the_former_cap():
    # a product observable averages to the product of one-parameter
    # averages; N = 2e4 was refused while this was a double loop
    h1, h2 = pure_power(1.2), pure_power(1.1)
    g1 = {-int(a): 1.0 + (int(a) % 5) for a in orbit_indices(h1, 20000)[::7]}
    g2 = {-int(b): 0.5 * (int(b) % 3) for b in orbit_indices(h2, 20000)[::11]}
    f = {(i, j): u * v for i, u in g1.items() for j, v in g2.items()}
    got = average_multi_shift(f, [0, 0], [h1, h2], [20000, 20000])
    want = average_shift(g1, 0, h1, 20000) * average_shift(g2, 0, h2, 20000)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-13)


def test_multi_shift_arity():
    # a one-parameter average is average_shift's
    h = pure_power(1.2)
    with pytest.raises(ValueError, match="k = 2"):
        average_multi_shift({(-2,): 1.0}, [0], [h], [50])


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


def test_box_oscillation_hand_value():
    grid = np.array([1, 2, 3])
    a = np.array([[0.0, 1.0, 9.0],
                  [2.0, 5.0, 9.0],
                  [9.0, 9.0, 9.0]])
    # one box [1,3)^2 anchored at a[0,0]: sup |{0,1,2,5} - 0| = 5
    assert box_oscillation(grid, a, [1, 3]) == pytest.approx(5.0)


def test_box_oscillation_constant_zero():
    grid = np.arange(1, 5)
    assert box_oscillation(grid, np.full((4, 4), 3.3), [1, 2, 4]) == 0.0


# ------------------------------------------------------------------ reports

def test_convergence_report_constant_observable():
    one = lambda y: np.ones_like(np.asarray(y, dtype=np.float64))
    sys_ = RotationSystem(golden_surrogate(), one, 0.0)
    grid = [2 ** j for j in range(4, 11)]
    rep = convergence_report(sys_, pure_power(1.2), grid)
    np.testing.assert_allclose(rep.values, 1.0, rtol=1e-14)
    np.testing.assert_allclose(rep.deltas, 0.0, atol=1e-14)
    assert rep.o2_dyadic == 0.0
    assert np.all(rep.o2_random == 0.0)
    assert rep.v2 == 0.0
    np.testing.assert_allclose(rep.running_max, 1.0, rtol=1e-14)


def test_convergence_report_delta_at_zero():
    # f = indicator of {0}: the orbit of 0 never returns, trajectory is 0
    sys_ = ShiftSystem({0: 1.0}, 0)
    rep = convergence_report(sys_, pure_power(1.2), [16, 64, 256])
    np.testing.assert_allclose(rep.values, 0.0, atol=1e-15)
    assert rep.trend_violations() == 0


def test_convergence_report_structure():
    sys_ = RotationSystem(golden_surrogate(), halfline_observable, 0.35)
    grid = [2 ** j for j in range(4, 12)]
    rep = convergence_report(sys_, pure_power(1.2), grid, seed=7)
    assert rep.grid.tolist() == sorted(grid)
    np.testing.assert_allclose(rep.deltas, np.diff(rep.values), atol=1e-15)
    assert np.all(np.diff(rep.running_max) >= 0.0)
    assert rep.o2_random.size == 100
    assert rep.i_dyadic[0] == grid[0] and rep.i_dyadic[-1] == grid[-1]
    assert rep.v2 >= rep.o2_dyadic - 1e-12
    assert rep.v2 >= float(rep.o2_random.max()) - 1e-12
    again = convergence_report(sys_, pure_power(1.2), grid, seed=7)
    np.testing.assert_array_equal(rep.o2_random, again.o2_random)
    other = convergence_report(sys_, pure_power(1.2), grid, seed=8)
    assert not np.array_equal(rep.o2_random, other.o2_random)
    # D_N over the primes p <= N of the one orbit at max(grid)
    vals, p = sys_.orbit_values(pure_power(1.2), grid[-1]), primes_upto(grid[-1])
    assert rep.weighted.tolist() == [
        weighted_average(vals[:c], p[:c])
        for c in np.searchsorted(p, grid, side="right")]


def test_convergence_report_needs_primes():
    sys_ = ShiftSystem({0: 1.0}, 0)
    with pytest.raises(ValueError, match="no primes"):
        convergence_report(sys_, pure_power(1.2), [1, 16])


def test_trend_violations_counts():
    rep = OscillationReport(
        grid=np.arange(4), values=np.array([3.0, -2.0, 2.5, 1.0]),
        deltas=np.zeros(3), running_max=np.zeros(4),
        i_dyadic=np.arange(2), o2_dyadic=0.0,
        o2_random=np.zeros(1), v2=0.0, seed=0, weighted=np.zeros(4))
    # |values| = 3, 2, 2.5, 1: one rise
    assert rep.trend_violations() == 1


def test_halfline_observable():
    y = np.array([0.0, 0.25, 0.4999, 0.5, 0.75])
    np.testing.assert_array_equal(halfline_observable(y),
                                  [0.5, 0.5, 0.5, -0.5, -0.5])
    grid = (np.arange(1000) + 0.5) / 1000
    assert abs(halfline_observable(grid).mean()) < 1e-12
