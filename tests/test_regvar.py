import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits.regvar import (
    InverseHandle,
    exp_log,
    iterated_log,
    log_power,
    make_catalog,
    pure_power,
)

mpmath.mp.dps = 40


def test_pure_power_values():
    h = pure_power(1.2)
    assert abs(h.value(2.0) - 2.0**1.2) < 1e-14
    assert h.value(1.0) == 1.0
    assert abs(h.value(3.0) - 3.0**1.2) < 1e-14


def test_pure_power_derivatives_at_one():
    h = pure_power(1.2)
    assert abs(h.d1(1.0) - 1.2) < 1e-14
    assert abs(h.d2(1.0) - 0.24) < 1e-14


def test_log_power_formula():
    # a=1 pushes the admissible start point to 2^15 (theta=1/log x must
    # drop below c-1=0.1), so probe the formula above it
    h = log_power(1.1, a=1.0)
    assert h.x0 == 2.0**15
    x = 1e6
    assert abs(h.value(x) - x**1.1 * math.log(x)) <= 1e-10 * h.value(x)
    # below x0 the constant extension applies
    assert h.value(math.e) == h.value(h.x0)


def test_rejects_c_out_of_range():
    for bad in (0.9, 1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            pure_power(bad)


def test_rejects_nonpositive_coeff():
    with pytest.raises(ValueError):
        pure_power(1.5, coeff=0.0)


def test_rejects_perturbation_too_large():
    # theta(x) = a/log x stays above 0.1 until x > e^20, far past the probe window
    with pytest.raises(ValueError):
        log_power(1.5, a=2.0)


def test_exp_log_needs_b_in_unit_interval():
    with pytest.raises(ValueError):
        exp_log(1.2, a=0.3, b=1.0)


def test_vector_and_scalar_agree():
    h = log_power(1.15, a=0.5)
    xs = np.array([40.0, 100.0, 1e5])
    v = h.value(xs)
    for i, x in enumerate(xs):
        assert v[i] == h.value(float(x))


def test_constant_below_x0():
    h = log_power(1.15, a=0.5)
    assert h.x0 > 1.0
    assert h.value(h.x0 * 0.25) == h.value(h.x0)
    # derivatives freeze at x0 too rather than vanishing
    assert h.d1(h.x0 * 0.25) == h.d1(h.x0)


def _mp_form(h):
    # test-local closed forms, differentiated by mpmath at full precision
    if h.kind == "pure":
        return lambda t: h.coeff * t**h.c
    if h.kind == "logpow":
        return lambda t: h.coeff * t**h.c * mpmath.log(t) ** h.a
    if h.kind == "explog":
        return lambda t: h.coeff * t**h.c * mpmath.exp(h.a * mpmath.log(t) ** h.b)
    def itlog(t):
        lk = mpmath.log(t)
        for _ in range(1, h.depth):
            lk = mpmath.log(lk)
        return h.coeff * t**h.c * lk
    return itlog


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_derivatives_match_mpmath(h):
    f = _mp_form(h)
    for x in (max(2.0, h.x0) * 3.0, 1e4, 1e7):
        v = float(f(mpmath.mpf(x)))
        d1 = float(mpmath.diff(f, mpmath.mpf(x)))
        d2 = float(mpmath.diff(f, mpmath.mpf(x), 2))
        assert abs(h.value(x) - v) <= 1e-12 * abs(v)
        assert abs(h.d1(x) - d1) <= 1e-9 * abs(d1)
        assert abs(h.d2(x) - d2) <= 1e-7 * max(abs(d2), 1e-300)


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_index_relation(h):
    # x h'(x)/h(x) = c + theta(x)
    for x in (max(2.0, h.x0) * 2.0, 1e5, 1e8):
        got = x * h.d1(x) / h.value(x)
        assert abs(got - h.index(x)) < 1e-12
        assert abs(h.index(x) - (h.c + h.theta(x))) < 1e-12


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_theta_decays(h):
    xs = np.geomspace(max(h.x0, 10.0) * 10, 1e9, 12)
    th = np.array([abs(h.theta(float(x))) for x in xs])
    assert th[-1] <= th[0] + 1e-12
    assert th[-1] < 0.1


def test_theta_closed_form_logpow():
    # h = x^c log^a x has theta = a/log x exactly
    h = log_power(1.15, a=0.5)
    for x in (100.0, 1e6):
        assert abs(h.theta(x) - 0.5 / math.log(x)) < 1e-14
        assert abs(h.theta_d1(x) - (-0.5 / (x * math.log(x) ** 2))) < 1e-18


def test_value_and_d1_consistent():
    h = exp_log(1.1, a=0.3, b=0.5)
    xs = np.geomspace(max(h.x0, 2.0), 1e6, 17)
    v, d = h.value_and_d1(xs)
    assert np.array_equal(v, h.value(xs))
    assert np.array_equal(d, h.d1(xs))


def test_eval_mp_agrees_with_float_path():
    for h in make_catalog():
        x = max(h.x0, 2.0) * 7.3
        assert abs(float(h.eval_mp(x)) - h.value(x)) <= 1e-12 * h.value(x)


def test_inverse_fixed_point():
    phi = InverseHandle(pure_power(1.2))
    assert phi.value(1.0) == 1.0


def test_inverse_closed_form():
    phi = InverseHandle(pure_power(1.2))
    assert abs(phi.value(2.0**1.2) - 2.0) < 1e-12
    assert abs(phi.value(32.0) - 32.0 ** (1.0 / 1.2)) < 1e-10


def test_inverse_d1_closed_form():
    phi = InverseHandle(pure_power(1.2))
    assert abs(phi.d1(1.0) - 1.0 / 1.2) < 1e-12
    y = 2.0**1.2
    want = (1.0 / 1.2) * y ** (1.0 / 1.2 - 1.0)
    assert abs(phi.d1(y) - want) < 1e-12


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_inverse_function_identity(h):
    phi = InverseHandle(h)
    ys = np.geomspace(h.value(max(h.x0, 2.0)) * 1.5, 1e9, 23)
    x = phi.value(ys)
    assert np.max(np.abs(phi.d1(ys) * h.d1(x) - 1.0)) < 1e-10


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_inverse_roundtrip(h):
    phi = InverseHandle(h)
    xs = np.geomspace(max(h.x0, 2.0), 1e8, 40)
    back = phi.value(h.value(xs))
    assert np.max(np.abs(back / xs - 1.0)) < 1e-12


@pytest.mark.parametrize("h", make_catalog(), ids=lambda h: h.label())
def test_inverse_doubling(h):
    phi = InverseHandle(h)
    d = phi.doubling_constant()
    assert abs(d - 2.0 ** (-1.0 / (2.0 * h.c))) < 1e-15
    ys = np.geomspace(2.0 * h.value(max(h.x0, 2.0)), 1e9, 30)
    ratio = phi.value(ys) / phi.value(2.0 * ys)
    assert np.all(ratio <= d + 1e-12)


def test_inverse_below_range_clamps():
    h = log_power(1.15, a=0.5)
    phi = InverseHandle(h)
    assert phi.value(h.value(h.x0) * 0.5) == h.x0


def _newton_3_7(h, y):
    # reference for the non-pure kinds: the closed-form start, then 3 + 7
    # Newton steps, which InverseHandle's one loop of ten must match bit for bit
    ylo = h.value(h.x0)
    x = np.maximum((np.maximum(y, ylo) / h.coeff) ** h.gamma, h.x0)
    for _ in range(3):
        hv, hd = h.value_and_d1(x)
        x = np.maximum(x - (hv - y) / hd, h.x0)
    for _ in range(7):
        hv, hd = h.value_and_d1(x)
        step = (hv - y) / hd
        x = np.maximum(x - step, h.x0)
    return np.where(y <= ylo, h.x0, x)


@pytest.mark.parametrize("h", [log_power(1.15, a=0.5), exp_log(1.1, a=0.3, b=0.5),
                               iterated_log(1.2, depth=2)],
                         ids=lambda h: h.kind)
def test_nonpure_inverse_bits_match_ten_newton_steps(h):
    ylo = h.value(h.x0)
    y = np.concatenate([[0.5, ylo, np.nextafter(ylo, np.inf)],
                        np.geomspace(0.5 * ylo, 2.0 ** 40, 5000)])
    x = _newton_3_7(h, y)
    phi = InverseHandle(h)
    assert phi.value(y).tobytes() == x.tobytes()
    assert phi.d1(y).tobytes() == (1.0 / h.d1(x)).tobytes()


@pytest.mark.parametrize("c", [1.01, 1.1, 1.2, 1.5, 1.95])
@pytest.mark.parametrize("coeff", [1.0, 0.5, 3.0])
def test_pure_inverse_matches_mpmath(c, coeff):
    h = pure_power(c, coeff=coeff)
    phi = InverseHandle(h)
    ylo = h.value(h.x0)
    y = np.geomspace(np.nextafter(ylo, np.inf), 2.0 ** 40, 301)
    x, d = phi.value(y), phi.d1(y)
    with mpmath.workdps(40):
        g = mpmath.mpf(1) / mpmath.mpf(c)
        for yi, xi, di in zip(y, x, d):
            want = (mpmath.mpf(yi) / coeff) ** g
            assert abs(xi - want) <= 2e-15 * want
            assert abs(di - g * want / mpmath.mpf(yi)) <= 2e-15 * g * want / yi
    # at and below h(x0) phi is x0 and phi' is 1/h'(x0), exactly
    low = np.array([0.0, 0.5 * ylo, ylo])
    assert np.all(phi.value(low) == h.x0)
    assert np.all(phi.d1(low) == 1.0 / h.d1(h.x0))
    assert phi.value(ylo) == h.x0 and phi.d1(ylo) == 1.0 / h.d1(h.x0)


def test_catalog_shape():
    cat = make_catalog()
    assert len(cat) == 5
    kinds = {h.kind for h in cat}
    assert kinds == {"pure", "logpow", "explog", "itlog"}
    labels = [h.label() for h in cat]
    assert len(set(labels)) == len(labels)


@given(st.floats(min_value=1.01, max_value=1.99))
@settings(max_examples=25, deadline=None)
def test_pure_power_monotone(c):
    h = pure_power(c)
    xs = np.geomspace(1.0, 1e6, 50)
    v = h.value(xs)
    assert np.all(np.diff(v) > 0)
    assert np.all(v > 0)


@given(st.floats(min_value=2.0, max_value=1e7), st.floats(min_value=1.05, max_value=1.9))
@settings(max_examples=50, deadline=None)
def test_pure_power_inverse_roundtrip_random(x, c):
    h = pure_power(c)
    phi = InverseHandle(h)
    assert abs(phi.value(h.value(x)) / x - 1.0) < 1e-11
