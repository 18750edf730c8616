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


# the three non-pure catalog kinds, and one whose phi has a branch point
# just below h(x0) = h(2), where the first block is split
NONPURE = [log_power(1.15, a=0.5), exp_log(1.1, a=0.3, b=0.5),
           iterated_log(1.2, depth=2), log_power(1.95, a=-0.5)]


def _mp_inverse(h, y, start):
    # phi(y) and phi'(y) = 1/h'(phi(y)) at 40 digits
    with mpmath.workdps(40):
        f = lambda t: h._from_log(mpmath.log(t), mpmath.log, mpmath.exp)
        x = mpmath.findroot(lambda t: f(t) - mpmath.mpf(y), mpmath.mpf(start))
        return x, 1 / mpmath.diff(f, x)


@pytest.mark.parametrize("h", NONPURE, ids=lambda h: h.label())
def test_nonpure_inverse_matches_mpmath(h):
    phi = InverseHandle(h)
    ylo = h.value(h.x0)
    y = np.concatenate([ylo * (1.0 + np.geomspace(1e-12, 1.0, 40)),
                        np.geomspace(2.0 * ylo, 2.0 ** 40, 160)])
    x, d = phi.value(y), phi.d1(y)
    for yi, xi, di in zip(y, x, d):
        want_x, want_d = _mp_inverse(h, yi, xi)
        assert abs(xi - want_x) <= 2.5e-15 * want_x
        assert abs(di - want_d) <= 2.5e-15 * want_d
    # at and below h(x0) phi is x0 and phi' is 1/h'(x0), exactly
    low = np.array([0.5, 0.5 * ylo, np.nextafter(ylo, 0.0), ylo])
    assert np.all(phi.value(low) == h.x0)
    assert np.all(phi.d1(low) == 1.0 / h.d1(h.x0))
    assert phi.value(ylo) == h.x0 and phi.d1(ylo) == 1.0 / h.d1(h.x0)


@pytest.mark.parametrize("h", NONPURE, ids=lambda h: h.label())
def test_nonpure_inverse_depends_on_y_alone(h):
    # one long call against its pieces: cuts inside blocks, pieces below and
    # above the size where coefficients are gathered per point, and a
    # shuffled copy; a fresh handle for each, so block builds differ too
    ylo = h.value(h.x0)
    y = np.concatenate([[0.5 * ylo, ylo], np.linspace(ylo, 3e3, 5000),
                        np.geomspace(3e3, 2.0 ** 40, 7000)])
    whole = InverseHandle(h).d1(y)
    cuts = [0, 3, 1000, 1001, 5002, 9000, y.size]
    parts = [InverseHandle(h).d1(y[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    one = InverseHandle(h)
    assert all(one.d1(float(v)) == w for v, w in zip(y[::997], whole[::997]))
    perm = np.random.default_rng(3).permutation(y.size)
    assert InverseHandle(h).d1(y[perm]).tobytes() == whole[perm].tobytes()
    values = InverseHandle(h).value(y)
    assert np.concatenate([InverseHandle(h).value(y[a:b]) for a, b in
                           zip(cuts, cuts[1:])]).tobytes() == values.tobytes()


def test_inverse_blocks_are_kept_and_counted():
    h = log_power(1.15, a=0.5)
    phi = InverseHandle(h)
    assert phi.blocks_built == 0 and phi.node_evals == 0
    phi.d1(np.array([1e3, 1e4]))
    assert phi.blocks_built == 2   # 2**9 <= 1e3 < 2**10 and 2**13 <= 1e4 < 2**14
    evals = phi.node_evals
    assert evals >= 2 * 17 * 2   # at least two Newton evaluations per node
    phi.value(np.array([6e2, 9e3]))
    assert (phi.blocks_built, phi.node_evals) == (2, evals)
    assert InverseHandle(pure_power(1.2)).node_evals == 0


def test_one_inverse_handle_per_function():
    h = log_power(1.15, a=0.5)
    assert h.inverse is h.inverse
    h.inverse.d1(np.array([1e3]))
    twin = log_power(1.15, a=0.5)
    # the kept handle changes neither equality nor hash, and an equal
    # function has a handle of its own, with no blocks yet
    assert twin == h and hash(twin) == hash(h)
    assert (h.inverse.blocks_built, twin.inverse.blocks_built) == (1, 0)


def test_value_and_d1_keeps_long_double():
    h = log_power(1.15, a=0.5)
    x = np.geomspace(h.x0, 1e9, 9)
    v, d = h.value_and_d1(x.astype(np.longdouble))
    assert v.dtype == d.dtype == np.longdouble
    v64, d64 = h.value_and_d1(x)
    assert v64.dtype == np.float64
    with mpmath.workdps(40):
        for xi, vi in zip(x, v):
            want = h.eval_mp(xi)
            assert abs(mpmath.mpf(str(vi)) - want) <= 1e-17 * want


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


# -- Taylor jets of phi --------------------------------------------------------


@pytest.mark.parametrize("c, coeff", [(1.01, 1.0), (1.2, 0.5), (1.5, 1.0), (1.95, 3.0)])
def test_taylor_matches_pure_closed_form(c, coeff):
    # phi(y (1 + s)) = (y / coeff)^gamma (1 + s)^gamma: row k is
    # binomial(gamma, k) (y / coeff)^gamma, up to the highest order used.
    # Every row is within a few u of phi(y) = row 0; relative to itself a
    # row loses more as c -> 1, where binomial(gamma, k) -> 0 for k >= 2
    h = pure_power(c, coeff=coeff)
    y = np.array([256.0, 3e4, 1e6, 2.0 ** 28])
    got = InverseHandle(h).taylor(y, 80)
    assert got.shape == (81, 4)
    with mpmath.workdps(40):
        g = mpmath.mpf(1) / mpmath.mpf(c)
        for k in range(81):
            for i, yi in enumerate(y):
                want = mpmath.binomial(g, k) * (mpmath.mpf(yi) / coeff) ** g
                assert abs(got[k, i] - want) <= 4e-15 * got[0, i], (k, yi)


@pytest.mark.parametrize("h", NONPURE, ids=lambda h: h.label())
def test_taylor_matches_mpmath_diff(h):
    # against 50-digit derivatives of a 50-digit inverse, at both ends of
    # a tail the approximant sums by Euler-Maclaurin
    y = np.array([1024.0, 1e5])
    order = 10
    got = InverseHandle(h).taylor(y, order)
    f = lambda t: h._from_log(mpmath.log(t), mpmath.log, mpmath.exp)
    with mpmath.workdps(50):
        for i, yi in enumerate(y):
            start = mpmath.mpf(got[0, i])
            phi = lambda v: mpmath.findroot(lambda t: f(t) - v, start)
            for k, dk in enumerate(mpmath.diffs(phi, mpmath.mpf(yi), order)):
                want = dk * mpmath.mpf(yi) ** k / mpmath.factorial(k)
                assert abs(got[k, i] - want) <= 4e-15 * got[0, i], (k, yi)


def _scalar_probe_ok(h, x):
    # the probe point by point, as construction ran it before: the oracle of
    # the array probe
    th = h.theta(x)
    if not abs(th) < h.c - 1.0:
        return False
    ct = h.c + th
    if not ct > 0.0:
        return False
    g = ct * (ct - 1.0) + x * h.theta_d1(x)
    return g > 0.0


_PROBE_GRID = (
    [("pure", dict(c=c, coeff=k)) for c in (1.01, 1.5, 1.95) for k in (0.5, 1.0)]
    + [("logpow", dict(c=c, a=a)) for c in (1.01, 1.15, 1.5, 1.95)
       for a in (-0.5, 0.005, 0.5, 1.0, 2.0)]
    + [("explog", dict(c=c, a=a, b=b)) for c in (1.1, 1.9)
       for a in (-0.3, 0.3, 1.0) for b in (0.2, 0.5, 0.9)]
    + [("itlog", dict(c=c, depth=d)) for c in (1.1, 1.9) for d in (1, 2, 3)])
_CONSTRUCT = {"pure": pure_power, "logpow": log_power, "explog": exp_log,
              "itlog": iterated_log}


@pytest.mark.parametrize("kind, kw", _PROBE_GRID)
def test_array_probe_verdicts_match_scalar(kind, kw, monkeypatch):
    # every candidate x0 the scan probes, and the |theta| ceiling, get the
    # verdict of the scalar probe, so x0 and the refusals are the same
    from primeorbits import regvar
    seen = []
    array_probe = regvar._probe_ok

    def recording(h, x):
        ok = array_probe(h, x)
        seen.append(ok == all(_scalar_probe_ok(h, float(v)) for v in x))
        return ok

    monkeypatch.setattr(regvar, "_probe_ok", recording)
    try:
        _CONSTRUCT[kind](**kw)
        refused = ""
    except ValueError as exc:
        refused = str(exc)
    assert seen and all(seen)
    if "admissible" in refused:
        return
    probe = regvar.RegVarFunction(kind, **kw)
    out = regvar.replace(probe, x0=regvar._scan_x0(probe))
    chk = max(regvar._THETA_CHECKPOINT, out.x0)
    worst = max(abs(out.theta(float(chk * 2.0 ** (j / 2.0)))) for j in range(41))
    assert (worst < regvar._THETA_CEIL) == (refused == "")


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
