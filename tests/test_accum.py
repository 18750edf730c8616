import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import accum
from primeorbits.accum import (
    PHASE_ERROR,
    DigitPhase,
    chunked,
    frac_mod1,
    kahan_sum,
    pairwise_sum,
    phase,
    reduce_parts,
    two_prod,
)


def test_pairwise_empty():
    assert pairwise_sum(np.array([], dtype=float)) == 0.0


def test_pairwise_matches_fsum_small():
    x = np.array([1.0, 1e-16, -1.0, 1e-16])
    # plain pairwise carries one rounding of the dominant partials
    assert abs(pairwise_sum(x) - math.fsum(x)) <= np.finfo(float).eps


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=3000))
@settings(max_examples=60, deadline=None)
def test_pairwise_matches_fsum(xs):
    x = np.array(xs)
    exact = math.fsum(xs)
    got = pairwise_sum(x)
    scale = max(1.0, float(np.abs(x).sum()))
    assert abs(got - exact) <= 1e-12 * scale


def test_pairwise_complex():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(999) + 1j * rng.standard_normal(999)
    got = pairwise_sum(z)
    exact = complex(math.fsum(z.real), math.fsum(z.imag))
    assert abs(got - exact) < 1e-10


def test_pairwise_independent_of_padding():
    # same values split at different chunk boundaries agree exactly
    x = np.arange(1.0, 10001.0) ** -1.0
    whole = pairwise_sum(x)
    again = pairwise_sum(x.copy())
    assert whole == again


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8), max_size=500))
@settings(max_examples=60, deadline=None)
def test_kahan_matches_fsum(xs):
    exact = math.fsum(xs)
    got = kahan_sum(xs)
    scale = max(1.0, math.fsum(abs(v) for v in xs))
    assert abs(got - exact) <= 1e-12 * scale


def test_kahan_compensation_kicks_in():
    # naive summation loses the small terms entirely
    vals = [1e16] + [1.0] * 1000 + [-1e16]
    assert kahan_sum(vals) == 1000.0


def test_reduce_parts_empty():
    assert reduce_parts([]) == 0.0


def test_reduce_parts_matches_sum():
    parts = [complex(i, -i) * 1e-3 for i in range(17)]
    got = reduce_parts(parts)
    exact = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
    assert abs(got - exact) < 1e-12


def test_chunked_covers_range():
    spans = list(chunked(10, 3))
    assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(chunked(0)) == []


@given(
    st.integers(min_value=1, max_value=2**52),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_two_prod_exact(n, b):
    hi, lo = two_prod(np.array([float(n)]), b)
    # oracle: exact rational arithmetic
    exact = Fraction(n) * Fraction(b)
    err = (Fraction(float(hi[0])) + Fraction(float(lo[0]))) - exact
    assert err == 0


def test_frac_mod1_recovers_lost_bits():
    # n*xi ~ 1e12 so the naive product keeps only ~4 fractional bits
    n = np.array([1320964531.0])
    xi = 987.6543218765432
    import mpmath

    mpmath.mp.dps = 40
    exact = float(mpmath.frac(mpmath.mpf(int(n[0])) * mpmath.mpf(xi)))
    got = float(frac_mod1(n, xi)[0])
    assert abs(got - exact) < 1e-12
    naive = (n[0] * xi) % 1.0
    assert abs(naive - exact) > 1e-7  # the plain product really is broken here


def test_phase_conjugate_symmetry_bitwise():
    n = np.arange(1.0, 300.0)
    xi = 0.1234567890123
    plus = phase(n, xi)
    minus = phase(n, -xi)
    assert np.array_equal(minus, np.conj(plus))


def test_phase_unit_modulus():
    n = np.arange(1.0, 100.0)
    z = phase(n, 0.7071067811865476)
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15


def test_phase_zero_xi():
    n = np.arange(1.0, 50.0)
    assert np.array_equal(phase(n, 0.0), np.ones(49, dtype=complex))


@given(st.integers(min_value=1, max_value=10**9), st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=50, deadline=None)
def test_phase_matches_mpmath(n, xi):
    import mpmath

    mpmath.mp.dps = 40
    want = mpmath.e ** (2j * mpmath.pi * mpmath.frac(mpmath.mpf(n) * mpmath.mpf(xi)))
    got = phase(np.array([float(n)]), xi)[0]
    assert abs(got - complex(want)) < 1e-12


# -- the in-place phase kernel against the textbook expressions ---------------


def _textbook_two_prod(a, b):
    a = np.asarray(a, dtype=np.float64)
    hi = a * b
    split = 134217729.0
    ca = split * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = split * b
    bhi = cb - (cb - b)
    blo = b - bhi
    lo = ((ahi * bhi - hi) + ahi * blo + alo * bhi) + alo * blo
    return hi, lo


def _textbook_frac_mod1(n, xi):
    hi, lo = _textbook_two_prod(n, xi)
    f = hi - np.floor(hi)
    f = f + lo
    f -= np.floor(f)
    return f


def _textbook_phase(n, xi):
    if xi < 0:
        return np.conj(_textbook_phase(n, -xi))
    return np.exp((2j * math.pi) * _textbook_frac_mod1(n, xi))


@pytest.mark.parametrize("size", [0, 1, accum._BLOCK - 1, accum._BLOCK,
                                  3 * accum._BLOCK + 5])
def test_phase_kernel_bit_identical_to_textbook(size):
    # buffers reused block by block must give the bits of the full-size
    # expressions, over the whole domain n <= 2^53, |xi| <= 1
    rng = np.random.default_rng(size)
    n = np.floor(rng.uniform(0.0, 2.0 ** 53, size))
    n[: size // 2] = rng.integers(0, 10 ** 6, size // 2)
    for xi in [0.0, 1.0, -1.0, 1e-9, *rng.uniform(-1.0, 1.0, 4)]:
        hi, lo = two_prod(n, xi)
        want_hi, want_lo = _textbook_two_prod(n, xi)
        assert hi.tobytes() == want_hi.tobytes()
        assert lo.tobytes() == want_lo.tobytes()
        assert frac_mod1(n, xi).tobytes() == _textbook_frac_mod1(n, xi).tobytes()
        assert phase(n, xi).tobytes() == _textbook_phase(n, xi).tobytes()


def test_phase_kernel_keeps_shape():
    s = np.random.default_rng(3).uniform(0.0, 1e6, (999, 16))
    got = phase(s, 0.123)
    assert got.shape == s.shape
    assert got.tobytes() == _textbook_phase(s, 0.123).tobytes()


# -- integer phases from digit tables -----------------------------------------

_XIS = [0.0, 1e-9, -1e-9, 0.5 - 1e-12, -(0.5 - 1e-12), 0.0123456789,
        -0.3819660112501051, 0.7071067811865476]
_TOPS = [1, 4095, 4096, 10 ** 6, 2 ** 24 - 1, 2 ** 24, 2 ** 28 - 1,
         2 ** 40 + 12345, 2 ** 52, 2 ** 53 - 1]


def _digit_edges(top, b, rng):
    # 2^b - 1, 2^b and 2^2b are where a digit rolls over
    edges = [0, 1, top - 1, top]
    for k in (1, 2, 3, 4):
        edges += [(1 << (b * k)) - 1, 1 << (b * k), (1 << (b * k)) + 1]
    m = np.array([e for e in edges if 0 <= e <= top], dtype=np.int64)
    return np.concatenate([m, rng.integers(0, top, 2000, endpoint=True)])


def test_digit_phase_layout():
    # balanced digits of at most 12 bits
    assert [t.size for t in DigitPhase(0.1, 2 ** 24 - 1).tables] == [4096, 4096]
    assert [t.size for t in DigitPhase(0.1, 2 ** 28 - 1).tables] == [1024, 1024, 256]
    assert DigitPhase(0.1, 2 ** 24 - 1).entries == 8192
    assert [t.size for t in DigitPhase(0.1, 100).tables] == [101]


@pytest.mark.parametrize("top", _TOPS)
def test_digit_phase_matches_phase_within_bound(top):
    rng = np.random.default_rng(top % 1000)
    for xi in _XIS + list(rng.uniform(-1.0, 1.0, 2)):
        dp = DigitPhase(xi, top)
        m = _digit_edges(top, dp.b, rng)
        got = dp(m)
        want = phase(m.astype(np.float64), xi)
        assert np.max(np.abs(got - want)) <= dp.bound + PHASE_ERROR


@given(st.integers(min_value=0, max_value=2 ** 53 - 1),
       st.integers(min_value=0, max_value=2 ** 53 - 1),
       st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_digit_phase_and_phase_match_mpmath(m, extra, xi):
    # both routes against e(m*xi) at 40 digits, each within its stated bound
    import mpmath

    mpmath.mp.dps = 40
    want = mpmath.expjpi(2 * mpmath.frac(mpmath.mpf(m) * mpmath.mpf(xi)))
    dp = DigitPhase(xi, min(m + extra, 2 ** 53 - 1))
    got = dp(np.array([m]))[0]
    assert abs(mpmath.mpc(got) - want) <= dp.bound
    direct = phase(np.array([float(m)]), xi)[0]
    assert abs(mpmath.mpc(direct) - want) <= PHASE_ERROR


@pytest.mark.parametrize("top", [4095, 10 ** 6, 2 ** 28 - 1, 2 ** 53 - 1])
def test_digit_phase_conjugate_symmetry_and_zero(top):
    rng = np.random.default_rng(5)
    dp0 = DigitPhase(0.0, top)
    m = _digit_edges(top, dp0.b, rng)
    ones = dp0(m)
    assert np.array_equal(ones.real, np.ones(m.size))
    assert np.array_equal(ones.imag, np.zeros(m.size))
    for xi in [1e-9, 0.5 - 1e-12, 0.0123456789, 0.9]:
        plus = DigitPhase(xi, top)(m)
        minus = DigitPhase(-xi, top)(m)
        assert minus.tobytes() == np.conj(plus).tobytes()


def test_digit_phase_refuses_arguments_outside_its_tables():
    dp = DigitPhase(0.1, 5000)
    with pytest.raises(ValueError, match="outside"):
        dp(np.array([3, 5001]))
    with pytest.raises(ValueError, match="outside"):
        dp(np.array([-1]))
    with pytest.raises(ValueError, match="outside"):
        DigitPhase(0.1, 2 ** 53)
    assert dp(np.zeros(0, dtype=np.int64)).shape == (0,)
