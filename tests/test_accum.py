import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeorbits import accum
from primeorbits.accum import (
    CHUNK,
    PHASE_ERROR,
    DigitPhase,
    chunked,
    pairwise_sum,
    phase,
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


def _padded_pairwise_sum(a):
    """pairwise_sum as it was written with a full zero-padded copy."""
    a = a.ravel()
    pad = (-a.size) % accum.CHUNK
    if pad:
        a = np.concatenate([a, np.zeros(pad, dtype=a.dtype)])
    parts = a.reshape(-1, accum.CHUNK).sum(axis=1)
    while parts.size > 1:
        if parts.size % 2:
            parts = np.concatenate([parts, np.zeros(1, dtype=parts.dtype)])
        parts = parts[0::2] + parts[1::2]
    return parts[0].item()


@pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 2 ** 20 - 1, 2 ** 20 + 5])
@pytest.mark.parametrize("complex_", [False, True])
def test_pairwise_tail_bit_identical_to_padded_copy(size, complex_):
    # only the tail is padded now; the tree and the bits are unchanged
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))
    if complex_:
        x = x + 1j * rng.standard_normal(size)
    got, want = pairwise_sum(x), _padded_pairwise_sum(x)
    assert type(got) is type(want) and got == want


def _numpy_chunk_sum(chunk):
    """numpy's sum of one CHUNK as accum's bound assumes it: the doubles
    (real, or real and imaginary interleaved) halved down to blocks of 128,
    each block in 8 accumulators, joined as a tree."""
    v = chunk.view(np.float64).tolist()

    def block(lo, n):
        if n > 128:
            return [a + b for a, b in zip(block(lo, n // 2),
                                          block(lo + n // 2, n // 2))]
        r = v[lo:lo + 8]
        for i in range(lo + 8, lo + n, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        if chunk.dtype.kind == "c":
            return [(r[0] + r[2]) + (r[4] + r[6]), (r[1] + r[3]) + (r[5] + r[7])]
        return [((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))]

    parts = block(0, len(v))
    return complex(*parts) if chunk.dtype.kind == "c" else parts[0]


@pytest.mark.parametrize("complex_", [False, True])
def test_chunk_sums_are_the_tree_the_bound_counts(complex_):
    # the 23 roundings per entry of accum's bound are those of this tree
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * CHUNK) * np.exp(rng.uniform(-30.0, 30.0, 2 * CHUNK))
    if complex_:
        x = x + 1j * rng.standard_normal(2 * CHUNK)
    got = accum.chunk_sums(x)
    want = [_numpy_chunk_sum(x[lo:lo + CHUNK]) for lo in (0, CHUNK)]
    assert got.tolist() == want


def _fsum_error(x, got) -> float:
    """|got - sum x|, rounded once, by fsum."""
    return abs(math.fsum([*x.tolist(), -got]))


@given(st.integers(min_value=0, max_value=3 * CHUNK + 5),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.0, max_value=40.0), st.booleans())
@settings(max_examples=40, deadline=None)
@example(0, 0, 0.0, True)
@example(2 * CHUNK + 1, 1, 40.0, False)
def test_pairwise_sum_within_the_stated_bound(n, seed, spread, complex_):
    # |pairwise_sum(x) - sum x| <= gamma_d sum |x|, d = 23 + ceil(log2 m),
    # part by part, on sums that cancel to about 1e-9 of sum |x|; fsum
    # rounds the error and sum |x| once each, far inside the bound's slack
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.standard_normal(size) * np.exp(rng.uniform(-spread, spread, size))

    half = draw(n // 2) + (1j * draw(n // 2) if complex_ else 0.0)
    x = rng.permutation(np.concatenate(
        [half, -half * (1.0 + 1e-9 * rng.standard_normal(n // 2)), half[:n % 2]]))
    got = complex(pairwise_sum(x))
    d = 23 + math.ceil(math.log2(max(1, -(-n // CHUNK))))
    assert accum.pairwise_roundings(n) == d
    gamma = d * 2.0 ** -53 / (1.0 - d * 2.0 ** -53)
    for part, got_part in [(x.real, got.real), (np.imag(x), got.imag)]:
        assert _fsum_error(part, got_part) <= gamma * math.fsum(np.abs(part))


def test_chunked_covers_range():
    spans = list(chunked(10, 3))
    assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(chunked(0, 3)) == []


@given(
    st.integers(min_value=1, max_value=2**52),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_two_prod_exact(n, b):
    # the kernel under phase: hi + lo = n*b with no rounding at all
    a = np.array([float(n)])
    hi, lo, t, s = (np.empty(1) for _ in range(4))
    accum._two_prod_into(a, b, hi, lo, t, s)
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
    (_, _, f), = accum._frac_blocks(n, xi)
    got = float(f[0])
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


@given(st.integers(min_value=1, max_value=2**53), st.floats(min_value=-1.0, max_value=1.0))
@example(n=1320964531, xi=0.9876543218765432)
@example(n=2**53 - 1, xi=0.7071067811865476)
@settings(max_examples=100, deadline=None)
def test_phase_matches_mpmath(n, xi):
    # up to n = 2^53 the phase rests on the double-double reduction: the
    # plain product n*xi is off by 2.7e-8 modulo 1 at the first example
    # and by 0.29 at the second
    import mpmath

    mpmath.mp.dps = 40
    want = mpmath.e ** (2j * mpmath.pi * mpmath.frac(mpmath.mpf(n) * mpmath.mpf(xi)))
    got = phase(np.array([float(n)]), xi)[0]
    assert abs(got - complex(want)) < 1e-12


def test_phase_within_its_bound_at_real_arguments():
    # phase's stated domain: any doubles with |n|, |xi| <= 2^996 and
    # |n*xi| <= 2^1022, integer or not, either sign, down to subnormals.
    # At 300 bits the product of two doubles and its frac are exact
    import mpmath

    rng = np.random.default_rng(47)
    n_exp = rng.integers(-1074, 997, 600)
    xi_exp = np.minimum(rng.integers(-1074, 997, 600), 1020 - n_exp)
    sign = rng.choice([-1.0, 1.0], (2, 600))
    ns = sign[0] * np.ldexp(rng.uniform(1.0, 2.0, 600), n_exp)
    xis = sign[1] * np.ldexp(rng.uniform(1.0, 2.0, 600), xi_exp)
    # and the callers' own range: h(n), panel midpoints, |xi| <= 3.5
    ns[:200] = rng.uniform(1.0, 2.0 ** 40, 200)
    xis[:200] = rng.uniform(-3.5, 3.5, 200)
    with mpmath.workprec(300):
        for n, xi in zip(ns.tolist(), xis.tolist()):
            got = phase(np.array([n]), xi)[0]
            want = mpmath.expjpi(2 * mpmath.frac(mpmath.mpf(n) * xi))
            assert abs(mpmath.mpc(got) - want) <= PHASE_ERROR, (n, xi)


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


def _digit_phase(dp: DigitPhase, m: np.ndarray) -> np.ndarray:
    """e(m xi) at the integers m, split by digits and gathered by lookup."""
    m = np.asarray(m, dtype=np.int64)
    return dp.lookup(dp.digits(m), np.empty(m.size, dtype=np.complex128))


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
        got = _digit_phase(dp, m)
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
    got = _digit_phase(dp, np.array([m]))[0]
    assert abs(mpmath.mpc(got) - want) <= dp.bound
    direct = phase(np.array([float(m)]), xi)[0]
    assert abs(mpmath.mpc(direct) - want) <= PHASE_ERROR


@pytest.mark.parametrize("top", [4095, 10 ** 6, 2 ** 28 - 1, 2 ** 53 - 1])
def test_digit_phase_conjugate_symmetry_and_zero(top):
    rng = np.random.default_rng(5)
    dp0 = DigitPhase(0.0, top)
    m = _digit_edges(top, dp0.b, rng)
    ones = _digit_phase(dp0, m)
    assert np.array_equal(ones.real, np.ones(m.size))
    assert np.array_equal(ones.imag, np.zeros(m.size))
    for xi in [1e-9, 0.5 - 1e-12, 0.0123456789, 0.9]:
        plus = _digit_phase(DigitPhase(xi, top), m)
        minus = _digit_phase(DigitPhase(-xi, top), m)
        assert minus.tobytes() == np.conj(plus).tobytes()


def test_digit_phase_refuses_arguments_outside_its_tables():
    dp = DigitPhase(0.1, 5000)
    with pytest.raises(ValueError, match="outside"):
        _digit_phase(dp, np.array([3, 5001]))
    with pytest.raises(ValueError, match="outside"):
        _digit_phase(dp, np.array([-1]))
    with pytest.raises(ValueError, match="outside"):
        DigitPhase(0.1, 2 ** 53)
    assert _digit_phase(dp, np.zeros(0, dtype=np.int64)).shape == (0,)
