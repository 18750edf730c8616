import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeorbits import expsum, primes, vaughan
from primeorbits.primes import mobius, von_mangoldt_range
from primeorbits.regvar import pure_power


def lam_oracle(n: int) -> float:
    if n < 2:
        return 0.0
    m, fac = n, {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    return math.log(next(iter(fac))) if len(fac) == 1 else 0.0


def mu_oracle(n: int) -> int:
    if n == 1:
        return 1
    m, k = n, 0
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            k += 1
        d += 1
    if m > 1:
        k += 1
    return -1 if k % 2 else 1


def pi_vw_oracle(l: int, v: float, w: float) -> float:
    # truncated convolution: Lambda(r) mu(s) over factorizations rs = l
    tot = 0.0
    for r in range(1, l + 1):
        if l % r == 0 and r <= v:
            s = l // r
            if s <= w:
                tot += lam_oracle(r) * mu_oracle(s)
    return tot


def xi_w_oracle(l: int, w: float) -> int:
    return sum(mu_oracle(s) for s in range(1, l + 1) if l % s == 0 and s > w)


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8), max_size=500))
@settings(max_examples=60, deadline=None)
def test_kahan_matches_fsum(xs):
    exact = math.fsum(xs)
    got = vaughan.kahan_sum(xs)
    scale = max(1.0, math.fsum(abs(v) for v in xs))
    assert abs(got - exact) <= 1e-12 * scale


def test_kahan_compensation_kicks_in():
    # naive summation loses the small terms entirely
    vals = [1e16] + [1.0] * 1000 + [-1e16]
    assert vaughan.kahan_sum(vals) == 1000.0


def test_pi_vw_spec_values():
    assert vaughan.pi_vw(1, 2.0, 2.0) == 0.0
    assert abs(vaughan.pi_vw(2, 2.0, 2.0) - math.log(2)) < 1e-15
    assert vaughan.pi_vw(6, 2.0, 2.0) == 0.0


def test_xi_w_spec_values():
    assert vaughan.xi_w(1, 1.0) == 0
    assert vaughan.xi_w(6, 1.0) == -1
    assert vaughan.xi_w(4, 1.0) == -1


@given(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=1.0, max_value=25.0),
    st.floats(min_value=1.0, max_value=25.0),
)
@settings(max_examples=80, deadline=None)
def test_pi_vw_matches_enumeration(l, v, w):
    assert abs(vaughan.pi_vw(l, v, w) - pi_vw_oracle(l, v, w)) < 1e-12


@given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.5, max_value=25.0))
@settings(max_examples=80, deadline=None)
def test_xi_w_matches_enumeration(l, w):
    assert vaughan.xi_w(l, w) == xi_w_oracle(l, w)


def test_lambda_via_vaughan_spec_values():
    assert abs(vaughan.lambda_via_vaughan(5, 2.0, 2.0) - math.log(5)) < 1e-12
    assert abs(vaughan.lambda_via_vaughan(4, 1.5, 1.5) - math.log(2)) < 1e-12
    assert abs(vaughan.lambda_via_vaughan(6, 2.0, 2.0)) < 1e-12


def test_lambda_via_vaughan_needs_n_above_v():
    with pytest.raises(ValueError):
        vaughan.lambda_via_vaughan(2, 2.0, 2.0)


@given(st.integers(min_value=2, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_identity_random_n(n):
    for v in (2.0, 5.0, 10.0):
        if n > v:
            got = vaughan.lambda_via_vaughan(n, v, v)
            assert abs(got - lam_oracle(n)) < 1e-10


def test_identity_sweep_small():
    # every n in (v, 3000] reproduces Lambda exactly for v = w = 2, 5, 10
    nmax = 3000
    lam = von_mangoldt_range(0, nmax + 1)
    for v in (2.0, 5.0, 10.0):
        worst = 0.0
        for n in range(int(v) + 1, nmax + 1):
            got = vaughan.lambda_via_vaughan(n, v, v)
            worst = max(worst, abs(got - lam[n]))
        assert worst < 1e-10


def test_default_params():
    p = vaughan.default_params(1000.0)
    assert p.v == p.w == 1000.0 ** (1.0 / 3.0) / 2.0


def test_split_identity_spec_case():
    h = pure_power(1.2)
    sp = vaughan.exp_sum_split(h, 8.0, 16.0, 0.3, 0)
    combined = sp.s1 - sp.s21 - sp.s22 + sp.s3
    assert abs(combined - sp.reference) < 1e-9
    # reference is the plain Lambda-weighted sum over the block
    direct = 0j
    for n in range(9, 17):
        direct += lam_oracle(n) * np.exp(2j * np.pi * (h.value(n) * 0.3))
    assert abs(sp.reference - direct) < 1e-9


def test_split_identity_with_shifted_frequency():
    # integer m rides along as e((xi+m) h(n)); the identity is arithmetic
    # and cannot care about the phase function
    h = pure_power(1.2)
    sp = vaughan.exp_sum_split(h, 8.0, 16.0, 0.3, 1)
    combined = sp.s1 - sp.s21 - sp.s22 + sp.s3
    assert abs(combined - sp.reference) < 1e-9
    direct = 0j
    for n in range(9, 17):
        direct += lam_oracle(n) * np.exp(2j * np.pi * (h.value(n) * 1.3))
    assert abs(sp.reference - direct) < 1e-9


def test_split_identity_tiny_block():
    # P1**(1/3)/2 < 1 clamps to the smallest legal cutoff
    h = pure_power(1.2)
    sp = vaughan.exp_sum_split(h, 2.0, 4.0, 0.17, 0)
    assert sp.params.v == sp.params.w == 1.0
    combined = sp.s1 - sp.s21 - sp.s22 + sp.s3
    assert abs(combined - sp.reference) < 1e-12


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_split_identity_random_cases(seed):
    rng = np.random.default_rng(seed)
    P1 = float(rng.integers(100, 900))
    P = float(rng.integers(int(max(2, P1 ** (1 / 3))), int(P1 / 2)))
    xi = float(rng.uniform(-0.5, 0.5))
    m = int(rng.integers(0, 4))
    sp = vaughan.exp_sum_split(pure_power(1.1), P, P1, xi, m)
    combined = sp.s1 - sp.s21 - sp.s22 + sp.s3
    assert abs(combined - sp.reference) <= 1e-9 * max(1.0, abs(sp.reference))


def test_split_rejects_bad_block():
    with pytest.raises(ValueError):
        vaughan.exp_sum_split(pure_power(1.2), 16.0, 8.0, 0.1, 0)
    # the default v at P1 = 1e6 is 50
    with pytest.raises(ValueError, match="P >= v"):
        vaughan.exp_sum_split(pure_power(1.2), 10.0, 1e6, 0.1, 0)


# -- range identity and table-driven split ------------------------------------


def test_tables_equal_scalar_functions():
    # mu and xi_w are integers; pi_vw adds over r in pi_vw's order, so
    # its table holds the scalar's bits
    mu = vaughan._mobius_upto(400)
    assert mu.tolist() == [0] + [mobius(n) for n in range(1, 401)]
    for v, w in [(1.0, 1.0), (2.0, 2.0), (2.5, 7.9), (10.0, 10.0),
                 (19.5, 3.0)]:
        pi = vaughan._pi_table(mu, v, w, math.floor(v * w))
        assert pi.tolist() == [0.0] + [vaughan.pi_vw(l, v, w)
                                       for l in range(1, pi.size)]
        xi = vaughan._xi_table(mu, w, 400)
        assert xi.tolist() == [0] + [vaughan.xi_w(l, w)
                                     for l in range(1, 401)]


@pytest.mark.parametrize("v, w", [(1.5, 1.5), (2.0, 2.0), (2.5, 2.5),
                                  (5.0, 5.0), (10.0, 10.0), (1.5, 3.0),
                                  (3.0, 1.5)])
def test_identity_upto_matches_scalar(v, w):
    # entry 0 is the first n > v, so n = floor(v) + 1 is compared too
    nmax = 3000
    n0 = math.floor(v) + 1
    got = vaughan.lambda_via_vaughan_upto(nmax, v, w)
    assert got.shape == (nmax - n0 + 1,)
    want = np.array([vaughan.lambda_via_vaughan(n, v, w)
                     for n in range(n0, nmax + 1)])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_identity_upto_edges():
    assert vaughan.lambda_via_vaughan_upto(2, 2.0, 2.0).size == 0
    assert vaughan.lambda_via_vaughan_upto(3, 2.0, 2.0).tolist() == \
        pytest.approx([math.log(3)], abs=1e-15)
    with pytest.raises(ValueError, match="cutoffs"):
        vaughan.lambda_via_vaughan_upto(100, 0.5, 2.0)


def test_identity_upto_tables_stop_at_nmax():
    # vw = 8.1e5 and w = 900: no table runs past nmax = 1000
    want = [vaughan.lambda_via_vaughan(n, 900.0, 900.0)
            for n in range(901, 1001)]
    tracemalloc.start()
    try:
        got = vaughan.lambda_via_vaughan_upto(1000, 900.0, 900.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - want)) <= 1e-13
    assert peak < 1 << 18  # a vw-long pi_vw table alone would be 6.5 MB


def test_identity_upto_builds_no_dense_lambda(monkeypatch):
    # pi_vw's r <= v and t3's k > v are read off prime_powers
    want = von_mangoldt_range(6, 10 ** 4 + 1)

    def refuse(lo, hi):
        raise AssertionError("dense Lambda built")

    monkeypatch.setattr(primes, "von_mangoldt_range", refuse)
    got = vaughan.lambda_via_vaughan_upto(10 ** 4, 5.0, 5.0)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_split_lambda_stops_at_P1_over_w(monkeypatch):
    # S3's weights Lambda(k) have k <= P1 / l with l >= floor(w) + 1 = 21
    windows = []
    real = primes.von_mangoldt_range

    def recording(lo, hi):
        windows.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(primes, "von_mangoldt_range", recording)
    sp = vaughan.exp_sum_split(pure_power(1.2), 3e4, 1e5, 0.1, 1,
                               vaughan.VaughanParams(20.5, 20.5))
    assert windows == [(0, math.floor(1e5 / 21) + 1)]
    assert sp.residual <= 1e-9


def test_identity_upto_counts_sieve_terms():
    # nmax = 12, v = w = 2: t1 at l = 1, 2 (12 + 6 entries); t2 at the l
    # with pi_vw(l) != 0, l = 2 (log 2) and 4 (-log 2), 6 + 3 entries;
    # t3 at the prime powers k = 3 (l = 3, 4) and 4 (l = 3): 3 entries
    work = vaughan.VaughanWork()
    vaughan.lambda_via_vaughan_upto(12, 2.0, 2.0, work=work)
    assert work.sieve_terms == 30


def split_per_l(h, P, P1, xi, m, params):
    """The four sums with one phase sum per l and the scalar
    coefficients: the form the tables replace, kept as an oracle."""
    v, w = params.v, params.w
    freq = float(xi) + float(m)
    iP1 = int(math.floor(P1))
    lam_dense = von_mangoldt_range(0, iP1 + 1)

    def phase_sum(n, weights):
        return expsum._phase_sum(lambda a, b: weights[a:b],
                                 h.value(n.astype(np.float64)), [freq])[0]

    def k_range(l):
        lo = int(math.floor(P / l))
        hi = int(math.floor(P1 / l))
        return np.arange(lo + 1, hi + 1, dtype=np.int64)

    terms = 0
    s1 = s21 = s22 = s3 = 0j
    for l in range(1, int(math.floor(w)) + 1):
        mu = mobius(l)
        ks = k_range(l)
        if mu and ks.size:
            s1 += mu * phase_sum(ks * l, np.log(ks.astype(np.float64)))
            terms += ks.size
    for l in range(1, int(math.floor(v * w)) + 1):
        coef = vaughan.pi_vw(l, v, w)
        ks = k_range(l)
        if coef != 0.0 and ks.size:
            part = coef * phase_sum(ks * l, np.ones(ks.size))
            if l <= v:
                s21 += part
            else:
                s22 += part
            terms += ks.size
    for l in range(int(math.floor(w)) + 1, int(math.floor(P1 / v)) + 1):
        coef = vaughan.xi_w(l, w)
        ks = k_range(l)
        ks = ks[ks > v]
        if coef != 0 and ks.size:
            wts = lam_dense[ks]
            mask = wts != 0.0
            if mask.any():
                s3 += coef * phase_sum(ks[mask] * l, wts[mask])
            terms += ks.size
    return (s1, s21, s22, s3), terms


def _drawn_cases(seed, count):
    # over vaughan-check's ranges of P1, P, xi and m; numpy's draws, whose
    # values name the tests
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p1 = float(rng.uniform(2000.0, 12000.0))
        p = float(rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0))
        out.append((p, p1, float(rng.uniform(-0.5, 0.5)),
                    int(rng.integers(0, 4)), None))
    return out


SPLIT_CASES = _drawn_cases(0, 4) + [
    (2.0, 4.0, 0.17, 0, None),
    (8.0, 16.0, 0.3, 1, None),
    (40.0, 900.0, -0.21, 2, vaughan.VaughanParams(3.0, 2.0)),
    (40.0, 900.0, 0.33, 0, vaughan.VaughanParams(1.5, 4.5)),
    (40.0, 900.0, 0.1, 0, vaughan.VaughanParams(2.0, 5000.0)),  # w > P1
]


@pytest.mark.parametrize("P, P1, xi, m, params", SPLIT_CASES)
def test_split_sums_match_per_l_form(P, P1, xi, m, params):
    h = pure_power(1.2)
    sp = vaughan.exp_sum_split(h, P, P1, xi, m, params)
    want, terms = split_per_l(h, P, P1, xi, m, sp.params)
    got = (sp.s1, sp.s21, sp.s22, sp.s3)
    assert max(abs(g - x) for g, x in zip(got, want)) <= 1e-11
    assert sp.n_terms == terms


def test_split_pieces_cut_across_l(monkeypatch):
    # pieces of 1000 terms split single l ranges; the sums must not care
    h = pure_power(1.1)
    P, P1, xi, m, _ = SPLIT_CASES[0]
    whole = vaughan.exp_sum_split(h, P, P1, xi, m)
    monkeypatch.setattr(vaughan, "_PIECE", 1000)
    work = vaughan.VaughanWork()
    cut = vaughan.exp_sum_split(h, P, P1, xi, m, work=work)
    assert work.phase_sums > 5 and cut.n_terms == whole.n_terms
    want, _ = split_per_l(h, P, P1, xi, m, cut.params)
    for g, x in zip((cut.s1, cut.s21, cut.s22, cut.s3), want):
        assert abs(g - x) <= 1e-11
    assert cut.residual <= 1e-9


def test_split_peak_memory_bounded():
    # Lambda's table (8 bytes per n <= P1) and one gathered piece of
    # about 64 bytes a term, with margin; one phase sum per l peaked at
    # 71 MB here, and gathering whole _CHUNK pieces at 76 MB
    h = pure_power(1.2)
    vaughan.exp_sum_split(h, 100.0, 400.0, 0.1, 1)  # first-call allocations
    P1 = 1e6
    tracemalloc.start()
    try:
        sp = vaughan.exp_sum_split(h, 2e4, P1, 0.1234, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.n_terms == 8979272  # more than 8 pieces
    assert peak < 8 * P1 + 96 * vaughan._PIECE
    assert sp.residual <= 1e-9 * abs(sp.reference)
