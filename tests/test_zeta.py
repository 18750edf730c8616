import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import spherical_jn

from primeorbits import expsum, zeta
from primeorbits.accum import pairwise_sum
from primeorbits.primes import chebyshev_psi
from primeorbits.regvar import RegVarFunction, pure_power

TAB = zeta.load_zeros()
H11 = pure_power(1.1)


def test_packaged_table_loads():
    assert TAB.count > 10**4
    assert TAB.max_gamma > 4e4
    assert abs(TAB.gammas[0] - 14.134725) < 1e-4
    assert np.all(np.diff(TAB.gammas) > 0)


def test_packaged_table_read_once():
    # the packaged table is frozen, so every caller shares one read
    assert zeta.load_zeros() is TAB
    assert zeta.load_zeros(None) is TAB


def test_table_validation_rejects_garbage():
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([14.134725, 14.0]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([-1.0, 14.134725]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([20.0, 21.0]))  # first zero is wrong
    with pytest.raises(ValueError, match="non-finite"):
        zeta.ZetaZeroTable(np.array([14.134725, np.nan]))
    # 61 ordinates up to T = 15, more than T log T = 40.6
    dense = np.concatenate([[14.134725], np.linspace(14.2, 15.0, 61)[1:]])
    with pytest.raises(ValueError, match="T log T"):
        zeta.ZetaZeroTable(dense)


def test_count_upto():
    assert TAB.count_upto(14.0) == 0
    assert TAB.count_upto(15.0) == 1
    assert TAB.count_upto(100.0) == 29  # classic N(100)


def test_load_two_line_file(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.134725142\n21.022039639\n")
    t = zeta.load_zeros(str(p))
    assert t.count == 2
    assert t.gammas[1] == 21.022039639
    # a path is read on every call
    p.write_text("14.134725142\n")
    assert zeta.load_zeros(str(p)).count == 1


def test_load_empty_file(tmp_path):
    p = tmp_path / "z.txt"
    for text in ("", "# no ordinates\n\n"):
        p.write_text(text)
        with pytest.raises(ValueError, match="empty"):
            zeta.load_zeros(str(p))


def test_load_parse_error_reports_line(tmp_path):
    # the first line that is not one number, comments and blank lines
    # counted: a bad token, or two numbers on a line, on one line or all
    p = tmp_path / "z.txt"
    for text, line in [
            ("abc\n", 1),
            ("# lowest zeros\n14.134725142\n\nabc\n", 4),
            ("14.134725142 21.022039639\n", 1),
            ("14.134725142 # first\n21.022039639 25.010857580\n", 2),
            ("14.134725142 21.022039639\n25.010857580 30.424876126\n", 1)]:
        p.write_text(text)
        with pytest.raises(ValueError, match=f"parse error at line {line}:"):
            zeta.load_zeros(str(p))
    # Python's float reads '1_000' and numpy does not: no line is named,
    # numpy's reason is kept
    p.write_text("14.134725142\n1_000\n")
    with pytest.raises(ValueError, match="parse error: .*1_000"):
        zeta.load_zeros(str(p))


def test_load_missing_file():
    with pytest.raises(OSError):
        zeta.load_zeros("/nonexistent/zeros.txt")


def test_theta3_default():
    th1 = expsum.theta1_default(1.1)
    want = 1.0 - (1.0 - (1.1 - th1)) / 4.0
    assert abs(zeta.theta3_default(1.1) - want) < 1e-15
    assert abs(zeta.theta3_default(1.1) - 0.9283333333333333) < 1e-12


def test_truncated_psi_empty_sum():
    # cutoff below the first zero leaves the identity term alone
    assert zeta.truncated_psi(100.0, 14.0, TAB) == 100.0


def test_truncated_psi_validations():
    with pytest.raises(ValueError):
        zeta.truncated_psi(100.0, 1.0, TAB)
    with pytest.raises(ValueError):
        zeta.truncated_psi(100.0, 200.0, TAB)  # T > x
    small = zeta.ZetaZeroTable(TAB.gammas[:10])
    with pytest.raises(ValueError):
        zeta.truncated_psi(1e4, 100.0, small)  # beyond coverage


def test_truncated_psi_against_direct_formula():
    # independent re-derivation: x - sum over +-gamma of x^rho / rho
    x, T = 500.0, 100.0
    k = TAB.count_upto(T)
    acc = 0j
    for g in TAB.gammas[:k]:
        rho = 0.5 + 1j * g
        acc += x**rho / rho + x ** np.conj(rho) / np.conj(rho)
    want = x - acc.real
    got = zeta.truncated_psi(x, T, TAB)
    assert abs(got - want) < 1e-9
    assert abs(acc.imag) < 1e-9


def test_truncated_psi_error_bound():
    # oracle: direct psi via factorization sums
    for x, T in [(100.0, 50.0), (1e3, 1e2), (1e3, 1e3), (1e4, 1e2), (1e4, 1e3)]:
        err = abs(zeta.truncated_psi(x, T, TAB) - chebyshev_psi(x))
        assert err <= 5.0 * x * math.log(x) ** 2 / T


def test_truncated_psi_error_shrinks_in_T():
    x = 1e4
    errs = [abs(zeta.truncated_psi(x, T, TAB) - chebyshev_psi(x)) for T in (1e2, 1e3, 1e4)]
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.5 * a  # oscillatory, so only up to slack


def test_zero_power_sum_empty():
    assert zeta.zero_power_sum(1e6, 10.0, TAB).value == 0.0


def test_zero_power_sum_example():
    r = zeta.zero_power_sum(1e6, 1e3, TAB)
    assert r.n_zeros == 649
    want = 649 * 1e6**0.5 / math.sqrt(1e3)
    assert abs(r.value - want) < 1e-6
    assert r.normalizer == expsum.normalizer(1e6)
    assert r.ratio <= 1.0


def test_zero_power_sum_monotone_prefactor_free():
    # the raw sum over zeros grows with the cutoff; the 1/sqrt(T1)
    # prefactor is reapplied afterwards
    raw = [
        zeta.zero_power_sum(1e5, T1, TAB).value * math.sqrt(T1)
        for T1 in (50.0, 100.0, 1e3, 1e4)
    ]
    assert all(b >= a for a, b in zip(raw, raw[1:]))


def test_zero_power_sum_coverage():
    with pytest.raises(ValueError):
        zeta.zero_power_sum(1e6, 1e6, TAB)
    with pytest.raises(ValueError, match="need t >= 1"):
        zeta.zero_power_sum(0.5, 100.0, TAB)


def test_zero_osc_sum_single_zero_closed_form():
    # xi=0 integral in closed form: [s^rho / rho] over (t/2, t], + conjugate
    g1 = TAB.gammas[0]
    one = zeta.ZetaZeroTable(np.array([g1]), source="test")
    t = 50.0
    rho = 0.5 + 1j * g1
    want = 2.0 * ((t**rho - (t / 2.0) ** rho) / rho).real
    got = zeta.zero_osc_sum(H11, t, 0.0, g1, one).value
    assert abs(got - want) < 1e-8


def test_zero_osc_sum_below_first_zero():
    # T = 10 is below the first ordinate 14.13: an empty sum
    r = zeta.zero_osc_sum(H11, 1e3, 1e-3, 10.0, TAB)
    assert r.value == 0 and r.n_zeros == 0


def test_zero_osc_sum_real_at_zero_xi():
    r = zeta.zero_osc_sum(H11, 1e3, 0.0, 500.0, TAB)
    assert abs(r.value.imag) <= 1e-9 * max(1.0, abs(r.value.real))


def test_zero_osc_sum_validations():
    with pytest.raises(ValueError):
        zeta.zero_osc_sum(H11, 1.0, 0.0, 100.0, TAB)  # t < 2 x0
    with pytest.raises(ValueError):
        zeta.zero_osc_sum(H11, 1e3, 0.3, 100.0, TAB)  # xi beyond t^-theta1
    with pytest.raises(ValueError):
        zeta.zero_osc_sum(H11, 1e3, 0.0, 1e6, TAB)  # coverage


def test_zero_osc_sum_budget(monkeypatch):
    # a cap worth the chunks and 16 panels runs a request of at most 16
    # panels (never fewer than 8) and refuses one of 10^3-odd panels
    monkeypatch.setattr(zeta, "_MAX_BYTES", zeta._CHUNK_PEAK + 16 * zeta._PANEL_BYTES)
    r = zeta.zero_osc_sum(H11, 1e3, 1e-6, 100.0, TAB)
    assert 8 <= r.n_panels <= 16 and np.isfinite(r.value.real)
    with pytest.raises(ValueError, match="budget"):
        zeta.zero_osc_sum(H11, 1e5, 1e5 ** (-0.51), 100.0, TAB)


def test_zero_osc_sum_refuses_by_bytes_before_any_panel(monkeypatch):
    # at t = 1e8 on the major-arc cutoff the panels alone would take about
    # 1.5 GB; h is evaluated at the two window ends only, never on a node
    t = 1e8
    args = []
    value = RegVarFunction.value

    def spy(self, x):
        args.append(x)
        return value(self, x)

    monkeypatch.setattr(RegVarFunction, "value", spy)
    with pytest.raises(ValueError, match="memory budget"):
        zeta.zero_osc_sum(H11, t, t ** -expsum.theta1_default(1.1), 100.0, TAB)
    assert sorted(args) == [t / 2.0, t]


def test_zero_osc_sum_spec_point():
    r = zeta.zero_osc_sum(H11, 1e4, 1e4 ** (-0.51), 500.0, TAB)
    assert np.isfinite(r.value.real) and np.isfinite(r.value.imag)
    assert r.n_zeros == TAB.count_upto(500.0)
    assert r.ratio >= 0.0
    assert r.n_panels > 0


def test_explicit_formula_chain():
    # |block Lambda sum - integral| is controlled by the truncated zero sum
    # plus the t log^2 t / T remainder, both frequencies at t = 1e4
    t = 1e4
    for xi in (0.0, t**-0.51):
        b = expsum.dyadic_block_check(H11, t, xi)
        for T in (500.0, 5000.0):
            osc = zeta.zero_osc_sum(H11, t, xi, T, TAB)
            rem = t * math.log(t) ** 2 / T * (1.0 + xi * H11.value(t))
            assert b.abs_error <= abs(osc.value) + rem


# -- the direct kernel, kept as the oracle of the grid route ----------------

_K = 17
_U, _W = np.polynomial.legendre.leggauss(_K)
_PROJ = (_W[:, None] * np.polynomial.legendre.legvander(_U, _K - 1)
         * (2.0 * np.arange(_K) + 1.0) / 2.0)
_PARITY = np.where(np.arange(_K) % 2 == 0, 1.0, -1.0)


def _direct_osc_sum(h, t, xi, T, table):
    """The zero sum with one carrier e^{i c_j gamma} per panel and zero."""
    n = int(math.ceil(4.0 * abs(xi) * (h.value(t) - h.value(t / 2.0)))) + 8
    u0, u1 = math.log(t / 2.0), math.log(t)
    edges = np.linspace(u0, u1, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (u1 - u0) / n
    g = table.gammas[: table.count_upto(T)]
    u = centers[:, None] + half * _U[None, :]
    coeffs = np.exp(table.assumed_beta * u
                    + 2j * np.pi * xi * h.value(np.exp(u))) @ _PROJ
    parts = []
    for lo in range(0, g.size, 2048):
        gs = g[lo:lo + 2048]
        moments = np.array([2.0 * 1j ** k * spherical_jn(k, gs * half)
                            for k in range(_K)])
        carriers = np.exp(1j * np.outer(centers, gs))
        proj_pos = coeffs.T @ carriers
        proj_neg = coeffs.T @ np.conj(carriers)
        vals = half * ((proj_pos * moments).sum(axis=0)
                       + (proj_neg * moments * _PARITY[:, None]).sum(axis=0))
        parts.append(vals)
    return complex(pairwise_sum(np.concatenate(parts))), n


def _xi_for_panels(h, t, panels):
    """The frequency at which _osc_panels chooses exactly `panels` panels."""
    return (panels - 8.5) / (4.0 * (h.value(t) - h.value(t / 2.0)))


@pytest.mark.parametrize("panels, sign", [(8, 0), (9, 1), (100, 1), (100, -1),
                                          (101, 1), (101, -1), (1531, 1)])
@pytest.mark.parametrize("T", [15.0, 1e3, 1e4, None])
def test_zero_osc_sum_matches_direct_kernel(panels, sign, T):
    # P = 8 is the fewest panels, 9 the fewest at xi != 0, 100 a perfect
    # square, 101 a prime and 1531 the major-arc cutoff; the cutoffs give
    # 1 zero, 649 zeros, and more zeros than one chunk holds at 1e4 and at
    # the table top (None), where the grid route gains most
    t = 1e4
    T = TAB.max_gamma if T is None else T
    xi = sign * min(_xi_for_panels(H11, t, panels),
                    t ** -expsum.theta1_default(1.1))
    r = zeta.zero_osc_sum(H11, t, xi, T, TAB)
    want, n = _direct_osc_sum(H11, t, xi, T, TAB)
    assert r.n_panels == n == panels
    assert r.n_zeros == {15.0: 1, 1e3: 649, 1e4: 10142}.get(T, TAB.count)
    if T >= 1e4:
        assert r.n_zeros > zeta._ZERO_CHUNK
    assert abs(r.value - want) <= 1e-12 * r.normalizer
    if sign == 0:
        assert abs(r.value.imag) <= 1e-9 * max(1.0, abs(r.value.real))


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5])
@pytest.mark.parametrize("T", [1e3, 1e4, None])
def test_zero_osc_sum_closed_form_over_many_zeros(t, T):
    # at xi = 0 each zero's integral is [s^rho / rho] over (t/2, t]; summed
    # with its conjugate over every zero up to T, up to all 56,412 of the
    # packaged table (None)
    T = TAB.max_gamma if T is None else T
    g = TAB.gammas[: TAB.count_upto(T)]
    rho = 0.5 + 1j * g
    terms = 2.0 * ((t ** rho - (t / 2.0) ** rho) / rho).real
    r = zeta.zero_osc_sum(H11, t, 0.0, T, TAB)
    assert r.n_zeros == g.size
    assert abs(r.value - math.fsum(terms)) <= 1e-12 * r.normalizer


def test_psi_inverse_coefficients_rederived_by_quadrature():
    # 1 / Psi(s), Psi(s) = int ES(x) cos(pi s x) dx, interpolated at 16
    # Chebyshev nodes of 8 s^2 - 1 from 30-digit quadrature, then written
    # in powers of y = 4 s^2; x = (W/2) sin(theta) makes the integrand smooth
    W, n = zeta._ES_TAPS, zeta._PSI_INV.size
    with mp.workdps(30):
        beta = mp.mpf(zeta._ES_BETA)

        def psi(s):
            def f(th):
                return (mp.exp(beta * (mp.cos(th) - 1)) * mp.cos(th)
                        * mp.cos(mp.pi * s * W / 2 * mp.sin(th)))
            return W / 2 * mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2])

        half = mp.mpf(1) / 2
        inv = [1 / psi(mp.sqrt((mp.cos(mp.pi * (k + half) / n) + 1) / 8))
               for k in range(n)]
        cheb = [2 * mp.fsum(v * mp.cos(mp.pi * j * (k + half) / n)
                            for k, v in enumerate(inv)) / n for j in range(n)]
        cheb[0] /= 2
        # T_j(2y - 1) in powers of y, by T_{j+1} = 2 (2y - 1) T_j - T_{j-1}
        zero = [mp.mpf(0)] * n
        rows = [[mp.mpf(1)] + zero, [mp.mpf(-1), mp.mpf(2)] + zero]
        for _ in range(2, n):
            a, b = rows[-1], rows[-2]
            rows.append([4 * (a[i - 1] if i else 0) - 2 * a[i] - b[i]
                         for i in range(n + 1)])
        want = [mp.fsum(c * row[i] for c, row in zip(cheb, rows))
                for i in range(n)]
        worst = max(abs(mp.mpf(c) - w) for c, w in zip(zeta._PSI_INV, want))
    assert worst <= 1e-16


def test_es_chebyshev_coefficients_rederived_from_40_digit_values():
    # tap i of a zero at frac(gamma / step) = f sits at x = (f + 7 - i) / 8;
    # its ES values at the 17 Chebyshev nodes of rho = 2 f - 1, 40 digits,
    # give the interpolant's coefficients, which _es_weights evaluates
    # within 5e-16 of ES (exp and sqrt in double: 3.0e-15)
    W, n = zeta._ES_TAPS, zeta._ES_CHEB.shape[1]
    with mp.workdps(40):
        beta = mp.mpf(zeta._ES_BETA)

        def es(x):
            return mp.exp(beta * (mp.sqrt(1 - x * x) - 1))

        half = mp.mpf(1) / 2
        nodes = [mp.cos(mp.pi * (k + half) / n) for k in range(n)]
        worst = 0
        for tap, row in enumerate(zeta._ES_CHEB):
            vals = [es(((r + 1) / 2 + 7 - tap) * 2 / W) for r in nodes]
            want = [2 * mp.fsum(v * mp.cos(mp.pi * j * (k + half) / n)
                                for k, v in enumerate(vals)) / n
                    for j in range(n)]
            want[0] /= 2
            worst = max(worst, max(abs(mp.mpf(c) - w) for c, w in zip(row, want)))
        assert worst <= 1e-16
        offset = np.linspace(7.0, 8.0, 41)[:-1] + 1 / 97
        got = zeta._es_weights(offset)
        err = max(abs(mp.mpf(got[i, tap]) - es((mp.mpf(v) - tap) * 2 / W))
                  for i, v in enumerate(offset) for tap in range(W))
    assert err <= 5e-16


def test_panel_transform_is_the_per_row_inverse_fft(monkeypatch):
    # one inverse FFT over axis 1 against one per row, at the zeros
    # benchmark's largest request (7483 panels, 15360 grid points)
    t, panels = 1e5, 7483
    xi = _xi_for_panels(H11, t, panels)
    c0, half, P = zeta._osc_panels(H11, t, xi)
    M = expsum.transform_length(2 * P)
    assert (P, M) == (panels, 15360)
    got = zeta._panel_transform(H11, xi, 0.5, c0, half, P, M, 8)
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda d, axis, norm, out: d)
    want = zeta._panel_transform(H11, xi, 0.5, c0, half, P, M, 8)
    for row in want:
        ifft(row, norm="forward", out=row)
    assert got.tobytes() == want.tobytes()


def test_zero_osc_sum_memory_below_carrier_matrix():
    # the direct kernel holds a P x Z complex carrier matrix and its
    # conjugate; the factored one stays under half of one such matrix
    t, panels = 1e5, 7600
    xi = _xi_for_panels(H11, t, panels)
    tracemalloc.start()
    try:
        r = zeta.zero_osc_sum(H11, t, xi, 1e3, TAB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.n_panels, r.n_zeros) == (panels, 649)
    assert peak < panels * 649 * 16 / 2


@pytest.mark.parametrize("panels", [9, 85, 770, 1531, 7483])
def test_zero_osc_sum_peak_within_refusal_estimate(panels):
    # few panels and every zero is where the chunks, not the panels, set
    # the peak; 1531 panels is the major-arc cutoff at t = 1e4, and 7483
    # panels at t = 1e5 with 649 zeros the zeros benchmark's largest request
    t, T = (1e5, 1e3) if panels == 7483 else (1e4, TAB.max_gamma)
    xi = min(_xi_for_panels(H11, t, panels),
             t ** -expsum.theta1_default(1.1))
    tracemalloc.start()
    try:
        r = zeta.zero_osc_sum(H11, t, xi, T, TAB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.n_panels, r.n_zeros) == (panels, TAB.count_upto(T))
    assert peak <= panels * zeta._PANEL_BYTES + zeta._CHUNK_PEAK


@pytest.mark.parametrize("t, panels, T", [(1e4, 85, None), (1e5, 7483, 1e3)])
def test_zero_osc_sum_independent_of_block_size(monkeypatch, t, panels, T):
    # the chunks of panels and of zeros only regroup the projection and the
    # sum over zeros: chunks of 1000 panels and of at most 64 zeros over
    # 64 grid points split both requests into 8 zero chunks or more
    T = TAB.max_gamma if T is None else T
    xi = _xi_for_panels(H11, t, panels)
    want = zeta.zero_osc_sum(H11, t, xi, T, TAB)
    grids = []
    moments = zeta.legendre_moments

    def counting(omega):
        grids.append(omega.size)
        return moments(omega)

    monkeypatch.setattr(zeta, "legendre_moments", counting)
    monkeypatch.setattr(zeta, "_PANEL_CHUNK", 1000)
    monkeypatch.setattr(zeta, "_ZERO_CHUNK", 64)
    monkeypatch.setattr(zeta, "_GRID_CHUNK", 64)
    got = zeta.zero_osc_sum(H11, t, xi, T, TAB)
    assert len(grids) >= 8 and max(grids) <= 64 + zeta._ES_TAPS
    assert (got.n_panels, got.n_zeros) == (want.n_panels, want.n_zeros) \
        == (panels, TAB.count_upto(T))
    assert abs(got.value - want.value) <= 1e-13 * want.normalizer
