import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import spherical_jn

from primeorbits import expsum, zeta
from primeorbits.accum import pairwise_sum, reduce_parts
from primeorbits.primes import chebyshev_psi
from primeorbits.regvar import RegVarFunction, pure_power

TAB = zeta.load_zeros()
H11 = pure_power(1.1)


def test_packaged_table_loads():
    assert TAB.count > 10**4
    assert TAB.max_gamma > 4e4
    assert abs(TAB.gammas[0] - 14.134725) < 1e-4
    assert np.all(np.diff(TAB.gammas) > 0)


def test_table_validation_rejects_garbage():
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([14.134725, 14.0]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([-1.0, 14.134725]))
    with pytest.raises(ValueError):
        zeta.ZetaZeroTable(np.array([20.0, 21.0]))  # first zero is wrong


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


def test_load_empty_file(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        zeta.load_zeros(str(p))


def test_load_parse_error_reports_line(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("abc\n")
    with pytest.raises(ValueError, match="line 1"):
        zeta.load_zeros(str(p))


def test_load_env_var_fallback(tmp_path, monkeypatch):
    p = tmp_path / "z.txt"
    p.write_text("14.134725142\n21.022039639\n25.010857580\n")
    monkeypatch.setenv(zeta.ZERO_TABLE_ENV, str(p))
    t = zeta.load_zeros()
    assert t.count == 3


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
    r = zeta.zero_power_sum(1e6, 1e3, TAB, epsilon=0.0)
    assert r.n_zeros == 649
    want = 649 * 1e6**0.5 / math.sqrt(1e3)
    assert abs(r.value - want) < 1e-6
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


def test_zero_osc_sum_single_zero_closed_form():
    # xi=0 integral in closed form: [s^rho / rho] over (t/2, t], + conjugate
    g1 = TAB.gammas[0]
    one = zeta.ZetaZeroTable(np.array([g1]), source="test")
    t = 50.0
    rho = 0.5 + 1j * g1
    want = 2.0 * ((t**rho - (t / 2.0) ** rho) / rho).real
    got = zeta.zero_osc_sum(H11, t, 0.0, g1, one).value
    assert abs(got - want) < 1e-8


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
    # a cap worth one block and 16 panels runs a request of at most 16
    # panels (never fewer than 8) and refuses one of 10^3-odd panels
    monkeypatch.setattr(zeta, "_MAX_BYTES", zeta._BLOCK_PEAK + 16 * zeta._PANEL_BYTES)
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


# -- the direct kernel, kept as the oracle of the factored one ---------------

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
        parts.append(pairwise_sum(vals))
    return complex(reduce_parts(parts)), n


def _xi_for_panels(h, t, panels):
    """The frequency at which _osc_panels chooses exactly `panels` panels."""
    return (panels - 8.5) / (4.0 * (h.value(t) - h.value(t / 2.0)))


# a block's tables take 16 ((17 + 1) A + B + 2 * 17) bytes per zero, and
# every panel count P >= 8 gives A >= 1 and (17 + 1) A + B >= 18 + 8
_MIN_ZERO_BYTES = 16 * (18 + 8 + 34)


@pytest.mark.parametrize("panels, sign", [(8, 0), (9, 1), (100, 1), (100, -1),
                                          (101, 1), (101, -1), (1531, 1)])
@pytest.mark.parametrize("T", [15.0, 1e3, 1e4])
def test_zero_osc_sum_matches_direct_kernel(panels, sign, T):
    # P = 8 is the fewest panels, 9 the fewest at xi != 0, 100 a perfect
    # square, 101 a prime and 1531 the major-arc cutoff; 101 and 1531
    # leave padded panels (A B > P); the cutoffs give 1 zero, 649 zeros
    # and more zeros than one block holds
    t = 1e4
    xi = sign * min(_xi_for_panels(H11, t, panels),
                    t ** -expsum.theta1_default(1.1))
    r = zeta.zero_osc_sum(H11, t, xi, T, TAB)
    want, n = _direct_osc_sum(H11, t, xi, T, TAB)
    assert r.n_panels == n == panels
    assert r.n_zeros == {15.0: 1, 1e3: 649, 1e4: 10142}[T]
    if T == 1e4:
        assert r.n_zeros * _MIN_ZERO_BYTES > zeta._BLOCK_BYTES
    assert abs(r.value - want) <= 1e-12 * r.normalizer
    if sign == 0:
        assert abs(r.value.imag) <= 1e-9 * max(1.0, abs(r.value.real))


def test_carriers_match_direct_exponentials_at_largest_phase():
    # both power tables of zero_osc_sum for x^1.1 at t = 1e5 (481 panels,
    # A = 5 by B = 97), E2 also conjugated as the kernel takes it, every
    # zero of the table: gamma c_j reaches 5.2e5 rad, and each carrier
    # stays within 4 (|phase| + 1) u of a direct exponential
    t = 1e5
    c0, half, panels = zeta._osc_panels(
        H11, t, 0.06 * t ** -expsum.theta1_default(1.1))
    A, B = 5, 97
    assert panels == 481 and (A - 1) * B < panels <= A * B
    u = np.finfo(np.float64).eps / 2.0
    worst, largest = 0.0, 0.0
    for start, step, count in [(0.0, 2.0 * half, B), (c0, 2.0 * half * B, A),
                               (-c0, -2.0 * half * B, A)]:
        offsets = start + step * np.arange(count)
        for lo in range(0, TAB.count, 4096):
            g = TAB.gammas[lo:lo + 4096]
            got = zeta._carriers(g, start, step,
                                 np.empty((count, g.size), dtype=np.complex128))
            phase = np.outer(offsets, g)
            err = np.abs(got - np.exp(1j * phase)) / ((np.abs(phase) + 1.0) * u)
            worst = max(worst, float(err.max()))
            largest = max(largest, float(np.abs(phase).max()))
    assert largest > 5e5
    assert worst <= 4.0


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


@pytest.mark.parametrize("panels", [9, 85, 770, 1531])
def test_zero_osc_sum_peak_within_refusal_estimate(panels):
    # few panels and every zero is where the blocks, not the panels, set
    # the peak; 1531 panels is the major-arc cutoff at t = 1e4
    t = 1e4
    xi = min(_xi_for_panels(H11, t, panels),
             t ** -expsum.theta1_default(1.1))
    tracemalloc.start()
    try:
        r = zeta.zero_osc_sum(H11, t, xi, TAB.max_gamma, TAB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.n_panels, r.n_zeros) == (panels, TAB.count)
    assert peak <= panels * zeta._PANEL_BYTES + zeta._BLOCK_PEAK
