"""Exact pair-sum expectations: kernel oracles and Monte Carlo agreement."""

import numpy as np
import pytest

import wsnl.secondmoment
from wsnl.grid import SpectralGrid, hs_norm_sq
from wsnl.secondmoment import (
    _moment,
    _nested,
    conjugate_kernel,
    ipsi2_norm_sq_expectation,
    plain_kernel,
    wick_norm_sq_expectation,
)
from wsnl.stochastic import PathEnsemble


def riemann_conjugate(kappa, T, q=4000):
    # brute-force midpoint quadrature of the double integral
    t = (np.arange(q) + 0.5) * (T / q)
    m2 = np.minimum.outer(t, t) ** 2
    phase = np.exp(1j * kappa * np.subtract.outer(t, t))
    return float(np.real(np.sum(m2 * phase)) * (T / q) ** 2)


def riemann_plain(a, b, B, T, q=600):
    t = (np.arange(q) + 0.5) * (T / q)
    m = np.minimum.outer(t, t)
    tsum = np.add.outer(t, t)
    tdiff = np.subtract.outer(t, t)

    def g(m_arr, c):
        if c == 0:
            return m_arr.astype(complex)
        return (1 - np.exp(-1j * c * m_arr)) / (1j * c)

    p_a = np.exp(1j * tsum * a) * g(m, 2 * a)
    p_b = np.exp(1j * tsum * b) * g(m, 2 * b)
    val = np.sum(np.exp(-1j * tdiff * B) * p_a * np.conj(p_b)) * (T / q) ** 2
    return complex(val)


def midpoint_moment(k, r, T, q=20000):
    u = (np.arange(q) + 0.5) * (T / q)
    return complex(np.sum(u**k * np.exp(1j * r * u)) * (T / q))


def midpoint_nested(k, o, i, T, q=800):
    # the inner integral over v = u s, s in (0, 1), by the midpoint rule in s
    u = (np.arange(q) + 0.5) * (T / q)
    v = np.multiply.outer(u, (np.arange(q) + 0.5) / q)
    inner = u * np.mean(v**k * np.exp(1j * i * v), axis=1)
    return complex(np.sum(np.exp(1j * o * u) * inner) * (T / q))


def per_beta_reference(grid, n, alpha, T, sigma, drop_zero_mode):
    """The oracles as a Python loop over the shift beta: (ipsi2, wick) values."""
    h = 2 * np.pi / grid.L
    k = np.sort(np.round(grid.xi_axis / h).astype(np.int64))
    n_int = int(np.floor(n / h + 1e-9))
    modes = k[np.abs(k) <= n_int]
    if drop_zero_mode:
        modes = modes[modes != 0]
    total_i = total_w = 0.0
    for beta in range(-2 * n_int, 2 * n_int + 1):
        xi2 = modes[np.abs(modes + beta) <= n_int]
        if drop_zero_mode:
            xi2 = xi2[(xi2 + beta) != 0]
        if xi2.size == 0:
            continue
        w = (1.0 + (h * xi2) ** 2) ** (-alpha) * (1.0 + (h * (xi2 + beta)) ** 2) ** (-alpha)
        a = (h * (xi2 + beta).astype(np.float64)) ** 2
        b = (h * xi2.astype(np.float64)) ** 2
        B = (h * float(beta)) ** 2
        acc = conjugate_kernel(a - b - B, T) + plain_kernel(a, b, np.full_like(a, B), T)
        total_i += (1.0 + B) ** sigma * float(np.sum(w * acc).real)
        a1, b1 = np.where(a == 0, 1, a), np.where(b == 0, 1, b)
        g_a = np.where(a == 0, T, (1 - np.exp(-2j * T * a1)) / (2j * a1))
        g_b = np.where(b == 0, T, (1 - np.exp(-2j * T * b1)) / (2j * b1))
        plain = np.exp(2j * T * (a - b)) * g_a * np.conj(g_b)
        total_w += (1.0 + B) ** sigma * float(np.sum(w * (T**2 + plain)).real)
    return total_i / grid.L, total_w / grid.L


@pytest.mark.parametrize("drop_zero_mode", [False, True])
@pytest.mark.parametrize(
    "L,N,n",
    [
        (8 * np.pi, 128, 4.0),
        (8 * np.pi, 128, 16.0),  # Nyquist edge: the lattice holds -16 but not +16
        (2 * np.pi, 64, 8.0),
        (2 * np.pi, 64, 32.0),  # Nyquist edge
        (2 * np.pi, 64, 0.5),  # only xi = 0: no pair at all once it is dropped
    ],
)
def test_pair_table_oracles_match_the_per_beta_loop(L, N, n, drop_zero_mode):
    grid = SpectralGrid(1, L, N)
    for T, sigma in ((1.0, 0.23), (0.5, -0.32), (1 / 32, 0.38)):
        ref_i, ref_w = per_beta_reference(grid, n, 0.3, T, sigma, drop_zero_mode)
        got_i = ipsi2_norm_sq_expectation(grid, n, 0.3, T, sigma, drop_zero_mode)
        got_w = wick_norm_sq_expectation(grid, n, 0.3, T, sigma, drop_zero_mode)
        assert type(got_i) is float and type(got_w) is float
        assert got_i == pytest.approx(ref_i, rel=1e-13, abs=0)
        assert got_w == pytest.approx(ref_w, rel=1e-13, abs=0)


def test_kernel_chunks_split_only_between_shifts(monkeypatch):
    # chunks smaller than one shift's pairs, and chunks of several shifts
    grid = SpectralGrid(1, 2 * np.pi, 64)
    for chunk in (5, 40):
        monkeypatch.setattr(wsnl.secondmoment, "_CHUNK", chunk)
        wsnl.secondmoment._beta_sums.cache_clear()
        ref_i, ref_w = per_beta_reference(grid, 8.0, 0.3, 0.5, 0.23, False)
        got_i = ipsi2_norm_sq_expectation(grid, 8.0, 0.3, 0.5, 0.23)
        got_w = wick_norm_sq_expectation(grid, 8.0, 0.3, 0.5, 0.23)
        assert got_i == pytest.approx(ref_i, rel=1e-13)
        assert got_w == pytest.approx(ref_w, rel=1e-13)
    wsnl.secondmoment._beta_sums.cache_clear()


def test_second_sigma_reuses_the_cached_pair_sums(monkeypatch):
    grid = SpectralGrid(1, 8 * np.pi, 256)
    calls = []

    def counted(kernel):
        def wrapped(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return wrapped

    monkeypatch.setattr(wsnl.secondmoment, "conjugate_kernel", counted(conjugate_kernel))
    monkeypatch.setattr(wsnl.secondmoment, "plain_kernel", counted(plain_kernel))
    wsnl.secondmoment._beta_sums.cache_clear()
    first = ipsi2_norm_sq_expectation(grid, 8.0, 0.3, 1.0, 0.23)
    assert calls == ["conjugate_kernel", "plain_kernel"]
    second = ipsi2_norm_sq_expectation(grid, 8.0, 0.3, 1.0, 0.38)
    assert calls == ["conjugate_kernel", "plain_kernel"]
    assert second > first  # a larger sigma weights every beta != 0 up
    ipsi2_norm_sq_expectation(grid, 8.0, 0.3, 0.5, 0.23)  # a new T is a new table
    assert len(calls) == 4
    wsnl.secondmoment._beta_sums.cache_clear()


class TestTimeMoments:
    # r T = 1e-2 is the last rate: the closed form cancels there, and at k = 3
    # keeps about 8 digits
    @pytest.mark.parametrize("r", [0.0, 9.0, -23.0, 0.01 / 0.4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_moment_against_quadrature(self, k, r):
        T = 0.4
        exact = complex(_moment(k, np.array([r]), T)[0])
        assert exact == pytest.approx(midpoint_moment(k, r, T), rel=1e-7)

    @pytest.mark.parametrize(
        "o,i",
        [
            (3.0, 0.0),
            (0.0, 0.0),
            (0.0, 5.0),
            (-7.0, 4.0),
            (4.0, -4.0),  # o + i = 0
            (6.0, -11.0),
            (2.0, 0.01 / 0.4),
        ],
    )
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nested_against_quadrature(self, k, o, i):
        T = 0.4
        exact = complex(_nested(k, np.array([o]), np.array([i]), T)[0])
        assert exact == pytest.approx(midpoint_nested(k, o, i, T), rel=1e-5)

    def test_conjugate_kernel_is_twice_the_real_nested_moment(self):
        # min(t1, t2)^2: the t2 < t1 half is _nested(2, kappa, -kappa), the other its conjugate
        kappa = np.array([0.0, 1.5, -6.0, 40.0])
        halves = 2 * _nested(2, kappa, -kappa, 0.4).real
        assert halves == pytest.approx(conjugate_kernel(kappa, 0.4), rel=1e-13)


class TestKernels:
    def test_conjugate_kernel_limit(self):
        assert conjugate_kernel(np.array([0.0]), 0.7)[0] == pytest.approx(0.7**4 / 6)

    @pytest.mark.parametrize("kappa", [0.0, 1.5, -6.0, 40.0])
    def test_conjugate_kernel_against_quadrature(self, kappa):
        T = 0.4
        exact = conjugate_kernel(np.array([kappa]), T)[0]
        brute = riemann_conjugate(kappa, T)
        assert exact == pytest.approx(brute, rel=1e-3, abs=1e-8)

    @pytest.mark.parametrize(
        "a,b,B",
        [
            (1.0, 4.0, 1.0),
            (0.0, 9.0, 9.0),
            (16.0, 0.0, 16.0),
            (0.0, 0.0, 0.0),
            (4.0, 4.0, 0.0),
            (25.0, 9.0, 4.0),
        ],
    )
    def test_plain_kernel_against_quadrature(self, a, b, B):
        T = 0.3
        exact = complex(plain_kernel(np.array([a]), np.array([b]), np.array([B]), T)[0])
        brute = riemann_plain(a, b, B, T)
        assert exact.real == pytest.approx(brute.real, rel=2e-3, abs=1e-7)
        assert exact.imag == pytest.approx(brute.imag, rel=2e-3, abs=1e-7)

    def test_plain_kernel_degenerate_pair(self):
        # a = b = B = 0 reduces to the double integral of min^2: T^4/6
        T = 0.5
        val = complex(plain_kernel(np.array([0.0]), np.array([0.0]), np.array([0.0]), T)[0])
        assert val.real == pytest.approx(T**4 / 6, rel=1e-12)
        assert abs(val.imag) < 1e-15


@pytest.mark.slow
def test_expectations_match_monte_carlo():
    grid = SpectralGrid(1, 2 * np.pi, 64)
    T, K, M, alpha = 1 / 32, 1024, 600, 0.3
    ens = PathEnsemble(
        grid, alpha, [8.0], T, K, seed=5, size=M, track=True
    )
    ens.run()
    for sigma in (0.23, -0.32):
        vals_i = hs_norm_sq(grid, grid.inverse_values(ens.ipsi2_values(8.0)), sigma)
        z_i = (np.mean(vals_i) - ipsi2_norm_sq_expectation(grid, 8.0, alpha, T, sigma)) / (
            np.std(vals_i, ddof=1) / np.sqrt(M)
        )
        assert abs(z_i) < 4.0
        vals_w = hs_norm_sq(grid, ens.wick_values(8.0), sigma)
        z_w = (np.mean(vals_w) - wick_norm_sq_expectation(grid, 8.0, alpha, T, sigma)) / (
            np.std(vals_w, ddof=1) / np.sqrt(M)
        )
        assert abs(z_w) < 4.0


def test_zero_mode_atom_is_the_growth_channel():
    # at T = 0.5 the full ladder keeps growing while the zero-mode-free ladder
    # saturates: successive slopes drop below 0.05
    grid = SpectralGrid(1, 2 * np.pi, 256)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    full = [ipsi2_norm_sq_expectation(grid, n, 0.3, 0.5, 0.23) for n in ladder]
    free = [
        ipsi2_norm_sq_expectation(grid, n, 0.3, 0.5, 0.23, drop_zero_mode=True) for n in ladder
    ]
    top_slope_full = np.log2(full[-1] / full[-2])
    top_slope_free = np.log2(free[-1] / free[-2])
    assert top_slope_full > 0.3
    assert top_slope_free < 0.05
