"""Constant tables, parameter windows, and the lattice covariance oracles."""

import math

import numpy as np
import pytest

from wsnl.grid import SpectralGrid
from wsnl.reference import (
    DEFAULT_PAIRS,
    PaperParams,
    ParameterError,
    alpha_threshold,
    constants_table,
    covariance_oracle,
    default_eta,
    eta_window,
    is_admissible,
    kappa,
    renorm_constant,
    spectral_mass,
    weak_s_bound,
)


class TestKappa:
    def test_table_values(self):
        assert kappa(1, 0.3) == pytest.approx(0.7)
        assert kappa(3, 0.9) == 1.0
        assert kappa(3, 1.2) == pytest.approx(0.8)
        assert kappa(2, 0.9) == pytest.approx(0.6)

    def test_dimension_one_identity(self):
        for alpha in np.linspace(0.26, 0.49, 12):
            assert kappa(1, alpha) + alpha == 1.0

    def test_window_enforced(self):
        with pytest.raises(ParameterError):
            kappa(1, 0.2)
        with pytest.raises(ParameterError):
            kappa(3, 1.6)

    def test_gain_exceeds_half_where_table_says(self):
        assert kappa(1, 0.45) > 0.5
        assert kappa(2, 0.95) > 0.5
        assert kappa(3, 0.8) > 0.5

    def test_smoothing_gain_near_alpha_one(self):
        assert kappa(2, 1 - 1e-9) == pytest.approx(0.5)


class TestThresholds:
    def test_main_table(self):
        assert alpha_threshold(1) == 0.25
        assert alpha_threshold(2) == 5.0 / 6.0
        assert alpha_threshold(3) == 17.0 / 12.0

    def test_weak_table(self):
        assert alpha_threshold(1, weak=True) == 7.0 / 20.0
        assert alpha_threshold(2, weak=True) == 18.0 / 20.0
        assert alpha_threshold(3, weak=True) == 29.0 / 20.0

    def test_weak_s_bounds(self):
        assert weak_s_bound(1) == 3.0 / 20.0
        assert weak_s_bound(2) == 1.0 / 10.0
        assert weak_s_bound(3) == 1.0 / 24.0


class TestAdmissibility:
    def test_reference_pairs(self):
        assert is_admissible(2, 6, 3)
        assert is_admissible(4, 4, 2)
        assert is_admissible(math.inf, 2, 1)
        assert is_admissible(math.inf, 2, 2)
        assert is_admissible(math.inf, 2, 3)

    def test_forbidden_endpoint(self):
        assert not is_admissible(2, math.inf, 2)

    def test_scaling_violations(self):
        assert not is_admissible(4, 4, 1)
        assert not is_admissible(2, 6, 2)
        assert not is_admissible(3, 3, 3)

    def test_defaults_admissible_for_every_dimension(self):
        for d, (p, q) in DEFAULT_PAIRS.items():
            assert is_admissible(p, q, d)


class TestPaperParams:
    def test_derived_quantities(self):
        p = PaperParams(d=1, alpha=0.3, eps=0.01, n=32)
        assert p.s == pytest.approx(0.21)
        lo, hi = eta_window(1, p.s)
        assert lo == pytest.approx(0.42) and hi == pytest.approx(0.5)
        assert p.eta == pytest.approx(0.46)
        assert 0 < p.theta < 0.5
        assert p.pair == (math.inf, 2.0)

    def test_product_definability_condition(self):
        # -s + eta > s must hold for every valid parameter set
        for d, alpha in [(1, 0.27), (1, 0.45), (2, 0.9), (2, 0.98), (3, 1.44)]:
            p = PaperParams(d=d, alpha=alpha, eps=0.005, n=16)
            assert -p.s + p.eta > p.s

    def test_alpha_window_rejected(self):
        with pytest.raises(ParameterError, match="d/4 < alpha < d/2"):
            PaperParams(d=1, alpha=0.2, eps=0.01, n=8)

    def test_empty_eta_window_rejected(self):
        # d=2, alpha below the threshold 5/6: no eta satisfies 2s < eta < 1/2 - s
        with pytest.raises(ParameterError):
            PaperParams(d=2, alpha=0.6, eps=0.01, n=8)

    def test_eta_override_validated(self):
        PaperParams(d=1, alpha=0.3, eps=0.01, n=8, eta=0.45)
        with pytest.raises(ParameterError):
            PaperParams(d=1, alpha=0.3, eps=0.01, n=8, eta=0.3)

    def test_pair_override_validated(self):
        with pytest.raises(ParameterError):
            PaperParams(d=1, alpha=0.3, eps=0.01, n=8, pair=(4, 4))

    def test_eta_windows_per_dimension(self):
        assert eta_window(2, 0.11) == (0.22, pytest.approx(0.39))
        assert eta_window(3, 0.06) == (0.12, pytest.approx(0.19))
        with pytest.raises(ParameterError):
            default_eta(3, 0.09)  # empty window


class TestRenormConstant:
    grid = SpectralGrid(1, 2 * np.pi, 64)

    def test_zero_time(self):
        assert renorm_constant(self.grid, 8, 0.3, 0.0) == 0.0

    def test_monotone_in_n(self):
        values = [renorm_constant(self.grid, n, 0.3, 1.0) for n in (2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_hand_sum_three_modes(self):
        # n = 1 on the integer lattice keeps modes {0, +-1}
        c = renorm_constant(self.grid, 1.0, 0.3, 2.0)
        expected = 2.0 * (1.0 + 2.0 * 2.0 ** (-0.3)) / (2 * np.pi)
        assert c == pytest.approx(expected, rel=1e-14)


class TestCovarianceOracle:
    grid = SpectralGrid(1, 2 * np.pi, 64)

    def test_equal_time_equal_point_matches_renorm(self):
        for t in (0.25, 0.5):
            conj_val, _ = covariance_oracle(
                self.grid, 8.0, 0.3, t, t, [self.grid.x[5]], [self.grid.x[5]]
            )
            assert conj_val.imag == 0.0
            assert conj_val.real == renorm_constant(self.grid, 8.0, 0.3, t)

    def test_zero_start_time(self):
        conj_val, plain_val = covariance_oracle(self.grid, 8.0, 0.3, 0.0, 0.7, [0.1], [0.3])
        assert conj_val == 0
        assert plain_val == 0

    def test_three_mode_hand_sum(self):
        # modes {0, +-1}: write out both Definition-style sums literally
        alpha, s_t, t_t = 0.3, 0.6, 1.0
        x, y = self.grid.x[7], self.grid.x[3]
        w1 = 2.0 ** (-alpha)
        L = 2 * np.pi
        conj_expected = (
            s_t * (1.0 + w1 * np.exp(1j * (s_t - t_t)) * 2 * np.cos(x - y)) / L
        )
        inner0 = s_t
        inner1 = np.exp(1j * (s_t + t_t)) * (1 - np.exp(-2j * s_t)) / 2j
        plain_expected = -(inner0 + w1 * inner1 * 2 * np.cos(x - y)) / L
        conj_val, plain_val = covariance_oracle(self.grid, 1.0, alpha, s_t, t_t, [x], [y])
        assert conj_val == pytest.approx(conj_expected, rel=1e-12)
        assert plain_val == pytest.approx(plain_expected, rel=1e-12)

    def test_symmetric_displacement_sign(self):
        # the mode set below Nyquist is symmetric, so the pairing is even in x - y
        a = covariance_oracle(self.grid, 5.0, 0.3, 0.2, 0.4, [0.5], [0.0])
        b = covariance_oracle(self.grid, 5.0, 0.3, 0.2, 0.4, [0.0], [0.5])
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_nyquist_radius_rejected(self):
        with pytest.raises(Exception):
            covariance_oracle(self.grid, 64.0, 0.3, 0.1, 0.2, [0.0], [0.0])

    def test_spectral_mass_shared_with_oracle(self):
        mass = spectral_mass(self.grid, 8.0, 0.3)
        assert renorm_constant(self.grid, 8.0, 0.3, 3.0) == 3.0 * mass


def test_constants_table_contents():
    table = constants_table(2, 0.9, 0.01)
    assert table["kappa"] == pytest.approx(0.6)
    assert table["s"] == pytest.approx(0.11)
    assert table["pair_p"] == 4.0 and table["pair_q"] == 4.0
    assert table["alpha_threshold"] == 5.0 / 6.0
    assert table["eta_window_lo"] == pytest.approx(0.22)
    assert table["eta_window_hi"] == pytest.approx(0.39)
    assert 0 < table["theta"] < 0.5
