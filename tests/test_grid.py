"""Spectral substrate: transforms, multipliers, norms, cutoff."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnl.grid import (
    CutoffRho,
    Field,
    GridError,
    SpectralGrid,
    bessel_weight,
    bump_profile,
    half_weight,
    hs_weight,
    l2_norm,
    propagator_phase,
    sobolev_norm_hat,
    truncation_mask,
    two_thirds_mask,
    weighted_norm_sq_hat,
)

GRID_MATRIX = [(1, 2 * np.pi, 64), (1, 4.0, 128), (2, 2 * np.pi, 32), (3, 2 * np.pi, 16)]


def random_values(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


@pytest.mark.parametrize("d,L,N", GRID_MATRIX)
def test_round_trip(d, L, N):
    grid = SpectralGrid(d, L, N)
    f = random_values(grid, seed=d)
    back = grid.inverse_values(grid.forward_values(f))
    assert np.max(np.abs(back - f)) / np.max(np.abs(f)) < 1e-12


@pytest.mark.parametrize("d,L,N", GRID_MATRIX)
def test_parseval(d, L, N):
    grid = SpectralGrid(d, L, N)
    f = random_values(grid, seed=d + 10)
    phys = grid.cell_volume * np.sum(np.abs(f) ** 2)
    freq = np.sum(np.abs(grid.forward_values(f)) ** 2) / L**d
    assert freq == pytest.approx(phys, rel=1e-12)


def test_grid_validation():
    with pytest.raises(GridError):
        SpectralGrid(1, 2 * np.pi, 63)  # odd
    with pytest.raises(GridError):
        SpectralGrid(1, 2 * np.pi, 2)  # too small
    with pytest.raises(GridError):
        SpectralGrid(4, 2 * np.pi, 16)  # bad dimension
    with pytest.raises(GridError):
        SpectralGrid(3, 2 * np.pi, 512)  # exceeds point budget


def test_nyquist_guard():
    grid = SpectralGrid(1, 2 * np.pi, 64)
    assert grid.nyquist == pytest.approx(32.0)
    grid.check_radius(32.0)
    with pytest.raises(GridError):
        grid.check_radius(33.0)


def test_field_shape_and_tag():
    grid = SpectralGrid(1, 2 * np.pi, 16)
    with pytest.raises(GridError):
        Field(grid, np.zeros(8), "physical")
    with pytest.raises(GridError):
        Field(grid, np.zeros(16), "fourier")


def test_hermitian_symmetry_of_real_field():
    grid = SpectralGrid(2, 2 * np.pi, 32)
    rng = np.random.default_rng(3)
    fhat = grid.forward_values(rng.standard_normal(grid.shape))
    mirrored = fhat.copy()
    for axis in range(grid.d):
        mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
    assert np.max(np.abs(fhat - np.conj(mirrored))) < 1e-12 * np.max(np.abs(fhat))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    half_n=st.integers(2, 16),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_input_transform_matches_complex_path_and_is_hermitian(d, half_n, batch, seed):
    # at d = 1 real input takes the rfft path, exactly Hermitian; at d > 1 it
    # takes the full fftn, Hermitian to round-off
    grid = SpectralGrid(d, 2 * np.pi, 2 * half_n)
    x = np.random.default_rng(seed).standard_normal(tuple(batch) + grid.shape)
    fast = grid.forward_values(x)
    ref = grid.forward_values(x.astype(np.complex128))
    assert fast.shape == ref.shape and fast.dtype == np.complex128
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(fast - ref)) <= 1e-14 * scale
    neg = np.ix_(*[(-np.arange(grid.N)) % grid.N] * d)
    mirrored = fast[(Ellipsis, *neg)]
    if d == 1:
        assert np.array_equal(mirrored, np.conj(fast))
    else:
        assert np.max(np.abs(mirrored - np.conj(fast))) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    half_n=st.integers(2, 16),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_spectrum_completes_to_the_full_transform_and_inverts(d, half_n, batch, seed):
    # the half spectrum keeps the modes 0 ... N/2 of the last axis; complete
    # mirrors the rest exactly, and the real inverse takes it back
    grid = SpectralGrid(d, 2 * np.pi, 2 * half_n)
    h = grid.N // 2 + 1
    x = np.random.default_rng(seed).standard_normal(tuple(batch) + grid.shape)
    half = grid.forward_values(x, half=True)
    assert half.shape == tuple(batch) + grid.shape[:-1] + (h,)
    full = np.empty(tuple(batch) + grid.shape, dtype=np.complex128)
    full[..., :h] = half
    grid.complete(full)
    ref = grid.forward_values(x.astype(np.complex128))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(full - ref)) <= 1e-14 * scale
    neg = np.ix_(*[(-np.arange(grid.N)) % grid.N] * d)
    # every mode past the half spectrum is the conjugate of its mirror, bit for bit
    assert np.array_equal(full[(Ellipsis, *neg)][..., h:], np.conj(full[..., h:]))
    back = grid.inverse_values(half, half=True)
    assert back.dtype == np.float64
    assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))
    raw = grid.inverse_values(half, scale=1.0, half=True)
    assert np.array_equal(raw * (grid.N / grid.L) ** d, back)


@pytest.mark.parametrize("d, N", [(1, 48), (1, 64), (2, 24), (2, 32)])
@pytest.mark.parametrize("dealias", [True, False])
def test_half_spectrum_norm_is_the_norm_of_the_completed_spectrum(d, N, dealias):
    # the solver's Picard increment h mask F(N_m - N_{m-1}) is measured on the
    # half spectrum; without the 2/3 mask the mode N/2 of the last axis,
    # which has no mirror of its own, enters too
    grid = SpectralGrid(d, 2 * np.pi, N)
    h = N // 2 + 1
    scale = grid.cell_volume * (two_thirds_mask(grid) if dealias else np.ones(grid.shape))
    x = np.random.default_rng(N).standard_normal((3,) + grid.shape)
    half = grid.forward_values(x, scale=scale[..., :h], half=True)
    full = np.empty((3,) + grid.shape, dtype=np.complex128)
    full[..., :h] = half
    grid.complete(full)
    weight = hs_weight(grid, -0.35)
    by_half = weighted_norm_sq_hat(grid, half, half_weight(grid, weight))
    by_full = weighted_norm_sq_hat(grid, full, weight)
    assert np.allclose(by_half, by_full, rtol=1e-13, atol=0.0)


class TestMultipliers:
    grid = SpectralGrid(1, 2 * np.pi, 64)

    def test_bessel_dc_mode_unchanged(self):
        for alpha in (0.3, -1.7, 4.0):
            assert bessel_weight(self.grid, -alpha)[0] == 1.0

    def test_propagator_zero_is_identity(self):
        f_hat = random_values(self.grid, seed=1)
        assert np.array_equal(propagator_phase(self.grid, 0.0) * f_hat, f_hat)

    def test_truncation_drops_mode_outside_ball(self):
        # single mode at |xi| = n + 2pi/L sits strictly outside B_n
        n = 5.0
        vals = np.zeros(64, dtype=complex)
        vals[6] = 1.0  # xi = 6 > n on the integer lattice (L = 2pi)
        assert np.all(truncation_mask(self.grid, n) * vals == 0)

    def test_truncation_keeps_boundary_mode(self):
        mask = truncation_mask(self.grid, 5.0)
        assert mask[5] == 1.0 and mask[6] == 0.0

    def test_bessel_composition_identity(self):
        f_hat = random_values(self.grid, seed=2)
        out = bessel_weight(self.grid, 0.7) * (bessel_weight(self.grid, -0.7) * f_hat)
        assert np.max(np.abs(out - f_hat)) < 1e-12 * np.max(np.abs(f_hat))

    def test_propagator_group_law(self):
        f_hat = random_values(self.grid, seed=3)
        one = propagator_phase(self.grid, 0.375) * (propagator_phase(self.grid, 0.125) * f_hat)
        two = propagator_phase(self.grid, 0.5) * f_hat
        assert np.max(np.abs(one - two)) < 1e-12 * np.max(np.abs(f_hat))

    def test_propagator_unitary_on_l2(self):
        f_hat = random_values(self.grid, seed=4)
        before = sobolev_norm_hat(self.grid, f_hat, 0.0, 2)
        after = sobolev_norm_hat(self.grid, propagator_phase(self.grid, 0.37) * f_hat, 0.0, 2)
        assert abs(after - before) < 1e-10 * before


class TestSobolevNorm:
    grid = SpectralGrid(1, 2 * np.pi, 64)

    def norm(self, f, s, p):
        return sobolev_norm_hat(self.grid, self.grid.forward_values(f), s, p)

    def test_single_plane_wave(self):
        for idx, s, p in [(3, 0.7, 2), (10, -0.4, 2), (5, 1.3, 4)]:
            xi0 = self.grid.xi_axis[idx]
            f = np.exp(1j * xi0 * self.grid.x)
            expected = (1 + xi0**2) ** (s / 2) * self.grid.L ** (1.0 / p)
            assert self.norm(f, s, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self):
        assert self.norm(np.zeros(64), 1.0, 2) == 0.0

    def test_s_zero_matches_direct_l2_sum(self):
        f = random_values(self.grid, seed=7)
        direct = np.sqrt(self.grid.dx * np.sum(np.abs(f) ** 2))
        assert self.norm(f, 0.0, 2) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_s(self):
        f = random_values(self.grid, seed=8)
        norms = [self.norm(f, s, 2) for s in (-1.0, -0.3, 0.0, 0.4, 1.2)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_batched_rows_equal_single_calls_bit_for_bit(self, p):
        # numpy's array power differs from its scalar power in the last bit
        # (sqrt at 1/2, a SIMD pow elsewhere), so the root is taken per row
        grid = SpectralGrid(1, 2 * np.pi, 8)
        f_hat = random_values(grid, seed=10) * np.linspace(0.5, 2.0, 4096)[:, None]
        batched = sobolev_norm_hat(grid, f_hat, -0.3, p)
        assert batched.shape == (4096,)
        assert np.array_equal(batched, [sobolev_norm_hat(grid, row, -0.3, p) for row in f_hat])


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    half_n=st.integers(2, 8),
    batch=st.lists(st.integers(1, 3), max_size=2),
    s=st.floats(-1.5, 1.5),
    p=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_physical_norm_and_one_spectral_norm_agree(d, half_n, batch, s, p, seed):
    # a cutoff of ones localizes nothing, bit for bit, and at p = 2 the
    # physical-space norm is the spectral one by Parseval
    grid = SpectralGrid(d, 2 * np.pi, 2 * half_n)
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + grid.shape
    f_hat = grid.forward_values(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    plain = sobolev_norm_hat(grid, f_hat, s, p)
    assert np.array_equal(sobolev_norm_hat(grid, f_hat, s, p, np.ones(grid.shape)), plain)
    if p == 2:
        spectral = weighted_norm_sq_hat(grid, f_hat, hs_weight(grid, s))
        assert np.allclose(plain**2, spectral, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_one_pass_norm_matches_a_two_pass_reference(d, N, lead):
    # the reference sums the real and the imaginary parts apart, each with
    # an exactly rounded sum, against the norm's single pass
    grid = SpectralGrid(d, 3.0, N)
    rng = np.random.default_rng(d * 10 + len(lead))
    shape = lead + grid.shape
    f_hat = grid.forward_values(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    s = -0.35
    got = weighted_norm_sq_hat(grid, f_hat, hs_weight(grid, s))
    w = bessel_weight(grid, 2 * s).reshape(-1)
    rows = f_hat.reshape(-1, N**d)
    ref = [(math.fsum(w * r.real**2) + math.fsum(w * r.imag**2)) / grid.L**d for r in rows]
    assert np.shape(got) == lead
    np.testing.assert_allclose(np.ravel(got), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "bad, expected", [(np.inf, np.inf), (-np.inf, np.inf), (np.nan, np.nan), (1e200, np.inf)]
)
def test_non_finite_norm_is_non_finite_without_a_warning(bad, expected):
    grid = SpectralGrid(2, 2 * np.pi, 8)
    f_hat = random_values(grid, seed=3) * np.ones((3, 1, 1))
    f_hat[1, 2, 5] = complex(0.5, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_norm_sq_hat(grid, f_hat, hs_weight(grid, 0.4))
    assert np.isfinite(got[[0, 2]]).all() and got[0] == got[2]
    np.testing.assert_equal(got[1], expected)


class TestPointwiseProduct:
    grid = SpectralGrid(1, 2 * np.pi, 64)

    def test_times_zero(self):
        f = random_values(self.grid, seed=10)
        assert np.all(self.grid.forward_values(f * np.zeros(64)) == 0)

    def test_times_one(self):
        f = random_values(self.grid, seed=11)
        assert np.array_equal(self.grid.forward_values(f * np.ones(64)), self.grid.forward_values(f))

    def test_two_modes_convolve(self):
        # e^{i xi_a x} * e^{i xi_b x} has a single mode at xi_a + xi_b
        ia, ib = 3, 7
        fa = np.exp(1j * self.grid.xi_axis[ia] * self.grid.x)
        fb = np.exp(1j * self.grid.xi_axis[ib] * self.grid.x)
        prod_hat = self.grid.forward_values(fa * fb)
        expected = np.zeros(64, dtype=complex)
        expected[ia + ib] = self.grid.L
        assert np.max(np.abs(prod_hat - expected)) < 1e-10 * self.grid.L


def plateau_profile(u):
    """1 on |u| <= 1/2, smooth rolloff to 0 at |u| = 1."""
    out = np.zeros_like(u, dtype=float)
    flat = np.abs(u) <= 0.5
    out[flat] = 1.0
    edge = (np.abs(u) > 0.5) & (np.abs(u) < 1.0)
    w = (np.abs(u[edge]) - 0.5) / 0.5
    out[edge] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return out


class TestCutoffRho:
    grid = SpectralGrid(1, 2 * np.pi, 256)

    def test_default_profile_values(self):
        rho = CutoffRho.for_grid(self.grid)
        vals = rho.evaluate(self.grid)
        center = np.argmin(np.abs(self.grid.x - np.pi))
        assert vals[center] == pytest.approx(1.0, abs=1e-12)
        assert vals[0] == 0.0 and vals[-1] == 0.0

    def test_product_form_exact(self):
        grid2 = SpectralGrid(2, 2 * np.pi, 32)
        vals = CutoffRho.for_grid(grid2).evaluate(grid2)
        axis = bump_profile((grid2.x - np.pi) / (np.pi / 2))
        assert np.array_equal(vals, np.multiply.outer(axis, axis))

    @pytest.mark.parametrize("d,L,N", [(1, 2 * np.pi, 256), (2, 4.0, 32), (3, 2 * np.pi, 16)])
    def test_support_keeps_the_periodization_margin(self, d, L, N):
        # rho vanishes outside (L/4, 3L/4) on every axis: an L/4 margin to the
        # box's edges, so the periodization sees no wrap-around
        grid = SpectralGrid(d, L, N)
        vals = CutoffRho.for_grid(grid).evaluate(grid)
        outside = (grid.x <= L / 4) | (grid.x >= 3 * L / 4)
        for axis in range(d):
            assert np.all(np.compress(outside, vals, axis=axis) == 0.0)
        inside = ~outside
        assert np.all(vals[np.ix_(*[inside] * d)] > 0.0)

    def test_smoothness_proxy(self):
        # on the 2pi box at N = 1024 the grid samples the bump as a fine probe
        # over two support widths does: its top band decays below 1e-10
        fine = SpectralGrid(1, 2 * np.pi, 1024)
        assert CutoffRho.for_grid(fine).spectral_tail_ratio(fine) < 1e-10

    def test_grid_tail_diagnostic_decreases_with_resolution(self):
        rho = CutoffRho.for_grid(self.grid)
        fine = SpectralGrid(1, 2 * np.pi, 1024)
        assert CutoffRho.for_grid(fine).spectral_tail_ratio(fine) < rho.spectral_tail_ratio(
            self.grid
        )


class TestLocalizedNorm:
    grid = SpectralGrid(1, 2 * np.pi, 256)

    def norm(self, f, chi, s):
        return sobolev_norm_hat(self.grid, self.grid.forward_values(f), s, 2, chi)

    def test_zero_field(self):
        rho = CutoffRho.for_grid(self.grid).evaluate(self.grid)
        assert self.norm(np.zeros(256), rho, 0.3) == 0.0

    def test_plateau_restriction_matches_masked_l2(self):
        # chi == 1 on its inner plateau; f supported there; s = 0
        chi = plateau_profile((self.grid.x - np.pi) / (np.pi / 2))
        envelope = np.exp(-(((self.grid.x - np.pi) / 0.35) ** 2) * 4)
        envelope[np.abs(self.grid.x - np.pi) > np.pi / 4] = 0.0
        direct = l2_norm(self.grid, envelope)
        assert self.norm(envelope, chi, 0.0) == pytest.approx(direct, rel=1e-10)

    def test_single_mode_cauchy_schwarz_bound(self):
        rho = CutoffRho.for_grid(self.grid).evaluate(self.grid)
        idx, s = 9, 0.6
        xi0 = self.grid.xi_axis[idx]
        f = np.exp(1j * xi0 * self.grid.x)
        bound = (1 + xi0**2) ** (s / 2) * l2_norm(self.grid, rho)
        assert self.norm(f, rho, s) <= bound * (1 + 1e-10)

    def test_operator_order_weight_before_cutoff(self):
        # weighting after localization would differ; check we match the direct construction
        rho = CutoffRho.for_grid(self.grid).evaluate(self.grid)
        f = random_values(self.grid, seed=13)
        fhat = self.grid.forward_values(f)
        weighted = self.grid.inverse_values(bessel_weight(self.grid, -0.4) * fhat)
        direct = l2_norm(self.grid, rho * weighted)
        assert self.norm(f, rho, -0.4) == pytest.approx(direct, rel=1e-12)
