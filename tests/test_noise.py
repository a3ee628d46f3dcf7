"""White-noise increments: reproducibility, variance identities, spectral flatness."""

import numpy as np
import pytest

from wsnl.grid import Field, SpectralGrid, forward, l2_norm
from wsnl.noise import gaussian_block, increment_values, mode_increment_variance

GRID = SpectralGrid(1, 2 * np.pi, 32)
DT = 0.01


def test_streams_reproduce_bit_for_bit():
    # a stream's steps drawn in order equal the same keys drawn afresh
    a = [increment_values(GRID, DT, 42, 7, step) for step in range(1000)]
    for step in range(1000):
        assert np.array_equal(a[step], increment_values(GRID, DT, 42, 7, step))


def test_distinct_streams_differ():
    assert not np.array_equal(
        increment_values(GRID, DT, 42, 0, 0), increment_values(GRID, DT, 42, 1, 0)
    )
    assert not np.array_equal(gaussian_block(42, 0, 0, (8,)), gaussian_block(42, 0, 1, (8,)))


def test_increment_at_is_pure():
    # drawing other keys in between does not move a key's values
    first = increment_values(GRID, DT, 5, 2, 3)
    gaussian_block(5, 2, 4, GRID.shape)
    assert np.array_equal(first, increment_values(GRID, DT, 5, 2, 3))
    scale = np.sqrt(DT / GRID.cell_volume)
    assert np.array_equal(first, scale * gaussian_block(5, 2, 3, GRID.shape))


def test_cell_mean_is_centered():
    # 1e5 draws of one cell via the counter-based kernel
    draws = np.array([gaussian_block(9, 0, step, (4,))[0] for step in range(100_000)])
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se


def test_pairing_variance_identity():
    # Var[<increment, f>] = dt * ||f||_L2^2 within 5% at M = 1e4
    grid = SpectralGrid(1, 2 * np.pi, 64)
    f = np.exp(-((grid.x - np.pi) ** 2))
    M = 10_000
    vals = np.empty(M)
    for m in range(M):
        inc = increment_values(grid, DT, seed=11, stream_id=m, step=0)
        vals[m] = grid.cell_volume * np.sum(f * inc)
    target = DT * l2_norm(grid, f) ** 2
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(M)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.05)


def test_transform_hermitian_symmetry():
    fhat = forward(Field(GRID, increment_values(GRID, DT, 3, 0, 0), "physical")).values
    mirrored = np.roll(fhat[::-1], 1)
    assert np.max(np.abs(fhat - np.conj(mirrored))) < 1e-12 * np.max(np.abs(fhat))


class TestModeIncrementVariance:
    def test_value_and_linearity(self):
        v = mode_increment_variance(GRID, DT)
        assert v == pytest.approx(DT * GRID.L)
        assert mode_increment_variance(GRID, 2 * DT) == pytest.approx(2 * v)
        assert mode_increment_variance(GRID, 0.0) == 0.0

    def test_empirical_zero_mode_variance(self):
        M = 10_000
        coeffs = np.empty(M, dtype=complex)
        for m in range(M):
            inc = increment_values(GRID, DT, seed=13, stream_id=m, step=0)
            coeffs[m] = GRID.forward_values(inc.astype(complex))[0]
        target = mode_increment_variance(GRID, DT)
        est = np.mean(np.abs(coeffs) ** 2)
        assert est == pytest.approx(target, rel=0.05)

    def test_variance_flat_across_modes(self):
        M = 4000
        mat = np.empty((M, GRID.N), dtype=complex)
        for m in range(M):
            inc = increment_values(GRID, DT, seed=17, stream_id=m, step=0)
            mat[m] = GRID.forward_values(inc.astype(complex))
        target = mode_increment_variance(GRID, DT)
        per_mode = np.mean(np.abs(mat) ** 2, axis=0)
        assert np.max(np.abs(per_mode - target)) / target < 0.15

    def test_distinct_coefficients_uncorrelated(self):
        M = 10_000
        mat = np.empty((M, 3), dtype=complex)
        for m in range(M):
            inc = increment_values(GRID, DT, seed=19, stream_id=m, step=0)
            fhat = GRID.forward_values(inc.astype(complex))
            mat[m] = fhat[[1, 2, 5]]  # no Hermitian partners within this set
        target = mode_increment_variance(GRID, DT)
        for i in range(3):
            for j in range(i + 1, 3):
                cov = np.mean(mat[:, i] * np.conj(mat[:, j]))
                assert abs(cov) < 5 * target / np.sqrt(M)
