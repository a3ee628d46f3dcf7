"""Reproducible discretized space-time white noise.

Increments are sampled in physical space as i.i.d. centered Gaussians with
per-cell variance dt / dx^d, so that for any grid function f,
Var[sum_cells f * increment * dx^d] = dt * ||f||_{L2(grid)}^2.  Sampling in
physical space makes the reality constraint (Hermitian-symmetric transform)
structural rather than enforced.

Randomness is counter-based: each (seed, stream_id, step) triple keys an
independent Philox block, so ensemble members and time steps can be generated
in any order, on any worker, with bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .grid import SpectralGrid


def gaussian_block(seed: int, stream_id: int, step: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals for one (seed, stream_id, step) key; pure and order-free."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return gen.standard_normal(shape)


def increment_values(
    grid: SpectralGrid, dt: float, seed: int, stream_id: int, step: int
) -> np.ndarray:
    """Physical-space white-noise increment values for one step of one stream."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    scale = np.sqrt(dt / grid.cell_volume)
    return scale * gaussian_block(seed, stream_id, step, grid.shape)


def mode_increment_variance(grid: SpectralGrid, dt: float) -> float:
    """Variance dt * L^d of each complex frequency coefficient of an increment."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return dt * grid.L**grid.d
