"""Reproducible discretized space-time white noise.

Increments are sampled in physical space as i.i.d. centered Gaussians with
per-cell variance dt / dx^d, so that for any grid function f,
Var[sum_cells f * increment * dx^d] = dt * ||f||_{L2(grid)}^2.  Sampling in
physical space makes the reality constraint (Hermitian-symmetric transform)
structural rather than enforced.

Randomness is counter-based: each (seed, stream_id, step) triple keys an
independent Philox block (key [seed, stream_id], counter [0, 0, 0, step]), so
ensemble members and time steps can be generated in any order, on any worker,
with bit-identical results.  Each thread keeps one Philox generator and
re-keys it per block by assigning its whole state (counter, key and an empty
output buffer), which gives the same stream as a freshly constructed
generator without paying for that construction; being thread-local, the
generator is never shared between chunks that run on different threads
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC11).
"""

from __future__ import annotations

import threading

import numpy as np

from .grid import SpectralGrid

_local = threading.local()  # .gen: this thread's Philox generator


def gaussian_block(seed: int, stream_id: int, step: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals for one (seed, stream_id, step) key; pure and order-free."""
    try:
        gen = _local.gen
    except AttributeError:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, step], "key": [seed, stream_id]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer empty: the next draw runs the keyed counter
        "has_uint32": 0,
        "uinteger": 0,
    }
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
