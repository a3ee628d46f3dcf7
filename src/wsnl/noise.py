"""Reproducible space-time white noise, sampled exactly per Fourier mode.

On the lattice the noise is a family of Brownian motions W(t, xi), one per
mode, with E[dW(xi) conj(dW(xi))] = L^d dt and W(-xi) = conj(W(xi)) (a real
field); pairs {xi, -xi} are independent, and the zero mode and every
self-partnered mode (each component 0 or -N/2) are real.  One step of the
stochastic convolution needs, per mode with rate a = |xi|^2, the increment

    I(xi) = int_{t_k}^{t_{k+1}} e^{i (t_{k+1} - s) a} dW(s, xi),

which is Gaussian and is sampled exactly, whatever the step size dt
(exponential Euler: Jentzen & Kloeden 2009, Proc. R. Soc. A 465; Lord, Powell
& Shardlow 2014, ch. 10).  With W(xi) = sqrt(L^d / 2) (B1 + i B2) on one half
of the lattice and C_j, S_j the integrals of cos(u a) and sin(u a) against
dB_j over u in [0, dt],

    I(xi)  = sqrt(L^d / 2) ((C1 - S2) + i (S1 + C2)),
    I(-xi) = sqrt(L^d / 2) ((C1 + S2) + i (S1 - C2)),

so a pair takes 4 standard normals through the 2x2 Cholesky factor of the
covariance of (C, S), a real self-partnered mode takes 2
(I = sqrt(L^d) (C + i S)) and the zero mode 1 (I = sqrt(L^d dt) z).  Then
E[I(xi) conj(I(xi))] = dt L^d and E[I(xi) I(-xi)] = L^d int_0^dt e^{2iau} du.
Only the modes a computation keeps are sampled; no transform is needed.  A
sampler takes one step size, fixed when it is built, and forms the factors of
its increments then.

Randomness is counter-based: each (seed, stream_id, block) triple keys an
independent Philox block (key [seed, stream_id], counter [0, 0, 0, block]),
so ensemble members and time steps can be generated in any order, on any
worker, with bit-identical results.  One key holds the normals of
steps_per_key consecutive steps of one stream, at most KEY_NORMALS of them.
Each thread keeps one Philox generator and re-keys it per block by assigning
its whole state (counter, key and an empty output buffer), which gives the
same stream as a freshly constructed generator without paying for that
construction; being thread-local, the generator is never shared between
chunks that run on different threads (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC11).
"""

from __future__ import annotations

import threading

import numpy as np

from .grid import GridError, SpectralGrid

KEY_NORMALS = 1024  # the most normals one key's block holds, unless one step needs more

_local = threading.local()  # .gen: this thread's Philox generator


def gaussian_block(
    seed: int, stream_id: int, step: int, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Standard normals for one (seed, stream_id, step) key; pure and order-free.
    Written into the float64 array `out` of that shape when one is given."""
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
    return gen.standard_normal(shape, out=out)


def one_minus_sinc(x: np.ndarray) -> np.ndarray:
    """1 - sin(x)/x, to round-off also where it is tiny (Taylor series below 1/2)."""
    x = np.asarray(x, dtype=np.float64)
    y = x * x
    series = y * (1 / 6 - y * (1 / 120 - y * (1 / 5040 - y * (
        1 / 362880 - y * (1 / 39916800 - y / 6227020800)))))
    small = np.abs(x) < 0.5
    direct = 1.0 - np.sin(x) / np.where(small, 1.0, x)
    return np.where(small, series, direct)


def phase_integral_factor(
    a: np.ndarray, dt: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower Cholesky factor (l11, l21, l22) of the covariance of
    (int cos(u a) dB, int sin(u a) dB) over u in [0, dt], B a standard Brownian
    motion, for each rate a >= 0 (a and dt broadcast against each other).

    With phi = a dt the covariance is (dt/2) [[1 + sinc 2phi, sin(phi) sinc(phi)],
    [sin(phi) sinc(phi), 1 - sinc 2phi]] and its determinant
    (dt^2/4)(1 - sinc^2 phi).  The entries that cancel as a dt -> 0 are written
    through one_minus_sinc, so the factor keeps full relative accuracy there,
    where l21 ~ a dt^{3/2} / 2 and l22 ~ a dt^{3/2} / sqrt(12).  This is why the
    factor is not built from the exact oracles' time moments
    (secondmoment._moment): their closed form (e^{i phi} - 1)/(i a) cancels as
    a dt -> 0 and would lose that accuracy."""
    phi = np.asarray(a, dtype=np.float64) * dt
    tail, tail2 = one_minus_sinc(phi), one_minus_sinc(2.0 * phi)
    sin = np.sin(phi)
    sinc = np.where(phi < 0.5, 1.0 - tail, sin / np.where(phi < 0.5, 1.0, phi))
    cc = dt - 0.5 * dt * tail2
    cs = 0.5 * dt * sin * sinc
    det = 0.25 * dt * dt * tail * (2.0 - tail)
    l11 = np.sqrt(cc)
    return l11, cs / l11, np.sqrt(det / cc)


class ModeNoise:
    """Exact increments I(xi) over steps of one size dt on a set of lattice
    modes closed under xi -> -xi (a truncation ball, or the whole lattice).
    The scaled Cholesky factors of a step are formed once, at construction.

    `modes` lists the flat grid indices of the increments, in the order of the
    normals that drive them: the zero mode (1 normal), then the self-partnered
    modes (2 each: all cosine normals, then all sine normals), then one
    representative xi of each pair and after them their partners -xi (4 normals
    per pair, in four runs z1, z2 | z3, z4 over the pairs, where (z1, z2) drive
    B1 and (z3, z4) B2).  One step draws `normals` of them; one key holds
    steps_per_key = max(1, KEY_NORMALS // normals) steps, so step k of a stream
    is row k % steps_per_key of key block k // steps_per_key.
    """

    def __init__(self, grid: SpectralGrid, mask: np.ndarray, dt: float) -> None:
        keep = np.asarray(mask, dtype=bool).reshape(-1)
        if keep.size != grid.N**grid.d:
            raise GridError(f"mode mask has {keep.size} entries, grid {grid.shape}")
        partner = np.ravel_multi_index(
            tuple(-i % grid.N for i in np.indices(grid.shape)), grid.shape
        ).reshape(-1)
        idx = np.flatnonzero(keep)
        if not keep[partner[idx]].all():
            raise GridError("the sampled modes must be closed under xi -> -xi")
        zero = idx[idx == 0]
        single = idx[(partner[idx] == idx) & (idx != 0)]
        pairs = idx[idx < partner[idx]]
        self.grid = grid
        self.modes = np.concatenate([zero, single, pairs, partner[pairs]])
        self._counts = (len(zero), len(single), len(pairs))
        self.normals = len(zero) + 2 * len(single) + 4 * len(pairs)
        self.steps_per_key = max(1, KEY_NORMALS // max(self.normals, 1))
        self.block_shape = (self.steps_per_key, self.normals)
        if not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        rate, volume = grid.xi2.reshape(-1), grid.L**grid.d
        self._zero = np.sqrt(volume * dt)
        self._single = tuple(np.sqrt(volume) * f for f in phase_integral_factor(rate[single], dt))
        self._pairs = tuple(np.sqrt(volume / 2) * f for f in phase_integral_factor(rate[pairs], dt))

    def key(self, step: int) -> tuple[int, int]:
        """(block, row): the key block that holds a step's normals, and its row."""
        return divmod(step, self.steps_per_key)

    def normals_at(self, seed: int, stream_id: int, step: int) -> np.ndarray:
        """The normals of one step of one stream."""
        block, row = self.key(step)
        return gaussian_block(seed, stream_id, block, self.block_shape)[row]

    def increments(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The increments I over one step dt, in the order of `modes`, from the
        normals z of that step (last axis `normals`; leading axes allowed).
        Written into the complex array `out` when one is given."""
        n0, ns, npair = self._counts
        zero, (s11, s21, s22), (p11, p21, p22) = self._zero, self._single, self._pairs
        if out is None:
            out = np.empty(np.shape(z)[:-1] + (len(self.modes),), dtype=np.complex128)
        re, im = out.real, out.imag
        if n0:
            np.multiply(zero, z[..., 0], out=re[..., 0])
            im[..., 0] = 0.0
        zc, zs = z[..., n0 : n0 + ns], z[..., n0 + ns : n0 + 2 * ns]
        single = slice(n0, n0 + ns)
        np.multiply(s11, zc, out=re[..., single])
        np.multiply(s21, zc, out=im[..., single])
        im[..., single] += s22 * zs
        # pairs: with c_j = p11 z, s_j = p21 z + p22 z' the real parts are
        # c1 -+ s2 and the imaginary parts s1 +- c2; one scratch array
        z1, z2, z3, z4 = (
            z[..., n0 + 2 * ns + j * npair : n0 + 2 * ns + (j + 1) * npair] for j in range(4)
        )
        rep, par = slice(n0 + ns, n0 + ns + npair), slice(n0 + ns + npair, None)
        tmp = np.multiply(p22, z4)
        s2 = np.multiply(p21, z3, out=re[..., par])
        s2 += tmp
        c1 = np.multiply(p11, z1, out=tmp)
        np.subtract(c1, s2, out=re[..., rep])
        s2 += c1
        s1 = np.multiply(p21, z1, out=im[..., par])
        s1 += np.multiply(p22, z2, out=tmp)
        c2 = np.multiply(p11, z3, out=tmp)
        np.add(s1, c2, out=im[..., rep])
        s1 -= c2
        return out

    def on_grid(self, increments: np.ndarray) -> np.ndarray:
        """Increments in `modes` order placed on the grid, zero elsewhere."""
        lead = np.shape(increments)[:-1]
        out = np.zeros(lead + (self.grid.N**self.grid.d,), dtype=np.complex128)
        out[..., self.modes] = increments
        return out.reshape(lead + self.grid.shape)


def mode_increment_variance(grid: SpectralGrid, dt: float) -> float:
    """Variance dt * L^d of each complex frequency coefficient of an increment."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return dt * grid.L**grid.d
