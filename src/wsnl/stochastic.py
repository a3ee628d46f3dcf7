"""Construction of the three stochastic objects per noise realization.

For one realization the frequency-space mode recursion

    psi_{k+1}(xi) = e^{i dt |xi|^2} psi_k(xi) + (-i) (1+|xi|^2)^{-alpha/2} I_k(xi),

on the truncation ball |xi| <= n, adds each step's exact exponentially
weighted noise increment I_k(xi) = int e^{i(t_{k+1}-s)|xi|^2} dW(s, xi)
(noise.ModeNoise), sampled per mode on the ball only: no other mode is drawn
and no transform is taken.  psi is therefore exact in distribution at any
step size, for the conjugate pairing E[psi psi-bar] and for the plain pairing
E[psi(xi) psi(-xi)] alike, at every time of the grid and jointly across times.
An ensemble marches one step size dt = T / K, fixed when it is built, and
forms its propagator phases and its sampler's factors once, then.
The Wick square subtracts the exact discrete constant c_n(t) (see
reference.renorm_constant), and the Duhamel convolution of the Wick square is
accumulated per mode with the trapezoid rule (second order in dt).

Each radius n forms its Wick square on its own padded grid: psi_n is zero-padded
onto enough points per axis (grid.padded_points) that no mode of its square
aliases onto a mode kept, squared there and transformed back (padding
dealiasing, Orszag 1971), whether or not 2n is below the study grid's Nyquist
bound.  The Wick transform and the Duhamel accumulator are then kept on the
compact modes |beta| <= min(2n, Nyquist) only: those the study grid holds and
the Wick square reaches.

Coupling: one noise stream drives every truncation radius of a ladder, so the
difference psi_m - psi_n is exactly the coupled object; psi_n equals the
truncation mask applied to psi_m bit for bit.  A member's normals are keyed by
(seed, member, block of steps) alone, so its path does not depend on the chunk
it runs in, its neighbours or the thread count.  They are drawn for the ball
of the ladder's top radius, so a standalone path of radius n is not the rung
n of a taller ladder's member.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridError,
    SpectralGrid,
    ball_extent,
    bessel_weight,
    padded_points,
    propagator_phase,
    truncation_mask,
)
from .noise import ModeNoise, gaussian_block
from .reference import PaperParams, spectral_mass


def wick_square_values(
    grid: SpectralGrid, psi_hat: np.ndarray, c: float, out: np.ndarray | None = None
) -> np.ndarray:
    """|Psi|^2 - c in physical space for complex transforms psi_hat (leading
    batch axes allowed); c is the renormalization constant c_n(t).  Written
    into the real array `out` when one is given.  psi_hat is consumed: the
    inverse transform overwrites it."""
    out = np.abs(grid.inverse_values(psi_hat, out=psi_hat), out=out)
    np.square(out, out=out)
    out -= c
    return out


def duhamel_update(
    ipsi2_hat: np.ndarray,
    phase: np.ndarray,
    wick_hat_prev: np.ndarray,
    wick_hat_next: np.ndarray,
    dt: float,
) -> None:
    """One per-mode trapezoid step of the Duhamel convolution of the Wick square,
    phase * ipsi2 + (-i dt/2) (phase * wick_prev + wick_next), where phase is the
    propagator multiplier e^{i dt |xi|^2}.

    In place: ipsi2_hat receives the new value and wick_hat_prev is consumed as
    scratch, so it must be a different array from wick_hat_next.
    """
    # operands keep the order of the formula: numpy's complex multiply is not
    # bit-commutative, and swapping them would move results at round-off
    np.multiply(phase, wick_hat_prev, out=wick_hat_prev)
    wick_hat_prev += wick_hat_next
    np.multiply(-0.5j * dt, wick_hat_prev, out=wick_hat_prev)
    np.multiply(phase, ipsi2_hat, out=ipsi2_hat)
    ipsi2_hat += wick_hat_prev


@dataclass
class StochasticPath:
    """Time-indexed snapshots of one realization of (Psi_n, <Psi^2>_n, <I Psi^2>_n)."""

    params: PaperParams
    grid: SpectralGrid
    times: np.ndarray
    psi: list[Field]
    wick: list[Field]
    ipsi2: list[Field]
    seed: int
    stream_id: int


def uniform_times(T: float, K: int) -> np.ndarray:
    return np.linspace(0.0, T, K + 1)


def _blocks(d: int, a: int, b: int, src: int, dst: int) -> list[tuple[tuple, tuple]]:
    """(source, target) index pairs that copy the modes k in [-a, b] of every
    trailing axis from fft-ordered axes of src points to axes of dst points.
    Per axis the block is two slices, k >= 0 at the front and k < 0 at the back."""
    pairs = [(slice(0, b + 1), slice(0, b + 1))]
    if a:
        pairs.append((slice(src - a, src), slice(dst - a, dst)))
    return [
        ((...,) + tuple(p[0] for p in combo), (...,) + tuple(p[1] for p in combo))
        for combo in itertools.product(pairs, repeat=d)
    ]


class _Rung:
    """The padded grid and compact modes of one truncation radius.

    psi_n lives on the modes |k| <= P per axis (P = ball_extent) and |psi_n|^2
    on |k| <= 2P.  The compact modes are those of |k| <= 2P that the study
    grid holds, and the padded grid holds them free of aliasing.  Study,
    padded and compact arrays are all in numpy fft order.  `phase` is the
    propagator multiplier of the ensemble's step on the compact modes, taken
    from the study grid's `phase` when the rung is built.
    """

    def __init__(self, grid: SpectralGrid, radius: float, phase: np.ndarray) -> None:
        P, half, d = ball_extent(grid, radius), grid.N // 2, grid.d
        a, b = min(2 * P, half), min(2 * P, half - 1)
        self.grid = grid
        self.padded = SpectralGrid(d, grid.L, padded_points(grid, radius))
        self.shape = (a + b + 1,) * d
        self._ball = truncation_mask(grid, radius) > 0
        self._psi_blocks = _blocks(d, min(P, half), min(P, half - 1), grid.N, self.padded.N)
        self._from_padded = _blocks(d, a, b, self.padded.N, a + b + 1)
        self._to_study = _blocks(d, a, b, a + b + 1, grid.N)
        self.phase = self._copy([(t, s) for s, t in self._to_study], phase, self.shape)

    @staticmethod
    def _copy(blocks, values: np.ndarray, shape: tuple[int, ...], fill=np.empty) -> np.ndarray:
        out = fill(np.shape(values)[: np.ndim(values) - len(shape)] + shape, dtype=np.complex128)
        for src, dst in blocks:
            out[dst] = values[src]
        return out

    def pad(self, psi: np.ndarray, out: np.ndarray) -> None:
        """Write psi_n, the ball's modes of psi, into `out` on the padded grid;
        `out` keeps whatever it holds at every other mode."""
        for src, dst in self._psi_blocks:
            np.copyto(out[dst], psi[src], where=self._ball[src])

    def compact(self, padded_hat: np.ndarray) -> np.ndarray:
        """The compact modes of a padded-grid transform."""
        return self._copy(self._from_padded, padded_hat, self.shape)

    def to_study(self, compact_hat: np.ndarray) -> np.ndarray:
        """A compact array on the study grid, zero on the modes it lacks."""
        return self._copy(self._to_study, compact_hat, self.grid.shape, np.zeros)


class PathEnsemble:
    """B coupled realizations advanced in lockstep over K steps of one size
    T / K, from t = 0 to T: the times uniform_times(T, K).

    Every truncation radius in `radii` is driven by the same per-member noise,
    with the master state evolved at max(radii) and the others obtained by
    masking.  Each member draws its normals for the ball of max(radii) only,
    one key block of steps_per_key steps at a time (noise.ModeNoise); the
    ensemble turns every member's block into that block's increments at its
    first step and holds them through its last.  Wick transforms and
    Duhamel accumulators are kept per radius only when `track` is set.  They cost
    two transforms per radius per step, each on the radius's padded grid
    (grid.padded_points: 36 points for n = 2 at h = 1/4), and they are stored
    on the radius's compact modes |beta| <= min(2n, Nyquist), not on the
    study grid.

    advance() updates `psi` and the compact Wick transforms and Duhamel
    accumulators in place (the previous Wick transform is the Duhamel step's
    scratch): an array taken from them before a step changes during it, so
    callers copy what they keep.  Callers read study-grid arrays through
    psi_values(), wick_values() and ipsi2_values(), which return fresh arrays;
    sample_paths copies the compact arrays instead and puts each member's
    whole path on the study grid at once.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        alpha: float,
        radii: list[float],
        T: float,
        K: int,
        seed: int,
        size: int,
        stream_offset: int = 0,
        track: bool = False,
    ) -> None:
        self.grid = grid
        self.alpha = float(alpha)
        self.radii = sorted(float(r) for r in radii)
        self.times, self.dt = uniform_times(T, K), T / K
        self.seed = int(seed)
        self.size = int(size)
        self.stream_offset = int(stream_offset)
        self.track = track
        self.k = 0

        n_max = self.radii[-1]
        grid.check_radius(n_max)
        self._masks = {r: truncation_mask(grid, r) for r in self.radii}
        self._mass = {r: spectral_mass(grid, r, alpha) for r in self.radii}
        self._rungs: dict[float, _Rung] = {}

        # the noise is drawn and psi advanced on the ball's modes only, in
        # the sampler's order; psi stays zero outside the ball
        self._noise = ModeNoise(grid, self._masks[n_max] > 0, self.dt)
        self._drive = (-1j) * bessel_weight(grid, -alpha).reshape(-1)[self._noise.modes]
        self._phase = propagator_phase(grid, self.dt)
        self._ball_phase = self._phase.reshape(-1)[self._noise.modes]
        # the ball's entries of the flattened psi block, member by member
        points = int(np.prod(grid.shape))
        self._ball = (np.arange(size)[:, None] * points + self._noise.modes).reshape(-1)
        # drive * I for the steps of every member's current key block
        self._block: np.ndarray | None = None
        self.psi = np.zeros((size,) + grid.shape, dtype=np.complex128)
        if track:
            # psi(0) = 0 and c_n(0) = 0, so the initial Wick transform is zero.
            self._wick_hat = {r: self._compact_zeros(r) for r in self.radii}
            self._ipsi2 = {r: self._compact_zeros(r) for r in self.radii}

    def _rung(self, radius: float) -> _Rung:
        if radius not in self._rungs:
            self._rungs[radius] = _Rung(self.grid, radius, self._phase)
        return self._rungs[radius]

    def _compact_zeros(self, radius: float) -> np.ndarray:
        return np.zeros((self.size,) + self._rung(radius).shape, dtype=np.complex128)

    def psi_values(self, radius: float) -> np.ndarray:
        """Frequency-space psi block for one ladder radius (masked view of the master)."""
        return self.psi * self._masks[radius]

    def wick_values(self, radius: float) -> np.ndarray:
        """Physical-space Wick square block at the current time: the real part
        of the study-grid field whose transform is the radius's compact Wick
        transform.  A tracked radius reuses its tracked transform."""
        if self.track:
            wick_hat = self._wick_hat[radius]
        else:
            wick_hat = self._wick_hat_now(radius, *self._scratch([radius]))
        study = self.grid.inverse_values(self._rung(radius).to_study(wick_hat))
        return study.real.copy()

    def ipsi2_values(self, radius: float) -> np.ndarray:
        """Frequency-space <I Psi^2> block on the study grid at the current time."""
        return self._rung(radius).to_study(self._ipsi2[radius])

    def _scratch(self, radii: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """A flat complex and a flat real scratch array that hold the batch on
        the largest padded grid among `radii`; each rung views their front."""
        points = self.size * max(self._rung(r).padded.N ** self.grid.d for r in radii)
        return np.empty(points, dtype=np.complex128), np.empty(points)

    def _wick_hat_now(self, radius: float, work: np.ndarray, work_real: np.ndarray) -> np.ndarray:
        """The compact Wick transform of one radius at the current time,
        formed on the radius's padded grid in the scratch arrays of _scratch."""
        rung = self._rung(radius)
        shape = (self.size,) + rung.padded.shape
        points = self.size * rung.padded.N ** self.grid.d
        pad, real = work[:points].reshape(shape), work_real[:points].reshape(shape)
        pad.fill(0.0)
        rung.pad(self.psi, pad)
        c = self.times[self.k] * self._mass[radius]
        wick = wick_square_values(rung.padded, pad, c, out=real)
        return rung.compact(rung.padded.forward_values(wick, out=pad))

    @property
    def t(self) -> float:
        return float(self.times[self.k])

    def advance(self) -> None:
        """One time step for the whole batch: psi update, then tracked objects."""
        if self.k + 1 >= len(self.times):
            raise GridError("time grid exhausted")
        noise = self._noise
        block, row = noise.key(self.k)
        if row == 0:
            # a key block is drawn whole and turned at once into the
            # increments of the steps it covers up to T
            normals = np.empty((self.size,) + noise.block_shape)
            for b in range(self.size):
                gaussian_block(
                    self.seed, self.stream_offset + b, block, noise.block_shape, out=normals[b]
                )
            steps = min(noise.steps_per_key, len(self.times) - 1 - self.k)
            shape = (self.size, steps, len(noise.modes))
            if self._block is None or self._block.shape != shape:
                self._block = np.empty(shape, dtype=np.complex128)
            noise.increments(normals[:, :steps], out=self._block)
            del normals
            # operands in the formula's order: numpy's complex multiply is
            # not bit-commutative
            np.multiply(self._drive, self._block, out=self._block)
        # psi <- phase * psi + drive * I on the ball
        ball = np.take(self.psi.reshape(self.size, -1), noise.modes, axis=1)
        np.multiply(self._ball_phase, ball, out=ball)
        ball += self._block[:, row]
        self.psi.reshape(-1)[self._ball] = ball.reshape(-1)
        if noise.steps_per_key == 1 or self.k + 2 == len(self.times):
            # spent, and freed before the tracking scratch is allocated; a
            # block of several steps is held through them anyway, so its
            # array is kept for the next block
            self._block = None
        self.k += 1
        del ball
        if self.track:
            scratch = self._scratch(self.radii)
            for r in self.radii:
                new_hat = self._wick_hat_now(r, *scratch)
                rung = self._rung(r)
                duhamel_update(self._ipsi2[r], rung.phase, self._wick_hat[r], new_hat, self.dt)
                self._wick_hat[r] = new_hat

    def run(self) -> None:
        while self.k + 1 < len(self.times):
            self.advance()


def sample_paths(
    params: PaperParams,
    grid: SpectralGrid,
    seed: int,
    first: int = 0,
    count: int = 1,
    T: float = 0.5,
    K: int = 256,
) -> Iterator[StochasticPath]:
    """The full realizations of members first, ..., first + count - 1, in
    that order, with snapshots at the times uniform_times(T, K), steps of T / K.

    The members march as one PathEnsemble of `count` members, and the march
    keeps each member's psi and the tracked rung's compact transforms: count
    (K+1) (N^d + 2 C) complex values in all, C the rung's compact modes
    (about 2.1 MB per member at N = 256, K = 256, n = 32 on the 2 pi box).
    A member's Wick and <I Psi^2> snapshots are put on the study grid only
    when it is taken, one member at a time.  Each path is bit for bit the
    path sample_path gives its member alone.
    """
    ens = PathEnsemble(
        grid, params.alpha, [params.n], T, K, seed=seed, size=count, stream_offset=first, track=True
    )
    n, rung, times = params.n, ens._rung(params.n), ens.times
    levels = len(times)
    psi = np.empty((count, levels) + grid.shape, dtype=np.complex128)
    wick_hat = np.empty((count, levels) + rung.shape, dtype=np.complex128)
    ipsi2_hat = np.empty_like(wick_hat)
    for k in range(levels):
        if k:
            ens.advance()
        psi[:, k], wick_hat[:, k], ipsi2_hat[:, k] = ens.psi, ens._wick_hat[n], ens._ipsi2[n]
    del ens
    for b in range(count):
        wick = grid.inverse_values(rung.to_study(wick_hat[b])).real
        ipsi2 = rung.to_study(ipsi2_hat[b])
        yield StochasticPath(
            params=params,
            grid=grid,
            times=times,
            psi=[Field(grid, values, "frequency") for values in psi[b]],
            wick=[Field(grid, values, "physical") for values in wick],
            ipsi2=[Field(grid, values, "frequency") for values in ipsi2],
            seed=seed,
            stream_id=first + b,
        )


def sample_path(
    params: PaperParams,
    grid: SpectralGrid,
    seed: int,
    stream_id: int = 0,
    T: float = 0.5,
    K: int = 256,
) -> StochasticPath:
    """One full realization with snapshots at every grid time: sample_paths
    with the one member stream_id."""
    return next(sample_paths(params, grid, seed, stream_id, 1, T=T, K=K))


def zero_path(
    params: PaperParams, grid: SpectralGrid, T: float = 0.5, K: int = 256
) -> StochasticPath:
    """Noise-free path (all three objects identically zero); deterministic solver input."""
    times = uniform_times(T, K)
    zf = lambda space: Field(grid, np.zeros(grid.shape), space)  # noqa: E731
    return StochasticPath(
        params=params,
        grid=grid,
        times=times,
        psi=[zf("frequency") for _ in times],
        wick=[zf("physical") for _ in times],
        ipsi2=[zf("frequency") for _ in times],
        seed=0,
        stream_id=0,
    )


def wick_mean_identity_gap(path: StochasticPath, k: int) -> float:
    """Per-realization centering check at snapshot k.

    The spatial mean of the Wick square must equal the Parseval mass of psi
    minus c_n(t) exactly; returns the absolute gap (should be ~1e-16, asserted
    to 1e-10 in tests).
    """
    grid = path.grid
    w_mean = float(np.mean(path.wick[k].values.real))
    psi_mass = float(
        np.sum(np.abs(path.psi[k].values) ** 2) / grid.L ** (2 * grid.d)
    )
    c = path.times[k] * spectral_mass(grid, path.params.n, path.params.alpha)
    return abs(w_mean - (psi_mass - c))
