"""Construction of the three stochastic objects per noise realization.

For one realization the frequency-space mode recursion

    psi_{k+1}(xi) = e^{i dt |xi|^2} psi_k(xi) + (-i) (1+|xi|^2)^{-alpha/2} I_k(xi),

on the truncation ball |xi| <= n, adds each step's exact exponentially
weighted noise increment I_k(xi) = int e^{i(t_{k+1}-s)|xi|^2} dW(s, xi)
(noise.ModeNoise), sampled per mode on the ball only: no other mode is drawn
and no transform is taken.  psi is therefore exact in distribution at any
step size, for the conjugate pairing E[psi psi-bar] and for the plain pairing
E[psi(xi) psi(-xi)] alike, at every time of the grid and jointly across times.
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
    padded and compact arrays are all in numpy fft order.
    """

    def __init__(self, grid: SpectralGrid, radius: float) -> None:
        P, half, d = ball_extent(grid, radius), grid.N // 2, grid.d
        a, b = min(2 * P, half), min(2 * P, half - 1)
        self.grid = grid
        self.padded = SpectralGrid(d, grid.L, padded_points(grid, radius))
        self.shape = (a + b + 1,) * d
        self._ball = truncation_mask(grid, radius) > 0
        self._psi_blocks = _blocks(d, min(P, half), min(P, half - 1), grid.N, self.padded.N)
        self._from_padded = _blocks(d, a, b, self.padded.N, a + b + 1)
        self._to_study = _blocks(d, a, b, a + b + 1, grid.N)
        self._phases: dict[float, np.ndarray] = {}

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

    def phase(self, phase: np.ndarray, dt: float) -> np.ndarray:
        """The study grid's propagator phase for step dt on the compact modes."""
        if dt not in self._phases:
            self._phases[dt] = self._copy([(t, s) for s, t in self._to_study], phase, self.shape)
        return self._phases[dt]


class PathEnsemble:
    """B coupled realizations advanced in lockstep on a shared time grid.

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
    sample_path copies the compact arrays instead and puts a whole path on the
    study grid at once.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        alpha: float,
        radii: list[float],
        times: np.ndarray,
        seed: int,
        size: int,
        stream_offset: int = 0,
        track: bool = False,
    ) -> None:
        if len(times) < 2 or np.any(np.diff(times) <= 0):
            raise GridError("times must be strictly increasing with at least one step")
        if times[0] != 0.0:
            raise GridError("time grid must start at 0 (Psi(0,.) = 0)")
        self.grid = grid
        self.alpha = float(alpha)
        self.radii = sorted(float(r) for r in radii)
        self.times = np.asarray(times, dtype=np.float64)
        self.seed = int(seed)
        self.size = int(size)
        self.stream_offset = int(stream_offset)
        self.track = track
        self.k = 0

        n_max = self.radii[-1]
        grid.check_radius(n_max)
        self._phase_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._masks = {r: truncation_mask(grid, r) for r in self.radii}
        self._mass = {r: spectral_mass(grid, r, alpha) for r in self.radii}
        self._rungs: dict[float, _Rung] = {}

        # the noise is drawn and psi advanced on the ball's modes only, in
        # the sampler's order; psi stays zero outside the ball
        self._noise = ModeNoise(grid, self._masks[n_max] > 0)
        self._drive = (-1j) * bessel_weight(grid, -alpha).reshape(-1)[self._noise.modes]
        self._rows = np.arange(size)[:, None]  # with modes, the ball's entries of psi
        # drive * I for the steps of every member's current key block
        self._block: np.ndarray | None = None
        self.psi = np.zeros((size,) + grid.shape, dtype=np.complex128)
        if track:
            # psi(0) = 0 and c_n(0) = 0, so the initial Wick transform is zero.
            self._wick_hat = {r: self._compact_zeros(r) for r in self.radii}
            self._ipsi2 = {r: self._compact_zeros(r) for r in self.radii}

    def _rung(self, radius: float) -> _Rung:
        if radius not in self._rungs:
            self._rungs[radius] = _Rung(self.grid, radius)
        return self._rungs[radius]

    def _compact_zeros(self, radius: float) -> np.ndarray:
        return np.zeros((self.size,) + self._rung(radius).shape, dtype=np.complex128)

    def _phase(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """The propagator phase for step dt on the study grid and on the ball."""
        if dt not in self._phase_cache:
            phase = propagator_phase(self.grid, dt)
            self._phase_cache[dt] = phase, phase.reshape(-1)[self._noise.modes]
        return self._phase_cache[dt]

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
        dt = float(self.times[self.k + 1] - self.times[self.k])
        phase, ball_phase = self._phase(dt)
        noise = self._noise
        block, row = noise.key(self.k)
        if row == 0:
            # a key block is drawn whole and turned at once into the
            # increments of the steps it covers on this time grid
            normals = np.empty((self.size,) + noise.block_shape)
            for b in range(self.size):
                gaussian_block(
                    self.seed, self.stream_offset + b, block, noise.block_shape, out=normals[b]
                )
            dts = np.diff(self.times[self.k : self.k + noise.steps_per_key + 1])
            shape = (self.size, len(dts), len(noise.modes))
            if self._block is None or self._block.shape != shape:
                self._block = np.empty(shape, dtype=np.complex128)
            noise.increments(normals[:, : len(dts)], dts, out=self._block)
            del normals
            # operands in the formula's order: numpy's complex multiply is
            # not bit-commutative
            np.multiply(self._drive, self._block, out=self._block)
        # psi <- phase * psi + drive * I on the ball
        entries = (self._rows, noise.modes)
        psi = self.psi.reshape(self.size, -1)
        ball = psi[entries]
        np.multiply(ball_phase, ball, out=ball)
        ball += self._block[:, row]
        psi[entries] = ball
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
                rung_phase = self._rung(r).phase(phase, dt)
                duhamel_update(self._ipsi2[r], rung_phase, self._wick_hat[r], new_hat, dt)
                self._wick_hat[r] = new_hat

    def run(self) -> None:
        while self.k + 1 < len(self.times):
            self.advance()


def sample_path(
    params: PaperParams,
    grid: SpectralGrid,
    seed: int,
    stream_id: int = 0,
    T: float = 0.5,
    K: int = 256,
    times: np.ndarray | None = None,
) -> StochasticPath:
    """Build one full realization with snapshots at every grid time."""
    times = uniform_times(T, K) if times is None else np.asarray(times, dtype=np.float64)
    ens = PathEnsemble(
        grid,
        params.alpha,
        [params.n],
        times,
        seed=seed,
        size=1,
        stream_offset=stream_id,
        track=True,
    )
    # the march keeps the tracked rung's compact transforms; they are put on
    # the study grid, and the Wick snapshots transformed, once at the end
    n, rung = params.n, ens._rung(params.n)
    psi = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    wick_hat = np.empty((len(times),) + rung.shape, dtype=np.complex128)
    ipsi2_hat = np.empty_like(wick_hat)
    for k in range(len(times)):
        if k:
            ens.advance()
        psi[k], wick_hat[k], ipsi2_hat[k] = ens.psi[0], ens._wick_hat[n][0], ens._ipsi2[n][0]
    wick = grid.inverse_values(rung.to_study(wick_hat)).real
    ipsi2 = rung.to_study(ipsi2_hat)
    psi_snaps = [Field(grid, values, "frequency") for values in psi]
    wick_snaps = [Field(grid, values, "physical") for values in wick]
    ipsi2_snaps = [Field(grid, values, "frequency") for values in ipsi2]
    return StochasticPath(
        params=params,
        grid=grid,
        times=times,
        psi=psi_snaps,
        wick=wick_snaps,
        ipsi2=ipsi2_snaps,
        seed=seed,
        stream_id=stream_id,
    )


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
