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
the Wick square reaches, a grid.ModeBox whose block copies move them between
the padded grid, the compact arrays and the study grid.  The padded grid's
transform of the real Wick square is the exact completion of its half
spectrum, so at d = 1 the Wick transform is stored on its Hermitian half.

Coupling: one noise stream drives every truncation radius of a ladder, so the
difference psi_m - psi_n is exactly the coupled object; psi_n equals the
truncation mask applied to psi_m bit for bit.  A member's normals are keyed by
(seed, member, block of steps) alone, so its path does not depend on the chunk
it runs in, its neighbours or the thread count.  They are drawn for the ball
of the ladder's top radius, so a standalone path of radius n is not the rung
n of a taller ladder's member.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridError,
    ModeBox,
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


def _runs(modes: np.ndarray) -> list[tuple[slice, slice]]:
    """(grid, listed) slice pairs, one per maximal run of `modes` whose flat
    grid indices step by +1 or -1 (the indices are distinct, so a run never
    turns back): grid[..., g] = listed[..., l] for every pair puts values
    listed in the order of `modes` on the flattened grid.  The ball's
    modes in the sampler's order (ModeNoise) are at most four runs at d = 1
    and about two per row of the ball at d = 2."""
    breaks = (np.flatnonzero(np.abs(np.diff(modes)) != 1) + 1).tolist()
    pairs = []
    for i, j in zip([0, *breaks], [*breaks, len(modes)]):
        step = int(modes[i + 1] - modes[i]) if j - i > 1 else 1
        stop = int(modes[j - 1]) + step
        pairs.append((slice(int(modes[i]), None if stop < 0 else stop, step), slice(i, j)))
    return pairs


class _Rung:
    """The padded grid and compact modes of one truncation radius.

    psi_n lives on the modes |k| <= P per axis (P = ball_extent) and |psi_n|^2
    on |k| <= 2P.  The compact modes, `modes`, are the ModeBox of those of
    |k| <= 2P that the study grid holds, and the padded grid holds them free
    of aliasing.  Study, padded and compact arrays are all in numpy fft
    order, and the box's block copies move modes between them (ModeBox.copy:
    src or dst the padded grid's or the study grid's points).  `phase` is the
    propagator multiplier of the ensemble's step on the compact modes, taken
    from the study grid's `phase` when the rung is built.

    A Wick transform is stored on the first `front` compact modes of the
    last axis, `stored_shape` in all, and complete() gives back the rest.
    At d = 1 that is its Hermitian half, the modes 0 ... min(2P, N/2 - 1)
    and the lone -N/2 when the compact modes reach it, whose mirror N/2 they
    lack: the padded grid's forward transform of a real field is the exact
    completion of its half spectrum (SpectralGrid.forward_values), so the
    other modes are exactly conj(F(-xi)).  At d >= 2 every compact mode is
    stored: when the compact modes reach -N/2, that lone mode on the axes
    before the last has no mirror among them either, and the half does not
    give them back.
    """

    def __init__(self, grid: SpectralGrid, radius: float, phase: np.ndarray) -> None:
        P, half, d = ball_extent(grid, radius), grid.N // 2, grid.d
        self.grid = grid
        self.padded = SpectralGrid(d, grid.L, padded_points(grid, radius))
        self.modes = ModeBox(d, min(2 * P, half), min(2 * P, half - 1))
        self.shape = self.modes.shape
        self.front = self.modes.front if d == 1 else self.modes.size
        self.stored_shape = self.shape[:-1] + (self.front,)
        # psi_n's modes, the ball's box |k| <= P; at d = 1 the ball is that
        # box, and at d >= 2 its mask picks the ball from the box
        self._psi_modes = ModeBox(d, min(P, half), min(P, half - 1))
        self._ball = None if d == 1 else truncation_mask(grid, radius) > 0
        self.phase = self.modes.copy(phase, src=grid.N)

    def pad(self, psi: np.ndarray, out: np.ndarray) -> None:
        """Write psi_n, the ball's modes of psi and zero at every other mode,
        into `out` on the padded grid."""
        if self._ball is None:
            self._psi_modes.copy(psi, self.grid.N, self.padded.N, out=out)
            return
        out.fill(0.0)
        for src, dst in self._psi_modes.blocks(self.grid.N, self.padded.N):
            np.copyto(out[(Ellipsis,) + dst], psi[(Ellipsis,) + src], where=self._ball[src])

    def to_study(self, compact_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A compact array on the study grid, zero on the modes it lacks, in
        out when given, else as a fresh array."""
        return self.modes.copy(compact_hat, dst=self.grid.N, out=out)

    def complete(self, stored: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The compact Wick transform whose stored modes are `stored`, in out
        when given, else as a fresh array: exact, the mirror modes F(-xi) =
        conj(F(xi)) at d = 1."""
        if out is None:
            out = np.empty(np.shape(stored)[:-1] + self.shape[-1:], dtype=np.complex128)
        out[..., : self.front] = stored
        return self.modes.complete(out) if self.grid.d == 1 else out


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
    study grid; a Wick transform, which is real's, on their Hermitian half
    at d = 1 (_Rung.front).

    advance() updates `psi` and the stored Wick transforms and Duhamel
    accumulators in place (the Duhamel step completes the previous Wick
    transform at the front of the padded-grid scratch, and consumes it
    there): an array taken from them before a step changes during it, so
    callers copy what they keep.  Callers read study-grid arrays through
    psi_values(), wick_values() and ipsi2_values(), which return fresh
    arrays, or write them into `out`; sample_paths copies the stored arrays
    instead and puts each member's whole path on the study grid at once.
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
        # the ball's entries of each member's flattened psi, as slices: they
        # scatter faster than psi[:, modes] and hold no (B, modes) index
        self._ball_runs = _runs(self._noise.modes)
        # drive * I for the steps of every member's current key block
        self._block: np.ndarray | None = None
        # advance()'s scratch when its caller gives none (see advance)
        self._work: np.ndarray | None = None
        self.psi = np.zeros((size,) + grid.shape, dtype=np.complex128)
        if track:
            # psi(0) = 0 and c_n(0) = 0, so the initial Wick transform is zero.
            self._wick_hat = {r: self._zeros(self._rung(r).stored_shape) for r in self.radii}
            self._ipsi2 = {r: self._zeros(self._rung(r).shape) for r in self.radii}

    def _rung(self, radius: float) -> _Rung:
        if radius not in self._rungs:
            self._rungs[radius] = _Rung(self.grid, radius, self._phase)
        return self._rungs[radius]

    def _zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros((self.size,) + shape, dtype=np.complex128)

    def psi_values(self, radius: float, out: np.ndarray | None = None) -> np.ndarray:
        """Frequency-space psi block for one ladder radius (the master,
        masked), in out when given, else as a fresh array."""
        return np.multiply(self.psi, self._masks[radius], out=out)

    def wick_values(self, radius: float) -> np.ndarray:
        """Physical-space Wick square block at the current time: the real part
        of the study-grid field whose transform is the radius's compact Wick
        transform.  A tracked radius completes its stored transform."""
        rung = self._rung(radius)
        if self.track:
            wick_hat = rung.complete(self._wick_hat[radius])
        else:
            wick_hat = self._wick_hat_now(radius, *self._scratch([radius]))
        study = self.grid.inverse_values(rung.to_study(wick_hat))
        return study.real.copy()

    def ipsi2_values(self, radius: float, out: np.ndarray | None = None) -> np.ndarray:
        """Frequency-space <I Psi^2> block on the study grid at the current
        time, in out when given, else as a fresh array."""
        return self._rung(radius).to_study(self._ipsi2[radius], out)

    @property
    def scratch_size(self) -> int:
        """The complex values of the scratch advance() takes: a key block's
        normals, then psi's entries on the ball, then a tracked step's
        complex array on the largest padded grid, followed by its real one
        and then, in the real one's place, the compact transform."""
        normals = self.size * math.prod(self._noise.block_shape)
        ball = self.size * len(self._noise.modes)
        if not self.track:
            return max((normals + 1) // 2, ball)
        points = self._points(self.radii)
        compact = self.size * max(math.prod(self._rung(r).shape) for r in self.radii)
        return max((normals + 1) // 2, ball, points + max((points + 1) // 2, compact))

    def member_bytes(self, scratch: int | None = None) -> int:
        """The bytes the march holds per member while it steps: psi, the
        tracked Wick and <I Psi^2> transforms, a key block's increments and
        advance()'s scratch, or in its place a caller's buffer of `scratch`
        complex values."""
        noise = self._noise
        steps = min(noise.steps_per_key, len(self.times) - 1)
        values = self.psi.size + self.size * steps * len(noise.modes)
        values += self.scratch_size if scratch is None else scratch
        if self.track:
            values += sum(a.size for a in [*self._wick_hat.values(), *self._ipsi2.values()])
        return self.psi.itemsize * values // self.size

    def _points(self, radii: list[float]) -> int:
        return self.size * max(self._rung(r).padded.N ** self.grid.d for r in radii)

    def _scratch(self, radii: list[float], work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """A flat complex and a flat real scratch array that hold the batch on
        the largest padded grid among `radii`, taken from the flat complex
        array work when given; each rung views their front."""
        points = self._points(radii)
        if work is None:
            return np.empty(points, dtype=np.complex128), np.empty(points)
        return work[:points], work[points:].view(np.float64)[:points]

    def _wick_hat_now(
        self, radius: float, work: np.ndarray, work_real: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The compact Wick transform of one radius at the current time,
        formed on the radius's padded grid in the scratch arrays of
        _scratch, in out when given (not in work), else as a fresh array."""
        rung = self._rung(radius)
        shape = (self.size,) + rung.padded.shape
        points = self.size * rung.padded.N ** self.grid.d
        pad, real = work[:points].reshape(shape), work_real[:points].reshape(shape)
        rung.pad(self.psi, pad)
        c = self.times[self.k] * self._mass[radius]
        wick = wick_square_values(rung.padded, pad, c, out=real)
        return rung.modes.copy(rung.padded.forward_values(wick, out=pad), src=rung.padded.N, out=out)

    @property
    def t(self) -> float:
        return float(self.times[self.k])

    def advance(self, work: np.ndarray | None = None) -> None:
        """One time step for the whole batch: psi update, then tracked
        objects.  work, when given, is a flat complex array of at least
        scratch_size values that the normals of a key block, psi's entries
        on the ball and then the tracking take in turn as their scratch;
        else the ensemble takes its own.  A tracked ensemble keeps its own
        from its first step to its last, since every tracked step fills it
        and a fresh one would fault its pages in again; an untracked one
        drops it after each step, whose scratch is psi's ball entries
        unless a key block starts, so it holds no key block's normals
        between them."""
        if self.k + 1 >= len(self.times):
            raise GridError("time grid exhausted")
        if work is None:
            if self._work is None:
                self._work = np.empty(self.scratch_size, dtype=np.complex128)
            work = self._work
        noise = self._noise
        block, row = noise.key(self.k)
        if row == 0:
            # a key block is drawn whole and turned at once into the
            # increments of the steps it covers up to T
            shape = (self.size,) + noise.block_shape
            normals = work.view(np.float64)[: math.prod(shape)].reshape(shape)
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
        # psi <- phase * psi + drive * I on the ball, formed in work (take's
        # mode "clip", which valid indices never meet, spares it the buffer
        # it makes for out= in its default mode)
        ball_out = work[: self.size * len(noise.modes)].reshape(self.size, -1)
        psi = self.psi.reshape(self.size, -1)
        ball = np.take(psi, noise.modes, axis=1, mode="clip", out=ball_out)
        np.multiply(self._ball_phase, ball, out=ball)
        ball += self._block[:, row]
        for on_grid, in_ball in self._ball_runs:
            psi[:, on_grid] = ball[:, in_ball]
        if noise.steps_per_key == 1 or self.k + 2 == len(self.times):
            # spent, and freed; a block of several steps is held through
            # them anyway, so its array is kept for the next block
            self._block = None
        self.k += 1
        del psi, ball, ball_out
        if self.track:
            pad, real = self._scratch(self.radii, work)
            for r in self.radii:
                rung = self._rung(r)
                shape = (self.size,) + rung.shape
                # the real field is spent once transformed, and the compact
                # transform takes its place; the padded one is spent once
                # compact() has returned, and the previous Wick transform is
                # completed in its place
                new_hat = work[len(pad) :][: math.prod(shape)].reshape(shape)
                self._wick_hat_now(r, pad, real, out=new_hat)
                prev = pad[: new_hat.size].reshape(shape)
                rung.complete(self._wick_hat[r], out=prev)
                duhamel_update(self._ipsi2[r], rung.phase, prev, new_hat, self.dt)
                self._wick_hat[r][...] = new_hat[..., : rung.front]
        if self.k + 1 == len(self.times) or not self.track:
            self._work = None

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
    keeps each level once, on the modes it fills: psi on the ball's box
    (_Rung._psi_modes; psi vanishes off the ball) and the tracked rung's
    stored transforms, count (K+1) (B + C + S) complex values in all, B the
    box's modes, C the rung's compact modes and S those its Wick transform
    stores (_Rung.front; about 1.07 MB per member at N = 256, K = 256, n =
    32 on the 2 pi box).  A member's snapshots are put on the study grid
    only when it is taken, one member at a time, and its Wick Fields are
    rows of one complex inverse transform whose imaginary part is set to
    zero.  Each path is bit for bit the path sample_path gives its member
    alone.
    """
    ens = PathEnsemble(
        grid, params.alpha, [params.n], T, K, seed=seed, size=count, stream_offset=first, track=True
    )
    n, rung, times = params.n, ens._rung(params.n), ens.times
    box, levels = rung._psi_modes, len(times)
    psi_box = np.empty((count, levels) + box.shape, dtype=np.complex128)
    wick_hat = np.empty((count, levels) + rung.stored_shape, dtype=np.complex128)
    ipsi2_hat = np.empty((count, levels) + rung.shape, dtype=np.complex128)
    for k in range(levels):
        if k:
            ens.advance()
        box.copy(ens.psi, src=grid.N, out=psi_box[:, k])
        wick_hat[:, k], ipsi2_hat[:, k] = ens._wick_hat[n], ens._ipsi2[n]
    del ens
    for b in range(count):
        psi = box.copy(psi_box[b], dst=grid.N)
        wick = grid.inverse_values(rung.to_study(rung.complete(wick_hat[b])))
        wick.imag = 0.0
        ipsi2 = rung.to_study(ipsi2_hat[b])
        yield StochasticPath(
            params=params,
            grid=grid,
            times=times,
            psi=[Field(grid, values, "frequency") for values in psi],
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
