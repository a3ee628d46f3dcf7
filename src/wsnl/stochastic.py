"""Construction of the three stochastic objects per noise realization.

For one realization the frequency-space mode recursion

    psi_{k+1}(xi) = e^{i dt |xi|^2} psi_k(xi)
                    + (-i) (1+|xi|^2)^{-alpha/2} 1_{|xi|<=n} G_k(xi)

is exact in distribution for any step size: the Duhamel integrand has unimodular
phase, so the increment variance dt * L^d * (1+|xi|^2)^{-alpha} carries no
time-discretization bias.  The Wick square subtracts the exact discrete constant
c_n(t) (see reference.renorm_constant), and the Duhamel convolution of the Wick
square is accumulated per mode with the trapezoid rule (the one place a
quadrature error enters, second order in dt).

Coupling: one noise stream drives every truncation radius of a ladder, so the
difference psi_m - psi_n is exactly the coupled object; psi_n equals the
truncation mask applied to psi_m bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridError,
    SpectralGrid,
    bessel_weight,
    propagator_phase,
    truncation_mask,
)
from .noise import gaussian_block
from .reference import PaperParams, spectral_mass


def wick_square_values(grid: SpectralGrid, psi_hat: np.ndarray, c: float) -> np.ndarray:
    """|Psi|^2 - c in physical space for transforms psi_hat (leading batch axes
    allowed); c is the renormalization constant c_n(t)."""
    return np.abs(grid.inverse_values(psi_hat)) ** 2 - c


def duhamel_update(
    ipsi2_hat: np.ndarray,
    phase: np.ndarray,
    wick_hat_prev: np.ndarray,
    wick_hat_next: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One per-mode trapezoid step of the Duhamel convolution of the Wick square;
    phase is the propagator multiplier e^{i dt |xi|^2}."""
    return phase * ipsi2_hat + (-0.5j * dt) * (phase * wick_hat_prev + wick_hat_next)


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


class PathEnsemble:
    """B coupled realizations advanced in lockstep on a shared time grid.

    Every truncation radius in `radii` is driven by the same per-member noise,
    with the master state evolved at max(radii) and the others obtained by
    masking.  Wick transforms and Duhamel accumulators are kept per radius only
    when requested (they cost two transforms per radius per step).
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
        track_wick: bool = False,
        track_ipsi2: bool = False,
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
        self.track_wick = track_wick or track_ipsi2
        self.track_ipsi2 = track_ipsi2
        self.k = 0

        n_max = self.radii[-1]
        grid.check_radius(n_max)
        self._phase_cache: dict[float, np.ndarray] = {}
        self._bessel = bessel_weight(grid, -alpha)
        self._masks = {r: truncation_mask(grid, r) for r in self.radii}
        self._gain_master = self._bessel * self._masks[n_max]
        self._mass = {r: spectral_mass(grid, r, alpha) for r in self.radii}

        batch_shape = (size,) + grid.shape
        self.psi = np.zeros(batch_shape, dtype=np.complex128)
        if self.track_wick:
            # psi(0) = 0 and c_n(0) = 0, so the initial Wick transform is zero.
            self._wick_hat = {r: np.zeros(batch_shape, dtype=np.complex128) for r in self.radii}
        if self.track_ipsi2:
            self.ipsi2 = {r: np.zeros(batch_shape, dtype=np.complex128) for r in self.radii}

    def _phase(self, dt: float) -> np.ndarray:
        if dt not in self._phase_cache:
            self._phase_cache[dt] = propagator_phase(self.grid, dt)
        return self._phase_cache[dt]

    def psi_values(self, radius: float) -> np.ndarray:
        """Frequency-space psi block for one ladder radius (masked view of the master)."""
        return self.psi * self._masks[radius]

    def wick_values(self, radius: float) -> np.ndarray:
        """Physical-space Wick square block at the current time."""
        c = self.times[self.k] * self._mass[radius]
        return wick_square_values(self.grid, self.psi_values(radius), c)

    @property
    def t(self) -> float:
        return float(self.times[self.k])

    def advance(self) -> None:
        """One time step for the whole batch: psi update, then tracked objects."""
        if self.k + 1 >= len(self.times):
            raise GridError("time grid exhausted")
        dt = float(self.times[self.k + 1] - self.times[self.k])
        scale = np.sqrt(dt / self.grid.cell_volume)
        gauss = np.stack(
            [
                gaussian_block(self.seed, self.stream_offset + b, self.k, self.grid.shape)
                for b in range(self.size)
            ]
        )
        g_hat = self.grid.forward_values(scale * gauss)
        self.psi = self._phase(dt) * self.psi + (-1j) * self._gain_master * g_hat
        self.k += 1
        if self.track_wick:
            phase = self._phase(dt)
            for r in self.radii:
                new_hat = self.grid.forward_values(self.wick_values(r))
                if self.track_ipsi2:
                    self.ipsi2[r] = duhamel_update(
                        self.ipsi2[r], phase, self._wick_hat[r], new_hat, dt
                    )
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
        track_wick=True,
        track_ipsi2=True,
    )
    psi_snaps = [Field(grid, ens.psi[0].copy(), "frequency")]
    wick_snaps = [Field(grid, ens.wick_values(params.n)[0], "physical")]
    ipsi2_snaps = [Field(grid, ens.ipsi2[params.n][0].copy(), "frequency")]
    while ens.k + 1 < len(times):
        ens.advance()
        psi_snaps.append(Field(grid, ens.psi[0].copy(), "frequency"))
        wick_snaps.append(Field(grid, ens.wick_values(params.n)[0], "physical"))
        ipsi2_snaps.append(Field(grid, ens.ipsi2[params.n][0].copy(), "frequency"))
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
