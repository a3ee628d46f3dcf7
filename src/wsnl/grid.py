"""Periodic-box spectral substrate: grids, transforms, one spectral layout,
multipliers, two norms, one cutoff.

Transforms, multipliers and norms act on plain arrays whose trailing d axes
are the grid, batched over any leading axes.  Field is not an operand of any
of them: it is the tagged record of one snapshot level of a stochastic path
and of a solver's initial data, and callers pass its values.

ModeBox is the one layout of a set of modes: k in [-a, b] on every axis, in
fft order, with its Hermitian half and the exact completion of that half.
A grid's every mode is one (SpectralGrid.modes), and the forward transform
of a real field is the completion of its rfftn half spectrum at every d;
the solver's 2/3-mask modes and the ensemble's compact Wick modes are
others, which the box's block copies pack and unpack.

Conventions used by every module and every oracle in this package:

  forward transform    F f(xi_k) = dx^d * fftn(f)        (~ integral of f e^{-i<x,xi>} dx)
  inverse transform    f(x_j)    = (N/L)^d * ifftn(Ff)   (~ (2pi)^{-d} integral Ff e^{i<x,xi>} dxi)
  lattice dictionary   (2pi)^{-d} * integral dxi   ->   L^{-d} * sum over modes

Frequencies are xi_k = 2*pi*k/L for integer k in [-N/2, N/2) per axis, stored in
numpy fft order.  Physical coordinates are x_j = j*L/N on [0, L).  With these
choices inverse_values(forward_values(f)) == f to round-off, and Parseval reads
||f||_{L2}^2 = dx^d * sum|f|^2 = L^{-d} * sum|Ff|^2.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

# Guard against accidental huge allocations (N^d complex points per field).
MAX_POINTS = 2**26

SpaceTag = Literal["physical", "frequency"]


class GridError(ValueError):
    """Contract violation on grids, tags, or multiplier shapes."""


def check_points(d: int, N: int) -> None:
    """Reject N points per axis in d dimensions when N^d exceeds the budget."""
    if N**d > MAX_POINTS:
        raise GridError(f"N^d = {N**d} exceeds the point budget {MAX_POINTS}")


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic box [0, L)^d sampled on N points per axis.

    Parameters
    ----------
    d : int
        Space dimension (1, 2 or 3).
    L : float
        Box side length.
    N : int
        Points per dimension; must be even and >= 4.
    """

    d: int
    L: float
    N: int

    # derived arrays, filled in __post_init__
    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi_axis: np.ndarray = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)
    modes: ModeBox = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.N % 2 != 0 or self.N < 4:
            raise GridError(f"N must be even and >= 4, got {self.N}")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise GridError(f"L must be positive and finite, got {self.L}")
        check_points(self.d, self.N)
        object.__setattr__(self, "x", np.arange(self.N) * (self.L / self.N))
        xi = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.L / self.N)
        object.__setattr__(self, "xi_axis", xi)
        grids = np.meshgrid(*([xi] * self.d), indexing="ij")
        object.__setattr__(self, "xi2", sum(g**2 for g in grids))
        object.__setattr__(self, "modes", ModeBox(self.d, self.N // 2, self.N // 2 - 1))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    @property
    def nyquist(self) -> float:
        """Largest usable truncation radius, pi*N/L."""
        return np.pi * self.N / self.L

    def check_radius(self, n: float) -> None:
        if n > self.nyquist + 1e-12:
            raise GridError(
                f"truncation radius {n} exceeds the Nyquist bound pi*N/L = {self.nyquist:.6g}"
            )

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)

    # The transforms act on the trailing d axes so batched (B, N, ..., N)
    # arrays work unchanged.
    # Both transforms write into the array `out` when one is given; it may be
    # the input itself.  With half=True they take a real field to its half
    # spectrum and back (rfftn, irfftn): the last axis holds its N/2 + 1
    # modes 0 ... N/2, and the other modes follow by F(-xi) = conj(F(xi)).
    def forward_values(
        self,
        values: np.ndarray,
        out: np.ndarray | None = None,
        scale: float | np.ndarray | None = None,
        half: bool = False,
    ) -> np.ndarray:
        """Forward transform: of real input, the exact completion of its
        rfftn half spectrum (ModeBox.complete) at every d, or with half that
        half alone; complex input takes the full complex transform.  The raw
        transform is multiplied by `scale`, the cell volume when None; a
        caller that multiplies the result by a mask of 0s and 1s passes
        cell_volume * mask instead, which gives the same bits wherever the
        transform times the cell volume is finite."""
        if half:
            out = _fft(values, self.d, np.fft.rfft, np.fft.rfftn, out)
        elif np.iscomplexobj(values):
            out = _fft(values, self.d, np.fft.fft, np.fft.fftn, out)
        else:
            if out is None:
                out = np.empty(np.shape(values), dtype=np.complex128)
            values = np.asarray(values, dtype=np.float64)
            _fft(values, self.d, np.fft.rfft, np.fft.rfftn, out[..., : self.modes.front])
            self.modes.complete(out)
        out *= self.cell_volume if scale is None else scale
        return out

    def inverse_values(
        self,
        values: np.ndarray,
        out: np.ndarray | None = None,
        scale: float | None = None,
        half: bool = False,
    ) -> np.ndarray:
        """Inverse transform, real when half says values are a half spectrum.
        The raw transform is multiplied by `scale`, (N/L)^d when None; scale
        = 1 returns it raw, for a caller that folds (N/L)^d into a
        multiplier of its own."""
        if half:
            out = _fft(values, self.d, np.fft.irfft, np.fft.irfftn, out, n=self.N)
        else:
            out = _fft(values, self.d, np.fft.ifft, np.fft.ifftn, out)
        factor = (self.N / self.L) ** self.d if scale is None else scale
        if factor != 1.0:
            out *= factor
        return out


@dataclass(frozen=True)
class ModeBox:
    """The modes k in [-a, b] (a = b or b + 1) of each of the d trailing axes
    of a spectrum.  Its own layout is numpy fft order on size = a + b + 1
    points per axis (k = 0 ... b, then -a ... -1), and its Hermitian half,
    half_shape, is the first `front` = a + 1 entries of the last axis, from
    which complete() gives the rest.  A grid's every mode is the box a =
    N/2, b = N/2 - 1 (SpectralGrid.modes), whose half is rfftn's.  copy()
    moves the box's modes by blocks between fft-ordered spectra of any two
    sizes that hold them; blocks adjacent on both sides merge, so a box that
    is the whole of both arrays copies in one block."""

    d: int
    a: int
    b: int
    size: int = field(init=False)
    front: int = field(init=False)
    shape: tuple = field(init=False)
    half_shape: tuple = field(init=False)

    def __post_init__(self) -> None:
        size = self.a + self.b + 1
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "front", self.a + 1)
        object.__setattr__(self, "shape", (size,) * self.d)
        object.__setattr__(self, "half_shape", (size,) * (self.d - 1) + (self.a + 1,))

    @functools.cache
    def blocks(self, src: int, dst: int, half: bool = False) -> tuple[tuple[tuple, tuple], ...]:
        """(source, target) index pairs over the trailing axes that copy the
        box's modes (its half, when half) from spectra of src points per
        axis to spectra of dst points per axis, one block per sign of k per
        axis.  A half spectrum's last axis is indexed as the whole one's."""
        axes = [self._axis(src, dst, self.size)] * (self.d - 1)
        axes.append(self._axis(src, dst, self.front if half else self.size))
        return tuple(tuple(zip(*combo)) for combo in itertools.product(*axes))

    def _axis(self, src: int, dst: int, stop: int) -> list[tuple[slice, slice]]:
        """The (source, target) slices of one axis for the box's first stop
        entries: k = 0 ... b at the front, k = -a, -a + 1, ... at the back."""
        pos = min(stop, self.b + 1)
        neg, s, t = stop - pos, src - self.a, dst - self.a
        if neg and s == t == pos:
            return [(slice(0, stop), slice(0, stop))]
        pairs = [(slice(0, pos), slice(0, pos))]
        if neg:
            pairs.append((slice(s, s + neg), slice(t, t + neg)))
        return pairs

    def copy(
        self,
        values: np.ndarray,
        src: int | None = None,
        dst: int | None = None,
        out: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        add: bool = False,
        half: bool = False,
    ) -> np.ndarray:
        """The box's modes of spectra `values` (batched) of src points per
        axis on spectra of dst points (the box's size when None), in out
        when given, else as a fresh array, zero on the modes the box lacks;
        with add, those keep out's values and the box's are added.  rows,
        when given, are the rows of out (one leading axis) that receive
        values' rows; half copies Hermitian halves, into a given out unless
        dst is the box's size."""
        src, dst = src or self.size, dst or self.size
        if out is None:
            lead = np.shape(values)[: np.ndim(values) - self.d]
            shape = lead + (self.half_shape if half else (dst,) * self.d)
            out = (np.zeros if dst > self.size else np.empty)(shape, dtype=values.dtype)
        elif dst > self.size and not add:
            # at d = 1 the modes the box lacks lie between its two blocks
            gap = (slice(self.b + 1, dst - self.a),) if self.d == 1 else ()
            out[(Ellipsis,) + gap] = 0.0
        lead = (Ellipsis,) if rows is None else (rows,)
        for s, t in self.blocks(src, dst, half):
            if add:
                out[lead + t] += values[(Ellipsis,) + s]
            else:
                out[lead + t] = values[(Ellipsis,) + s]
        return out

    def holds(self, spectra: np.ndarray, n: int) -> bool:
        """Whether spectra (batched) of n points per axis vanish on every
        mode the box lacks."""
        outside = np.ones((n,) * self.d, dtype=bool)
        for s, _ in self.blocks(n, self.size):
            outside[s] = False
        return not np.any(spectra[..., outside])

    def complete(self, spectrum: np.ndarray) -> np.ndarray:
        """Complete in place, and return, box spectra (batched) of real
        fields whose half fills the first `front` entries of the last axis:
        every later entry is F(-xi) = conj(F(xi)), exactly.  On the other
        axes the mirror of index j is -j mod size, so at a = b + 1 the k =
        -a entry is its own, as a grid's Nyquist mode is."""
        M = self.size
        mirror = spectrum[..., M - self.front : 0 : -1]
        for axis in range(-self.d, -1):
            mirror = np.take(mirror, -np.arange(M) % M, axis=axis)
        np.conjugate(mirror, out=spectrum[..., self.front :])
        return spectrum


def _fft(values, d: int, one_d, n_d, out=None, n: int | None = None) -> np.ndarray:
    """numpy transform over the trailing d axes, of n points per axis (the
    input's when None); for d = 1 the 1-D routine gives the same result
    without the n-d routine's per-call set-up."""
    if d == 1:
        return one_d(values, n=n, axis=-1, out=out)
    return n_d(values, s=None if n is None else (n,) * d, axes=tuple(range(-d, 0)), out=out)


@dataclass(frozen=True)
class Field:
    """One complex scalar field on a grid, tagged physical- or frequency-space:
    a snapshot level of a StochasticPath or the initial data of SolverConfig.
    Its values are checked against the grid's shape and stored as complex."""

    grid: SpectralGrid
    values: np.ndarray
    space: SpaceTag

    def __post_init__(self) -> None:
        if self.space not in ("physical", "frequency"):
            raise GridError(f"unknown space tag {self.space!r}")
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise GridError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

def bessel_weight(grid: SpectralGrid, order: float) -> np.ndarray:
    """(1 + |xi|^2)^(order/2); order = -alpha smooths, order = +s weights Sobolev norms."""
    return (1.0 + grid.xi2) ** (0.5 * order)


def truncation_mask(grid: SpectralGrid, radius: float) -> np.ndarray:
    """Indicator of the closed ball |xi| <= radius on the frequency lattice."""
    if radius < 0:
        raise GridError(f"truncation radius must be >= 0, got {radius}")
    grid.check_radius(radius)
    return (grid.xi2 <= radius * radius).astype(np.float64)


def ball_extent(grid: SpectralGrid, radius: float) -> int:
    """Largest |k| on one axis among the lattice modes xi = 2 pi k / L of the
    closed ball |xi| <= radius (the ball's reach along an axis)."""
    grid.check_radius(radius)
    i = np.arange(grid.N)
    return int(np.minimum(i, grid.N - i)[grid.xi_axis**2 <= radius * radius].max())


def padded_points(grid: SpectralGrid, radius: float) -> int:
    """Points per axis of a grid on which |psi_n|^2 does not alias onto the
    modes the study grid keeps of it.

    psi_n lives on the modes |k| <= P per axis (P = ball_extent), so |psi_n|^2
    lives on |k| <= 2P, and the study grid keeps its modes |k| <= K with
    K = min(2P, N/2).  On M points a mode k' aliases onto k' - M j, so
    M > 2P + K keeps every kept mode clear of the others (padding dealiasing,
    Orszag 1971): M > 4P while 2P < N/2, and M > 2P + N/2 once the square
    reaches the study grid's Nyquist bound.  M is the smallest such even
    2-3-5-smooth count, and at least 4.
    """
    reach = ball_extent(grid, radius)
    m = max(4, 2 * reach + min(2 * reach, grid.N // 2) + 1)
    while m % 2 or not _five_smooth(m):
        m += 1
    return m


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def propagator_phase(grid: SpectralGrid, dt: float) -> np.ndarray:
    """Free Schrodinger group e^{-i dt Laplacian} as the multiplier e^{i dt |xi|^2}."""
    return np.exp(1j * dt * grid.xi2)


def two_thirds_mask(grid: SpectralGrid) -> np.ndarray:
    """2/3-rule dealiasing mask: keep |k| <= N/3 per axis."""
    keep = np.abs(np.fft.fftfreq(grid.N) * grid.N) <= grid.N / 3.0
    out = keep
    for _ in range(grid.d - 1):
        out = np.multiply.outer(out, keep)
    return out.astype(np.float64)


# ---------------------------------------------------------------------------
# Norms and products
# ---------------------------------------------------------------------------

def hs_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """The weight of weighted_norm_sq_hat for the squared H^s norm:
    (1 + |xi|^2)^s / L^d once for each float of a transform's interleaved
    (re, im) view, so every mode's value appears twice."""
    return np.repeat(bessel_weight(grid, 2.0 * s).reshape(-1), 2) / grid.L**grid.d


def half_weight(grid: SpectralGrid, weight: np.ndarray) -> np.ndarray:
    """weight, as built for weighted_norm_sq_hat on full spectra, for half
    spectra (forward_values with half=True): a mode whose mirror -xi the
    half spectrum leaves out (0 < k < N/2 on the last axis) counts twice, so
    a real field's half spectrum has the norm of its full spectrum."""
    h = grid.N // 2 + 1
    half = weight.reshape(grid.shape + (2,))[..., :h, :].copy()
    half[..., 1 : h - 1, :] *= 2.0
    return half.reshape(-1)


def weighted_norm_sq_hat(grid: SpectralGrid, f_hat: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum weight x^2 over the floats x of f_hat's interleaved (re, im) view,
    batched over leading axes: the one spectral norm, one einsum pass.  With
    weight = hs_weight(grid, s) it is the squared H^s norm
    L^{-d} sum (1 + |xi|^2)^s |f_hat|^2; callers that take many norms of one
    order build the weight once.

    Values are not checked: non-finite input gives a non-finite norm without a
    warning (einsum sets no floating-point flags), which is what the solver's
    blow-up test looks for.
    """
    f_hat = np.ascontiguousarray(f_hat, dtype=np.complex128)
    pairs = f_hat.view(np.float64).reshape(f_hat.shape[: f_hat.ndim - grid.d] + (-1,))
    return np.einsum("...i,...i,i->...", pairs, pairs, weight)


def sobolev_norm_hat(
    grid: SpectralGrid, f_hat: np.ndarray, s: float, p: float, chi: np.ndarray | None = None
) -> np.ndarray:
    """Discrete W^{s,p} norm of frequency-space values, batched over leading axes:
    L^p norm (cell-volume weighted) of the Bessel-weighted field, the one
    physical-space norm.  Given physical-space values chi, it is the norm of
    chi * (Id - Laplacian)^{s/2} f: weight first, localize after."""
    axes = tuple(range(-grid.d, 0))
    g = bessel_weight(grid, s) * f_hat
    grid.inverse_values(g, out=g)
    if chi is not None:
        np.multiply(chi, g, out=g)
    g_p = np.abs(g)
    del g
    g_p **= p
    sums = grid.cell_volume * np.sum(g_p, axis=axes)
    # the root is taken row by row with numpy's scalar power, so that a row's
    # norm does not depend on the batch around it: the array power takes other
    # paths (sqrt at p = 2, SIMD pow elsewhere) that differ in the last bit
    return np.array([x ** (1.0 / p) for x in np.ravel(sums)]).reshape(np.shape(sums))


def hs_norm_sq(grid: SpectralGrid, phys_values: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norm of physical-space values; supports leading batch axes.

    Equals sobolev_norm_hat(grid, forward_values(f), s, 2)**2 by Parseval.
    """
    return weighted_norm_sq_hat(grid, grid.forward_values(phys_values), hs_weight(grid, s))


def l2_norm(grid: SpectralGrid, phys_values: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.abs(phys_values) ** 2)))


# ---------------------------------------------------------------------------
# Compactly supported cutoff in product form
# ---------------------------------------------------------------------------

def bump_profile(u: np.ndarray) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - u^2)) on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class CutoffRho:
    """Product-form cutoff rho(x) = b(u_1) ... b(u_d), b = bump_profile and
    u = (x - L/2)/(L/4) per axis: its support [L/4, 3L/4]^d leaves an L/4
    margin on every axis, so the periodization sees no wrap-around."""

    @classmethod
    def for_grid(cls, grid: SpectralGrid) -> "CutoffRho":
        """The cutoff of a grid's box, the one every caller uses."""
        return cls()

    def evaluate(self, grid: SpectralGrid) -> np.ndarray:
        """rho on the grid, exactly the product of the per-axis samples."""
        out = axis = bump_profile((grid.x - grid.L / 2.0) / (grid.L / 4.0))
        for _ in range(grid.d - 1):
            out = np.multiply.outer(out, axis)
        return out

    def spectral_tail_ratio(self, grid: SpectralGrid, band: float = 0.85) -> float:
        """Max |rho_hat| in the top frequency band relative to the overall max,
        on this specific grid (a resolution diagnostic)."""
        rho_hat = grid.forward_values(self.evaluate(grid).astype(np.complex128))
        mags = np.abs(rho_hat)
        xi_inf = np.abs(grid.xi_axis)
        high = xi_inf >= band * grid.nyquist
        for _ in range(grid.d - 1):
            high = np.logical_or.outer(high, np.abs(grid.xi_axis) >= band * grid.nyquist)
        return float(mags[high].max() / mags.max())
