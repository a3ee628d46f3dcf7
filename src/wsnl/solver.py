"""Exponential Duhamel time stepping for the remainder equation v = u - Psi.

v is driven by R = rho^2 <I Psi^2>, which the step integrates exactly, so the
march carries z = v - R, which obeys the exponential trapezoid with no R term
(Hochbruck & Ostermann, Acta Numerica 19, 2010):

    z_{k+1} = e^{-i dt Lap} (z_k + h N_k) + h N_{k+1},   h = -i dt/2,

with N_k = N(z_k + R(t_k)) and N(v) = rho^2 |v|^2 + (rho conj(v))(rho Psi) +
(rho v) conj(rho Psi) evaluated pointwise in physical space
(nonlinearity_values).  R enters only there, in physical space: rho vanishes
outside the box [L/4, 3L/4]^d of its support (Support), so level() stores
2 rho Psi and R on that box alone, and N is formed on it.  The implicit
endpoint is resolved by Picard iteration (step_values) from

    z_{k+1}^(0) = fixed = e^{-i dt Lap} (z_k + h N_k),

every term of the step but h N_{k+1} (plus h F(forcing) at t_{k+1}).  h and
the 2/3 mask are real-symmetric and N is real, so a correction h N is
imaginary in physical space: on the box, Re w = Re rho (z + R) never moves
within a step, and the iteration (_picard_on_box) carries Im w alone, with
one real forward transform of N per iteration and one real inverse when it
goes on (SpectralGrid's half-spectrum transforms, at every d).  Picard
increments are measured in the discrete H^{-s} norm on the half spectrum,
and a member's residual is the contraction bound theta/(1 - theta) x
increment on its distance to the fixed point, the stopping rule of implicit
Runge-Kutta codes (Hairer & Wanner, Solving ODEs II, IV.8; see step_values);
each member stops at its own bound.  h, the cell volume and the 2/3 mask are
folded into the forward transform's scale (nonlinearity_scale), so the march
carries h N.  The global mode evaluates N on whole spectra through
nonlinearity_values, whose forward transform of the real N is the exact
completion of its rfftn half spectrum (SpectralGrid.forward_values).

This module is the only place that marches the equation.  level() is the one
builder of a march's inputs: it localizes Psi and <I Psi^2> at one time, or at
every time of a stacked path, and adds the forcing.  RemainderStepper is the
step-local loop: it starts from v and a Level built so, forms h N there at
once, and between steps holds z and h N's Carry alone, no Level: h N = i G
with G the spectrum of a real field, carried as G's half spectrum (plus h F
with a forcing), so N(t_k) costs no transform and a step rebuilds i G in its
scratch.  A march that dealiases from a z that vanishes off the 2/3 mask
keeps z and G on the mask's modes alone (two_thirds_modes, a grid.ModeBox,
whose block copies pack and unpack them): every correction h N is masked
(Orszag, J. Atmos. Sci. 28, 1971), so z stays zero off them; any other
march keeps every mode (SpectralGrid.modes).  The constants every step
reads are built once per march (Stepping), and a step's scratch is one flat
workspace() that marches stepping in turn may share.  The coupled convergence study drives
one stepper per truncation radius over a batch of ensemble members, all
five on one Stepping and one workspace, which the ensemble's advance() and
each level() also take.  solve() stacks a path's
K+1 time levels once and localizes them in one level() call; its step-local
mode drives one stepper over the rows of that stack.  Both marches start
from z_0 = phi - R(0), and a caller that reads v forms v = z + R once where
it reads it, with the R of its own Level there: the stepper's v_hat(r), the
convergence study for each pair of rungs at T, solve() in one batched
transform over the levels it reached, with v(0) = phi exactly.  Every caller
reads v, never u = v + Psi, which a caller that wants it forms itself.  Every
march takes the one step config.dt, whose propagator phase it builds once;
solve() accepts only a path whose every step is config.dt.  solve(mode="global") is a separate algorithm,
the fixed-point iteration of the whole-trajectory contraction map on z: each
sweep evaluates N at every level in one batched call, forms every step's
Duhamel term with two array operations, and measures the step between
iterates with one batched traces call.  Only the two-operation Duhamel
recurrence D_{k+1} = e^{-i dt Lap} D_k + term_k runs level by level; its
prefix-sum form would change the bits.  Both modes take the traces of the v
they reach in one batched call.  All norms come from grid.py.

Loss of regularity (the H^{-s} norm of z = v - R above BLOWUP_NORM, or
non-finite values) is a first-class outcome: R is finite and O(1) against
BLOWUP_NORM, so the test reads z.  A failed step is flagged, never raised;
a stepper's later steps neither iterate nor transform a flagged member, the
convergence study excludes the flagged members, and solve() returns the
partial trajectory and a failure record, built by one rule for both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    CutoffRho,
    Field,
    GridError,
    ModeBox,
    SpectralGrid,
    half_weight,
    hs_weight,
    propagator_phase,
    sobolev_norm_hat,
    two_thirds_mask,
    weighted_norm_sq_hat,
)
from .reference import PaperParams
from .stochastic import StochasticPath

BLOWUP_NORM = 1e8
# step-local Picard stops once the worst healthy member's contraction bound
# on its distance to the fixed point is at most PICARD_TOL, or after
# PICARD_MAX iterations; global sweeps stop once their last distance is at
# most PICARD_TOL
PICARD_TOL = 1e-10
PICARD_MAX = 50

# the Y(T) integrands of a stack of time levels, one array of values per norm
Traces = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class StepFailure:
    """The time step a solve could not accept: where its trajectory ends."""

    kind: str  # "picard" or "blowup"
    time: float
    step_index: int
    residual: float
    iterations: int

    def __str__(self) -> str:
        return (
            f"{self.kind} failure at t = {self.time:.6g} (step {self.step_index}): "
            f"residual {self.residual:.3e} after {self.iterations} iterations"
        )


@dataclass
class SolverConfig:
    params: PaperParams
    rho: CutoffRho | None
    phi: Field | None = None
    dt: float = 0.5 / 256
    T: float = 0.5
    dealias: bool = True
    mode: str = "step-local"  # or "global"
    forcing: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise GridError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.T <= 1.0:
            raise GridError(f"T must lie in (0, 1], got {self.T}")
        if self.mode not in ("step-local", "global"):
            raise GridError(f"unknown solver mode {self.mode!r}")
        if self.phi is not None and self.phi.space != "physical":
            raise GridError(f"phi must be given in physical space, got {self.phi.space!r}")


class Level(NamedTuple):
    """The inputs of one time level, already localized: 2 rho Psi and R =
    rho^2 <I Psi^2> in physical space on the box of rho's support (None
    without a cutoff), and the physical-space forcing on the whole grid (None
    without one).  solve() also keeps a whole path in one Level, each array
    with a leading axis of time levels."""

    two_rho_psi: np.ndarray | None
    r: np.ndarray | None
    forcing: np.ndarray | None


class Carry(NamedTuple):
    """h N at a time level, as a step hands it to the next: i G + full, where
    g is the half spectrum (modes 0 ... N/2 of the last axis) of G, the
    transform of a real field (N is real, and h and the 2/3 mask are
    real-symmetric), and full is a full spectrum; None stands for zero.
    Without a forcing a march carries g alone, half of a complex h N; with
    one, full is h F(forcing) there."""

    g: np.ndarray | None
    full: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Support:
    """The smallest box of grid points outside which rho vanishes, as an
    index (..., slice per grid axis) that picks it from any batched array,
    and rho's values there, with 2 rho and rho^2, which level() multiplies
    by, formed once."""

    box: tuple
    rho: np.ndarray
    two_rho: np.ndarray = field(init=False, repr=False)
    rho_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "two_rho", 2.0 * self.rho)
        object.__setattr__(self, "rho_sq", self.rho * self.rho)


def support(rho_vals: np.ndarray | None) -> Support | None:
    """The Support of rho's grid values; None without a cutoff.  The cutoff's
    support is [L/4, 3L/4]^d, so at d = 1 the box holds half the points."""
    if rho_vals is None:
        return None
    box: list = [Ellipsis]
    for axis in range(rho_vals.ndim):
        others = tuple(a for a in range(rho_vals.ndim) if a != axis)
        hits = np.flatnonzero(np.any(rho_vals, axis=others))
        box.append(slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0))
    return Support(tuple(box), rho_vals[tuple(box)])


class Stepping(NamedTuple):
    """What every step of a march reads and no step changes, built once per
    march by stepping(): the cutoff's Support; the ModeBox of the modes the
    march stores of z and G; h_scale = nonlinearity_scale on the whole grid
    and its imaginary part on the half spectrum (h_scale = i half_scale); the
    H^{-s} weight of Picard increments on the half spectrum; (N/L)^d rho on
    the box; and, on the stored modes, the propagator phase of config.dt and
    the H^{-s} weight of the blow-up norm."""

    sup: Support | None
    modes: ModeBox
    h_scale: complex | np.ndarray
    half_scale: float | np.ndarray
    half_weight: np.ndarray
    rho_y: np.ndarray | None
    phase: np.ndarray
    norm_weight: np.ndarray


def stepping(config: SolverConfig, grid: SpectralGrid, sup: Support | None, masked: bool) -> Stepping:
    """The Stepping of a march that stores the 2/3 mask's modes (masked) or
    every mode.  Only a march that dealiases, from a z that vanishes off the
    mask, may store the mask's modes alone: h N is masked, so z and G stay
    zero off them at every step."""
    if masked and not config.dealias:
        raise GridError("a march that does not dealias stores every mode")
    modes = two_thirds_modes(grid) if masked else grid.modes
    h_scale = nonlinearity_scale(grid, config.dealias, config.dt)
    half_scale = np.imag(h_scale)
    if np.ndim(half_scale):
        half_scale = half_scale[..., : grid.N // 2 + 1]
    weight = hs_weight(grid, -config.params.s)
    # the interleaved (re, im) weight packs as complex values
    packed_weight = modes.copy(weight.view(np.complex128).reshape(grid.shape), src=grid.N)
    return Stepping(
        sup=sup,
        modes=modes,
        h_scale=h_scale,
        half_scale=half_scale,
        half_weight=half_weight(grid, weight),
        rho_y=None if sup is None else sup.rho * (grid.N / grid.L) ** grid.d,
        phase=modes.copy(propagator_phase(grid, config.dt), src=grid.N),
        norm_weight=packed_weight.view(np.float64).reshape(-1),
    )


def two_thirds_modes(grid: SpectralGrid) -> ModeBox:
    """The modes the 2/3 mask keeps, |k| <= N // 3 on every axis."""
    return ModeBox(grid.d, grid.N // 3, grid.N // 3)


def workspace(grid: SpectralGrid, sup: Support | None, members: int, size: int = 0) -> np.ndarray:
    """One flat complex buffer, of at least `size` values, that the steps of
    a march over `members` members with cutoff support sup take as scratch,
    and that marches which step in turn may share: a full-grid array of the
    batch, which the Picard iteration transforms in, then two half spectra,
    its G and last G, then two real arrays of the batch on sup's box, the
    step's C and Im A.  Its front holds two full-grid arrays of the batch,
    the room level() needs for Psi and <I Psi^2>."""
    half = grid.N ** (grid.d - 1) * (grid.N // 2 + 1)
    box = 0 if sup is None else sup.rho.size
    return np.empty(max(size, members * (grid.N**grid.d + 2 * half + box)), dtype=np.complex128)


@dataclass
class SolverOutput:
    """One solve()'s report over the time levels it reached (times): the
    Picard records of each accepted step, the per-level Y(T) traces of v and
    their norms, the failure if any, and the transform of v at the last
    level only (v_final, of grid.shape; phi's when the march stops at level
    0)."""

    times: np.ndarray
    v_final: np.ndarray
    picard_iterations: np.ndarray
    residuals: np.ndarray
    monotone_flags: np.ndarray
    trace_h: np.ndarray
    trace_wq: np.ndarray
    trace_localized: np.ndarray
    y_norms: dict[str, float]
    failure: StepFailure | None = None

    @property
    def completed(self) -> bool:
        return self.failure is None


def nonlinearity_scale(grid: SpectralGrid, dealias: bool, dt: float) -> complex | np.ndarray:
    """The multiplier of N's forward transform: h = -i dt/2 times the cell
    volume, times the 2/3 mask when dealiasing, so that one pass scales,
    dealiases and gives h N."""
    h = -0.5j * dt * grid.cell_volume
    return h * two_thirds_mask(grid) if dealias else h


def nonlinearity_values(
    grid: SpectralGrid,
    z_hat: np.ndarray,
    sup: Support | None,
    lvl: Level,
    scale: complex | np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Transform of N(z + R) + forcing at the time level lvl, batched over
    leading axes of z_hat, and multiplied by scale (None: the cell volume).

    With w = rho (z + R) on sup's box, N = |w|^2 + 2 Re(conj(w) rho Psi) is
    taken in physical space as the real array Re w (Re w + 2 Re rho Psi) + Im
    w (Im w + 2 Im rho Psi), on the interleaved (re, im) float view, and is
    zero off the box, where rho is.  lvl.two_rho_psi and lvl.r are as level()
    forms them (zeros drop the cross term; r = None gives N(z) itself), and
    sup = None (no cutoff) makes N vanish.  The forcing is added on the whole
    grid.  out, when given, is a complex array of z_hat's shape, not z_hat
    itself, that holds z and then the result.
    """
    total = None
    if sup is not None:
        w = grid.inverse_values(z_hat, out=out)[sup.box]
        if lvl.r is not None:
            w += lvl.r
        w *= sup.rho
        pairs = w.view(np.float64)
        prod = lvl.two_rho_psi.view(np.float64) + pairs
        prod *= pairs
        del w, pairs  # freed before the sum and the transform allocate theirs
        total = np.zeros(np.shape(z_hat))
        np.add(prod[..., 0::2], prod[..., 1::2], out=total[sup.box])
        del prod
    if lvl.forcing is not None:
        total = lvl.forcing if total is None else total + lvl.forcing
    if total is None:
        return np.zeros(np.shape(z_hat), dtype=np.complex128)
    return grid.forward_values(total, out=out, scale=scale)


def level(
    config: SolverConfig,
    grid: SpectralGrid,
    sup: Support | None,
    psi_hat: np.ndarray,
    ipsi2_hat: np.ndarray,
    t: float | np.ndarray,
) -> Level:
    """The inputs at time t, where Psi and <I Psi^2> have the given
    transforms: 2 rho Psi and R = rho^2 <I Psi^2> in physical space on sup's
    box, plus the forcing, batched over leading axes.  Given an array of
    times, psi_hat and ipsi2_hat carry a leading axis of those levels, and so
    does every array of the Level returned, the forcing evaluated at each
    time and stacked; only the forcing reads t.  Without a cutoff (sup None)
    nothing couples to Psi and R = 0 (None, None).  psi_hat and ipsi2_hat
    are consumed: the two inverse transforms are taken in them."""
    if sup is None:
        two_rho_psi = r = None
    else:
        two_rho_psi = grid.inverse_values(psi_hat, out=psi_hat)[sup.box] * sup.two_rho
        r = r_values(grid, sup, ipsi2_hat, out=ipsi2_hat)
    if config.forcing is None:
        forcing = None
    elif np.ndim(t):
        forcing = np.stack([config.forcing(float(t_k)) for t_k in t])
    else:
        forcing = config.forcing(t)
    return Level(two_rho_psi, r, forcing)


def r_values(
    grid: SpectralGrid, sup: Support, ipsi2_hat: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """R = rho^2 <I Psi^2> in physical space on sup's box, where <I Psi^2>
    has the transform ipsi2_hat, batched over leading axes, as a fresh
    array; out, when given, receives the inverse transform on the way."""
    return grid.inverse_values(ipsi2_hat, out=out)[sup.box] * sup.rho_sq


def r_hat(
    grid: SpectralGrid, sup: Support, r: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The transform of R given on sup's box (zero off it), batched over
    leading axes, in out when given, else as a fresh array."""
    if out is None:
        out = np.zeros(np.shape(r)[: np.ndim(r) - grid.d] + grid.shape, dtype=np.complex128)
    else:
        out[...] = 0.0
    out[sup.box] = r
    return grid.forward_values(out, out=out)


def v_from_z(grid: SpectralGrid, sup: Support | None, z_hat: np.ndarray, r: np.ndarray | None):
    """v = z + R in frequency space, batched over leading axes: one forward
    transform of R; z itself when R = 0 (no cutoff)."""
    if r is None:
        return z_hat
    v_hat = r_hat(grid, sup, r)
    v_hat += z_hat
    return v_hat


def z_from_v(
    grid: SpectralGrid,
    sup: Support | None,
    v_hat: np.ndarray,
    r: np.ndarray | None,
    out: np.ndarray | None = None,
):
    """z = v - R in frequency space, the march's start from v, in out when
    given, else as a fresh array, where R's transform is taken first; v
    itself when R = 0 (no cutoff)."""
    if r is None:
        return v_hat
    r_hat_values = r_hat(grid, sup, r, out=out)
    return np.subtract(v_hat, r_hat_values, out=r_hat_values)


def step_values(
    grid: SpectralGrid,
    z_hat: np.ndarray,
    prev: Level | None,
    nxt: Level,
    st: Stepping,
    work: np.ndarray,
    hn_prev: Carry | None = None,
    failed: np.ndarray | None = None,
    out: np.ndarray | None = None,
    g_out: np.ndarray | None = None,
):
    """One Picard-resolved Duhamel step of z = v - R from level prev to level
    nxt on raw arrays (leading batch axes allowed), whose spectra hold the
    modes st.modes stores.

    st holds the march's constants (stepping()): the phase of the step dt,
    the H^{-s} weight of the residual and blow-up norms and h_scale =
    nonlinearity_scale(grid, dealias, dt), so nonlinearity_values gives h N.
    work, the step's scratch, is a workspace() of the batch.  hn_prev is h N
    at prev as the previous step returned it; None evaluates it here, and
    prev is read only then.  failed, when given, flags the
    members that failed before: they are neither iterated nor transformed,
    and come back zero and flagged.  out, when given, receives z_next, and
    may be z_hat itself; g_out, when given, receives G at nxt, and may be
    hn_prev.g, which the step has read by then.  R enters only inside N, in
    physical space.  Picard starts from fixed = e^{-i dt Lap}(z_k + h N_k) +
    h F(forcing at t_{k+1}), every term of the step but the implicit h N,
    and each member iterates on the box of rho's support (_picard_on_box)
    until its own residual clears PICARD_TOL.  h N_k = i G_k is rebuilt from
    its half spectrum at the front of work, which the loop then takes over,
    and z_next = fixed + i G at the loop's last g.

    A member's residual at iteration m bounds the distance from its iterate
    to the fixed point: with increments r_m and theta_m = r_m / r_{m-1}, it
    is min(r_m, theta_m/(1 - theta_m) r_m) when theta_m < 1 and r_m
    otherwise (contraction mapping theorem; Hairer & Wanner, Solving ODEs
    II, IV.8).  The first iteration has no theta, and its residual is r_1.

    Returns (z_next, iterations, residuals, monotone_ok, history, failed,
    hn_next), where iterations counts the iterations of the member that
    iterated longest, history holds the worst healthy increment among the
    members still iterating at each iteration, and hn_next carries each
    member's last evaluation of h N at nxt (at the iterate before its
    z_next): G's half spectrum and, with a forcing, h F at nxt.  A member
    fails when a residual is non-finite, when its residual is still above
    PICARD_TOL after PICARD_MAX iterations, or when the H^{-s} norm of its z
    = v - R is non-finite or above BLOWUP_NORM; failed members, these and
    the given ones, are zeroed in z_next and in G and flagged in the returned
    mask, so ensemble studies exclude them and keep going and solve() ends
    its trajectory there.
    """
    modes = st.modes
    batch_shape = np.shape(z_hat)[: np.ndim(z_hat) - grid.d]
    members = math.prod(batch_shape)
    hn_work = work[: members * math.prod(modes.shape)].reshape(batch_shape + modes.shape)
    if hn_prev is None:
        hn = nonlinearity_values(grid, modes.copy(z_hat, dst=grid.N), st.sup, prev, st.h_scale)
        hn_prev = Carry(None, modes.copy(hn, src=grid.N))
    fixed = np.add(z_hat, _hn_values(modes, hn_prev, hn_work), out=out)
    fixed *= st.phase
    hf_next = None
    if nxt.forcing is not None:
        hf_next = modes.copy(grid.forward_values(nxt.forcing, scale=st.h_scale), src=grid.N)
        fixed += hf_next
    if g_out is None:
        g_out = np.zeros(batch_shape + modes.half_shape, dtype=np.complex128)
    rows = fixed.reshape((members,) + modes.shape)
    g = g_out.reshape((members,) + modes.half_shape)
    skip = np.zeros(members, dtype=bool) if failed is None else np.ravel(failed)
    # a member may overflow on its way to inf before its residual flags it,
    # and theta = 1 divides by zero in the bound, which it then does not take
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if st.sup is None:
            # no cutoff: N vanishes and fixed is the step
            g[...] = 0.0
            iterations, residuals, history = 1, np.zeros(members), [0.0]
            stuck = np.zeros(members, dtype=bool)
        else:
            iterations, residuals, history, stuck = _picard_on_box(grid, rows, nxt, st, work, g, skip)
        rows += _hn_values(modes, Carry(g, None), hn_work.reshape(rows.shape))
        norms = np.sqrt(weighted_norm_sq_hat(grid, rows, st.norm_weight))
    monotone_ok = all(b <= a for a, b in zip(history[1:], history[2:]))
    failed = skip | stuck | ~(norms <= BLOWUP_NORM)
    if failed.any():
        rows[failed] = 0.0
        g[failed] = 0.0
    return (
        fixed,
        iterations,
        residuals.reshape(batch_shape),
        monotone_ok,
        history,
        failed.reshape(batch_shape),
        Carry(g_out, hf_next),
    )


def _hn_values(modes: ModeBox, hn: Carry, out: np.ndarray) -> np.ndarray:
    """h N = i G + full on the stored modes from its Carry, in out (a
    complex array of the batch's stored shape); full itself when g is None.
    G's mirror modes are filled exactly (ModeBox.complete), and every rebuild
    takes the same operations in the same order, so h N has the same bits
    each time it is formed from one Carry."""
    if hn.g is None:
        return hn.full
    out[..., : modes.front] = hn.g
    modes.complete(out)
    out *= 1j
    if hn.full is not None:
        out += hn.full
    return out


def _picard_on_box(
    grid: SpectralGrid,
    fixed: np.ndarray,
    nxt: Level,
    st: Stepping,
    work: np.ndarray,
    result: np.ndarray,
    skip: np.ndarray,
) -> tuple[int, np.ndarray, list[float], np.ndarray]:
    """The Picard iteration z^(m+1) = fixed + h N(z^(m) + R) of step_values
    from z^(0) = fixed, for the members (rows, on st's stored modes) of fixed
    that skip does not flag, in physical space on the box of rho's support:
    (iterations, residuals, history, failed).  i G is each member's h N at
    its last iterate, and result, a batch of st's stored half spectra,
    receives G there in the rows of those members; the skipped members are
    never transformed, and their rows are not written.  work is
    step_values' scratch: its full-grid array takes fixed's modes and their
    inverse transform, and once Re A and Im A are read its float view holds
    N and N's real inverse; its two half spectra are g and the last g.

    h = -i dt/2 and the 2/3 mask are real-symmetric, so the correction h N =
    i g adds the real field (N/L)^d irfft(g) to Im z in physical space and
    leaves Re z alone.  With A = rho (fixed + R), the iterate is w = Re A +
    i y, and N = C + y (y + Im 2 rho Psi), C = Re A (Re A + Re 2 rho Psi)
    fixed for the step.  So fixed takes one complex inverse transform, and
    an iteration one real forward transform of N, which gives the increment
    |g_m - g_(m-1)| in the H^{-s} norm, and, when it goes on, one real
    inverse transform, which gives y = Im A + (N/L)^d rho irfft(g).  Each
    member stops once its residual is at most PICARD_TOL or non-finite (a
    failure), or after PICARD_MAX iterations (a failure if its residual is
    still above PICARD_TOL); only the members still iterating are
    transformed, so a member's result does not depend on its batch.  C and
    Im A, real arrays on the box, take the end of work (workspace()).
    """
    sup, modes = st.sup, st.modes
    members, points = len(fixed), grid.N**grid.d
    half_shape = grid.shape[:-1] + (grid.N // 2 + 1,)
    halves_end = members * (points + 2 * math.prod(half_shape))
    out = work[: members * points].reshape((members,) + grid.shape)
    # the members still iterating, and buffers whose first rows are theirs
    active = np.flatnonzero(~skip)
    k = len(active)
    residuals = np.zeros(members)
    if not k:
        return 0, residuals, [], np.zeros(members, dtype=bool)
    psi = nxt.two_rho_psi.reshape((members,) + sup.rho.shape)
    r = None if nxt.r is None else nxt.r.reshape(psi.shape)
    if k < members:
        fixed, psi = fixed[active], psi[active]
        r = None if r is None else r[active]
    a = grid.inverse_values(modes.copy(fixed, dst=grid.N, out=out[:k]), out=out[:k])[sup.box]
    if r is not None:
        a += r
    a *= sup.rho
    on_box = work[halves_end : halves_end + members * sup.rho.size].view(np.float64)
    c_rows, im_a_rows = on_box.reshape((2, members) + sup.rho.shape)
    c = np.add(a.real, psi.real, out=c_rows[:k])
    c *= a.real
    y = im_a = im_a_rows[:k]
    im_a[...] = a.imag
    im_psi = psi.imag
    del a, psi, r
    # out's floats: N on the box (zero off it) and its real inverse
    # transform; and two half spectra, g and the last g, which the
    # increment overwrites
    floats = out.view(np.float64).reshape((2, members) + grid.shape)
    n_values, low = floats[0], floats[1]
    n_values[:k] = 0.0
    halves = work[members * points : halves_end]
    g, g_last = halves.reshape((2, members) + half_shape)
    history: list[float] = []
    for m in range(1, PICARD_MAX + 1):
        n_box = n_values[:k][sup.box]
        np.add(y, im_psi, out=n_box)
        n_box *= y
        n_box += c
        grid.forward_values(n_values[:k], out=g[:k], scale=st.half_scale, half=True)
        if m == 1:
            e = increments = np.sqrt(weighted_norm_sq_hat(grid, g[:k], st.half_weight))
        else:
            np.subtract(g[:k], g_last[:k], out=g_last[:k])
            increments = np.sqrt(weighted_norm_sq_hat(grid, g_last[:k], st.half_weight))
            # the contraction bound on the distance to the fixed point
            theta = increments / last_increments
            bound = np.minimum(increments, theta / (1.0 - theta) * increments)
            e = np.where(theta < 1.0, bound, increments)
        residuals[active] = e
        history.append(float(increments.max(where=np.isfinite(increments), initial=0.0)))
        go = (e > PICARD_TOL) & (e < np.inf)  # neither converged nor failed
        if m == PICARD_MAX or not go.any():
            modes.copy(g[:k], src=grid.N, out=result, rows=active, half=True)
            break
        if not go.all():
            # the last g is spent: it takes the members that stop, then
            # those that go on
            done = np.compress(~go, g[:k], axis=0, out=g_last[: k - np.count_nonzero(go)])
            modes.copy(done, src=grid.N, out=result, rows=active[~go], half=True)
            active, increments = active[go], increments[go]
            # c and Im A are the step's own, and their rows move in place
            c = np.compress(go, c, axis=0, out=c[: len(active)])
            im_a = np.compress(go, im_a, axis=0, out=im_a[: len(active)])
            im_psi = im_psi[go]
            np.compress(go, g[:k], axis=0, out=g_last[: len(active)])
            g, g_last = g_last, g
            k = len(active)
        y = grid.inverse_values(g[:k], out=low[:k], scale=1.0, half=True)[sup.box]
        y *= st.rho_y
        y += im_a
        g, g_last, last_increments = g_last, g, increments
    return m, residuals, history, ~(residuals <= PICARD_TOL)


class RemainderStepper:
    """The step-local march.  Between steps it holds z = v - R and the Carry
    of h N at the current level, G's half spectrum (h N = i G) and, with a
    forcing, h F there, on the modes its Stepping stores; it keeps no Level.
    A march that dealiases from a z that vanishes off the 2/3 mask, as every
    study's and every solve() from phi = 0 does, stores the mask's modes
    alone: h N is masked, so z and G stay zero off them (two_thirds_modes).

    v_hat, the start, may carry leading batch axes, one row per ensemble
    member; start, the Level at the starting time, and every Level given to
    step() carry the same axes.  The march starts from z = v - R(t_0), and
    h N(t_0) is formed from start when the stepper is built, so start is not
    kept; without a forcing it is carried as G's half from there on, since
    N's transform is the exact completion of its half
    (SpectralGrid.forward_values).  st, the march's Stepping, is built from
    config and z when None; marches that share a grid, a config and a batch
    may share one, and may step in turn in one shared workspace() `work`,
    which the stepper holds but does not read between steps; without one it
    allocates its own.  A step
    is two calls, step(level(config, grid, sup, psi_hat, ipsi2_hat,
    t_next)), so the caller's psi block can be freed before the Picard loop
    runs; solve() passes the rows of its stacked levels instead.  Each time
    level is localized once, and the last Picard evaluation of h N at
    t_{k+1} is carried as the next step's h N at t_k.  v = z + R needs R,
    which the caller's Level at the current time holds (v_hat).  Failed
    members are zeroed in z and in G and flagged in `failed`; later steps
    neither iterate nor transform them, and the march goes on.  Per-step
    Picard iterations, worst residuals and monotone flags are collected in
    lists.
    """

    def __init__(
        self,
        config: SolverConfig,
        grid: SpectralGrid,
        v_hat: np.ndarray,
        start: Level,
        st: Stepping | None = None,
        work: np.ndarray | None = None,
    ) -> None:
        self.grid = grid
        sup = support(None if config.rho is None else config.rho.evaluate(grid)) if st is None else st.sup
        if work is None:
            work = workspace(grid, sup, math.prod(np.shape(v_hat)[: np.ndim(v_hat) - grid.d]))
        # z and h N(t_0) on the whole grid, in the front of work
        scratch = work[: 2 * np.size(v_hat)].reshape((2,) + np.shape(v_hat))
        z_hat = z_from_v(grid, sup, v_hat, start.r, out=scratch[0])
        if st is None:
            masked = config.dealias and two_thirds_modes(grid).holds(z_hat, grid.N)
            st = stepping(config, grid, sup, masked)
        elif not st.modes.holds(z_hat, grid.N):
            raise GridError("the march starts with modes its Stepping does not store")
        self.stepping, self.work = st, work
        # packed afresh, so z is never the caller's v
        self.z = st.modes.copy(z_hat, src=grid.N)
        hn = nonlinearity_values(grid, z_hat, sup, start, st.h_scale, out=scratch[1])
        hn = st.modes.copy(hn, src=grid.N)
        del z_hat, scratch
        if start.forcing is None:
            # N's transform is the exact completion of its half spectrum
            # (forward_values), so its half gives h N back to the bit
            self._hn = Carry(-1j * hn[..., : st.modes.front], None)
        else:
            # the forcing's transform need not be Hermitian: the first step
            # takes h N whole
            self._hn = Carry(None, hn)
        self.iterations: list[int] = []
        self.residuals: list[float] = []
        self.monotone: list[bool] = []
        self.failed = np.zeros(np.shape(v_hat)[: np.ndim(v_hat) - grid.d], dtype=bool)

    def z_values(self, out: np.ndarray | None = None) -> np.ndarray:
        """z at the current level on the whole grid, in out when given, else
        as a fresh array."""
        return self.stepping.modes.copy(self.z, dst=self.grid.N, out=out)

    def add_z(self, out: np.ndarray) -> None:
        """Add z at the current level to out, spectra of the batch on the
        whole grid."""
        self.stepping.modes.copy(self.z, dst=self.grid.N, out=out, add=True)

    def v_hat(self, r: np.ndarray | None) -> np.ndarray:
        """v = z + R at the current level, where the caller's Level there has
        R = r, by one transform, as a fresh array; a failed member's row
        reads R alone."""
        return v_from_z(self.grid, self.stepping.sup, self.z_values(), r)

    def step(self, nxt: Level) -> None:
        """Advance z by one step of config.dt, to the time of level nxt."""
        self.z, iterations, residuals, monotone, _, self.failed, self._hn = step_values(
            self.grid,
            self.z,
            None,
            nxt,
            self.stepping,
            self.work,
            hn_prev=self._hn,
            failed=self.failed,
            out=self.z,
            g_out=self._hn.g,
        )
        self.iterations.append(iterations)
        self.residuals.append(float(np.max(residuals)))
        self.monotone.append(monotone)


def _initial_hat(config: SolverConfig, grid: SpectralGrid) -> np.ndarray:
    """Transform of the initial data phi (zero when unset), as a fresh array;
    Field stores phi's values as complex, so they take the complex transform."""
    if config.phi is None:
        return grid.zeros()
    return grid.forward_values(config.phi.values)


def _make_traces(
    grid: SpectralGrid, params: PaperParams, rho_vals: np.ndarray | None
) -> Traces:
    """The Y(T) integrands of a stack of time levels, one value per row:
    H^{-s}, W^{-s,q} and localized H^{-s+eta}.  At q = 2 (the pair (inf, 2)
    of d = 1) the W^{-s,q} norm is the H^{-s} norm by Parseval, and its trace
    is the H^{-s} trace itself; any other q takes the physical-space norm."""
    s, eta = params.s, params.eta
    q = params.pair[1]
    h_weight = hs_weight(grid, -s)

    def traces(v_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = np.sqrt(weighted_norm_sq_hat(grid, v_hats, h_weight))
        wq = h if q == 2 else sobolev_norm_hat(grid, v_hats, -s, q)
        if rho_vals is None:
            loc = np.zeros(len(v_hats))
        else:
            loc = sobolev_norm_hat(grid, v_hats, -s + eta, 2, rho_vals)
        return h, wq, loc

    return traces


def _y_summary(
    times: np.ndarray,
    trace_h: np.ndarray,
    trace_wq: np.ndarray,
    trace_loc: np.ndarray,
    params: PaperParams,
) -> dict[str, float]:
    """Y(T) norms from traces; L^p-in-time by left-endpoint quadrature."""
    k = len(trace_h)
    dt = np.diff(times[:k])
    p = params.pair[0]
    sup_h = float(np.max(trace_h))
    if not np.isfinite(p):
        lp_wq = float(np.max(trace_wq))
    else:
        lp_wq = float(np.sum(dt * trace_wq[:-1] ** p) ** (1.0 / p)) if k > 1 else 0.0
    inv_eta = 1.0 / params.eta
    l_loc = float(np.sum(dt * trace_loc[:-1] ** inv_eta) ** params.eta) if k > 1 else 0.0
    return {"sup_H_minus_s": sup_h, "Lp_W_minus_s_q": lp_wq, "Leta_localized": l_loc}


def _output(
    params: PaperParams,
    times: np.ndarray,
    traces: Traces,
    v_hats: np.ndarray,
    picard_iterations: np.ndarray,
    residuals: np.ndarray,
    monotone_flags: np.ndarray,
    failure: StepFailure | None,
) -> SolverOutput:
    """Traces and Y(T) norms over the time levels v_hats reached, one row per
    level, and a copy of its last row, which keeps no reference to v_hats."""
    trace_h, trace_wq, trace_loc = traces(v_hats)
    return SolverOutput(
        times=times[: len(v_hats)],
        v_final=v_hats[-1].copy(),
        picard_iterations=picard_iterations,
        residuals=residuals,
        monotone_flags=monotone_flags,
        trace_h=trace_h,
        trace_wq=trace_wq,
        trace_localized=trace_loc,
        y_norms=_y_summary(times, trace_h, trace_wq, trace_loc, params),
        failure=failure,
    )


def _row(levels: Level, k: int) -> Level:
    """Time level k of a stacked Level, as views."""
    return Level(*(None if a is None else a[k] for a in levels))


def solve(config: SolverConfig, path: StochasticPath) -> SolverOutput:
    """March the remainder v = u - Psi over the path's time grid, as z = v - R
    from z_0 = phi - R(0); v = z + R is formed in one batched transform over
    the levels reached, and v(0) is phi exactly.  The traces are taken from
    that stack, and only its last row outlives the call (v_final)."""
    grid = path.grid
    times = path.times
    steps_match = np.all(np.abs(np.diff(times) - config.dt) <= 1e-12)
    if abs(float(times[-1]) - config.T) > 1e-12 or not steps_match:
        raise GridError("config (dt, T) must match the path time grid: every step dt, up to T")
    if config.phi is not None and config.phi.grid != grid:
        raise GridError("phi lives on a different grid than the path")
    rho_vals = None if config.rho is None else config.rho.evaluate(grid)
    sup = support(rho_vals)
    traces = _make_traces(grid, config.params, rho_vals)
    levels = level(
        config,
        grid,
        sup,
        np.stack([f.values for f in path.psi]),
        np.stack([f.values for f in path.ipsi2]),
        times,
    )
    phi_hat = _initial_hat(config, grid)
    if config.mode == "global":
        z_hats, *records = _march_global(config, path, levels, sup, phi_hat, traces)
    else:
        z_hats, *records = _march_step_local(config, path, levels, phi_hat)
    r = None if levels.r is None else levels.r[: len(z_hats)]
    del levels  # freed before the traces allocate theirs
    v_hats = v_from_z(grid, sup, z_hats, r)
    v_hats[0] = phi_hat
    del z_hats, r
    return _output(config.params, times, traces, v_hats, *records)


def _failure(
    times: np.ndarray, k: int, residual: float, iterations: int, blown: bool
) -> StepFailure:
    """The failure of the step that reaches level k, for both marches: "picard"
    when its residual is finite and above PICARD_TOL and no level blew up,
    else "blowup"; a non-finite residual reads NaN.  blown is the global
    march's norm test; step_values folds its own into the failed mask, so the
    step-local march passes False."""
    finite = bool(np.isfinite(residual))
    kind = "picard" if finite and residual > PICARD_TOL and not blown else "blowup"
    residual = float(residual) if finite else float("nan")
    return StepFailure(kind, float(times[k]), k - 1, residual, iterations)


def _march_step_local(
    config: SolverConfig, path: StochasticPath, levels: Level, phi_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """One RemainderStepper over the path's levels from v(0) = phi: the z
    reached at each level, the Picard records of the accepted steps and the
    failure, if any.  The march ends at the first flagged step."""
    grid = path.grid
    times = path.times
    stepper = RemainderStepper(config, grid, phi_hat, _row(levels, 0))
    z_hats = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    stepper.z_values(out=z_hats[0])
    reached = len(times)
    failure: StepFailure | None = None
    for k in range(1, len(times)):
        stepper.step(_row(levels, k))
        if stepper.failed.any():
            failure = _failure(times, k, stepper.residuals[-1], stepper.iterations[-1], blown=False)
            reached = k
            break
        stepper.z_values(out=z_hats[k])
    accepted = reached - 1
    return (
        z_hats[:reached],
        np.array(stepper.iterations[:accepted], dtype=int),
        np.array(stepper.residuals[:accepted], dtype=np.float64),
        np.array(stepper.monotone[:accepted], dtype=bool),
        failure,
    )


def _march_global(
    config: SolverConfig,
    path: StochasticPath,
    levels: Level,
    sup: Support | None,
    phi_hat: np.ndarray,
    traces: Traces,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """Whole-trajectory fixed-point iteration of the contraction map on z,
    from v(0) = phi: the z reached at each level, the records and the
    failure, if any.

    Each sweep evaluates h N at every level in one batched call, forms every
    step's Duhamel term with two array operations, every step config.dt,
    and measures the distance between successive iterates with one batched
    traces call; only the two-operation Duhamel recurrence runs level by
    level.  The free evolution of z(0) = phi - R(0) is formed once.  A non-finite sweep
    distance is recorded in the failure as NaN, as in the step-local march.
    The trapezoid map on [0, t_j] reads only levels <= j, so when a level
    blows up, the levels kept before it are swept on alone from the last
    iterate, and their rows record those sweeps and their distance.
    """
    grid = path.grid
    times = path.times
    h_scale = nonlinearity_scale(grid, config.dealias, config.dt)
    phase = propagator_phase(grid, config.dt)
    # the free evolution of z(0) at each level, by the sequential products
    free = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    free[0] = z_from_v(grid, sup, phi_hat, _row(levels, 0).r)
    for k in range(len(times) - 1):
        np.multiply(phase, free[k], out=free[k + 1])

    def sweeps(levels: Level, current: np.ndarray) -> tuple[np.ndarray, int, float]:
        """Sweep the levels of current from it until their distance is at most
        PICARD_TOL or non-finite, or PICARD_MAX times: (iterate, sweeps, distance)."""
        n = len(current)
        new = np.empty_like(current)
        # a diverging iterate overflows on its way to inf; the cut below handles it
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, PICARD_MAX + 1):
                # new[k+1] = free[k+1] + D[k+1], where D[k+1] = phase D[k] +
                # term_k, term_k = phase h N_k + h N_{k+1} and D[0] = 0;
                # operands in this order (see stochastic.duhamel_update).
                # h N is evaluated into new, every step's term is formed at
                # once, and D then replaces h N in new.
                hn_hats = nonlinearity_values(grid, current, sup, levels, h_scale, out=new)
                terms = np.multiply(phase, hn_hats[:-1])
                terms += hn_hats[1:]
                del hn_hats
                new[0] = 0.0
                for k in range(n - 1):
                    np.multiply(phase, new[k], out=new[k + 1])
                    new[k + 1] += terms[k]
                del terms
                np.add(free[1:n], new[1:], out=new[1:])
                new[0] = free[0]
                # the old iterate becomes the difference, then the two buffers swap roles
                np.subtract(new, current, out=current)
                y = _y_summary(times, *traces(current), config.params)
                distance = y["sup_H_minus_s"] + y["Lp_W_minus_s_q"] + y["Leta_localized"]
                current, new = new, current
                if not np.isfinite(distance):
                    break
                if distance <= PICARD_TOL:
                    break
        return current, m, distance

    current, iterations, distance = sweeps(levels, free.copy())
    # As in the step-local march, the trajectory ends before the first level
    # whose H^{-s} norm of z is non-finite or above BLOWUP_NORM, and the
    # failure is dated there.
    norms = np.sqrt(weighted_norm_sq_hat(grid, current[1:], hs_weight(grid, -config.params.s)))
    blown = np.flatnonzero(~(norms <= BLOWUP_NORM))
    k = len(times) - 1
    failure = None
    if blown.size:
        k = int(blown[0]) + 1
        failure = _failure(times, k, distance, iterations, blown=True)
        kept = Level(*(None if a is None else a[:k] for a in levels))
        current, iterations, distance = sweeps(kept, current[:k])
    if not distance <= PICARD_TOL:
        failure = _failure(times, k, distance, iterations, blown=False)
    steps = len(current) - 1
    return (
        current,
        np.full(steps, iterations, dtype=int),
        np.full(steps, distance),
        np.ones(steps, dtype=bool),
        failure,
    )
