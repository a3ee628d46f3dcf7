"""Exponential Duhamel time stepping for the remainder equation v = u - Psi.

One step advances v by

    v_{k+1} = e^{-i dt Lap} v_k
              - i (dt/2) [ e^{-i dt Lap} N(t_k) + N(t_{k+1}) ]
              + [ R(t_{k+1}) - e^{-i dt Lap} R(t_k) ]

with N = rho^2 |v|^2 + (rho conj(v))(rho Psi) + (rho v) conj(rho Psi) evaluated
pointwise in physical space (nonlinearity_values, from 2 rho Psi formed once
per time level), R = rho^2 <I Psi^2> (cutoff applied before the propagator),
and the implicit endpoint resolved by Picard iteration (step_values).  Picard
starts from the explicit exponential predictor

    v_{k+1}^(0) = e^{-i dt Lap} v_k - i dt e^{-i dt Lap} N(t_k)
                  + [ R(t_{k+1}) - e^{-i dt Lap} R(t_k) ],

the exponential Euler step paired with the exponential trapezoid corrector
above (Hochbruck & Ostermann, Acta Numerica 19, 2010).  Residuals are
successive-iterate distances in the discrete H^{-s} norm.  N is real, so at
d = 1 its transform takes the rfft path of SpectralGrid.forward_values.

This module is the only place that marches the equation.  level() is the one
builder of a march's inputs: it localizes Psi and <I Psi^2> at one time, or at
every time of a stacked path, and adds the forcing.  RemainderStepper is the
step-local loop: it starts from a Level built so, and carries v, the previous
time level's localized inputs and the last Picard evaluation of N at that
level, so N(t_k) costs no transform.  The coupled convergence study drives one
stepper per truncation radius over a batch of ensemble members.  solve()
stacks a path's K+1 time levels once and localizes them in one level() call;
its step-local mode drives one stepper over the rows of that stack.
solve(mode="global") is a separate algorithm, the fixed-point iteration of the
whole-trajectory contraction map: each sweep evaluates N at every level in one
batched call, forms every step's Duhamel term with array operations over the
steps of each distinct dt, and measures the step between iterates with one
batched traces call.  Only the two-operation Duhamel recurrence
D_{k+1} = e^{-i dt Lap} D_k + term_k runs level by level; its prefix-sum form
would change the bits.  Both modes take the traces of the trajectory they
reach in one batched call.  All norms come from grid.py.

Loss of regularity (norm above BLOWUP_NORM, or non-finite values) is a
first-class outcome: a failed step is flagged, never raised; the convergence
study excludes the flagged members, and solve() returns the partial
trajectory and a failure record, built by one rule for both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    CutoffRho,
    Field,
    GridError,
    SpectralGrid,
    bessel_weight,
    propagator_phase,
    sobolev_norm_hat,
    two_thirds_mask,
    weighted_norm_sq_hat,
)
from .reference import PaperParams
from .stochastic import StochasticPath

BLOWUP_NORM = 1e8
# Picard stops once the worst healthy residual is at most PICARD_TOL, or
# after PICARD_MAX iterations
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
    """The inputs of one time level t, already localized: 2 rho Psi in
    physical space (None without a cutoff), the transform of rho^2 <I Psi^2>,
    and the physical-space forcing (None without one).  solve() also keeps a
    whole path in one Level, each array with a leading axis of time levels
    and t the time grid."""

    two_rho_psi: np.ndarray | None
    r_hat: np.ndarray
    forcing: np.ndarray | None
    t: float


@dataclass
class SolverOutput:
    config: SolverConfig
    times: np.ndarray
    v: np.ndarray  # transforms, one row per time level reached: (levels, *grid.shape)
    u: np.ndarray  # v + Psi, likewise
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


def nonlinearity_scale(grid: SpectralGrid, dealias: bool) -> np.ndarray | None:
    """The multiplier of N's forward transform: the cell volume (None), times
    the 2/3 mask when dealiasing, so that one pass scales and dealiases."""
    return grid.cell_volume * two_thirds_mask(grid) if dealias else None


def nonlinearity_values(
    grid: SpectralGrid,
    v_hat: np.ndarray,
    rho_vals: np.ndarray | None,
    two_rho_psi: np.ndarray | None,
    forcing: np.ndarray | None,
    scale: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Transform of N(v) + forcing; batched over leading axes of v_hat.

    N(v) = |rho v|^2 + 2 Re(conj(rho v) rho Psi), products taken in physical
    space as the real array Re w (Re w + 2 Re rho Psi) + Im w (Im w + 2 Im rho
    Psi) with w = rho v, computed on the interleaved (re, im) float view.
    two_rho_psi is 2 rho Psi as localized_inputs returns it, a C-contiguous
    complex array; None drops the cross term, and rho_vals = None (no cutoff)
    makes N vanish.  scale multiplies the raw transform (nonlinearity_scale).
    out, when given, is a complex array of v_hat's shape, not v_hat itself,
    that holds rho v and then the result.
    """
    total = None
    if rho_vals is not None:
        w = grid.inverse_values(v_hat, out=out)
        w *= rho_vals
        pairs = w.view(np.float64)
        if two_rho_psi is None:
            prod = pairs * pairs
        else:
            prod = two_rho_psi.view(np.float64) + pairs
            prod *= pairs
        del w, pairs  # freed before the sum and the transform allocate theirs
        total = prod[..., 0::2] + prod[..., 1::2]
        del prod
    if forcing is not None:
        total = forcing if total is None else total + forcing
    if total is None:
        return np.zeros(np.shape(v_hat), dtype=np.complex128)
    return grid.forward_values(total, out=out, scale=scale)


def localized_inputs(
    grid: SpectralGrid,
    rho_vals: np.ndarray | None,
    psi_hat: np.ndarray,
    ipsi2_hat: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """One time level's stochastic inputs, batched over leading axes.

    Returns (2 rho Psi in physical space, transform of rho^2 <I Psi^2>); without
    a cutoff nothing couples to Psi and the pair is (None, zeros).  The factor
    2 of N's cross term is applied here, once per level, on the interleaved
    float view, where doubling is exact.
    """
    if rho_vals is None:
        return None, np.zeros(np.shape(ipsi2_hat), dtype=np.complex128)
    two_rho_psi = grid.inverse_values(psi_hat)
    np.multiply(rho_vals, two_rho_psi, out=two_rho_psi)
    pairs = two_rho_psi.view(np.float64)
    pairs *= 2.0
    r_hat = grid.forward_values(rho_vals * rho_vals * grid.inverse_values(ipsi2_hat))
    return two_rho_psi, r_hat


def level(
    config: SolverConfig,
    grid: SpectralGrid,
    rho_vals: np.ndarray | None,
    psi_hat: np.ndarray,
    ipsi2_hat: np.ndarray,
    t: float | np.ndarray,
) -> Level:
    """The inputs at time t, where Psi and <I Psi^2> have the given
    transforms: localized stochastic data plus the forcing.  Given an array
    of times, psi_hat and ipsi2_hat carry a leading axis of those levels, and
    so does every array of the Level returned, the forcing evaluated at each
    time and stacked; t is then the time grid."""
    if config.forcing is None:
        forcing = None
    elif np.ndim(t):
        forcing = np.stack([config.forcing(float(t_k)) for t_k in t])
    else:
        forcing = config.forcing(t)
    return Level(*localized_inputs(grid, rho_vals, psi_hat, ipsi2_hat), forcing, t)


def step_values(
    grid: SpectralGrid,
    v_hat: np.ndarray,
    prev: Level,
    nxt: Level,
    phase: np.ndarray,
    norm_weight: np.ndarray,
    rho_vals: np.ndarray | None,
    n_scale: np.ndarray | None,
    n_prev: np.ndarray | None = None,
):
    """One Picard-resolved Duhamel step from level prev to level nxt on raw
    arrays (leading batch axes allowed).

    phase is the propagator multiplier for dt = nxt.t - prev.t and norm_weight
    the H^{-s} weight bessel_weight(grid, -2s) of the residual and blow-up
    norms; n_scale is nonlinearity_scale(grid, dealias).  n_prev is the
    transform of N at prev, when the caller carries it from the previous
    step; None evaluates it here.  Picard starts from the explicit
    exponential predictor, which takes N(t_{k+1}) ~ e^{-i dt Lap} N(t_k).

    Returns (v_next, iterations, residuals, monotone_ok, history, failed,
    n_next), where history holds the worst healthy residual of each iteration
    and n_next is the last evaluation of N at nxt (at the iterate before
    v_next).  In batched mode iteration continues until every healthy
    member's residual clears PICARD_TOL.  A member fails when a residual is
    non-finite, when its residual is still above PICARD_TOL after PICARD_MAX
    iterations, or when its norm is non-finite or above BLOWUP_NORM; failed
    members are zeroed and flagged in the returned mask, so ensemble studies
    exclude them and keep going and solve() ends its trajectory there.
    """
    dt = nxt.t - prev.t
    if n_prev is None:
        n_prev = nonlinearity_values(
            grid, v_hat, rho_vals, prev.two_rho_psi, prev.forcing, n_scale
        )
    half_dt = -0.5j * dt
    # fixed holds every term but the implicit -i (dt/2) N(t_{k+1}); the
    # predictor adds the explicit term -i (dt/2) e^{-i dt Lap} N(t_k) once more
    fixed = v_hat - prev.r_hat
    fixed *= phase
    fixed += nxt.r_hat
    v_iter = phase * n_prev
    v_iter *= half_dt
    fixed += v_iter
    v_iter += fixed
    v_new = np.empty_like(v_iter)
    batch_shape = np.shape(v_hat)[: np.ndim(v_hat) - grid.d]
    failed = np.zeros(batch_shape, dtype=bool)
    residuals = np.zeros(batch_shape)
    history: list[float] = []
    monotone_ok = True
    iterations = 0
    for m in range(1, PICARD_MAX + 1):
        n_next = None  # free the last evaluation before making the next
        n_next = nonlinearity_values(
            grid, v_iter, rho_vals, nxt.two_rho_psi, nxt.forcing, n_scale
        )
        np.multiply(n_next, half_dt, out=v_new)
        v_new += fixed
        # v_iter becomes the increment, then the two buffers swap roles
        np.subtract(v_new, v_iter, out=v_iter)
        residuals = np.sqrt(weighted_norm_sq_hat(grid, v_iter, norm_weight))
        v_iter, v_new = v_new, v_iter
        failed = failed | ~np.isfinite(residuals)
        healthy = residuals[~failed]
        worst = float(np.max(healthy)) if healthy.size else 0.0
        history.append(worst)
        if len(history) >= 3 and history[-1] > history[-2]:
            monotone_ok = False
        iterations = m
        if worst <= PICARD_TOL:
            break
    else:
        failed = failed | (residuals > PICARD_TOL)
    norms = np.sqrt(weighted_norm_sq_hat(grid, v_iter, norm_weight))
    big = ~np.isfinite(norms) | (norms > BLOWUP_NORM)
    failed = failed | big
    if failed.any():
        v_iter = np.where(failed.reshape(failed.shape + (1,) * grid.d), 0.0, v_iter)
    return v_iter, iterations, residuals, monotone_ok, history, failed, n_next


class RemainderStepper:
    """The step-local march: v, the previous time level's localized inputs,
    and the transform of N there.

    v_hat may carry leading batch axes, one row per ensemble member; start,
    the Level at the starting time, and the psi and <I Psi^2> transforms
    given to level() carry the same axes.  A step is two calls,
    step(level(psi_hat, ipsi2_hat, t_next)), so the caller's psi block can be
    freed before the Picard loop runs; solve() passes the rows of its stacked
    levels instead.  Each time level is localized once, and the last Picard
    evaluation of N at t_{k+1} is carried as the next step's N at t_k, except
    after a step in which a member failed.  Failed members are zeroed and
    flagged in `failed`, and the march goes on.  Per-step Picard iterations,
    worst residuals and monotone flags are collected in lists.
    """

    def __init__(
        self, config: SolverConfig, grid: SpectralGrid, v_hat: np.ndarray, start: Level
    ) -> None:
        self.config = config
        self.grid = grid
        self.rho_vals = None if config.rho is None else config.rho.evaluate(grid)
        self.n_scale = nonlinearity_scale(grid, config.dealias)
        self.norm_weight = bessel_weight(grid, -2.0 * config.params.s)
        self._dt, self._phase = None, None
        self.v_hat = v_hat
        self._prev = start
        self._n_prev: np.ndarray | None = None
        self.iterations: list[int] = []
        self.residuals: list[float] = []
        self.monotone: list[bool] = []
        self.failed = np.zeros(np.shape(v_hat)[: np.ndim(v_hat) - grid.d], dtype=bool)

    @property
    def t(self) -> float:
        return self._prev.t

    def level(self, psi_hat: np.ndarray, ipsi2_hat: np.ndarray, t: float) -> Level:
        """The localized inputs at time t, where Psi and <I Psi^2> have the given transforms."""
        return level(self.config, self.grid, self.rho_vals, psi_hat, ipsi2_hat, t)

    def step(self, nxt: Level) -> None:
        """Advance v to the time of level nxt."""
        dt = nxt.t - self.t
        if dt != self._dt:
            self._dt, self._phase = dt, propagator_phase(self.grid, dt)
        v_next, iterations, residuals, monotone, _, failed, n_next = step_values(
            self.grid,
            self.v_hat,
            self._prev,
            nxt,
            self._phase,
            self.norm_weight,
            self.rho_vals,
            self.n_scale,
            n_prev=self._n_prev,
        )
        self.v_hat = v_next
        if failed.any():
            self._prev, self._n_prev = nxt, None
        else:
            # N at nxt is carried, so the next step reads only r_hat and t there
            self._prev, self._n_prev = nxt._replace(two_rho_psi=None, forcing=None), n_next
        self.iterations.append(iterations)
        self.residuals.append(float(np.max(residuals)))
        self.monotone.append(monotone)
        self.failed |= failed


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
    H^{-s}, W^{-s,q} and localized H^{-s+eta}."""
    s, eta = params.s, params.eta
    q = params.pair[1]
    h_weight = bessel_weight(grid, -2.0 * s)

    def traces(v_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = np.sqrt(weighted_norm_sq_hat(grid, v_hats, h_weight))
        wq = sobolev_norm_hat(grid, v_hats, -s, q)
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
    sup_h = float(np.max(trace_h)) if k else float("nan")
    if not np.isfinite(p):
        lp_wq = float(np.max(trace_wq)) if k else float("nan")
    else:
        lp_wq = float(np.sum(dt * trace_wq[:-1] ** p) ** (1.0 / p)) if k > 1 else 0.0
    inv_eta = 1.0 / params.eta
    l_loc = float(np.sum(dt * trace_loc[:-1] ** inv_eta) ** params.eta) if k > 1 else 0.0
    return {"sup_H_minus_s": sup_h, "Lp_W_minus_s_q": lp_wq, "Leta_localized": l_loc}


def _output(
    config: SolverConfig,
    path: StochasticPath,
    traces: Traces,
    v_hats: np.ndarray,
    picard_iterations: np.ndarray,
    residuals: np.ndarray,
    monotone_flags: np.ndarray,
    failure: StepFailure | None,
) -> SolverOutput:
    """Traces, Y(T) norms and u = v + Psi over the time levels v_hats reached,
    one row per level; v is v_hats itself."""
    trace_h, trace_wq, trace_loc = traces(v_hats)
    u = np.empty_like(v_hats)
    for k, vh in enumerate(v_hats):
        np.add(vh, path.psi[k].values, out=u[k])
    return SolverOutput(
        config=config,
        times=path.times[: len(v_hats)],
        v=v_hats,
        u=u,
        picard_iterations=picard_iterations,
        residuals=residuals,
        monotone_flags=monotone_flags,
        trace_h=trace_h,
        trace_wq=trace_wq,
        trace_localized=trace_loc,
        y_norms=_y_summary(path.times, trace_h, trace_wq, trace_loc, config.params),
        failure=failure,
    )


def _row(levels: Level, k: int) -> Level:
    """Time level k of a stacked Level, as views."""
    two_rho_psi, r_hat, forcing, times = levels
    return Level(
        None if two_rho_psi is None else two_rho_psi[k],
        r_hat[k],
        None if forcing is None else forcing[k],
        float(times[k]),
    )


def solve(config: SolverConfig, path: StochasticPath) -> SolverOutput:
    """March the remainder over the path's time grid and assemble u = v + Psi."""
    grid = path.grid
    times = path.times
    if abs(float(times[-1]) - config.T) > 1e-12 or abs(float(times[1] - times[0]) - config.dt) > 1e-12:
        raise GridError("config (dt, T) must match the path time grid")
    if config.phi is not None and config.phi.grid != grid:
        raise GridError("phi lives on a different grid than the path")
    rho_vals = None if config.rho is None else config.rho.evaluate(grid)
    traces = _make_traces(grid, config.params, rho_vals)
    levels = level(
        config,
        grid,
        rho_vals,
        np.stack([f.values for f in path.psi]),
        np.stack([f.values for f in path.ipsi2]),
        times,
    )
    if config.mode == "global":
        trajectory = _march_global(config, path, levels, rho_vals, traces)
    else:
        trajectory = _march_step_local(config, path, levels)
    del levels  # freed before the traces allocate theirs
    return _output(config, path, traces, *trajectory)


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
    config: SolverConfig, path: StochasticPath, levels: Level
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """One RemainderStepper over the path's levels: the v reached at each
    level, the Picard records of the accepted steps and the failure, if any.
    The march ends at the first flagged step."""
    grid = path.grid
    times = path.times
    stepper = RemainderStepper(config, grid, _initial_hat(config, grid), _row(levels, 0))
    v_hats = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    v_hats[0] = stepper.v_hat
    reached = len(times)
    failure: StepFailure | None = None
    for k in range(1, len(times)):
        stepper.step(_row(levels, k))
        if stepper.failed.any():
            failure = _failure(times, k, stepper.residuals[-1], stepper.iterations[-1], blown=False)
            reached = k
            break
        v_hats[k] = stepper.v_hat
    accepted = reached - 1
    return (
        v_hats[:reached],
        np.array(stepper.iterations[:accepted], dtype=int),
        np.array(stepper.residuals[:accepted], dtype=np.float64),
        np.array(stepper.monotone[:accepted], dtype=bool),
        failure,
    )


def _dt_groups(dts: list[float]) -> list[tuple[float, slice | np.ndarray, slice | np.ndarray]]:
    """(dt, the steps k of that dt, the levels k + 1 they reach) for each
    distinct dt: slices when the steps are consecutive (every step of a
    uniform grid), else index arrays."""
    steps: dict[float, list[int]] = {}
    for k, dt in enumerate(dts):
        steps.setdefault(dt, []).append(k)
    groups = []
    for dt, ks in steps.items():
        if ks[-1] - ks[0] + 1 == len(ks):
            groups.append((dt, slice(ks[0], ks[-1] + 1), slice(ks[0] + 1, ks[-1] + 2)))
        else:
            k = np.array(ks)
            groups.append((dt, k, k + 1))
    return groups


def _march_global(
    config: SolverConfig,
    path: StochasticPath,
    levels: Level,
    rho_vals: np.ndarray | None,
    traces: Traces,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """Whole-trajectory fixed-point iteration of the contraction map.

    Each sweep evaluates N at every level in one batched call, forms every
    step's Duhamel term with a few array operations per distinct dt, and
    measures the distance between successive iterates with one batched
    traces call; only the two-operation Duhamel recurrence runs level by
    level.  The free evolution of phi is formed once.  A non-finite sweep
    distance is recorded in the failure as NaN, as in the step-local march.
    The trapezoid map on [0, t_j] reads only levels <= j, so when a level
    blows up, the levels kept before it are swept on alone from the last
    iterate, and their rows record those sweeps and their distance.
    """
    grid = path.grid
    times = path.times
    n_scale = nonlinearity_scale(grid, config.dealias)
    dts = [float(times[k + 1] - times[k]) for k in range(len(times) - 1)]
    phases = {dt: propagator_phase(grid, dt) for dt in set(dts)}
    # the free evolution of phi at each level, by the sequential products
    free = np.empty_like(levels.r_hat)
    free[0] = _initial_hat(config, grid)
    for k, dt in enumerate(dts):
        np.multiply(phases[dt], free[k], out=free[k + 1])

    def sweeps(levels: Level, current: np.ndarray) -> tuple[np.ndarray, int, float]:
        """Sweep the levels of current from it until their distance is at most
        PICARD_TOL or non-finite, or PICARD_MAX times: (iterate, sweeps, distance)."""
        n = len(current)
        groups = _dt_groups(dts[: n - 1])
        new = np.empty_like(current)
        # a diverging iterate overflows on its way to inf; the cut below handles it
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, PICARD_MAX + 1):
                # new[k+1] = (free[k+1] + D[k+1]) + r_hat[k+1], where
                # D[k+1] = phase D[k] + term_k, term_k = (-i dt/2)(phase N_k + N_{k+1})
                # and D[0] = 0; operands in this order (see stochastic.duhamel_update).
                # N is evaluated into new, the terms of the steps of one dt are
                # formed together (in place when the steps are consecutive), and
                # D then replaces N in new.
                n_hats = nonlinearity_values(
                    grid, current, rho_vals, levels.two_rho_psi, levels.forcing, n_scale, out=new
                )
                terms = np.empty_like(new[1:])
                for dt, k, k1 in groups:
                    term = np.multiply(
                        phases[dt], n_hats[k], out=terms[k] if isinstance(k, slice) else None
                    )
                    term += n_hats[k1]
                    terms[k] = np.multiply(-0.5j * dt, term, out=term)
                    del term
                del n_hats
                new[0] = 0.0
                for k, dt in enumerate(dts[: n - 1]):
                    np.multiply(phases[dt], new[k], out=new[k + 1])
                    new[k + 1] += terms[k]
                del terms
                np.add(free[1:n], new[1:], out=new[1:])
                new[1:] += levels.r_hat[1:]
                np.add(free[0], levels.r_hat[0], out=new[0])
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

    current, iterations, distance = sweeps(levels, free + levels.r_hat)
    # As in the step-local march, the trajectory ends before the first level
    # whose H^{-s} norm is non-finite or above BLOWUP_NORM, and the failure is
    # dated there.
    norm_weight = bessel_weight(grid, -2.0 * config.params.s)
    norms = np.sqrt(weighted_norm_sq_hat(grid, current[1:], norm_weight))
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
