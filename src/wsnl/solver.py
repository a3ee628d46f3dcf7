"""Exponential Duhamel time stepping for the remainder equation v = u - Psi.

One step advances v by

    v_{k+1} = e^{-i dt Lap} v_k
              - i (dt/2) [ e^{-i dt Lap} N(t_k) + N(t_{k+1}) ]
              + [ R(t_{k+1}) - e^{-i dt Lap} R(t_k) ]

with N = rho^2 |v|^2 + (rho conj(v))(rho Psi) + (rho v) conj(rho Psi) evaluated
pointwise in physical space (nonlinearity_values), R = rho^2 <I Psi^2> (cutoff
applied before the propagator), and the implicit endpoint resolved by Picard
iteration (step_values).  Picard starts from the explicit exponential predictor

    v_{k+1}^(0) = e^{-i dt Lap} v_k - i dt e^{-i dt Lap} N(t_k)
                  + [ R(t_{k+1}) - e^{-i dt Lap} R(t_k) ],

the exponential Euler step paired with the exponential trapezoid corrector
above (Hochbruck & Ostermann, Acta Numerica 19, 2010).  Residuals are
successive-iterate distances in the discrete H^{-s} norm.  N is real, so at
d = 1 its transform takes the rfft path of SpectralGrid.forward_values.

This module is the only place that marches the equation.  RemainderStepper is
the step-local loop: it carries v, the previous time level's localized inputs
and the last Picard evaluation of N at that level, so N(t_k) costs no
transform.  The coupled convergence study drives one stepper per truncation
radius over a batch of ensemble members.  solve() stacks a path's K+1 time
levels once and localizes them in one batched localized_inputs call; its
step-local mode drives one stepper over the rows of that stack.
solve(mode="global") is a separate algorithm, the fixed-point iteration of the
whole-trajectory contraction map: each sweep evaluates N at every level in one
batched call and measures the step between iterates with one batched traces
call, and only the Duhamel recurrence runs level by level.  Both modes take
the traces of the trajectory they reach in one batched call.  All norms come
from grid.py.

Loss of regularity (norm above BLOWUP_NORM, or non-finite values) is a
first-class outcome: a failed step is flagged, never raised; the convergence
study excludes the flagged members, and solve() returns the partial
trajectory and a failure record.
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
    hs_norm_sq_hat,
    localized_norm_hat,
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


class Level(NamedTuple):
    """The inputs of one time level t, already localized: rho Psi in physical
    space (None without a cutoff), the transform of rho^2 <I Psi^2>, and the
    physical-space forcing (None without one).  solve() also keeps a whole
    path in one Level, each array with a leading axis of time levels and t
    the time grid."""

    rho_psi: np.ndarray | None
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


def nonlinearity_values(
    grid: SpectralGrid,
    v_hat: np.ndarray,
    rho_vals: np.ndarray | None,
    rho_psi_phys: np.ndarray | None,
    forcing: np.ndarray | None,
    dealias_mask: np.ndarray | None,
) -> np.ndarray:
    """Transform of N(v) + forcing; batched over leading axes of v_hat.

    N(v) = |rho v|^2 + 2 Re(conj(rho v) rho Psi), products taken in physical
    space as the real array Re w (Re w + 2 Re rho Psi) + Im w (Im w + 2 Im rho
    Psi) with w = rho v, computed on the interleaved (re, im) float view;
    rho_psi_phys = None drops the cross term and rho_vals = None (no cutoff)
    makes N vanish.  The mask, when given, dealiases the transform.
    """
    total = None
    if rho_vals is not None:
        w = grid.inverse_values(v_hat)
        w *= rho_vals
        pairs = w.view(np.float64)
        if rho_psi_phys is None:
            prod = pairs * pairs
        else:
            prod = np.ascontiguousarray(rho_psi_phys, dtype=np.complex128).view(np.float64) * 2.0
            prod += pairs
            prod *= pairs
        total = prod[..., 0::2] + prod[..., 1::2]
        del w, pairs, prod  # freed before the transform allocates its output
    if forcing is not None:
        total = forcing if total is None else total + forcing
    if total is None:
        return np.zeros(np.shape(v_hat), dtype=np.complex128)
    n_hat = grid.forward_values(total)
    if dealias_mask is not None:
        n_hat *= dealias_mask
    return n_hat


def localized_inputs(
    grid: SpectralGrid,
    rho_vals: np.ndarray | None,
    psi_hat: np.ndarray,
    ipsi2_hat: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """One time level's stochastic inputs, batched over leading axes.

    Returns (rho Psi in physical space, transform of rho^2 <I Psi^2>); without a
    cutoff nothing couples to Psi and the pair is (None, zeros).
    """
    if rho_vals is None:
        return None, np.zeros(np.shape(ipsi2_hat), dtype=np.complex128)
    rho_psi = rho_vals * grid.inverse_values(psi_hat)
    r_hat = grid.forward_values(rho_vals * rho_vals * grid.inverse_values(ipsi2_hat))
    return rho_psi, r_hat


def _level(
    config: SolverConfig,
    grid: SpectralGrid,
    rho_vals: np.ndarray | None,
    psi_hat: np.ndarray,
    ipsi2_hat: np.ndarray,
    t: float,
) -> Level:
    """The inputs at time t: localized stochastic data plus the forcing."""
    forcing = None if config.forcing is None else config.forcing(t)
    return Level(*localized_inputs(grid, rho_vals, psi_hat, ipsi2_hat), forcing, t)


def step_values(
    grid: SpectralGrid,
    v_hat: np.ndarray,
    prev: Level,
    nxt: Level,
    phase: np.ndarray,
    norm_weight: np.ndarray,
    rho_vals: np.ndarray | None,
    dealias_mask: np.ndarray | None,
    n_prev: np.ndarray | None = None,
):
    """One Picard-resolved Duhamel step from level prev to level nxt on raw
    arrays (leading batch axes allowed).

    phase is the propagator multiplier for dt = nxt.t - prev.t and norm_weight
    the H^{-s} weight bessel_weight(grid, -2s) of the residual and blow-up
    norms.  n_prev is the transform of N at prev, when the caller carries it
    from the previous step; None evaluates it here.  Picard starts from the
    explicit exponential predictor, which takes N(t_{k+1}) ~ e^{-i dt Lap} N(t_k).

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
            grid, v_hat, rho_vals, prev.rho_psi, prev.forcing, dealias_mask
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
            grid, v_iter, rho_vals, nxt.rho_psi, nxt.forcing, dealias_mask
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

    v_hat may carry leading batch axes, one row per ensemble member; the psi
    and <I Psi^2> transforms given to the constructor (time t) and to level()
    carry the same axes.  A step is two calls, step(level(psi_hat, ipsi2_hat,
    t_next)), so the caller's psi block can be freed before the Picard loop
    runs.  A caller that holds the starting level localized already passes
    it as `start` instead of psi_hat and ipsi2_hat (solve() does, with row 0
    of its stacked levels).  Each time level is localized once, and the last
    Picard evaluation of N at t_{k+1} is carried as the next step's N at t_k,
    except after a step in which a member failed.  Failed members are zeroed
    and flagged in `failed`, and the march goes on.  Per-step Picard
    iterations, worst residuals and monotone flags are collected in lists.
    """

    def __init__(
        self,
        config: SolverConfig,
        grid: SpectralGrid,
        v_hat: np.ndarray,
        psi_hat: np.ndarray | None,
        ipsi2_hat: np.ndarray | None,
        t: float,
        start: Level | None = None,
    ) -> None:
        self.config = config
        self.grid = grid
        self.rho_vals = None if config.rho is None else config.rho.evaluate(grid)
        self.dealias_mask = two_thirds_mask(grid) if config.dealias else None
        self.norm_weight = bessel_weight(grid, -2.0 * config.params.s)
        self._dt, self._phase = None, None
        self.v_hat = v_hat
        self.k = 0
        self._prev = self.level(psi_hat, ipsi2_hat, t) if start is None else start
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
        return _level(self.config, self.grid, self.rho_vals, psi_hat, ipsi2_hat, t)

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
            self.dealias_mask,
            n_prev=self._n_prev,
        )
        self.v_hat = v_next
        if failed.any():
            self._prev, self._n_prev = nxt, None
        else:
            # N at nxt is carried, so the next step reads only r_hat and t there
            self._prev, self._n_prev = nxt._replace(rho_psi=None, forcing=None), n_next
        self.k += 1
        self.iterations.append(iterations)
        self.residuals.append(float(np.max(residuals)))
        self.monotone.append(monotone)
        self.failed |= failed


def _initial_hat(config: SolverConfig, grid: SpectralGrid) -> np.ndarray:
    """Transform of the initial data phi (zero when unset), as a fresh array;
    Field stores phi's values as complex, so they take the complex transform."""
    if config.phi is None:
        return grid.zeros()
    if config.phi.space == "frequency":
        return config.phi.values.copy()
    return grid.forward_values(config.phi.values)


def _make_traces(
    grid: SpectralGrid, params: PaperParams, rho_vals: np.ndarray | None
) -> Traces:
    """The Y(T) integrands of a stack of time levels, one value per row:
    H^{-s}, W^{-s,q} and localized H^{-s+eta}."""
    s, eta = params.s, params.eta
    q = params.pair[1]

    def traces(v_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = np.sqrt(hs_norm_sq_hat(grid, v_hats, -s))
        wq = sobolev_norm_hat(grid, v_hats, -s, q)
        if rho_vals is None:
            loc = np.zeros(len(v_hats))
        else:
            loc = localized_norm_hat(grid, v_hats, rho_vals, -s + eta)
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


def _path_levels(
    config: SolverConfig, path: StochasticPath, rho_vals: np.ndarray | None
) -> Level:
    """Every time level of the path, localized in one batched call: a Level
    whose arrays carry a leading axis of K+1 levels and whose t is the time
    grid.  The stacked psi and <I Psi^2> are freed on return."""
    rho_psi, r_hat = localized_inputs(
        path.grid,
        rho_vals,
        np.stack([f.values for f in path.psi]),
        np.stack([f.values for f in path.ipsi2]),
    )
    forcing = None
    if config.forcing is not None:
        forcing = np.stack([config.forcing(float(t)) for t in path.times])
    return Level(rho_psi, r_hat, forcing, path.times)


def _row(levels: Level, k: int) -> Level:
    """Time level k of a stacked Level, as views."""
    rho_psi, r_hat, forcing, times = levels
    return Level(
        None if rho_psi is None else rho_psi[k],
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
    levels = _path_levels(config, path, rho_vals)
    if config.mode == "global":
        trajectory = _march_global(config, path, levels, rho_vals, traces)
    else:
        trajectory = _march_step_local(config, path, levels)
    del levels  # freed before the traces allocate theirs
    return _output(config, path, traces, *trajectory)


def _march_step_local(
    config: SolverConfig, path: StochasticPath, levels: Level
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """One RemainderStepper over the path's levels: the v reached at each
    level, the Picard records of the accepted steps and the failure, if any.

    The march ends at the first flagged step.  Its failure is "picard" when
    the step's residual is finite and above PICARD_TOL, and "blowup"
    otherwise; a non-finite residual is recorded as NaN."""
    grid = path.grid
    times = path.times
    stepper = RemainderStepper(
        config, grid, _initial_hat(config, grid), None, None, float(times[0]),
        start=_row(levels, 0),
    )
    v_hats = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    v_hats[0] = stepper.v_hat
    reached = len(times)
    failure: StepFailure | None = None
    for k in range(1, len(times)):
        stepper.step(_row(levels, k))
        if stepper.failed.any():
            residual = stepper.residuals[-1]
            kind = "picard" if np.isfinite(residual) and residual > PICARD_TOL else "blowup"
            if not np.isfinite(residual):
                residual = float("nan")
            failure = StepFailure(kind, stepper.t, k - 1, residual, stepper.iterations[-1])
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


def _march_global(
    config: SolverConfig,
    path: StochasticPath,
    levels: Level,
    rho_vals: np.ndarray | None,
    traces: Traces,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepFailure | None]:
    """Whole-trajectory fixed-point iteration of the contraction map.

    Each sweep evaluates N at every level in one batched call and measures
    the distance between successive iterates with one batched traces call;
    only the Duhamel recurrence runs level by level.
    """
    grid = path.grid
    times = path.times
    steps = len(times) - 1
    dealias_mask = two_thirds_mask(grid) if config.dealias else None
    dts = [float(times[k + 1] - times[k]) for k in range(steps)]
    phases = {dt: propagator_phase(grid, dt) for dt in set(dts)}
    phi_hat = _initial_hat(config, grid)
    r_hat = levels.r_hat

    def free():
        """The free evolution of phi at each level, formed by the same products
        in every sweep."""
        f = phi_hat
        yield f
        for dt in dts:
            f = phases[dt] * f
            yield f

    current = np.empty_like(r_hat)
    for k, f in enumerate(free()):
        np.add(f, r_hat[k], out=current[k])
    new = np.empty_like(current)
    duhamel, term = grid.zeros(), grid.zeros()
    iterations = 0
    distance = np.inf
    # a diverging iterate overflows on its way to inf; the cut below handles it
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, PICARD_MAX + 1):
            n_hats = nonlinearity_values(
                grid, current, rho_vals, levels.rho_psi, levels.forcing, dealias_mask
            )
            # new[k+1] = free[k+1] + duhamel_{k+1} + r_hat[k+1], where
            # duhamel_{k+1} = phase duhamel_k + (-i dt/2)(phase N_k + N_{k+1});
            # operands in this order (see stochastic.duhamel_update)
            sweep = free()
            np.add(next(sweep), r_hat[0], out=new[0])
            duhamel.fill(0.0)
            for k, (dt, f) in enumerate(zip(dts, sweep)):
                phase = phases[dt]
                np.multiply(phase, n_hats[k], out=term)
                term += n_hats[k + 1]
                np.multiply(-0.5j * dt, term, out=term)
                np.multiply(phase, duhamel, out=duhamel)
                duhamel += term
                np.add(f, duhamel, out=new[k + 1])
                new[k + 1] += r_hat[k + 1]
            del n_hats
            # the old iterate becomes the difference, then the two buffers swap roles
            np.subtract(new, current, out=current)
            y = _y_summary(times, *traces(current), config.params)
            distance = y["sup_H_minus_s"] + y["Lp_W_minus_s_q"] + y["Leta_localized"]
            current, new = new, current
            iterations = m
            if not np.isfinite(distance):
                break
            if distance <= PICARD_TOL:
                break

    # As in the step-local march, the trajectory ends before the first level
    # whose H^{-s} norm is non-finite or above BLOWUP_NORM, and the failure is
    # dated there.
    norms = np.sqrt(hs_norm_sq_hat(grid, current[1:], -config.params.s))
    blown = np.flatnonzero(~(norms <= BLOWUP_NORM))
    failure = None
    if blown.size:
        k = int(blown[0]) + 1
        current = current[:k]
        failure = StepFailure("blowup", float(times[k]), k - 1, float(distance), iterations)
    elif not distance <= PICARD_TOL:
        failure = StepFailure(
            "blowup" if not np.isfinite(distance) else "picard",
            float(times[-1]),
            steps - 1,
            float(distance),
            iterations,
        )
    steps = len(current) - 1
    return (
        current,
        np.full(steps, iterations, dtype=int),
        np.full(steps, distance),
        np.ones(steps, dtype=bool),
        failure,
    )
