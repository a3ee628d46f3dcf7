"""Exponential Duhamel time stepping for the remainder equation v = u - Psi.

One step advances v by

    v_{k+1} = e^{-i dt Lap} v_k
              - i (dt/2) [ e^{-i dt Lap} N(t_k) + N(t_{k+1}) ]
              + [ R(t_{k+1}) - e^{-i dt Lap} R(t_k) ]

with N = rho^2 |v|^2 + (rho conj(v))(rho Psi) + (rho v) conj(rho Psi) evaluated
pointwise in physical space (nonlinearity_values), R = rho^2 <I Psi^2> (cutoff
applied before the propagator), and the implicit endpoint resolved by Picard
iteration from the initial guess e^{-i dt Lap} v_k (step_values).  Residuals are
successive-iterate distances in the discrete H^{-s} norm.

This module is the only place that marches the equation.  RemainderStepper is
the step-local loop: it carries v and the previous time level's localized
inputs, so every level is localized once.  solve() drives one stepper over a
path's snapshots; the coupled convergence study drives one per truncation
radius over a batch of ensemble members.  solve(mode="global") is a separate
algorithm, the fixed-point iteration of the whole-trajectory contraction map;
it shares with the stepper the input localization (localized_inputs), the
initial data, and the assembly of traces and SolverOutput.  All norms come
from grid.py.

Loss of regularity (norm above BLOWUP_NORM, or non-finite values) is a
first-class outcome: solve() returns the partial trajectory and a failure
record, never crashes.
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
    hs_norm_sq_hat,
    localized_norm_hat,
    propagator_phase,
    sobolev_norm_hat,
    to_frequency,
    two_thirds_mask,
)
from .reference import PaperParams
from .stochastic import StochasticPath

BLOWUP_NORM = 1e8


@dataclass
class StepFailure(Exception):
    """A time step could not be accepted."""

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
    picard_tol: float = 1e-10
    picard_max: int = 50
    dealias: bool = True
    mode: str = "step-local"  # or "global"
    forcing: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise GridError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.T <= 1.0:
            raise GridError(f"T must lie in (0, 1], got {self.T}")
        if self.picard_max < 1:
            raise GridError("picard_max must be >= 1")
        if self.mode not in ("step-local", "global"):
            raise GridError(f"unknown solver mode {self.mode!r}")


class Level(NamedTuple):
    """The inputs of one time level, already localized: rho Psi in physical
    space (None without a cutoff), the transform of rho^2 <I Psi^2>, and the
    physical-space forcing (None without one)."""

    rho_psi: np.ndarray | None
    r_hat: np.ndarray
    forcing: np.ndarray | None


@dataclass
class SolverOutput:
    config: SolverConfig
    times: np.ndarray
    v: list[Field]
    u: list[Field]
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
    space; rho_psi_phys = None drops the cross term and rho_vals = None (no
    cutoff) makes N vanish.  The mask, when given, dealiases the transform.
    """
    total = None
    if rho_vals is not None:
        w = rho_vals * grid.inverse_values(v_hat)
        total = np.abs(w) ** 2
        if rho_psi_phys is not None:
            total = total + 2.0 * np.real(np.conj(w) * rho_psi_phys)
    if forcing is not None:
        total = forcing if total is None else total + forcing
    if total is None:
        return np.zeros(np.shape(v_hat), dtype=np.complex128)
    n_hat = grid.forward_values(total)
    if dealias_mask is not None:
        n_hat = n_hat * dealias_mask
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
    return Level(*localized_inputs(grid, rho_vals, psi_hat, ipsi2_hat), forcing)


def step_values(
    grid: SpectralGrid,
    v_hat: np.ndarray,
    prev: Level,
    nxt: Level,
    dt: float,
    s: float,
    rho_vals: np.ndarray | None,
    picard_tol: float,
    picard_max: int,
    dealias_mask: np.ndarray | None,
    t_next: float,
    step_index: int,
    strict: bool = True,
):
    """One Picard-resolved Duhamel step from level prev to level nxt on raw
    arrays (leading batch axes allowed).

    Returns (v_next, iterations, residuals, monotone_ok, history, failed), where
    history holds the worst healthy residual of each iteration.  In batched mode
    iteration continues until every healthy member's residual clears
    picard_tol.  With strict=True any failure raises StepFailure; with
    strict=False failed members are zeroed and flagged in the returned mask so
    ensemble studies can exclude them and keep going.
    """
    phase = propagator_phase(grid, dt)
    n_prev = nonlinearity_values(
        grid, v_hat, rho_vals, prev.rho_psi, prev.forcing, dealias_mask
    )
    fixed = (
        phase * v_hat
        + (-0.5j * dt) * phase * n_prev
        + (nxt.r_hat - phase * prev.r_hat)
    )
    v_iter = phase * v_hat
    batch_shape = np.shape(v_hat)[: np.ndim(v_hat) - grid.d]
    failed = np.zeros(batch_shape, dtype=bool)
    residuals = np.zeros(batch_shape)
    history: list[float] = []
    monotone_ok = True
    iterations = 0
    for m in range(1, picard_max + 1):
        n_next = nonlinearity_values(
            grid, v_iter, rho_vals, nxt.rho_psi, nxt.forcing, dealias_mask
        )
        v_new = fixed + (-0.5j * dt) * n_next
        residuals = np.sqrt(hs_norm_sq_hat(grid, v_new - v_iter, -s))
        failed = failed | ~np.isfinite(residuals)
        if strict and failed.any():
            raise StepFailure("blowup", t_next, step_index, float("nan"), m)
        healthy = residuals[~failed]
        worst = float(np.max(healthy)) if healthy.size else 0.0
        history.append(worst)
        if len(history) >= 3 and history[-1] > history[-2]:
            monotone_ok = False
        v_iter = v_new
        iterations = m
        if worst <= picard_tol:
            break
    else:
        if strict:
            raise StepFailure(
                "picard", t_next, step_index, float(np.max(residuals)), iterations
            )
        failed = failed | (residuals > picard_tol)
    norms = np.sqrt(hs_norm_sq_hat(grid, v_iter, -s))
    big = ~np.isfinite(norms) | (norms > BLOWUP_NORM)
    if strict and big.any():
        raise StepFailure(
            "blowup", t_next, step_index, float(np.max(residuals)), iterations
        )
    failed = failed | big
    if failed.any():
        v_iter = np.where(failed.reshape(failed.shape + (1,) * grid.d), 0.0, v_iter)
    return v_iter, iterations, residuals, monotone_ok, history, failed


class RemainderStepper:
    """The step-local march: v and the previous time level's localized inputs.

    v_hat may carry leading batch axes, one row per ensemble member; the psi
    and <I Psi^2> transforms given to the constructor (time t) and to step()
    carry the same axes.  Each time level is localized once.  With strict=True
    a failed step raises StepFailure and leaves the state at the last accepted
    step; with strict=False failed members are zeroed, flagged in `failed`, and
    the march goes on.  Per-step Picard iterations, worst residuals and
    monotone flags are collected in lists.
    """

    def __init__(
        self,
        config: SolverConfig,
        grid: SpectralGrid,
        v_hat: np.ndarray,
        psi_hat: np.ndarray,
        ipsi2_hat: np.ndarray,
        t: float,
        strict: bool = True,
    ) -> None:
        self.config = config
        self.grid = grid
        self.strict = strict
        self.rho_vals = None if config.rho is None else config.rho.evaluate(grid)
        self.dealias_mask = two_thirds_mask(grid) if config.dealias else None
        self.v_hat = v_hat
        self.t = t
        self.k = 0
        self._prev = _level(config, grid, self.rho_vals, psi_hat, ipsi2_hat, t)
        self.iterations: list[int] = []
        self.residuals: list[float] = []
        self.monotone: list[bool] = []
        self.failed = np.zeros(np.shape(v_hat)[: np.ndim(v_hat) - grid.d], dtype=bool)

    def step(self, psi_hat: np.ndarray, ipsi2_hat: np.ndarray, t_next: float) -> None:
        """Advance v to t_next, where Psi and <I Psi^2> have the given transforms."""
        nxt = _level(self.config, self.grid, self.rho_vals, psi_hat, ipsi2_hat, t_next)
        v_next, iterations, residuals, monotone, _, failed = step_values(
            self.grid,
            self.v_hat,
            self._prev,
            nxt,
            t_next - self.t,
            self.config.params.s,
            self.rho_vals,
            self.config.picard_tol,
            self.config.picard_max,
            self.dealias_mask,
            t_next,
            self.k,
            strict=self.strict,
        )
        self.v_hat, self._prev, self.t = v_next, nxt, t_next
        self.k += 1
        self.iterations.append(iterations)
        self.residuals.append(float(np.max(residuals)))
        self.monotone.append(monotone)
        self.failed |= failed


def _initial_hat(config: SolverConfig, grid: SpectralGrid) -> np.ndarray:
    """Transform of the initial data phi (zero when unset), as a fresh array."""
    if config.phi is None:
        return grid.zeros()
    return to_frequency(config.phi).values.copy()


def _make_traces(
    grid: SpectralGrid, params: PaperParams, rho_vals: np.ndarray | None
) -> Callable[[np.ndarray], tuple[float, float, float]]:
    """The Y(T) integrands at one time level: H^{-s}, W^{-s,q} and localized H^{-s+eta}."""
    s, eta = params.s, params.eta
    q = params.pair[1]

    def traces(v_hat: np.ndarray) -> tuple[float, float, float]:
        h = float(np.sqrt(hs_norm_sq_hat(grid, v_hat, -s)))
        wq = float(sobolev_norm_hat(grid, v_hat, -s, q))
        loc = 0.0 if rho_vals is None else float(localized_norm_hat(grid, v_hat, rho_vals, -s + eta))
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
    traces: Callable[[np.ndarray], tuple[float, float, float]],
    v_hats: list[np.ndarray],
    picard_iterations: np.ndarray,
    residuals: np.ndarray,
    monotone_flags: np.ndarray,
    failure: StepFailure | None,
) -> SolverOutput:
    """Traces, Y(T) norms and u = v + Psi over the time levels v_hats reached."""
    grid = path.grid
    trace_h, trace_wq, trace_loc = (np.array(col) for col in zip(*map(traces, v_hats)))
    return SolverOutput(
        config=config,
        times=path.times[: len(v_hats)],
        v=[Field(grid, vh, "frequency") for vh in v_hats],
        u=[Field(grid, vh + path.psi[k].values, "frequency") for k, vh in enumerate(v_hats)],
        picard_iterations=picard_iterations,
        residuals=residuals,
        monotone_flags=monotone_flags,
        trace_h=trace_h,
        trace_wq=trace_wq,
        trace_localized=trace_loc,
        y_norms=_y_summary(path.times, trace_h, trace_wq, trace_loc, config.params),
        failure=failure,
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

    if config.mode == "global":
        return _solve_global(config, path, rho_vals, traces)

    stepper = RemainderStepper(
        config, grid, _initial_hat(config, grid), path.psi[0].values, path.ipsi2[0].values,
        float(times[0]),
    )
    v_hats = [stepper.v_hat]
    failure: StepFailure | None = None
    for k in range(1, len(times)):
        try:
            stepper.step(path.psi[k].values, path.ipsi2[k].values, float(times[k]))
        except StepFailure as exc:
            failure = exc
            break
        v_hats.append(stepper.v_hat)
    return _output(
        config,
        path,
        traces,
        v_hats,
        np.array(stepper.iterations, dtype=int),
        np.array(stepper.residuals, dtype=np.float64),
        np.array(stepper.monotone, dtype=bool),
        failure,
    )


def _solve_global(
    config: SolverConfig,
    path: StochasticPath,
    rho_vals: np.ndarray | None,
    traces: Callable[[np.ndarray], tuple[float, float, float]],
) -> SolverOutput:
    """Whole-trajectory fixed-point iteration of the contraction map."""
    grid = path.grid
    times = path.times
    steps = len(times) - 1
    dealias_mask = two_thirds_mask(grid) if config.dealias else None
    dts = [float(times[k + 1] - times[k]) for k in range(steps)]
    phases = {dt: propagator_phase(grid, dt) for dt in set(dts)}
    levels = [
        _level(config, grid, rho_vals, path.psi[k].values, path.ipsi2[k].values, float(times[k]))
        for k in range(steps + 1)
    ]
    free = [_initial_hat(config, grid)]
    for dt in dts:
        free.append(phases[dt] * free[-1])

    current = [free[k] + levels[k].r_hat for k in range(steps + 1)]
    iterations = 0
    distance = np.inf
    # a diverging iterate overflows on its way to inf; the cut below handles it
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, config.picard_max + 1):
            n_hats = [
                nonlinearity_values(
                    grid, current[k], rho_vals, levels[k].rho_psi, levels[k].forcing, dealias_mask
                )
                for k in range(steps + 1)
            ]
            duhamel = grid.zeros()
            new = [free[0] + levels[0].r_hat]
            for k, dt in enumerate(dts):
                phase = phases[dt]
                duhamel = phase * duhamel + (-0.5j * dt) * (phase * n_hats[k] + n_hats[k + 1])
                new.append(free[k + 1] + duhamel + levels[k + 1].r_hat)
            diffs = [traces(new[k] - current[k]) for k in range(steps + 1)]
            dh, dq, dl = (np.array(col) for col in zip(*diffs))
            y = _y_summary(times, dh, dq, dl, config.params)
            distance = y["sup_H_minus_s"] + y["Lp_W_minus_s_q"] + y["Leta_localized"]
            current = new
            iterations = m
            if not np.isfinite(distance):
                break
            if distance <= config.picard_tol:
                break

    # As in the step-local march, the trajectory ends before the first level
    # whose H^{-s} norm is non-finite or above BLOWUP_NORM, and the failure is
    # dated there.
    norms = np.sqrt(hs_norm_sq_hat(grid, np.array(current[1:]), -config.params.s))
    blown = np.flatnonzero(~(norms <= BLOWUP_NORM))
    failure = None
    if blown.size:
        k = int(blown[0]) + 1
        current = current[:k]
        failure = StepFailure("blowup", float(times[k]), k - 1, float(distance), iterations)
    elif not distance <= config.picard_tol:
        failure = StepFailure(
            "blowup" if not np.isfinite(distance) else "picard",
            float(times[-1]),
            steps - 1,
            float(distance),
            iterations,
        )
    steps = len(current) - 1
    return _output(
        config,
        path,
        traces,
        current,
        np.full(steps, iterations, dtype=int),
        np.full(steps, distance),
        np.ones(steps, dtype=bool),
        failure,
    )
