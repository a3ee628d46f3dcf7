"""Remainder-equation solver: free evolution, convergence order, failure policy."""

import dataclasses
import warnings

import numpy as np
import pytest

import wsnl.solver
from wsnl.grid import (
    CutoffRho,
    Field,
    GridError,
    SpectralGrid,
    hs_weight,
    propagator_phase,
    sobolev_norm_hat,
    truncation_mask,
    two_thirds_mask,
    weighted_norm_sq_hat,
)
from wsnl.reference import PaperParams
from wsnl.solver import (
    BLOWUP_NORM,
    PICARD_MAX,
    PICARD_TOL,
    Level,
    RemainderStepper,
    SolverConfig,
    StepFailure,
    Support,
    _make_traces,
    _y_summary,
    level,
    nonlinearity_scale,
    nonlinearity_values,
    r_hat,
    solve,
    step_values,
    support,
    v_from_z,
    z_from_v,
)
from wsnl.stochastic import PathEnsemble, StochasticPath, sample_path, zero_path
from wsnl.studies import StudyConfig

GRID = SpectralGrid(1, 2 * np.pi, 64)
PARAMS = PaperParams(d=1, alpha=0.3, eps=0.01, n=8)


def three_mode_field(grid, amp=0.1):
    vals = np.zeros(grid.shape, dtype=complex)
    vals[1] = amp * grid.L
    vals[2] = 0.5 * amp * grid.L
    vals[-3] = 0.25 * amp * grid.L
    return Field(grid, grid.inverse_values(vals), "physical")


def make_config(grid, params, rho, phi, T, K, **kw):
    return SolverConfig(params=params, rho=rho, phi=phi, dt=T / K, T=T, **kw)


class TestFreeEvolution:
    def test_no_cutoff_is_exact_free_group(self):
        T, K = 0.5, 256
        phi = three_mode_field(GRID)
        config = make_config(GRID, PARAMS, None, phi, T, K)
        out = solve(config, zero_path(PARAMS, GRID, T=T, K=K))
        assert out.completed
        phi_hat = GRID.forward_values(phi.values)
        expected = np.exp(1j * T * GRID.xi2) * phi_hat
        assert np.max(np.abs(out.v[-1] - expected)) < 1e-10 * np.max(np.abs(phi_hat))

    def test_l2_conserved_over_256_steps(self):
        T, K = 0.5, 256
        phi = three_mode_field(GRID)
        config = make_config(GRID, PARAMS, None, phi, T, K)
        out = solve(config, zero_path(PARAMS, GRID, T=T, K=K))
        l2_0 = sobolev_norm_hat(GRID, out.v[0], 0.0, 2)
        l2_T = sobolev_norm_hat(GRID, out.v[-1], 0.0, 2)
        assert abs(l2_T - l2_0) < 1e-10 * l2_0

    def test_zero_data_stays_zero(self):
        config = make_config(GRID, PARAMS, None, None, 0.25, 16)
        out = solve(config, zero_path(PARAMS, GRID, T=0.25, K=16))
        assert out.v.shape == (17,) + GRID.shape
        assert np.all(out.v == 0)


class TestQuadraticNonlinearity:
    rho_vals = CutoffRho.for_grid(GRID).evaluate(GRID)

    def nonlinearity(self, v_phys, rho_psi=None):
        """N(v; rho Psi) in physical space, no forcing, no dealiasing."""
        two_rho_psi = np.zeros(GRID.shape, dtype=complex) if rho_psi is None else 2.0 * rho_psi
        sup = support(self.rho_vals)
        n_hat = nonlinearity_values(
            GRID, GRID.forward_values(v_phys), sup, Level(two_rho_psi[sup.box], None, None), None
        )
        return GRID.inverse_values(n_hat)

    def test_zero_input(self):
        assert np.all(self.nonlinearity(np.zeros(GRID.N)) == 0)

    def test_real_and_nonnegative(self):
        rng = np.random.default_rng(1)
        out = self.nonlinearity(rng.standard_normal(GRID.N) + 1j * rng.standard_normal(GRID.N))
        scale = np.max(np.abs(out.real))
        assert np.max(np.abs(out.imag)) < 1e-12 * scale
        assert np.all(out.real >= -1e-12 * scale)

    def test_single_mode_gives_constant_envelope(self):
        amp = 1.7
        out = self.nonlinearity(amp * np.exp(1j * 3 * GRID.x))
        expected = amp**2 * self.rho_vals**2
        assert np.max(np.abs(out - expected)) < 1e-12 * amp**2

    def test_cross_term(self):
        # N(v; rho Psi) - N(v; 0) = 2 Re(conj(rho v) rho Psi)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(GRID.N) + 1j * rng.standard_normal(GRID.N)
        rho_psi = self.rho_vals * (rng.standard_normal(GRID.N) + 1j * rng.standard_normal(GRID.N))
        cross = self.nonlinearity(v, rho_psi) - self.nonlinearity(v)
        expected = 2.0 * np.real(np.conj(self.rho_vals * v) * rho_psi)
        assert np.max(np.abs(cross - expected)) < 1e-12 * np.max(np.abs(expected))


class TestConvergence:
    T = 0.25
    rho = CutoffRho.for_grid(GRID)
    phi = three_mode_field(GRID)

    def _final(self, K, forcing=None, phi=None):
        config = make_config(
            GRID, PARAMS, self.rho, phi if phi is not None else self.phi, self.T, K,
            dealias=False, forcing=forcing,
        )
        out = solve(config, zero_path(PARAMS, GRID, T=self.T, K=K))
        assert out.completed
        return out.v[-1]

    def test_richardson_self_convergence_order_two(self):
        ref = self._final(128)
        e16 = np.max(np.abs(self._final(16) - ref))
        e32 = np.max(np.abs(self._final(32) - ref))
        order = np.log2(e16 / e32)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_manufactured_solution_order_two(self):
        # v*(t, x) = e^{-it} g(x); forcing f = (i d/dt - Lap)(v*) - rho^2 |v*|^2
        g = three_mode_field(GRID, amp=0.3)
        g_hat = GRID.forward_values(g.values)
        h = GRID.inverse_values((1.0 + GRID.xi2) * g_hat)
        rho2 = self.rho.evaluate(GRID) ** 2
        envelope = rho2 * np.abs(g.values) ** 2

        def forcing(t):
            return np.exp(-1j * t) * h - envelope

        exact = np.exp(-1j * self.T) * g_hat

        def error(K):
            return np.max(np.abs(self._final(K, forcing=forcing, phi=g) - exact))

        e16, e32 = error(16), error(32)
        order = np.log2(e16 / e32)
        assert order == pytest.approx(2.0, abs=0.2)


def test_spectral_accuracy_under_resolution_doubling():
    # deterministic cutoff NLS: doubling N changes the final H^{-s} norm by < 1%
    T, K = 0.25, 64
    results = []
    for N in (64, 128):
        grid = SpectralGrid(1, 2 * np.pi, N)
        rho = CutoffRho.for_grid(grid)
        phi = three_mode_field(grid, amp=0.5)
        config = SolverConfig(params=PARAMS, rho=rho, phi=phi, dt=T / K, T=T, dealias=True)
        out = solve(config, zero_path(PARAMS, grid, T=T, K=K))
        assert out.completed
        results.append(out.trace_h[-1])
    assert abs(results[1] - results[0]) < 0.01 * results[0]


def test_picard_contraction_evidence_on_stochastic_run():
    T, K = 0.25, 64
    path = sample_path(PARAMS, GRID, seed=22, T=T, K=K)
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, PARAMS, rho, None, T, K)
    out = solve(config, path)
    assert out.completed
    assert np.all(out.picard_iterations <= PICARD_MAX)
    assert np.mean(out.monotone_flags) >= 0.95
    assert all(np.isfinite(v) for v in out.y_norms.values())


def test_picard_stops_within_picard_tol_of_the_fixed_point():
    # one batched step of eight members, taken after four steps of the march
    # so that v and N(t_k) are not zero
    T, K, n, members = 0.25, 8, 16.0, 8
    params = PaperParams(d=1, alpha=PARAMS.alpha, eps=PARAMS.eps, n=n)
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, params, rho, None, T, K)
    rho_vals = rho.evaluate(GRID)
    ens = PathEnsemble(GRID, params.alpha, [n], T, K, seed=7, size=members, track=True)

    def current():
        return level(config, GRID, rho_vals, ens.psi_values(n), ens.ipsi2_values(n), ens.t)

    stepper = RemainderStepper(config, GRID, np.zeros((members,) + GRID.shape, complex), current())
    for _ in range(4):
        ens.advance()
        prev = current()
        stepper.step(prev)
    z = stepper.z_hat
    ens.advance()
    nxt = current()
    sup = support(rho_vals)
    scale = nonlinearity_scale(GRID, True, config.dt)
    weight = hs_weight(GRID, -params.s)
    phase = propagator_phase(GRID, config.dt)
    z_next, iterations, residuals, _, _, failed, _ = step_values(
        GRID, z, prev, nxt, phase, weight, sup, scale
    )
    assert not failed.any()

    def distance(a, b):
        return np.sqrt(weighted_norm_sq_hat(GRID, a - b, weight))

    # the same map on z = v - R, with h N = -i (dt/2) N, iterated from the
    # predictor to its round-off floor
    hn_prev = nonlinearity_values(GRID, z, sup, prev, scale)
    fixed = phase * (z + hn_prev)
    iterate = fixed + phase * hn_prev
    increments = []
    for _ in range(100):
        new = fixed + nonlinearity_values(GRID, iterate, sup, nxt, scale)
        increments.append(distance(new, iterate))
        iterate = new
    assert np.max(increments[-1]) <= 1e-18
    assert np.all(distance(z_next, iterate) <= PICARD_TOL)
    assert np.all(residuals <= PICARD_TOL)
    # the first increment has no contraction factor to bound it
    assert np.max(increments[0]) > PICARD_TOL and iterations >= 2


@pytest.mark.parametrize("d, N", [(1, 48), (1, 64), (2, 24), (2, 32)])
def test_picard_iterates_on_the_box_are_the_spectral_iterates(d, N, monkeypatch):
    # step_values iterates w = rho (z + R) on the box as Re A + i y; each
    # iterate must be rho (inverse_values(z^(m)) + R) of the spectral iterate
    # z^(m) = fixed + h F(N^(m-1)), whose real part is that of fixed
    grid = SpectralGrid(d, 2 * np.pi, N)
    rng = np.random.default_rng(N + d)
    band = truncation_mask(grid, 4.0)

    def smooth(amp):
        return amp * grid.L**d * band * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))

    config = make_config(grid, PARAMS, CutoffRho.for_grid(grid), None, 0.25, 16)
    rho_vals = config.rho.evaluate(grid)
    sup = support(rho_vals)
    prev, nxt = (level(config, grid, rho_vals, smooth(0.3), smooth(0.1), t) for t in (0.0, config.dt))
    z = smooth(0.2)
    scale = nonlinearity_scale(grid, True, config.dt)
    phase = propagator_phase(grid, config.dt)
    weight = hs_weight(grid, -0.35)
    n_inputs, raw_inverses = [], []
    forward, inverse = SpectralGrid.forward_values, SpectralGrid.inverse_values

    def recording_forward(self, values, *args, half=False, **kwargs):
        if half:
            n_inputs.append(np.array(values).reshape(grid.shape))
        return forward(self, values, *args, half=half, **kwargs)

    def recording_inverse(self, values, *args, half=False, **kwargs):
        out = inverse(self, values, *args, half=half, **kwargs)
        if half:
            raw_inverses.append(np.array(out).reshape(grid.shape))
        return out

    monkeypatch.setattr(SpectralGrid, "forward_values", recording_forward)
    monkeypatch.setattr(SpectralGrid, "inverse_values", recording_inverse)
    _, iterations, _, _, _, failed, _ = step_values(grid, z, prev, nxt, phase, weight, sup, scale)
    monkeypatch.undo()
    assert not failed and iterations >= 3
    assert len(n_inputs) == iterations and len(raw_inverses) == iterations - 1

    fixed = phase * (z + nonlinearity_values(grid, z, sup, prev, scale))
    a = sup.rho * (grid.inverse_values(fixed)[sup.box] + nxt.r)
    off_box = np.ones(grid.shape, dtype=bool)
    off_box[sup.box] = False
    size = np.max(np.abs(a))
    for m in range(1, iterations):
        z_m = fixed + grid.forward_values(n_inputs[m - 1].astype(np.complex128), scale=scale)
        w = sup.rho * (grid.inverse_values(z_m)[sup.box] + nxt.r)
        y = a.imag + (grid.N / grid.L) ** d * sup.rho * raw_inverses[m - 1][sup.box]
        assert np.max(np.abs(w.real - a.real)) <= 1e-13 * size
        assert np.max(np.abs(y - w.imag)) <= 1e-13 * size
        n_w = np.abs(w) ** 2 + np.real(np.conj(w) * nxt.two_rho_psi)
        assert np.max(np.abs(n_inputs[m][sup.box] - n_w)) <= 1e-13 * size**2
        assert np.all(n_inputs[m][off_box] == 0.0)


def test_step_local_solve_records_residuals_within_picard_tol():
    # a row's residual is the quantity the Picard stop tested
    T, K = 0.25, 32
    path = sample_path(PARAMS, GRID, seed=41, T=T, K=K)
    out = solve(make_config(GRID, PARAMS, CutoffRho.for_grid(GRID), None, T, K), path)
    assert out.completed
    assert np.all(out.residuals <= PICARD_TOL)


def test_blowup_is_reported_not_raised():
    T, K = 0.25, 16
    rho = CutoffRho.for_grid(GRID)

    def forcing(t):
        return np.full(GRID.shape, 1e12)

    config = make_config(GRID, PARAMS, rho, None, T, K, forcing=forcing)
    out = solve(config, zero_path(PARAMS, GRID, T=T, K=K))
    assert not out.completed
    assert isinstance(out.failure, StepFailure)
    # the first step's residual overflows at the fifth iteration
    assert repr(dataclasses.astuple(out.failure)) == "('blowup', 0.015625, 0, nan, 5)"
    assert len(out.v) < K + 1  # partial trajectory returned


@pytest.mark.parametrize("mode", ["step-local", "global"])
def test_picard_failure_ends_the_march_at_the_unconverged_step(mode, monkeypatch):
    T, K = 0.25, 16
    path = sample_path(PARAMS, GRID, seed=42, T=T, K=K)
    config = make_config(GRID, PARAMS, CutoffRho.for_grid(GRID), None, T, K, mode=mode)
    rho_vals = config.rho.evaluate(GRID)
    monkeypatch.setattr(wsnl.solver, "PICARD_MAX", 1)
    out = solve(config, path)
    if mode == "step-local":
        # the first step taken on its own: one iteration leaves it unconverged
        start = level(config, GRID, rho_vals, path.psi[0].values, path.ipsi2[0].values, 0.0)
        stepper = RemainderStepper(config, GRID, GRID.zeros(), start)
        t1 = float(path.times[1])
        stepper.step(level(config, GRID, rho_vals, path.psi[1].values, path.ipsi2[1].values, t1))
        residual = stepper.residuals[0]
        assert stepper.failed.all() and PICARD_TOL < residual < np.inf
        assert dataclasses.astuple(out.failure) == ("picard", float(path.times[1]), 0, residual, 1)
        assert len(out.v) == 1 and np.all(out.v[0] == 0)
        assert len(out.picard_iterations) == len(out.residuals) == len(out.monotone_flags) == 0
        return
    # one sweep from the first iterate, z = v - R = 0 at every level (phi is
    # unset and R(0) = 0): its distance is the Y-norm of the z reached, all
    # levels kept
    levels = level(
        config,
        GRID,
        rho_vals,
        np.stack([f.values for f in path.psi]),
        np.stack([f.values for f in path.ipsi2]),
        path.times,
    )
    traces = _make_traces(GRID, PARAMS, rho_vals)
    y = _y_summary(path.times, *traces(out.v - r_hat(GRID, support(rho_vals), levels.r)), PARAMS)
    distance = y["sup_H_minus_s"] + y["Lp_W_minus_s_q"] + y["Leta_localized"]
    assert distance == pytest.approx(0.0039527, rel=1e-4)
    assert dataclasses.astuple(out.failure) == ("picard", T, K - 1, distance, 1)
    assert len(out.v) == K + 1
    assert np.all(out.picard_iterations == 1) and np.all(out.residuals == distance)


def test_study_config_gives_the_solver_settings_of_its_solves():
    cfg = StudyConfig(kind="solve", n=16.0, N=64, K=8, T=0.25, eta=0.45, dealias=False,
                      solver_mode="global")
    got = cfg.solver()
    assert got.params == cfg.params() == PaperParams(d=1, alpha=0.3, eps=0.01, n=16.0, eta=0.45)
    assert (got.dt, got.T, got.dealias, got.mode) == (0.25 / 8, 0.25, False, "global")
    assert isinstance(got.rho, CutoffRho) and got.phi is None and got.forcing is None
    defaults = StudyConfig(kind="solve").solver()
    assert (defaults.dt, defaults.T, defaults.dealias, defaults.mode) == (
        0.5 / 256, 0.5, True, "step-local"
    )


def global_blowup_case(mode):
    """A solve whose sweeps diverge at t = 1 only (n=64, N=128, K=4, seed 3)."""
    cfg = StudyConfig(kind="solve", n=64, N=128, K=4, T=1.0, seed=3, solver_mode=mode)
    path = sample_path(cfg.params(), cfg.grid(), seed=cfg.seed, T=cfg.T, K=cfg.K)
    return solve(cfg.solver(), path)


def test_global_blowup_keeps_the_records_of_the_levels_before_it():
    # the three levels kept before t = 1 are swept on by themselves: their
    # rows record those sweeps and their distance, the failure the cut
    out = global_blowup_case("global")
    assert str(out.failure) == "blowup failure at t = 1 (step 3): residual nan after 19 iterations"
    assert len(out.v) == 4 and np.all(out.picard_iterations == 13)
    assert np.all(np.isfinite(out.residuals)) and np.all(out.residuals == out.residuals[0])
    assert out.residuals[0] == pytest.approx(8.07e-11, rel=1e-3)


def test_global_blowup_kept_levels_converge_to_the_step_local_solution():
    # the kept levels clear PICARD_TOL and reach the fixed point that the
    # step-local march converges to step by step
    glob, local = global_blowup_case("global"), global_blowup_case("step-local")
    assert len(glob.v) == len(local.v) == 4
    assert np.all(glob.residuals <= 1e-10)
    assert np.allclose(glob.trace_h, local.trace_h, rtol=1e-8, atol=0)


def test_global_mode_blowup_is_dated_like_step_local():
    # the blow-up case of the test above: both modes stop before the first
    # level whose norm blows up, and neither overflows on the way
    T, K = 0.25, 16
    rho = CutoffRho.for_grid(GRID)

    def forcing(t):
        return np.full(GRID.shape, 1e12)

    path = zero_path(PARAMS, GRID, T=T, K=K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [
            solve(make_config(GRID, PARAMS, rho, None, T, K, forcing=forcing, mode=mode), path)
            for mode in ("step-local", "global")
        ]
    for out in outs:
        assert out.failure.kind == "blowup" and out.failure.step_index == 0
        assert out.failure.time == path.times[1]
        assert len(out.v) == 1 and len(out.trace_h) == 1 and len(out.picard_iterations) == 0
    assert np.array_equal(outs[0].v[0], outs[1].v[0])
    # the non-finite residual reads the same in both: NaN
    assert repr(outs[0].failure.residual) == repr(outs[1].failure.residual) == "nan"


def constant_ipsi2_path(T, K):
    """A zero path whose <I Psi^2> holds one constant transform on 5 modes,
    so that R(0) = rho^2 <I Psi^2>(0) is not zero."""
    vals = np.zeros(GRID.shape, dtype=complex)
    vals[[0, 1, -1, 2, -2]] = 0.2 * GRID.L * np.array([1.0, 0.5, 0.5j, 0.25, -0.25])
    path = zero_path(PARAMS, GRID, T=T, K=K)
    return dataclasses.replace(path, ipsi2=[Field(GRID, vals, "frequency") for _ in path.times])


def test_global_mode_matches_step_local_fixed_point():
    # both modes start from v(0) = phi, whatever R(0) is
    rho = CutoffRho.for_grid(GRID)
    cases = [
        (three_mode_field(GRID, amp=0.2), zero_path(PARAMS, GRID, T=0.125, K=32)),
        (None, constant_ipsi2_path(T=0.25, K=16)),
    ]
    for phi, path in cases:
        T, K = float(path.times[-1]), len(path.times) - 1
        local = solve(make_config(GRID, PARAMS, rho, phi, T, K, mode="step-local"), path)
        glob = solve(make_config(GRID, PARAMS, rho, phi, T, K, mode="global"), path)
        assert local.completed and glob.completed
        phi_hat = GRID.zeros() if phi is None else GRID.forward_values(phi.values)
        assert np.array_equal(local.v[0], phi_hat) and np.array_equal(glob.v[0], phi_hat)
        assert np.max(np.abs(local.v - glob.v)) < 1e-7


@pytest.mark.parametrize("mode", ["step-local", "global"])
def test_solve_rejects_a_path_whose_later_steps_are_not_config_dt(mode):
    # the first step is config.dt and the grid ends at T, but the later steps
    # interleave 2 dt and dt/2
    T, K = 0.25, 32
    dt = T / K
    steps = np.concatenate([np.full(8, dt), np.tile([2 * dt, 0.5 * dt, 0.5 * dt], 8)])
    times = np.concatenate([[0.0], np.cumsum(steps)])
    assert times[1] == dt and times[-1] == T
    path = dataclasses.replace(zero_path(PARAMS, GRID, T=T, K=K), times=times)
    config = make_config(GRID, PARAMS, CutoffRho.for_grid(GRID), None, T, K, mode=mode)
    with pytest.raises(GridError, match="must match the path time grid"):
        solve(config, path)


def test_initial_data_must_be_physical():
    # phi has one form: a frequency-tagged Field is rejected, not read as a transform
    phi = Field(GRID, GRID.zeros(), "frequency")
    with pytest.raises(GridError, match="phi must be given in physical space"):
        make_config(GRID, PARAMS, None, phi, 0.25, 16)


def rung_path(params, grid, seed, stream_id, T, K, top):
    """The path of radius params.n that a ladder topped by `top` drives: its
    noise is drawn on the ball of `top`, as the ensemble draws it, and its
    psi is the top rung's masked by hand to the ball of params.n, so that it
    does not read psi_values, which the march it is compared with does."""
    ens = PathEnsemble(
        grid, params.alpha, [params.n, top], T, K, seed=seed, size=1,
        stream_offset=stream_id, track=True,
    )
    times = ens.times
    psi, ipsi2 = [], []
    for k in range(K + 1):
        if k:
            ens.advance()
        psi.append(Field(grid, truncation_mask(grid, params.n) * ens.psi[0], "frequency"))
        ipsi2.append(Field(grid, ens.ipsi2_values(params.n)[0], "frequency"))
    zero = [Field(grid, np.zeros(grid.shape), "physical") for _ in times]
    return StochasticPath(params, grid, times, psi, zero, ipsi2, seed, stream_id)


@pytest.fixture
def tight_picard(monkeypatch):
    """PICARD_TOL at 1e-12 in the solver and in reference_march.  Two
    marches that each stop within PICARD_TOL of their own fixed points, after
    different iteration counts, differ by about that much: at 1e-10 the two
    comparisons below read 1.1e-10 and 5.2e-10 against their 1e-9 x max|v|
    bounds of 2.0e-11 and 2.2e-11."""
    monkeypatch.setattr(wsnl.solver, "PICARD_TOL", 1e-12)
    monkeypatch.setitem(globals(), "PICARD_TOL", 1e-12)


def test_ensemble_march_matches_solve_per_member(tight_picard):
    # the converge study's batched march and solve() advance the same equation;
    # the top radius's path is sample_path's, the lower one is the rung of
    # the same member's ladder
    T, K, n, seed = 0.25, 32, 8.0, 31
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, PARAMS, rho, None, T, K)
    ens = PathEnsemble(
        GRID, PARAMS.alpha, [n, 2 * n], T, K, seed=seed, size=2, track=True
    )
    v0 = np.zeros((2,) + GRID.shape, dtype=complex)
    rho_vals = rho.evaluate(GRID)
    steppers = {
        r: RemainderStepper(
            config,
            GRID,
            v0,
            level(config, GRID, rho_vals, ens.psi_values(r), ens.ipsi2_values(r), ens.t),
        )
        for r in (n, 2 * n)
    }
    for _ in range(K):
        ens.advance()
        for r, stepper in steppers.items():
            nxt = level(config, GRID, rho_vals, ens.psi_values(r), ens.ipsi2_values(r), ens.t)
            stepper.step(nxt)
    for r, stepper in steppers.items():
        assert not stepper.failed.any()
        params = PaperParams(d=1, alpha=PARAMS.alpha, eps=PARAMS.eps, n=r)
        for m in range(2):
            if r == 2 * n:
                path = sample_path(params, GRID, seed=seed, stream_id=m, T=T, K=K)
            else:
                path = rung_path(params, GRID, seed, m, T, K, top=2 * n)
            out = solve(make_config(GRID, params, rho, None, T, K), path)
            assert out.completed
            ref = out.v[-1]
            assert np.max(np.abs(stepper.v_hat[m] - ref)) <= 1e-9 * np.max(np.abs(ref))


def reference_march(config, path):
    """The step-local march written out plainly in the v form, from inputs
    localized by hand on the whole grid: Picard starts from e^{-i dt Lap} v_k,
    N(t_k) is evaluated afresh at every step, and R = rho^2 <I Psi^2> enters
    as R(t_{k+1}) - e^{-i dt Lap} R(t_k).  Returns v at the last level and the
    total number of Picard iterations."""
    grid = path.grid
    rho_vals = config.rho.evaluate(grid)
    whole = Support((...,), rho_vals)
    scale = grid.cell_volume * two_thirds_mask(grid)
    weight = hs_weight(grid, -config.params.s)

    def inputs(k):
        """2 rho Psi, zero R (N of v itself) and the transform of R at level k."""
        two_rho_psi = 2.0 * rho_vals * grid.inverse_values(path.psi[k].values)
        r_hat_k = grid.forward_values(rho_vals**2 * grid.inverse_values(path.ipsi2[k].values))
        return Level(two_rho_psi, None, None), r_hat_k

    v = grid.zeros()
    prev, r_prev = inputs(0)
    total = 0
    for k in range(1, len(path.times)):
        dt = float(path.times[k] - path.times[k - 1])
        phase = propagator_phase(grid, dt)
        nxt, r_next = inputs(k)
        n_prev = nonlinearity_values(grid, v, whole, prev, scale)
        fixed = phase * v + (-0.5j * dt) * phase * n_prev + (r_next - phase * r_prev)
        iterate = phase * v
        for _ in range(PICARD_MAX):
            n_next = nonlinearity_values(grid, iterate, whole, nxt, scale)
            new = fixed + (-0.5j * dt) * n_next
            residual = np.sqrt(weighted_norm_sq_hat(grid, new - iterate, weight))
            iterate = new
            total += 1
            if residual <= PICARD_TOL:
                break
        v, prev, r_prev = iterate, nxt, r_next
    return v, total


def test_step_local_march_matches_the_plain_reference(tight_picard):
    T, K = 0.25, 32
    path = sample_path(PARAMS, GRID, seed=41, T=T, K=K)
    config = make_config(GRID, PARAMS, CutoffRho.for_grid(GRID), None, T, K)
    out = solve(config, path)
    assert out.completed
    ref, ref_iterations = reference_march(config, path)
    assert np.max(np.abs(out.v[-1] - ref)) <= 1e-9 * np.max(np.abs(ref))
    # the predictor start saves iterations
    assert int(np.sum(out.picard_iterations)) < ref_iterations


def test_y_norm_traces_finite_and_windowed():
    T, K = 0.25, 32
    path = sample_path(PARAMS, GRID, seed=23, T=T, K=K)
    rho = CutoffRho.for_grid(GRID)
    out = solve(make_config(GRID, PARAMS, rho, None, T, K), path)
    assert out.completed
    for trace in (out.trace_h, out.trace_wq, out.trace_localized):
        assert np.all(np.isfinite(trace))
    # H^{-s} trace is the frequency-side formula: cross-check one snapshot
    k = len(out.times) // 2
    direct = sobolev_norm_hat(GRID, out.v[k], -PARAMS.s, 2)
    assert out.trace_h[k] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("mode", ["step-local", "global"])
def test_wq_trace_is_the_h_trace_at_q2_and_the_physical_norm_at_q4(mode):
    # d = 1 takes the pair (inf, 2): the W^{-s,2} trace is the H^{-s} trace
    T, K = 0.25, 16
    path = sample_path(PARAMS, GRID, seed=61, T=T, K=K)
    out = solve(make_config(GRID, PARAMS, CutoffRho.for_grid(GRID), None, T, K, mode=mode), path)
    assert PARAMS.pair[1] == 2 and out.completed
    assert np.array_equal(out.trace_wq, out.trace_h)
    # d = 2 takes the pair (4, 4): q = 4 runs through the physical-space norm
    grid = SpectralGrid(2, 2 * np.pi, 16)
    params = PaperParams(d=2, alpha=0.9, n=4)
    path = sample_path(params, grid, seed=62, T=T, K=8)
    out = solve(make_config(grid, params, CutoffRho.for_grid(grid), None, T, 8, mode=mode), path)
    assert params.pair[1] == 4 and out.completed
    assert np.array_equal(out.trace_wq, sobolev_norm_hat(grid, out.v, -params.s, 4))
    assert not np.array_equal(out.trace_wq, out.trace_h)


@pytest.mark.slow
def test_full_stochastic_run_completes_at_study_scale():
    grid = SpectralGrid(1, 2 * np.pi, 256)
    params = PaperParams(d=1, alpha=0.3, eps=0.01, n=32)
    path = sample_path(params, grid, seed=24, T=0.25, K=128)
    rho = CutoffRho.for_grid(grid)
    config = SolverConfig(params=params, rho=rho, phi=None, dt=0.25 / 128, T=0.25)
    out = solve(config, path)
    assert out.completed
    assert np.all(out.picard_iterations <= 50)
    assert all(np.isfinite(v) for v in out.y_norms.values())


def per_level_traces(config, grid):
    """The Y(T) integrands of one time level, as solve() took them level by
    level before it stacked the levels: at q = 2 the W^{-s,q} trace is the
    H^{-s} trace, any other q takes the physical-space norm."""
    rho_vals = None if config.rho is None else config.rho.evaluate(grid)
    s, eta, q = config.params.s, config.params.eta, config.params.pair[1]
    weight = hs_weight(grid, -s)

    def traces(v_hat):
        h = float(np.sqrt(weighted_norm_sq_hat(grid, v_hat, weight)))
        wq = h if q == 2 else float(sobolev_norm_hat(grid, v_hat, -s, q))
        loc = 0.0 if rho_vals is None else float(sobolev_norm_hat(grid, v_hat, -s + eta, 2, rho_vals))
        return h, wq, loc

    return traces


def per_level_global(config, path, traces):
    """Global mode as it ran level by level before its sweeps were batched:
    one nonlinearity_values call and one traces call per level and sweep, on
    z = v - R from z_0 = phi - R(0).  Returns the v reached at each level,
    v(0) = phi, the Picard records and the failure."""
    grid = path.grid
    times = path.times
    steps = len(times) - 1
    rho_vals = None if config.rho is None else config.rho.evaluate(grid)
    sup = support(rho_vals)
    # h N = -i (dt/2) N, every step config.dt
    scale = nonlinearity_scale(grid, config.dealias, config.dt)
    phase = propagator_phase(grid, config.dt)
    levels = []
    for k, t in enumerate(times):
        # (2 rho Psi, R, forcing), the forcing evaluated at float(t)
        levels.append(
            level(config, grid, rho_vals, path.psi[k].values, path.ipsi2[k].values, float(t))
        )
    phi_hat = grid.zeros() if config.phi is None else grid.forward_values(config.phi.values)
    free = [z_from_v(grid, sup, phi_hat, levels[0].r)]
    for _ in range(steps):
        free.append(phase * free[-1])

    def sweeps(current):
        """Sweep the levels of current from it, as the whole trajectory is swept."""
        n = len(current)
        iterations, distance = 0, np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, PICARD_MAX + 1):
                hn_hats = [
                    nonlinearity_values(grid, current[k], sup, levels[k], scale) for k in range(n)
                ]
                duhamel = grid.zeros()
                new = [free[0]]
                for k in range(n - 1):
                    duhamel = phase * duhamel + (phase * hn_hats[k] + hn_hats[k + 1])
                    new.append(free[k + 1] + duhamel)
                diffs = (traces(a - b) for a, b in zip(new, current))
                dh, dq, dl = (np.array(c) for c in zip(*diffs))
                y = _y_summary(times, dh, dq, dl, config.params)
                distance = y["sup_H_minus_s"] + y["Lp_W_minus_s_q"] + y["Leta_localized"]
                current, iterations = new, m
                if not np.isfinite(distance) or distance <= PICARD_TOL:
                    break
        return current, iterations, distance

    def failure_at(k, kind):
        # a non-finite distance is recorded as NaN, as the step-local march does
        residual = float(distance) if np.isfinite(distance) else float("nan")
        return StepFailure(kind, float(times[k]), k - 1, residual, iterations)

    current, iterations, distance = sweeps(free)
    weight = hs_weight(grid, -config.params.s)
    norms = np.sqrt(weighted_norm_sq_hat(grid, np.array(current[1:]), weight))
    blown = np.flatnonzero(~(norms <= BLOWUP_NORM))
    k, failure = steps, None
    if blown.size:
        # the levels kept before the blow-up are swept on as their own
        # fixed-point problem: the map on [0, t_j] reads only levels <= j
        k = int(blown[0]) + 1
        failure = failure_at(k, "blowup")
        current, iterations, distance = sweeps(current[:k])
    if not distance <= PICARD_TOL:
        failure = failure_at(k, "blowup" if not np.isfinite(distance) else "picard")
    n = len(current) - 1
    records = (np.full(n, iterations, dtype=int), np.full(n, distance), np.ones(n, dtype=bool))
    v_hats = [phi_hat] + [v_from_z(grid, sup, current[k], levels[k].r) for k in range(1, n + 1)]
    return v_hats, records, failure


def per_level_reference(config, path):
    """solve() as it ran level by level, for both modes: every time level
    localized on its own, traces taken one level at a time."""
    grid = path.grid
    times = path.times
    traces = per_level_traces(config, grid)
    if config.mode == "global":
        v_hats, records, failure = per_level_global(config, path, traces)
    else:
        phi_hat = grid.zeros() if config.phi is None else grid.forward_values(config.phi.values)
        rho_vals = None if config.rho is None else config.rho.evaluate(grid)
        start = level(
            config, grid, rho_vals, path.psi[0].values, path.ipsi2[0].values, float(times[0])
        )
        stepper = RemainderStepper(config, grid, phi_hat, start)
        v_hats, failure = [stepper.v_hat], None
        for k in range(1, len(times)):
            t = float(times[k])
            stepper.step(level(config, grid, rho_vals, path.psi[k].values, path.ipsi2[k].values, t))
            if stepper.failed.any():
                # the flagged step ends the march and leaves the records: a
                # finite residual above the tolerance is a Picard failure,
                # anything else a blow-up, and a non-finite residual reads NaN
                residual, iterations = stepper.residuals.pop(), stepper.iterations.pop()
                stepper.monotone.pop()
                kind = "picard" if PICARD_TOL < residual < np.inf else "blowup"
                residual = residual if np.isfinite(residual) else float("nan")
                failure = StepFailure(kind, float(times[k]), k - 1, residual, iterations)
                break
            v_hats.append(stepper.v_hat)
        records = (
            np.array(stepper.iterations, dtype=int),
            np.array(stepper.residuals, dtype=np.float64),
            np.array(stepper.monotone, dtype=bool),
        )
    trace_h, trace_wq, trace_loc = (np.array(c) for c in zip(*map(traces, v_hats)))
    return {
        "times": times[: len(v_hats)],
        "v": np.array(v_hats),
        "picard_iterations": records[0],
        "residuals": records[1],
        "monotone_flags": records[2],
        "trace_h": trace_h,
        "trace_wq": trace_wq,
        "trace_localized": trace_loc,
        "y_norms": _y_summary(times, trace_h, trace_wq, trace_loc, config.params),
        "failure": failure,
    }


def manufactured_forcing(rho):
    """Complex forcing of the manufactured solution v*(t) = e^{-it} g, g three_mode_field(amp=0.3)."""
    g = three_mode_field(GRID, amp=0.3)
    h = GRID.inverse_values((1.0 + GRID.xi2) * GRID.forward_values(g.values))
    envelope = rho.evaluate(GRID) ** 2 * np.abs(g.values) ** 2
    return g, lambda t: np.exp(-1j * t) * h - envelope


def stacked_case(name, mode):
    """(config, path) of one case the stacked solver must reproduce bit for bit."""
    T, K = 0.25, 32
    rho = CutoffRho.for_grid(GRID)
    phi = three_mode_field(GRID, amp=0.2)
    if name == "sample path, complex phi":
        return make_config(GRID, PARAMS, rho, phi, T, K, mode=mode), sample_path(
            PARAMS, GRID, seed=51, T=T, K=K
        )
    if name == "manufactured forcing":
        g, forcing = manufactured_forcing(rho)
        config = make_config(GRID, PARAMS, rho, g, T, K, dealias=False, forcing=forcing, mode=mode)
        return config, zero_path(PARAMS, GRID, T=T, K=K)
    if name == "blow-up":
        config = make_config(
            GRID, PARAMS, rho, None, T, 16, forcing=lambda t: np.full(GRID.shape, 1e12), mode=mode
        )
        return config, zero_path(PARAMS, GRID, T=T, K=16)
    assert name == "no cutoff"
    return make_config(GRID, PARAMS, None, phi, T, K, mode=mode), sample_path(
        PARAMS, GRID, seed=52, T=T, K=K
    )


@pytest.mark.parametrize("mode", ["step-local", "global"])
@pytest.mark.parametrize(
    "name",
    ["sample path, complex phi", "manufactured forcing", "blow-up", "no cutoff"],
)
def test_stacked_solve_matches_the_per_level_reference_bit_for_bit(name, mode):
    config, path = stacked_case(name, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve(config, path)
        ref = per_level_reference(config, path)
    assert np.array_equal(out.times, ref["times"])
    assert np.array_equal(out.v, ref["v"])
    for key in (
        "picard_iterations", "residuals", "monotone_flags", "trace_h", "trace_wq", "trace_localized"
    ):
        assert getattr(out, key).dtype == ref[key].dtype, key
        assert np.array_equal(getattr(out, key), ref[key]), key
    assert repr(out.y_norms) == repr(ref["y_norms"])
    assert str(out.failure) == str(ref["failure"])
    if out.failure is not None:
        assert repr(dataclasses.astuple(out.failure)) == repr(dataclasses.astuple(ref["failure"]))
    assert (out.failure is None) == (name != "blow-up")
