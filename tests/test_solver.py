"""Remainder-equation solver: free evolution, convergence order, failure policy."""

import warnings

import numpy as np
import pytest

from wsnl.grid import CutoffRho, Field, SpectralGrid, bessel_weight, sobolev_norm
from wsnl.reference import PaperParams
from wsnl.solver import (
    RemainderStepper,
    SolverConfig,
    StepFailure,
    nonlinearity_values,
    solve,
)
from wsnl.stochastic import PathEnsemble, sample_path, uniform_times, zero_path

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
        assert np.max(np.abs(out.v[-1].values - expected)) < 1e-10 * np.max(np.abs(phi_hat))

    def test_l2_conserved_over_256_steps(self):
        T, K = 0.5, 256
        phi = three_mode_field(GRID)
        config = make_config(GRID, PARAMS, None, phi, T, K)
        out = solve(config, zero_path(PARAMS, GRID, T=T, K=K))
        l2_0 = sobolev_norm(out.v[0], 0.0, 2)
        l2_T = sobolev_norm(out.v[-1], 0.0, 2)
        assert abs(l2_T - l2_0) < 1e-10 * l2_0

    def test_zero_data_stays_zero(self):
        config = make_config(GRID, PARAMS, None, None, 0.25, 16)
        out = solve(config, zero_path(PARAMS, GRID, T=0.25, K=16))
        for v, u in zip(out.v, out.u):
            assert np.all(v.values == 0)
            assert np.all(u.values == 0)


class TestQuadraticNonlinearity:
    rho_vals = CutoffRho.for_grid(GRID).evaluate(GRID)

    def nonlinearity(self, v_phys, rho_psi=None):
        """N(v; rho Psi) in physical space, no forcing, no dealiasing."""
        n_hat = nonlinearity_values(
            GRID, GRID.forward_values(v_phys), self.rho_vals, rho_psi, None, None
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
        return out.v[-1].values

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


def test_da_prato_debussche_bookkeeping_is_assembly_exact():
    T, K = 0.25, 32
    path = sample_path(PARAMS, GRID, seed=21, T=T, K=K)
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, PARAMS, rho, None, T, K)
    out = solve(config, path)
    assert out.completed
    for k in range(len(out.times)):
        assert np.array_equal(out.u[k].values, out.v[k].values + path.psi[k].values)


def test_picard_contraction_evidence_on_stochastic_run():
    T, K = 0.25, 64
    path = sample_path(PARAMS, GRID, seed=22, T=T, K=K)
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, PARAMS, rho, None, T, K)
    out = solve(config, path)
    assert out.completed
    assert np.all(out.picard_iterations <= config.picard_max)
    assert np.mean(out.monotone_flags) >= 0.95
    assert all(np.isfinite(v) for v in out.y_norms.values())


def test_blowup_is_reported_not_raised():
    T, K = 0.25, 16
    rho = CutoffRho.for_grid(GRID)

    def forcing(t):
        return np.full(GRID.shape, 1e12)

    config = make_config(GRID, PARAMS, rho, None, T, K, forcing=forcing)
    out = solve(config, zero_path(PARAMS, GRID, T=T, K=K))
    assert not out.completed
    assert isinstance(out.failure, StepFailure)
    assert out.failure.kind in ("picard", "blowup")
    assert len(out.v) < K + 1  # partial trajectory returned


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
    assert np.array_equal(outs[0].v[0].values, outs[1].v[0].values)


def test_global_mode_matches_step_local_fixed_point():
    T, K = 0.125, 32
    phi = three_mode_field(GRID, amp=0.2)
    rho = CutoffRho.for_grid(GRID)
    path = zero_path(PARAMS, GRID, T=T, K=K)
    local = solve(make_config(GRID, PARAMS, rho, phi, T, K, mode="step-local"), path)
    glob = solve(make_config(GRID, PARAMS, rho, phi, T, K, mode="global"), path)
    assert local.completed and glob.completed
    gap = max(
        np.max(np.abs(a.values - b.values)) for a, b in zip(local.v, glob.v)
    )
    assert gap < 1e-7


def test_ensemble_march_matches_solve_per_member():
    # the converge study's batched march and solve() advance the same equation
    T, K, n, seed = 0.25, 32, 8.0, 31
    rho = CutoffRho.for_grid(GRID)
    config = make_config(GRID, PARAMS, rho, None, T, K)
    ens = PathEnsemble(
        GRID, PARAMS.alpha, [n, 2 * n], uniform_times(T, K), seed=seed, size=2,
        track_wick=True, track_ipsi2=True,
    )
    v0 = np.zeros((2,) + GRID.shape, dtype=complex)
    steppers = {
        r: RemainderStepper(config, GRID, v0, ens.psi_values(r), ens.ipsi2[r], ens.t, strict=False)
        for r in (n, 2 * n)
    }
    for _ in range(K):
        ens.advance()
        for r, stepper in steppers.items():
            stepper.step(ens.psi_values(r), ens.ipsi2[r], ens.t)
    for r, stepper in steppers.items():
        assert not stepper.failed.any()
        params = PaperParams(d=1, alpha=PARAMS.alpha, eps=PARAMS.eps, n=r)
        for m in range(2):
            path = sample_path(params, GRID, seed=seed, stream_id=m, T=T, K=K)
            out = solve(make_config(GRID, params, rho, None, T, K), path)
            assert out.completed
            ref = out.v[-1].values
            assert np.max(np.abs(stepper.v_hat[m] - ref)) <= 1e-9 * np.max(np.abs(ref))


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
    direct = sobolev_norm(out.v[k], -PARAMS.s, 2)
    assert out.trace_h[k] == pytest.approx(direct, rel=1e-10)


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
