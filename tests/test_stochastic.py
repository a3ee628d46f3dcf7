"""Stochastic objects: the mode recursion, Wick centering, Duhamel accumulation."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wsnl.grid import (
    CutoffRho,
    SpectralGrid,
    bump_profile,
    l2_norm,
    padded_points,
    propagator_phase,
    truncation_mask,
)
from wsnl.noise import ModeNoise, gaussian_block
from wsnl.reference import PaperParams, covariance_oracle, renorm_constant, spectral_mass
from wsnl.snapshots import SnapshotError, read_snapshot, write_snapshot
from wsnl.solver import localized_inputs
from wsnl.stochastic import (
    PathEnsemble,
    duhamel_update,
    sample_path,
    uniform_times,
    wick_mean_identity_gap,
    wick_square_values,
    zero_path,
)

GRID = SpectralGrid(1, 2 * np.pi, 64)
PARAMS = PaperParams(d=1, alpha=0.3, eps=0.01, n=8)


def test_psi_starts_at_zero_and_stays_in_ball():
    path = sample_path(PARAMS, GRID, seed=1, T=0.5, K=8)
    assert np.all(path.psi[0].values == 0)
    outside = truncation_mask(GRID, PARAMS.n) == 0.0
    for snap in path.psi:
        assert np.all(snap.values[outside] == 0)


def test_mild_form_recursion_against_independent_multipliers():
    # recompute each step with multipliers built from scratch in this test: the
    # increment of each pair (k, -k) from its 4 normals through numpy's
    # Cholesky factor of the covariance of (int cos(ua) dB, int sin(ua) dB)
    T, K = 0.5, 8
    path = sample_path(PARAMS, GRID, seed=2, T=T, K=K)
    dt = T / K
    k_int = np.fft.fftfreq(GRID.N, d=GRID.L / GRID.N) * 2 * np.pi
    phase = np.exp(1j * dt * k_int**2)
    gain = (1 + k_int**2) ** (-PARAMS.alpha / 2) * (np.abs(k_int) <= PARAMS.n)
    P = 8  # modes k = 0, +-1, ..., +-8: 1 + 4 * 8 normals per step
    steps = 1024 // (1 + 4 * P)
    for k in range(K):
        z = gaussian_block(2, 0, k // steps, (steps, 1 + 4 * P))[k % steps]
        inc = np.zeros(GRID.N, dtype=complex)
        inc[0] = np.sqrt(GRID.L * dt) * z[0]
        for j in range(1, P + 1):
            a = k_int[j] ** 2
            cov = np.array(
                [
                    [dt / 2 + np.sin(2 * a * dt) / (4 * a), np.sin(a * dt) ** 2 / (2 * a)],
                    [np.sin(a * dt) ** 2 / (2 * a), dt / 2 - np.sin(2 * a * dt) / (4 * a)],
                ]
            )
            chol = np.linalg.cholesky(cov) * np.sqrt(GRID.L / 2)
            c1, s1 = chol @ z[[j, P + j]]
            c2, s2 = chol @ z[[2 * P + j, 3 * P + j]]
            inc[j], inc[-j] = (c1 - s2) + 1j * (s1 + c2), (c1 + s2) + 1j * (s1 - c2)
        predicted = phase * path.psi[k].values + (-1j) * gain * inc
        gap = np.max(np.abs(path.psi[k + 1].values - predicted))
        assert gap < 1e-12 * max(1.0, np.max(np.abs(predicted)))


def test_single_mode_variance_matches_ito_isometry():
    # Var[psi_K(xi)] -> T * L^d * (1+|xi|^2)^{-alpha} within 5% at M = 1e4
    T = 0.5
    times = np.array([0.0, 0.2, T])  # exactness holds for any step layout
    ens = PathEnsemble(GRID, PARAMS.alpha, [PARAMS.n], times, seed=3, size=10_000)
    ens.run()
    idx = 4
    xi = GRID.xi_axis[idx]
    est = float(np.mean(np.abs(ens.psi[:, idx]) ** 2))
    target = T * GRID.L * (1 + xi**2) ** (-PARAMS.alpha)
    assert est == pytest.approx(target, rel=0.05)


def test_truncation_zero_keeps_only_dc():
    params0 = PaperParams(d=1, alpha=0.3, eps=0.01, n=0.0)
    path = sample_path(params0, GRID, seed=4, T=0.25, K=4)
    for snap in path.psi[1:]:
        assert np.all(snap.values[1:] == 0)
        assert snap.values[0] != 0


def test_two_time_covariance_against_oracle():
    T, K, M = 0.5, 64, 4000
    times = uniform_times(T, K)
    ens = PathEnsemble(GRID, PARAMS.alpha, [PARAMS.n], times, seed=5, size=M)
    snap_half = None
    while ens.k + 1 < len(times):
        ens.advance()
        if ens.k == K // 2:
            snap_half = GRID.inverse_values(ens.psi_values(PARAMS.n)).copy()
    snap_full = GRID.inverse_values(ens.psi_values(PARAMS.n))
    xi_idx, yi_idx = 10, 20
    a, b = snap_half[:, xi_idx], snap_full[:, yi_idx]
    oc, op = covariance_oracle(
        GRID, PARAMS.n, PARAMS.alpha, T / 2, T, [GRID.x[xi_idx]], [GRID.x[yi_idx]]
    )
    for emp, oracle in ((a * np.conj(b), oc), (a * b, op)):
        for part in ("real", "imag"):
            vals = getattr(emp, part)
            se = vals.std(ddof=1) / np.sqrt(M)
            assert abs(vals.mean() - getattr(oracle, part)) < 5 * se


class TestWickSquare:
    def test_zero_input_zero_time(self):
        c = 0.0 * spectral_mass(GRID, PARAMS.n, PARAMS.alpha)
        out = wick_square_values(GRID, np.zeros(GRID.N, dtype=complex), c)
        assert np.all(out == 0)

    def test_single_mode_dc_cancellation(self):
        # one mode of modulus r: |Psi|^2 == (r / L^d)^2 everywhere; choosing t with
        # c_n(t) = r^2 / L^{2d} centers the output to exactly zero
        r = 2.0
        vals = np.zeros(GRID.N, dtype=complex)
        vals[3] = r
        target = (r / GRID.L) ** 2
        t = target / renorm_constant(GRID, PARAMS.n, PARAMS.alpha, 1.0)
        out = wick_square_values(GRID, vals, t * spectral_mass(GRID, PARAMS.n, PARAMS.alpha))
        assert np.max(np.abs(out)) < 1e-12 * target

    def test_per_realization_centering_identity(self):
        path = sample_path(PARAMS, GRID, seed=6, T=0.5, K=8)
        for k in (0, 3, 8):
            assert wick_mean_identity_gap(path, k) < 1e-10

    def test_ensemble_mean_is_statistically_zero(self):
        times = np.array([0.0, 0.25, 0.5])
        M = 4000
        ens = PathEnsemble(GRID, PARAMS.alpha, [PARAMS.n], times, seed=7, size=M)
        while ens.k + 1 < len(times):
            ens.advance()
            w = ens.wick_values(PARAMS.n)
            se = w.std(axis=0, ddof=1) / np.sqrt(M)
            z = np.abs(w.mean(axis=0)) / se
            assert float(z.max()) < 4.5


class TestDuhamel:
    def test_zero_wick_gives_zero(self):
        path = zero_path(PARAMS, GRID, T=0.5, K=8)
        for snap in path.ipsi2:
            assert np.all(snap.values == 0)

    def test_constant_wick_dc_mode_linear_in_t(self):
        # wick == c: the DC mode of <I Psi^2> is exactly -i c L^d t (zero phase)
        c = 0.7
        w_hat = np.zeros(GRID.N, dtype=complex)
        w_hat[0] = c * GRID.L  # transform of the constant field c
        ipsi2 = np.zeros(GRID.N, dtype=complex)
        dt, K = 0.03125, 16
        phase = propagator_phase(GRID, dt)
        for k in range(K):
            # the kernel consumes its previous-Wick argument as scratch
            duhamel_update(ipsi2, phase, w_hat.copy(), w_hat, dt)
        expected = -1j * c * GRID.L * (K * dt)
        assert ipsi2[0] == pytest.approx(expected, rel=1e-12)

    def test_oscillatory_wick_second_order_in_dt(self):
        # w_hat(tau, xi*) = e^{i omega tau}: closed-form Duhamel integral oracle
        idx, omega, T = 5, 3.7, 0.5
        xi2 = GRID.xi_axis[idx] ** 2

        def exact(t):
            # -i * e^{i t xi2} * (e^{i(omega - xi2) t} - 1) / (i (omega - xi2))
            return (
                -1j
                * np.exp(1j * t * xi2)
                * (np.exp(1j * (omega - xi2) * t) - 1.0)
                / (1j * (omega - xi2))
            )

        def run(K):
            dt = T / K
            phase = propagator_phase(GRID, dt)
            ipsi2 = np.zeros(GRID.N, dtype=complex)
            for k in range(K):
                w_prev = np.zeros(GRID.N, dtype=complex)
                w_next = np.zeros(GRID.N, dtype=complex)
                w_prev[idx] = np.exp(1j * omega * (k * dt))
                w_next[idx] = np.exp(1j * omega * ((k + 1) * dt))
                duhamel_update(ipsi2, phase, w_prev, w_next, dt)
            return abs(ipsi2[idx] - exact(T))

        e1, e2 = run(64), run(128)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


def _signed_modes(grid):
    """Integer wavenumbers k (xi = 2 pi k / L) of one axis, in fft order."""
    return np.rint(grid.xi_axis * grid.L / (2 * np.pi)).astype(int)


def test_in_place_advance_matches_an_out_of_place_reference_step():
    # 40 tracked steps on a 4-rung ladder, against the padded step written out
    # of place: psi_n zero-padded to the rung's padded size, squared there, and
    # its modes |k| <= 2P (P the ball's reach) put back on the study grid
    grid = SpectralGrid(1, 4 * np.pi, 64)
    radii, alpha, seed, size = [1.0, 2.0, 4.0, 8.0], 0.3, 21, 3
    times = uniform_times(0.5, 40)
    ens = PathEnsemble(
        grid, alpha, radii, times, seed=seed, size=size, track=True
    )
    ks = _signed_modes(grid)
    masks = {r: truncation_mask(grid, r) for r in radii}
    gain = (1.0 + grid.xi2) ** (-alpha / 2) * masks[radii[-1]]
    noise = ModeNoise(grid, masks[radii[-1]] > 0)
    psi = np.zeros((size,) + grid.shape, dtype=complex)
    wick_hat = {r: np.zeros_like(psi) for r in radii}
    ipsi2 = {r: np.zeros_like(psi) for r in radii}
    for k in range(len(times) - 1):
        dt = float(times[k + 1] - times[k])
        phase = propagator_phase(grid, dt)
        z = np.stack([noise.normals_at(seed, b, k) for b in range(size)])
        psi = phase * psi + ((-1j) * gain) * noise.on_grid(noise.increments(z, dt))
        for r in radii:
            reach = int(np.abs(ks[masks[r] > 0]).max())
            padded = SpectralGrid(1, grid.L, padded_points(grid, r))
            ball, kept = np.abs(ks) <= reach, np.abs(ks) <= 2 * reach
            pad = np.zeros((size, padded.N), dtype=complex)
            pad[:, ks[ball] % padded.N] = (psi * masks[r])[:, ball]
            c = times[k + 1] * spectral_mass(grid, r, alpha)
            square = padded.forward_values(np.abs(padded.inverse_values(pad)) ** 2 - c)
            new_hat = np.zeros_like(psi)
            new_hat[:, kept] = square[:, ks[kept] % padded.N]
            ipsi2[r] = phase * ipsi2[r] + (-0.5j * dt) * (phase * wick_hat[r] + new_hat)
            wick_hat[r] = new_hat
        ens.advance()
        assert np.array_equal(ens.psi, psi)
        for r in radii:
            assert np.array_equal(ens.ipsi2_values(r), ipsi2[r])
            assert np.array_equal(ens.wick_values(r), grid.inverse_values(wick_hat[r]).real)
            assert np.array_equal(ens.psi_values(r), psi * masks[r])


def _relative_gap(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def test_top_rungs_match_a_doubly_padded_reference():
    # N = 1024, L = 8 pi: Nyquist 128, so 2n = Nyquist at n = 64 and 2 Nyquist
    # at n = 128.  The reference pads psi_n to 2N + 2 points, where |psi_n|^2
    # cannot alias, and restricts its square back to the study grid.
    grid = SpectralGrid(1, 8 * np.pi, 1024)
    radii, alpha, seed, size = [64.0, 128.0], 0.3, 31, 2
    times = uniform_times(1.0 / 32, 4)
    ens = PathEnsemble(
        grid, alpha, radii, times, seed=seed, size=size, track=True
    )
    fine = SpectralGrid(1, grid.L, 2 * grid.N + 2)
    at = _signed_modes(grid) % fine.N
    wick_hat = {r: np.zeros((size, grid.N), dtype=complex) for r in radii}
    ipsi2 = {r: np.zeros((size, grid.N), dtype=complex) for r in radii}
    aliased = {}
    while ens.k + 1 < len(times):
        dt = float(times[ens.k + 1] - times[ens.k])
        phase = propagator_phase(grid, dt)
        ens.advance()
        for r in radii:
            psi_r = ens.psi_values(r)
            c = ens.t * spectral_mass(grid, r, alpha)
            pad = np.zeros((size, fine.N), dtype=complex)
            pad[:, at] = psi_r
            new_hat = fine.forward_values(np.abs(fine.inverse_values(pad)) ** 2 - c)[:, at]
            ipsi2[r] = phase * ipsi2[r] + (-0.5j * dt) * (phase * wick_hat[r] + new_hat)
            wick_hat[r] = new_hat
            wick = grid.inverse_values(new_hat).real
            assert _relative_gap(ens.wick_values(r), wick) < 1e-12
            assert _relative_gap(ens.ipsi2_values(r), ipsi2[r]) < 1e-12
            # the study-grid square the ensemble formed before padding
            on_grid = grid.forward_values(np.abs(grid.inverse_values(psi_r)) ** 2 - c)
            aliased[r] = _relative_gap(on_grid, new_hat)
    assert aliased[128.0] > 0.1 and aliased[64.0] > 1e-5


@pytest.mark.parametrize(
    "grid, alpha, radii",
    [
        (SpectralGrid(1, 4 * np.pi, 64), 0.3, [1.0, 2.5, 7.0]),
        (SpectralGrid(2, 2 * np.pi, 32), 0.9, [2.0, 4.0, 7.0]),
    ],
    ids=["d1", "d2"],
)
def test_compact_tracking_matches_full_grid_tracking_below_half_nyquist(grid, alpha, radii):
    # with 2n < Nyquist the study grid squares psi_n without aliasing, so the
    # full-grid step (the tracking before padding) is a round-off reference
    assert 2 * max(radii) < grid.nyquist
    seed, size, times = 41, 2, uniform_times(0.25, 8)
    ens = PathEnsemble(
        grid, alpha, radii, times, seed=seed, size=size, track=True
    )
    wick_hat = {r: np.zeros((size,) + grid.shape, dtype=complex) for r in radii}
    ipsi2 = {r: np.zeros((size,) + grid.shape, dtype=complex) for r in radii}
    while ens.k + 1 < len(times):
        dt = float(times[ens.k + 1] - times[ens.k])
        phase = propagator_phase(grid, dt)
        ens.advance()
        for r in radii:
            c = ens.t * spectral_mass(grid, r, alpha)
            wick = np.abs(grid.inverse_values(ens.psi_values(r))) ** 2 - c
            new_hat = grid.forward_values(wick)
            ipsi2[r] = phase * ipsi2[r] + (-0.5j * dt) * (phase * wick_hat[r] + new_hat)
            wick_hat[r] = new_hat
            scale_w, scale_i = np.max(np.abs(wick)), np.max(np.abs(ipsi2[r]))
            assert np.max(np.abs(ens.wick_values(r) - wick)) < 1e-13 * scale_w
            assert np.max(np.abs(ens.ipsi2_values(r) - ipsi2[r])) < 1e-13 * scale_i


def test_untracked_wick_values_equal_the_tracked_ones():
    grid, radii, times = SpectralGrid(1, 4 * np.pi, 64), [2.0, 8.0], uniform_times(0.25, 4)
    tracked = PathEnsemble(grid, 0.3, radii, times, seed=5, size=2, track=True)
    plain = PathEnsemble(grid, 0.3, radii, times, seed=5, size=2)
    while tracked.k + 1 < len(times):
        tracked.advance()
        plain.advance()
        for r in radii:
            assert np.array_equal(tracked.wick_values(r), plain.wick_values(r))


def test_a_members_path_does_not_depend_on_its_chunk_or_thread():
    # 8 members in one chunk, in 8 chunks of 1, and in 2 chunks of 4 run on 2
    # threads at once: psi and the tracked objects agree bit for bit, over
    # steps that cross key blocks (15 steps per key here)
    grid, radii, times = SpectralGrid(1, 2 * np.pi, 64), [8.0, 16.0], uniform_times(0.25, 20)

    def run(lo, hi):
        ens = PathEnsemble(
            grid, 0.3, radii, times, seed=71, size=hi - lo, stream_offset=lo, track=True
        )
        ens.run()
        return [ens.psi] + [ens.ipsi2_values(r) for r in radii] + [ens.wick_values(r) for r in radii]

    assert ModeNoise(grid, truncation_mask(grid, 16.0) > 0).steps_per_key == 15
    whole = run(0, 8)
    singles = [np.concatenate(parts) for parts in zip(*(run(b, b + 1) for b in range(8)))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        halves = list(pool.map(lambda lo: run(lo, lo + 4), [0, 4]))
    threaded = [np.concatenate(parts) for parts in zip(*halves)]
    for a, b, c in zip(whole, singles, threaded):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_truncation_coupling_is_exact_masking():
    times = uniform_times(0.5, 8)
    ens = PathEnsemble(GRID, 0.3, [4.0, 8.0, 16.0], times, seed=8, size=3)
    ens.run()
    for small in (4.0, 8.0):
        masked = truncation_mask(GRID, small) * ens.psi_values(16.0)
        assert np.array_equal(ens.psi_values(small), masked)


class TestLocalize:
    def test_zero_cutoff_gives_zero_fields(self):
        rho_vals = np.zeros(GRID.shape)
        path = sample_path(PARAMS, GRID, seed=9, T=0.25, K=4)
        for k in range(len(path.times)):
            two_rho_psi, r_hat = localized_inputs(
                GRID, rho_vals, path.psi[k].values, path.ipsi2[k].values
            )
            assert np.all(two_rho_psi == 0) and np.all(r_hat == 0)

    def test_localization_is_an_l2_contraction_up_to_sup(self):
        rho = CutoffRho.for_grid(GRID)
        sup = float(rho.evaluate(GRID).max())
        path = sample_path(PARAMS, GRID, seed=10, T=0.25, K=4)
        two_rho_psi, r_hat = localized_inputs(
            GRID, rho.evaluate(GRID), path.psi[-1].values, path.ipsi2[-1].values
        )
        psi_phys = GRID.inverse_values(path.psi[-1].values)
        ipsi2_phys = GRID.inverse_values(path.ipsi2[-1].values)
        # localized_inputs returns 2 rho Psi
        assert l2_norm(GRID, 0.5 * two_rho_psi) <= sup * l2_norm(GRID, psi_phys) * (1 + 1e-10)
        r_phys = GRID.inverse_values(r_hat)
        assert l2_norm(GRID, r_phys) <= sup**2 * l2_norm(GRID, ipsi2_phys) * (1 + 1e-10)

    def test_masked_region_leaves_norm_unchanged(self):
        r = bump_profile((GRID.x - np.pi) / (np.pi / 4))
        path = sample_path(PARAMS, GRID, seed=11, T=0.25, K=4)
        psi_phys = GRID.inverse_values(path.psi[-1].values)
        support = np.abs(GRID.x - np.pi) < np.pi / 4
        zeroed = np.where(support, psi_phys, 0.0)
        assert l2_norm(GRID, r * psi_phys) == pytest.approx(
            l2_norm(GRID, r * zeroed), rel=1e-12
        )


def test_snapshot_round_trip_bitwise():
    path = sample_path(PARAMS, GRID, seed=12, T=0.25, K=4)
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp) / "path.wsnl"
        write_snapshot(path, target)
        back = read_snapshot(target)
        assert back.grid == path.grid
        assert back.params.alpha == path.params.alpha
        assert np.array_equal(back.times, path.times)
        for a, b in zip(path.psi + path.wick + path.ipsi2, back.psi + back.wick + back.ipsi2):
            assert np.array_equal(a.values, b.values)
        # writing the reloaded path reproduces the bytes
        target2 = pathlib.Path(tmp) / "path2.wsnl"
        write_snapshot(back, target2)
        assert target.read_bytes() == target2.read_bytes()


@pytest.mark.parametrize("cut", [-1, 1, -200])
def test_snapshot_length_must_match_its_header(tmp_path, cut):
    target = tmp_path / "path.wsnl"
    write_snapshot(sample_path(PARAMS, GRID, seed=12, T=0.25, K=4), target)
    raw = target.read_bytes()
    expected = len(raw)
    damaged = raw[:cut] if cut < 0 else raw + b"\0" * cut
    target.write_bytes(damaged)
    with pytest.raises(SnapshotError, match=f"has {len(damaged)} bytes.*implies {expected}"):
        read_snapshot(target)
    target.write_bytes(raw[:50])
    with pytest.raises(SnapshotError, match="has 50 bytes, fewer than its 120-byte header"):
        read_snapshot(target)


def test_ensemble_single_step_stays_in_ball():
    ens = PathEnsemble(GRID, PARAMS.alpha, [PARAMS.n], np.array([0.0, 0.1]), seed=13, size=1)
    ens.advance()
    outside = truncation_mask(GRID, PARAMS.n) == 0.0
    assert np.all(ens.psi[0][outside] == 0)
    assert np.any(ens.psi[0] != 0)
