"""White-noise increments: reproducibility, the exact per-mode law, independence."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnl.grid import SpectralGrid, l2_norm, truncation_mask
from wsnl.noise import (
    ModeNoise,
    gaussian_block,
    mode_increment_variance,
    one_minus_sinc,
    phase_integral_factor,
)

GRID = SpectralGrid(1, 2 * np.pi, 32)
DT = 0.01
FULL = ModeNoise(GRID, np.ones(GRID.shape, dtype=bool), DT)  # the whole lattice, -N/2 included


def increment(noise, seed, stream_id, step):
    """One step's increments of one stream on the grid."""
    return noise.on_grid(noise.increments(noise.normals_at(seed, stream_id, step)))


def ensemble(noise, seed, members, step=0):
    """(members, *grid.shape) increments of one step, one stream per member."""
    z = np.stack([noise.normals_at(seed, m, step) for m in range(members)])
    return noise.on_grid(noise.increments(z))


def test_streams_reproduce_bit_for_bit():
    # a stream's steps drawn in order equal the same keys drawn afresh
    a = [increment(FULL, 42, 7, step) for step in range(1000)]
    for step in range(1000):
        assert np.array_equal(a[step], increment(FULL, 42, 7, step))


def test_distinct_streams_differ():
    assert not np.array_equal(increment(FULL, 42, 0, 0), increment(FULL, 42, 1, 0))
    assert not np.array_equal(increment(FULL, 42, 0, 0), increment(FULL, 42, 0, 1))
    assert not np.array_equal(gaussian_block(42, 0, 0, (8,)), gaussian_block(42, 0, 1, (8,)))


def test_increment_at_is_pure():
    # drawing other keys in between does not move a key's values, and step k
    # is row k % steps_per_key of key block k // steps_per_key
    first = increment(FULL, 5, 2, 3)
    gaussian_block(5, 2, 4, GRID.shape)
    assert np.array_equal(first, increment(FULL, 5, 2, 3))
    S = FULL.steps_per_key
    assert (S, FULL.normals) == (16, 2 * GRID.N - 1) == FULL.block_shape
    z = gaussian_block(5, 2, 40 // S, FULL.block_shape)[40 % S]
    assert np.array_equal(increment(FULL, 5, 2, 40), FULL.on_grid(FULL.increments(z)))


def fresh_philox_block(seed, stream_id, step, shape):
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key)).standard_normal(shape)


KEYS = st.tuples(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1, 7, 499, 2**32 + 3]),
    st.sampled_from([0, 1, 2, 255, 511, 2**40]),
)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(KEYS, min_size=1, max_size=4),
    shape=st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
)
def test_rekeyed_block_equals_a_fresh_philox_generator(keys, shape):
    # interleaved keys: each re-keying must leave nothing of the previous one
    for seed, stream_id, step in keys + keys[::-1]:
        expected = fresh_philox_block(seed, stream_id, step, shape)
        assert np.array_equal(gaussian_block(seed, stream_id, step, shape), expected)


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_draw_the_serial_blocks(workers):
    # threads draw interleaved keys at once; a tiny switch interval makes a
    # shared generator's re-key and draw interleave across threads
    keys = [(20260808, stream, step) for stream in range(8) for step in range(4)]
    serial = [gaussian_block(*key, (4, 16)) for key in keys]
    barrier = threading.Barrier(workers)
    orders = [list(range(w, len(keys), workers)) * 50 for w in range(workers)]
    drawn = [[] for _ in range(workers)]

    def draw(w):
        barrier.wait(timeout=10)
        for i in orders[w]:
            drawn[w].append((i, gaussian_block(*keys[i], (4, 16))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w in range(workers):
        assert len(drawn[w]) == len(orders[w])
        for i, block in drawn[w]:
            assert np.array_equal(block, serial[i]), (w, keys[i])


def test_cell_mean_is_centered():
    # 1e5 draws of one cell via the counter-based kernel
    draws = np.array([gaussian_block(9, 0, step, (4,))[0] for step in range(100_000)])
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se


def test_pairing_variance_identity():
    # E|<increment, f>|^2 = dt * ||f||_L2^2 within 5% at M = 1e4: the phases
    # leave each mode's variance at dt L^d, so Parseval holds as for white noise
    grid = SpectralGrid(1, 2 * np.pi, 64)
    noise = ModeNoise(grid, np.ones(grid.shape, dtype=bool), DT)
    f = np.exp(-((grid.x - np.pi) ** 2))
    M = 10_000
    inc = grid.inverse_values(ensemble(noise, 11, M))
    vals = grid.cell_volume * np.sum(f * inc, axis=1)
    target = DT * l2_norm(grid, f) ** 2
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(M)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.05)


def test_increments_pair_as_a_real_noise():
    # the zero mode is real; -N/2 is its own partner; every other mode is
    # sampled with its partner, and the two are built from the same normals
    assert np.all(increment(FULL, 3, 0, 0)[0].imag == 0)
    assert FULL.modes[0] == 0 and FULL.modes[1] == GRID.N // 2
    reps, partners = FULL.modes[2 : GRID.N // 2 + 1], FULL.modes[GRID.N // 2 + 1 :]
    assert np.array_equal((reps + partners) % GRID.N, np.zeros_like(reps))
    assert sorted(FULL.modes) == list(range(GRID.N))


def _z_scores(samples, target):
    """|mean - target| / SE for each column, real and imaginary parts apart; a
    part that is exactly constant must equal its target exactly."""
    samples = np.asarray(samples, dtype=complex)
    gap = samples.mean(axis=0) - target
    z = []
    for part in ("real", "imag"):
        se = getattr(samples, part).std(axis=0, ddof=1) / np.sqrt(len(samples))
        miss = np.abs(getattr(gap, part))
        z.append(np.where(se > 0, miss / np.where(se > 0, se, 1.0), np.where(miss == 0, 0.0, np.inf)))
    return np.concatenate(z)


@pytest.mark.parametrize(
    "grid, radius, dt",
    [(SpectralGrid(1, 2 * np.pi, 32), 16.0, 0.02), (SpectralGrid(2, 2 * np.pi, 8), 4.0, 0.1)],
    ids=["d1_full_lattice", "d2_ball_to_nyquist"],
)
def test_per_mode_covariance_matches_the_exact_increment(grid, radius, dt):
    # E[I(xi) conj I(xi)] = dt L^d and E[I(xi) I(-xi)] = L^d int_0^dt e^{2iau} du,
    # a = |xi|^2, at every sampled mode: the zero mode, the self-partnered
    # Nyquist modes and the pairs, with a dt from 0 to above 1
    noise = ModeNoise(grid, truncation_mask(grid, radius) > 0, dt)
    M = 20_000
    draws = noise.increments(np.stack([noise.normals_at(17, m, 0) for m in range(M)]))
    flat = grid.N ** grid.d
    partner = np.ravel_multi_index(
        tuple(-i % grid.N for i in np.indices(grid.shape)), grid.shape
    ).reshape(-1)
    where = np.full(flat, -1)
    where[noise.modes] = np.arange(len(noise.modes))
    a = grid.xi2.reshape(-1)[noise.modes]
    volume = grid.L ** grid.d
    phase_int = np.where(a == 0, dt, (np.exp(2j * a * dt) - 1) / (2j * np.where(a == 0, 1, a)))
    conj = np.abs(draws) ** 2
    plain = draws * draws[:, where[partner[noise.modes]]]
    assert np.max(_z_scores(conj, dt * volume)) < 5
    assert np.max(_z_scores(plain, volume * phase_int)) < 5
    # no mode pairs with itself unless it is its own partner
    own = partner[noise.modes] == noise.modes
    assert np.max(_z_scores((draws * draws)[:, ~own], 0.0)) < 5
    assert np.min(a * dt) == 0 and np.max(a * dt) > 1


def test_members_and_steps_are_independent():
    # E[I_m(xi) conj I_m'(eta)] = E[I_m(xi) I_m'(eta)] = 0 across members, and
    # across the steps held in one key block
    M, modes = 20_000, [0, 1, 5, GRID.N // 2, GRID.N - 1]
    first = ensemble(FULL, 23, M)[:, modes]
    neighbour = np.roll(first, -1, axis=0)
    next_step = ensemble(FULL, 23, M, step=1)[:, modes]
    for other in (neighbour, next_step):
        for i in range(len(modes)):
            for j in range(len(modes)):
                assert np.max(_z_scores(first[:, i : i + 1] * np.conj(other[:, j : j + 1]), 0.0)) < 5
                assert np.max(_z_scores(first[:, i : i + 1] * other[:, j : j + 1], 0.0)) < 5


def test_factor_is_the_cholesky_factor_of_the_phase_integral_covariance():
    a = np.array([0.0, 1e-9, 1e-3, 0.3, 1.0, 7.0, 40.0, 1e3, 2.5e4])
    for dt in (1e-3, 0.05, 1.0):
        l11, l21, l22 = phase_integral_factor(a, dt)
        phi = a * dt
        # the textbook entries, fine where a dt is not small
        cc = dt / 2 + np.sin(2 * phi) / (4 * np.where(a == 0, 1, a))
        ss = dt / 2 - np.sin(2 * phi) / (4 * np.where(a == 0, 1, a))
        cs = np.sin(phi) ** 2 / (2 * np.where(a == 0, 1, a))
        big = phi > 0.2
        assert np.allclose(l11[big] ** 2, cc[big], rtol=1e-13, atol=0)
        assert np.allclose(l11[big] * l21[big], cs[big], rtol=1e-13, atol=0)
        assert np.allclose(l21[big] ** 2 + l22[big] ** 2, ss[big], rtol=1e-12, atol=0)
        # small a dt: the leading terms of the series, relative to each entry
        small = (phi > 0) & (phi < 1e-5)
        assert np.allclose(l11[small], np.sqrt(dt), rtol=1e-12, atol=0)
        assert np.allclose(l21[small], a[small] * dt**1.5 / 2, rtol=1e-9, atol=0)
        assert np.allclose(l22[small], a[small] * dt**1.5 / np.sqrt(12), rtol=1e-9, atol=0)
        assert (l11[0], l21[0], l22[0]) == (np.sqrt(dt), 0.0, 0.0)


def test_one_minus_sinc_is_continuous_across_its_series_switch():
    x = np.array([1e-12, 1e-4, 0.1, 0.49999999, 0.5, 0.50000001, 2.0, np.pi])
    got = one_minus_sinc(x)
    assert got[0] == pytest.approx(1e-24 / 6, rel=1e-12)
    assert got[1] == pytest.approx(1e-8 / 6 - 1e-16 / 120, rel=1e-12)
    assert got[2:] == pytest.approx(1 - np.sin(x[2:]) / x[2:], rel=1e-14)
    assert one_minus_sinc(-x) == pytest.approx(got, rel=0, abs=0)


class TestModeIncrementVariance:
    def test_value_and_linearity(self):
        v = mode_increment_variance(GRID, DT)
        assert v == pytest.approx(DT * GRID.L)
        assert mode_increment_variance(GRID, 2 * DT) == pytest.approx(2 * v)
        assert mode_increment_variance(GRID, 0.0) == 0.0

    def test_empirical_zero_mode_variance(self):
        M = 10_000
        coeffs = ensemble(FULL, 13, M)[:, 0]
        target = mode_increment_variance(GRID, DT)
        est = np.mean(np.abs(coeffs) ** 2)
        assert est == pytest.approx(target, rel=0.05)

    def test_variance_flat_across_modes(self):
        M = 4000
        mat = ensemble(FULL, 17, M)
        target = mode_increment_variance(GRID, DT)
        per_mode = np.mean(np.abs(mat) ** 2, axis=0)
        assert np.max(np.abs(per_mode - target)) / target < 0.15

    def test_distinct_coefficients_uncorrelated(self):
        M = 10_000
        mat = ensemble(FULL, 19, M)[:, [1, 2, 5]]  # no Hermitian partners within this set
        target = mode_increment_variance(GRID, DT)
        for i in range(3):
            for j in range(i + 1, 3):
                cov = np.mean(mat[:, i] * np.conj(mat[:, j]))
                assert abs(cov) < 5 * target / np.sqrt(M)
