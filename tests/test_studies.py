"""Study harness: regression helpers, self-calibration, reduced-scale studies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsnl.studies
from wsnl.grid import SpectralGrid
from wsnl.studies import (
    MeanAccumulator,
    StudyConfig,
    default_config,
    increment_exponent,
    increment_slope,
    loglog_ols,
    one_sided_z,
    run_study,
    smoothing_sigmas,
    white_noise_variance_check,
    wick_centering_check,
)

SEED = 1234


class TestRegression:
    def test_recovers_synthetic_power_law_within_two_se(self):
        rng = np.random.default_rng(0)
        n = np.array([8.0, 16, 32, 64, 128, 256])
        for p in (-0.7, 0.4, 1.3):
            y = 3.0 * n**p * np.exp(rng.normal(0, 0.02, size=n.size))
            reg = loglog_ols(n, y)
            assert abs(reg.slope - p) <= 2 * reg.stderr + 1e-9
            assert reg.r2 > 0.99

    def test_increment_slope_cancels_additive_constant(self):
        n = np.array([8.0, 16, 32, 64, 128])
        y = 2.0 * n**0.4 - 3.5
        plain = loglog_ols(n, y).slope
        inc = increment_slope(n, y).slope
        assert abs(inc - 0.4) < 1e-10
        assert abs(plain - 0.4) > 0.05  # the contamination the increment fit removes

    def test_increment_exponent_stderr_matches_replicate_spread(self):
        # coupled members: each rung adds a noisy increment to the one below, and a
        # per-member factor shared by all rungs correlates the increments, which a
        # per-rung (diagonal) error would overstate
        rng = np.random.default_rng(2)
        n = np.array([2.0, 4.0, 8.0, 16.0])
        mean_inc = 5.0 * n[:-1] ** -0.2

        def draw(M):
            common = rng.standard_normal((M, 1))
            inc = mean_inc * (1.0 + 0.4 * common + 0.3 * rng.standard_normal((M, 3)))
            return np.cumsum(np.concatenate([np.ones((M, 1)), inc], axis=1), axis=1)

        fits = [increment_exponent(n, draw(400)) for _ in range(200)]
        slopes = np.array([f.slope for f in fits])
        assert abs(slopes.mean() + 0.2) < 0.005
        assert np.median([f.stderr for f in fits]) == pytest.approx(slopes.std(ddof=1), rel=0.15)

    def test_needs_three_points(self):
        with pytest.raises(Exception):
            loglog_ols([1.0, 2.0], [1.0, 2.0])

    def test_one_sided_z_table(self):
        assert one_sided_z(0.95) == pytest.approx(1.6449)
        with pytest.raises(Exception):
            one_sided_z(0.93)


def test_standard_error_scales_as_inverse_sqrt_m():
    rng = np.random.default_rng(1)
    acc_small = MeanAccumulator(1)
    acc_large = MeanAccumulator(1)
    acc_small.add(rng.standard_normal((4000, 1)))
    acc_large.add(rng.standard_normal((8000, 1)))
    ratio = float(acc_large.stderr[0] / acc_small.stderr[0])
    assert ratio == pytest.approx(1 / np.sqrt(2), abs=0.1)


@settings(max_examples=200, deadline=None)
@given(
    blocks=st.lists(
        st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    ).filter(lambda b: sum(map(len, b)) >= 2),
    offset=st.sampled_from([0.0, -3.0, 1e4, 1e8, -1e12]),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
)
def test_merged_blocks_match_a_two_pass_variance(blocks, offset, scale):
    # blocks merged in order, including mean^2 >> variance (offset 1e8 or 1e12
    # on a spread of 1e-6), where sums of squares cancel to nothing
    arrays = [offset + scale * np.array(b) for b in blocks]
    acc = MeanAccumulator(2)
    for block in arrays:
        acc.add(block)
    x = np.concatenate(arrays)
    mean = x.mean(axis=0)
    se = np.sqrt(np.sum((x - mean) ** 2, axis=0) / (len(x) - 1) / len(x))
    size = abs(offset) + scale
    assert acc.count == len(x)
    assert np.all(np.abs(acc.mean - mean) <= 1e-15 * size * len(arrays))
    assert np.all(np.abs(acc.stderr - se) <= 1e-9 * se + 1e-15 * size)


def test_study_config_validation():
    with pytest.raises(Exception):
        StudyConfig(kind="covariance", M=50)  # statistical verdict needs M >= 100
    with pytest.raises(Exception):
        StudyConfig(kind="smoothing", ladder=(8.0, 8.0))
    with pytest.raises(Exception, match="exceeds the Nyquist bound"):
        StudyConfig(kind="cauchy_rate", ladder=(8.0, 128.0), N=256)  # 2n over Nyquist
    with pytest.raises(Exception, match=r"2\*max\(ladder\) <= Nyquist"):
        StudyConfig(kind="smoothing", ladder=(8.0, 128.0), N=256)  # |Psi_n|^2 would alias


def test_white_noise_variance_check():
    grid = SpectralGrid(1, 2 * np.pi, 64)
    fns = [
        np.exp(-((grid.x - np.pi) ** 2)),
        np.sin(grid.x),
        np.where(np.abs(grid.x - np.pi) < 1.0, 1.0, 0.0),
    ]
    res = white_noise_variance_check(grid, dt=0.01, M=4000, seed=SEED, test_functions=fns)
    assert res.passed


class TestRenormRate:
    def test_d1(self):
        res = run_study(default_config("renorm_rate", seed=SEED))
        assert res.passed
        assert res.slopes["increment"].slope == pytest.approx(0.4, abs=0.05)
        # the plain OLS slope is reported and visibly contaminated
        assert res.slopes["ols"].slope > 0.45

    def test_d2(self):
        res = run_study(default_config("renorm_rate", d=2, alpha=0.9, N=512, seed=SEED))
        assert res.passed
        assert res.slopes["increment"].slope == pytest.approx(0.2, abs=0.05)


@pytest.mark.slow
def test_cauchy_rate_reduced():
    res = run_study(default_config("cauchy_rate", M=800, chunk=400, seed=SEED))
    slope = res.slopes["ols"]
    assert slope.slope + one_sided_z(0.95) * slope.stderr < 0.0
    # expected decay is about -2*eps with lattice transients
    assert -0.15 < slope.slope < -0.02


def test_cauchy_decrease_is_read_from_the_decrement_rows():
    # at M=100, seed 2 the means decrease strictly, but two of the three
    # decrements are within their standard errors: the verdict is not resolved
    res = run_study(default_config("cauchy_rate", M=100, seed=2))
    points = [row[2] for row in res.rows if row[0] == "point"]
    assert np.all(np.diff(points) < 0)
    decrements = [row for row in res.rows if row[0] == "decrement"]
    verdict = {v.name: v for v in res.verdicts}["cauchy_means_strictly_decreasing"]
    assert not verdict.passed
    assert verdict.value == min(row[2] / row[3] for row in decrements)
    assert [row[4] for row in decrements] == [True, False, False]


@pytest.mark.slow
def test_hoelder_reduced():
    res = run_study(default_config("hoelder", M=500, chunk=500, seed=SEED))
    assert res.passed
    assert res.slopes["control"].slope == pytest.approx(1.0, abs=0.1)
    assert res.slopes["field"].slope > 0


@pytest.mark.slow
def test_covariance_reduced():
    res = run_study(default_config("covariance", M=800, chunk=400, seed=77))
    assert res.passed
    # rows carry both pairings with oracle values; spot-check column count
    assert len(res.rows) == 27
    assert len(res.columns) == len(res.rows[0])


@pytest.mark.slow
@pytest.mark.parametrize("K", [2, 16])
def test_covariance_is_exact_at_coarse_steps(K):
    # each step's increment carries its phase integral, so both pairings meet
    # the oracle however coarse the step.  A recursion that adds the increment
    # without its phase misses the plain pairing at n = 32, T = 0.5, x = y:
    # -0.778 (K = 2) and -0.248 (K = 16) against -0.1695.
    res = run_study(default_config("covariance", K=K, M=2000, seed=SEED))
    assert res.passed
    (row,) = [r for r in res.rows if r[0] == r[1] == 0.5 and r[2] == 0.0]
    assert row[9] == pytest.approx(-0.1695, abs=5e-5)


def test_covariance_round_off_components_are_not_divided_by_their_standard_error(monkeypatch):
    # at s = t and no shift the conjugate pairing is |psi|^2, whose imaginary
    # part is round-off in every member; no probe sits at s = 0, where psi is zero
    config = default_config("covariance", K=2, N=32, n=4.0, M=100, seed=20260808)
    res = run_study(config)
    verdict = res.verdicts[0]
    assert verdict.passed and verdict.value < 10.0
    note = res.notes[-1]
    assert "s=0 " not in note and "t=0 " not in note
    assert "s=0.25 t=0.25 shift=0: conj_im;" in note
    assert note.endswith("s=0.5 t=0.5 shift=0: conj_im")
    assert "misses" not in note
    z = {(row[0], row[1], row[2]): row[-2] for row in res.rows}
    assert all(np.isfinite(value) and value < 10.0 for value in z.values())
    # a round-off component that misses its oracle fails the verdict and is named
    oracle = wsnl.studies.covariance_oracle

    def shifted(grid, n, alpha, s, t, x, y):
        oc, op = oracle(grid, n, alpha, s, t, x, y)
        return oc + 0.05j * (s == t == 0.25), op

    monkeypatch.setattr(wsnl.studies, "covariance_oracle", shifted)
    res = run_study(config)
    assert not res.passed
    assert "s=0.25 t=0.25 shift=0: conj_im (misses its oracle by 0.05);" in res.notes[-1]


@pytest.mark.parametrize("K", [1, 2])
def test_covariance_probes_are_distinct_steps_after_the_start(K):
    # psi(0) = 0, so a probe at step 0 would compare zero with a zero oracle
    res = run_study(default_config("covariance", K=K, N=32, n=4.0, M=100, seed=20260808))
    keys = [(row[0], row[1], row[2]) for row in res.rows]
    assert len(keys) == len(set(keys)) == 3 * K * K
    assert min(min(s, t) for s, t, _ in keys) > 0.0


@pytest.mark.slow
def test_smoothing_reduced_wick_diverges_and_exact_gain_visible():
    res = run_study(default_config("smoothing", M=200, chunk=200, seed=301))
    wick_key = [k for k in res.slopes if k.startswith("wick_sigma-")][0]
    assert res.slopes[wick_key].slope >= 0.1
    # exact rows show the gain: increments shrink just below -2s+kappa and grow
    # just above it
    by_name = {v.name: v for v in res.verdicts}
    assert by_name["exact_ipsi2_bounded_at_gain_probe"].passed
    assert by_name["exact_ipsi2_growing_above_gain"].passed
    # the lattice zero mode adds to the series (its pairings carry no oscillating
    # phase) but is not what makes its plain log-log slope large
    free, full = res.slopes["exact_ipsi2_no_zero_mode"].slope, res.slopes["exact_ipsi2"].slope
    assert 0.3 < free < full
    # the resolution diagnostic names each rung's padded size and 2n / Nyquist
    assert "padded Wick squares: n=2: M=36, 2n/Nyquist=0.125;" in res.notes[1]
    assert res.notes[1].endswith("; n=16: M=270, 2n/Nyquist=1")


def test_exact_increment_exponent_needs_the_large_box():
    """The criterion-6 estimator fails on the 2 pi torus and passes on the pinned box."""
    from wsnl.secondmoment import ipsi2_norm_sq_expectation

    cfg = default_config("smoothing")
    sigma_b = smoothing_sigmas(cfg.params())[0][0]

    def exponent(L):
        grid = SpectralGrid(1, L, cfg.N)
        vals = [ipsi2_norm_sq_expectation(grid, n, cfg.alpha, cfg.T, sigma_b) for n in cfg.ladder]
        return increment_slope(cfg.ladder, vals).slope

    assert exponent(2 * np.pi) == pytest.approx(0.414, abs=0.001)
    assert exponent(cfg.L) == pytest.approx(-0.167, abs=0.001)


@pytest.mark.slow
def test_solver_convergence_reduced():
    res = run_study(
        default_config("solver_convergence", M=100, chunk=100, seed=42, K=64)
    )
    assert res.passed
    # radius 128 squares psi on 1600 points: its 2n is twice the Nyquist bound,
    # and 1600 > 2P + N/2 keeps the modes up to Nyquist unaliased
    assert res.notes[-1].endswith("; n=64: M=1080, 2n/Nyquist=1; n=128: M=1600, 2n/Nyquist=2")


@pytest.mark.slow
def test_wick_centering_reduced():
    cfg = default_config("covariance", M=1000, chunk=500, seed=88, N=64, K=4, n=8.0)
    res = wick_centering_check(cfg)
    assert res.passed


def test_wick_centering_probes_are_distinct_measured_steps():
    # at K < 4 the quarter steps repeat and reach step 0, where psi = 0 and
    # every cell's z-score is 0/0: no probe may pass unmeasured
    cfg = default_config("covariance", K=2, M=100, N=64)
    res = wick_centering_check(cfg)
    times = [row[0] for row in res.rows]
    assert times == sorted(set(times)) and times[0] > 0
    assert all(np.isfinite(row[2]) for row in res.rows)
    with np.errstate(invalid="ignore"):
        assert not wick_centering_check(cfg, probe_ks=[0, 2]).passed


@pytest.mark.slow
def test_smoother_noise_gives_flatter_ipsi2_ladder():
    """Raising alpha (smoother noise) lowers the zero-mode-free ladder slope.

    On this coarse lattice (L = 2 pi, T = 0.5) the near-resonant strip is
    unpopulated and the plain slope is nearly flat in sigma, so only the
    monotone alpha-dependence is checked here; the threshold itself is read from
    the increment exponent on the smoothing study's larger box.
    """
    from wsnl.secondmoment import ipsi2_norm_sq_expectation

    grid = SpectralGrid(1, 2 * np.pi, 256)
    ladder = [16.0, 32.0, 64.0, 128.0]
    T = 0.5
    slopes = {}
    for alpha in (0.3, 0.35):
        vals = [
            ipsi2_norm_sq_expectation(grid, n, alpha, T, 0.23, drop_zero_mode=True)
            for n in ladder
        ]
        slopes[alpha] = loglog_ols(ladder, vals).slope
    assert slopes[0.35] < slopes[0.3]


def test_reproducibility_same_config_same_rows():
    cfg = default_config("cauchy_rate", M=200, chunk=100, seed=9)
    a = run_study(cfg)
    b = run_study(default_config("cauchy_rate", M=200, chunk=100, seed=9))
    assert a.rows == b.rows


def test_threads_do_not_change_results():
    base = run_study(default_config("cauchy_rate", M=200, chunk=50, seed=9))
    threaded = run_study(default_config("cauchy_rate", M=200, chunk=50, seed=9, threads=4))
    assert base.rows == threaded.rows
