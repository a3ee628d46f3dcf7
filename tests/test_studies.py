"""Study harness: regression helpers, self-calibration, reduced-scale studies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsnl.studies
from wsnl.cli import main
from wsnl.config import ConfigError
from wsnl.grid import SpectralGrid
from wsnl.studies import (
    MeanAccumulator,
    Samples,
    StudyConfig,
    increment_slope,
    loglog_ols,
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

        fits = [Samples(draw(400)).increment_exponent(n) for _ in range(200)]
        slopes = np.array([f.slope for f in fits])
        assert abs(slopes.mean() + 0.2) < 0.005
        assert np.median([f.stderr for f in fits]) == pytest.approx(slopes.std(ddof=1), rel=0.15)

    def test_needs_three_points(self):
        with pytest.raises(Exception):
            loglog_ols([1.0, 2.0], [1.0, 2.0])

    def test_one_sided_z_table(self):
        assert StudyConfig(kind="covariance").z == pytest.approx(1.6449)
        assert StudyConfig(kind="hoelder", confidence=0.99).z == pytest.approx(2.3263)


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


def test_samples_with_no_member_kept_read_nan_without_a_warning():
    # pyproject turns any numpy warning into a failure; converge's rows read the
    # median, mean and stderr of such a Samples (test_cli's all-excluded run)
    kept = Samples(np.empty((0, 3)))
    assert kept.count == 0 and kept.values.shape == (0, 3)
    assert np.all(np.isnan(kept.mean)) and np.all(np.isnan(kept.stderr))
    dec = kept.decrements()
    assert dec.count == 0 and dec.mean.shape == (2,) and np.all(np.isnan(dec.mean))


def test_decrements_pair_each_member_with_itself():
    # a member-wide level shared by every rung cancels in the paired decrement,
    # so its stderr is far below the unpaired sqrt(se_n^2 + se_2n^2)
    rng = np.random.default_rng(3)
    values = 10.0 * rng.standard_normal((500, 1)) + [3.0, 2.0, 1.5] + rng.standard_normal((500, 3))
    by_hand = np.stack([values[:, 0] - values[:, 1], values[:, 1] - values[:, 2]], axis=1)
    points = Samples(values)
    dec = points.decrements()
    assert np.array_equal(dec.values, by_hand)
    assert dec.count == 500
    assert np.allclose(dec.mean, by_hand.mean(axis=0), rtol=1e-13, atol=0)
    assert np.allclose(dec.stderr, by_hand.std(axis=0, ddof=1) / np.sqrt(500), rtol=1e-12, atol=0)
    unpaired = np.sqrt(points.stderr[:-1] ** 2 + points.stderr[1:] ** 2)
    assert np.all(dec.stderr < unpaired / 5)


# Small configurations of every study that reduces through Samples, run at
# chunk = M and at a chunk that does not divide M.  Converge's Picard loop
# stops each member at its own contraction bound, so its rows are compared
# too; only its Picard histogram note, which counts batched steps by the
# iterations of their slowest member, depends on the chunking.
CHUNK_INVARIANT = {
    "covariance": (run_study, dict(kind="covariance", N=32, n=4.0, K=4)),
    "wick_centering": (wick_centering_check, dict(kind="covariance", N=32, n=4.0, K=4)),
    "cauchy": (run_study, dict(kind="cauchy_rate", N=64, ladder=(2.0, 4.0, 8.0))),
    "hoelder": (run_study, dict(kind="hoelder", N=32, n=8.0)),
    "smoothing": (
        run_study,
        dict(kind="smoothing", L=2 * np.pi, N=64, T=1 / 32, K=16, ladder=(2.0, 4.0, 8.0, 16.0)),
    ),
    "converge": (run_study, dict(kind="solver_convergence", N=64, K=8, ladder=(2.0, 4.0))),
}


@pytest.mark.parametrize("study", CHUNK_INVARIANT)
def test_chunk_moves_no_row_or_verdict(study):
    run, settings = CHUNK_INVARIANT[study]
    # 30 does not divide M = 100: four chunks, the last of 10 members
    whole, chunked = (run(StudyConfig(M=100, chunk=c, seed=9, **settings)) for c in (100, 30))
    assert chunked.rows == whole.rows
    assert chunked.verdict_lines() == whole.verdict_lines()


def test_study_config_validation():
    with pytest.raises(Exception):
        StudyConfig(kind="covariance", M=50)  # statistical verdict needs M >= 100
    with pytest.raises(Exception):
        StudyConfig(kind="smoothing", ladder=(8.0, 8.0))
    with pytest.raises(Exception, match="exceeds the Nyquist bound"):
        StudyConfig(kind="cauchy_rate", ladder=(8.0, 128.0), N=256)  # 2n over Nyquist
    with pytest.raises(Exception, match=r"2\*max\(ladder\) <= Nyquist"):
        StudyConfig(kind="smoothing", ladder=(8.0, 128.0), N=256)  # |Psi_n|^2 would alias


@pytest.mark.parametrize(
    "kind, radii, tracks",
    [
        ("constants", [], False),
        ("sample", [4.0], True),
        ("solve", [4.0], True),
        ("covariance", [4.0], False),
        ("hoelder", [4.0], False),
        ("renorm_rate", [2.0, 4.0, 8.0, 16.0], False),
        ("smoothing", [2.0, 4.0, 8.0, 16.0], True),
        ("cauchy_rate", [2.0, 4.0, 8.0, 16.0, 32.0], False),
        ("solver_convergence", [2.0, 4.0, 8.0, 16.0, 32.0], True),
    ],
)
def test_each_kind_has_one_radii_rule_and_one_tracking_flag(kind, radii, tracks):
    # [n], the ladder, or every rung with its 2n: ascending, each radius once
    # (a rung's 2n is the next rung of a dyadic ladder, the only kind renorm
    # and smoothing accept)
    config = StudyConfig(kind=kind, n=4.0, ladder=(2.0, 4.0, 8.0, 16.0))
    assert config.radii() == radii
    assert config.tracks is tracks


class Recorded(Exception):
    """Raised by the PathEnsemble stand-in once it has its arguments."""


@pytest.mark.parametrize(
    "run, kind, overrides, radii, track",
    [
        (run_study, "covariance", dict(n=4.0, K=4), [4.0], False),
        (run_study, "cauchy_rate", dict(ladder=(2.0, 4.0, 8.0)), [2.0, 4.0, 8.0, 16.0], False),
        (run_study, "cauchy_rate", dict(K=4, ladder=(2.0, 4.0, 8.0)), [2.0, 4.0, 8.0, 16.0], False),
        (run_study, "smoothing", dict(K=16, ladder=(0.5, 1, 2, 4)), [0.5, 1.0, 2.0, 4.0], True),
        (run_study, "hoelder", dict(n=4.0), [4.0], False),
        (run_study, "hoelder", dict(n=4.0, K=64), [4.0], False),
        (run_study, "solver_convergence", dict(K=8, ladder=(2.0, 4.0)), [2.0, 4.0, 8.0], True),
        (wick_centering_check, "covariance", dict(n=8.0, K=4), [8.0], False),
    ],
    ids=[
        "covariance", "cauchy", "cauchy_K4", "smoothing", "hoelder", "hoelder_K64", "converge",
        "wick_centering",
    ],
)
def test_every_ensemble_runs_at_the_radii_and_tracking_of_its_config(
    run, kind, overrides, radii, track, monkeypatch
):
    # the studies build their ensembles from config.radii() and config.tracks
    # alone, and those are the kind's rule: [n], the ladder, or each rung and 2n;
    # every study marches the K steps of T/K of its config
    seen = []

    def recorder(grid, alpha, ens_radii, T, K, **kwargs):
        seen.append((sorted(ens_radii), kwargs["track"], (T, K)))
        raise Recorded

    monkeypatch.setattr(wsnl.studies, "PathEnsemble", recorder)
    config = StudyConfig(kind=kind, M=100, N=64, **overrides)
    with pytest.raises(Recorded):
        run(config)
    [(ens_radii, ens_track, steps)] = seen
    assert (ens_radii, ens_track) == (config.radii(), config.tracks) == (radii, track)
    assert steps == (config.T, config.K)


def test_converge_rejects_the_global_solver_mode(tmp_path, capsys):
    # its coupled solves march step by step, one stepper per radius
    with pytest.raises(ConfigError) as err:
        StudyConfig(kind="solver_convergence", solver_mode="global")
    assert err.value.errors == [
        "solver_mode must be step-local for a solver_convergence study, got 'global'"
    ]
    with pytest.raises(ConfigError) as err:
        StudyConfig(kind="solver_convergence", solver_mode="spectral")
    assert err.value.errors == ["solver_mode must be step-local or global, got 'spectral'"]
    out = tmp_path / "run"
    assert main(["converge", "--set", "solver_mode=global", "--out", str(out)]) == 2
    assert "solver_mode must be step-local" in capsys.readouterr().err
    assert not out.exists()


def test_converge_notes_the_picard_iterations_of_every_batched_step():
    # three chunks, three radii (ladder 2, 4 and their top 8), K = 8 steps each
    config = StudyConfig(kind="solver_convergence", M=100, chunk=40, N=64, K=8, ladder=(2.0, 4.0))
    prefix = "picard iterations per step: "
    [note] = [note for note in run_study(config).notes if note.startswith(prefix)]
    counts = dict(pair.split(": ") for pair in note.removeprefix(prefix).split(", "))
    assert list(counts) == sorted(counts, key=int)
    assert sum(int(count) for count in counts.values()) == 3 * 3 * 8


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
        res = run_study(StudyConfig(kind="renorm_rate", seed=SEED))
        assert res.passed
        assert res.slopes["increment"].slope == pytest.approx(0.4, abs=0.05)
        # the plain OLS slope is reported and visibly contaminated
        assert res.slopes["ols"].slope > 0.45

    def test_d2(self):
        res = run_study(StudyConfig(kind="renorm_rate", d=2, alpha=0.9, N=512, seed=SEED))
        assert res.passed
        assert res.slopes["increment"].slope == pytest.approx(0.2, abs=0.05)


@pytest.mark.slow
def test_cauchy_rate_reduced():
    res = run_study(StudyConfig(kind="cauchy_rate", M=800, chunk=400, seed=SEED))
    slope = res.slopes["ols"]
    assert slope.slope + res.config.z * slope.stderr < 0.0
    # expected decay is about -2*eps with lattice transients
    assert -0.15 < slope.slope < -0.02


def test_cauchy_decrease_is_read_from_the_decrement_rows():
    # at M=100, seed 2 the means decrease strictly, but two of the three
    # decrements are within their standard errors: the verdict is not resolved
    res = run_study(StudyConfig(kind="cauchy_rate", M=100, seed=2))
    points = [row[2] for row in res.rows if row[0] == "point"]
    assert np.all(np.diff(points) < 0)
    decrements = [row for row in res.rows if row[0] == "decrement"]
    verdict = {v.name: v for v in res.verdicts}["cauchy_means_strictly_decreasing"]
    assert not verdict.passed
    assert verdict.value == min(row[2] / row[3] for row in decrements)
    assert [row[4] for row in decrements] == [True, False, False]


@pytest.mark.slow
def test_hoelder_reduced():
    res = run_study(StudyConfig(kind="hoelder", M=500, chunk=500, seed=SEED))
    assert res.passed
    assert res.slopes["control"].slope == pytest.approx(1.0, abs=0.1)
    assert res.slopes["field"].slope > 0


@pytest.mark.slow
def test_covariance_reduced():
    res = run_study(StudyConfig(kind="covariance", M=800, chunk=400, seed=77))
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
    res = run_study(StudyConfig(kind="covariance", K=K, M=2000, seed=SEED))
    assert res.passed
    (row,) = [r for r in res.rows if r[0] == r[1] == 0.5 and r[2] == 0.0]
    assert row[9] == pytest.approx(-0.1695, abs=5e-5)


def test_covariance_round_off_components_are_not_divided_by_their_standard_error(monkeypatch):
    # at s = t and no shift the conjugate pairing is |psi|^2, whose imaginary
    # part is round-off in every member; no probe sits at s = 0, where psi is zero
    config = StudyConfig(kind="covariance", K=2, N=32, n=4.0, M=100, seed=20260808)
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
    res = run_study(StudyConfig(kind="covariance", K=K, N=32, n=4.0, M=100, seed=20260808))
    keys = [(row[0], row[1], row[2]) for row in res.rows]
    assert len(keys) == len(set(keys)) == 3 * K * K
    assert min(min(s, t) for s, t, _ in keys) > 0.0


@pytest.mark.slow
def test_smoothing_reduced_wick_diverges_and_exact_gain_visible():
    res = run_study(StudyConfig(kind="smoothing", M=200, chunk=200, seed=301))
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

    cfg = StudyConfig(kind="smoothing")
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
        StudyConfig(kind="solver_convergence", M=100, chunk=100, seed=42, K=64)
    )
    assert res.passed
    # radius 128 squares psi on 1600 points: its 2n is twice the Nyquist bound,
    # and 1600 > 2P + N/2 keeps the modes up to Nyquist unaliased
    assert res.notes[-1].endswith("; n=64: M=1080, 2n/Nyquist=1; n=128: M=1600, 2n/Nyquist=2")


@pytest.mark.slow
def test_wick_centering_reduced():
    cfg = StudyConfig(kind="covariance", M=1000, chunk=500, seed=88, N=64, K=4, n=8.0)
    res = wick_centering_check(cfg)
    assert res.passed


def test_wick_centering_probes_are_distinct_measured_steps():
    # at K < 4 the quarter steps repeat and reach step 0, where psi = 0 and
    # every cell's z-score is 0/0: no probe may pass unmeasured
    cfg = StudyConfig(kind="covariance", K=2, M=100, N=64)
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
    cfg = StudyConfig(kind="cauchy_rate", M=200, chunk=100, seed=9)
    a = run_study(cfg)
    b = run_study(StudyConfig(kind="cauchy_rate", M=200, chunk=100, seed=9))
    assert a.rows == b.rows


def test_threads_do_not_change_results():
    base = run_study(StudyConfig(kind="cauchy_rate", M=200, chunk=50, seed=9))
    threaded = run_study(StudyConfig(kind="cauchy_rate", M=200, chunk=50, seed=9, threads=4))
    assert base.rows == threaded.rows
