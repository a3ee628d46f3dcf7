"""Acceptance criteria at their stated scales and tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Criterion 6 reads boundedness of <I Psi^2> from the dyadic-increment exponent
of its squared-norm expectation, on a box (L = 8 pi, T = 1, ladder 2..16) where
the exact second-moment oracle shows the gain: a plain log-log slope cannot
see a series that converges like C - c n^{-0.14} over a few octaves.
"""

import numpy as np
import pytest

from wsnl.cli import dispatch, main, parse_config
from wsnl.grid import CutoffRho, Field, SpectralGrid, sobolev_norm_hat
from wsnl.reference import PaperParams, constants_table
from wsnl.solver import SolverConfig, solve
from wsnl.stochastic import zero_path
from wsnl.studies import (
    StudyConfig,
    run_study,
    smoothing_sigmas,
    white_noise_variance_check,
    wick_centering_check,
)

SEED = 20260808


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {detail} -> {'PASS' if passed else 'FAIL'}")


@pytest.mark.acceptance
def test_criterion_01_white_noise_identity():
    grid = SpectralGrid(1, 2 * np.pi, 64)
    fns = [
        np.exp(-(((grid.x - np.pi) / 0.8) ** 2)),
        np.sin(grid.x) + 0.3 * np.cos(3 * grid.x),
        np.where(np.abs(grid.x - np.pi) < 1.2, 1.0, 0.0),
    ]
    res = white_noise_variance_check(grid, dt=0.01, M=10_000, seed=SEED, test_functions=fns)
    worst = max(v.value for v in res.verdicts)
    report(1, "white-noise variance identity", res.passed, f"worst rel err {worst:.3%} (tol 5%, M=1e4)")
    assert res.passed


@pytest.mark.acceptance
def test_criterion_02_covariance_agreement():
    cfg = StudyConfig(kind="covariance", seed=SEED)
    assert cfg.M == 4000 and cfg.N == 256 and cfg.n == 32.0 and cfg.d == 1
    res = run_study(cfg)
    worst = res.verdicts[0].value
    report(2, "covariance vs oracle (27 probes)", res.passed, f"max |z| = {worst:.2f} (tol 5 SE, M=4000)")
    assert res.passed


@pytest.mark.acceptance
def test_criterion_03_renorm_divergence():
    results = []
    for d, alpha, N in ((1, 0.3, 512), (2, 0.9, 512)):
        res = run_study(StudyConfig(kind="renorm_rate", d=d, alpha=alpha, N=N, seed=SEED))
        slope = res.slopes["increment"].slope
        target = d - 2 * alpha
        results.append((d, alpha, slope, target, res.passed))
    ok = all(r[4] for r in results)
    detail = "; ".join(f"d={d} a={a}: {s:.4f} (target {t:.2f}+/-0.05)" for d, a, s, t, _ in results)
    report(3, "renormalization divergence exponent", ok, detail)
    assert ok


@pytest.mark.acceptance
def test_criterion_04_wick_centering():
    cfg = StudyConfig(kind="covariance", M=10_000, chunk=2500, seed=SEED, K=4)
    res = wick_centering_check(cfg)
    report(4, "Wick centering 4-sigma zero test", res.passed,
           f"max per-cell |z| = {res.verdicts[0].value:.2f} over 4 times x 256 cells (M=1e4)")
    assert res.passed


@pytest.mark.acceptance
def test_criterion_05_cauchy_decay():
    cfg = StudyConfig(kind="cauchy_rate", seed=SEED)
    assert cfg.M == 2000 and cfg.d == 1
    res = run_study(cfg)
    slope = res.slopes["ols"]
    report(5, "Cauchy-in-n decay (coupled noise)", res.passed,
           f"decrements min gap/SE {res.verdicts[0].value:.2f}, "
           f"slope {slope.slope:.4f} +/- {slope.stderr:.4f} (M=2000)")
    assert res.passed


@pytest.mark.acceptance
def test_criterion_06_multilinear_smoothing():
    cfg = StudyConfig(kind="smoothing", seed=SEED)
    assert cfg.M == 2000 and cfg.ladder == (2.0, 4.0, 8.0, 16.0)
    assert (cfg.L, cfg.N, cfg.T, cfg.K) == (8 * np.pi, 256, 1.0, 512)
    res = run_study(cfg)
    by_name = {v.name: v for v in res.verdicts}
    wick_v = by_name["wick_diverging_below_gain"]
    bounded_v = by_name["ipsi2_bounded_at_gain_probe"]
    growing_v = by_name["ipsi2_growing_above_gain"]
    exact_bounded_v = by_name["exact_ipsi2_bounded_at_gain_probe"]
    exact_growing_v = by_name["exact_ipsi2_growing_above_gain"]

    def fmt(v):
        return "ok" if v.passed else "fail"

    sigmas = smoothing_sigmas(cfg.params())[0]

    def side(sigma, mc, exact, need):
        se = res.slopes[f"ipsi2_increment_sigma{sigma:.4g}"].stderr
        return (
            f"ipsi2 increment exponent at sigma {sigma:.3g}: {mc.value:+.3f} +/- {se:.3f} "
            f"(need {need} one-sided): {fmt(mc)}, exact {exact.value:+.3f}: {fmt(exact)}"
        )

    detail = (
        f"wick slope {wick_v.value:.3f} (need >= 0.1): {fmt(wick_v)}; "
        + side(sigmas[0], bounded_v, exact_bounded_v, "< 0")
        + "; "
        + side(sigmas[1], growing_v, exact_growing_v, "> 0")
    )
    report(6, "multilinear smoothing centerpiece", res.passed, detail)
    assert wick_v.passed, "Wick square must diverge below the gain"
    assert bounded_v.passed and exact_bounded_v.passed, (
        "<I Psi^2> must stay bounded just below the gain threshold -2s+kappa: its "
        "squared-norm increments E_2n - E_n must shrink (MC and exact)"
    )
    assert growing_v.passed and exact_growing_v.passed, (
        "<I Psi^2> must grow just above the gain threshold -2s+kappa (MC and exact)"
    )


@pytest.mark.acceptance
def test_criterion_07_solver_sanity():
    grid = SpectralGrid(1, 2 * np.pi, 64)
    params = PaperParams(d=1, alpha=0.3, eps=0.01, n=8)
    T, K = 0.5, 256
    vals = np.zeros(grid.shape, dtype=complex)
    vals[1], vals[2], vals[-3] = 0.1 * grid.L, 0.05 * grid.L, 0.025 * grid.L
    phi = Field(grid, grid.inverse_values(vals), "physical")
    out = solve(
        SolverConfig(params=params, rho=None, phi=phi, dt=T / K, T=T),
        zero_path(params, grid, T=T, K=K),
    )
    l2_0 = sobolev_norm_hat(grid, grid.forward_values(phi.values), 0.0, 2)
    l2_T = sobolev_norm_hat(grid, out.v_final, 0.0, 2)
    drift = abs(l2_T - l2_0)
    conserved = out.completed and drift < 1e-10 * l2_0

    # manufactured solution v*(t) = e^{-it} g: order 2.0 +/- 0.2
    rho = CutoffRho.for_grid(grid)
    g_field = phi
    g_hat = grid.forward_values(g_field.values)
    h = grid.inverse_values((1.0 + grid.xi2) * g_hat)
    envelope = rho.evaluate(grid) ** 2 * np.abs(g_field.values) ** 2

    def forcing(t):
        return np.exp(-1j * t) * h - envelope

    T2 = 0.25

    def error(K2):
        cfg = SolverConfig(
            params=params, rho=rho, phi=g_field, dt=T2 / K2, T=T2, dealias=False, forcing=forcing
        )
        out2 = solve(cfg, zero_path(params, grid, T=T2, K=K2))
        assert out2.completed
        return np.max(np.abs(out2.v_final - np.exp(-1j * T2) * g_hat))

    order = float(np.log2(error(16) / error(32)))
    ok = conserved and abs(order - 2.0) <= 0.2
    report(7, "solver sanity", ok,
           f"L2 drift {drift:.2e} over 256 steps (tol 1e-10 rel); MMS order {order:.3f} (2.0 +/- 0.2)")
    assert ok


@pytest.mark.acceptance
def test_criterion_08_solver_convergence():
    cfg = StudyConfig(kind="solver_convergence", seed=SEED)
    assert cfg.M == 200 and cfg.ladder == (8.0, 16.0, 32.0, 64.0)
    res = run_study(cfg)
    medians = [row[2] for row in res.rows if row[0] == "point"]
    report(8, "coupled-solve truncation convergence", res.passed,
           "medians " + " > ".join(f"{m:.4f}" for m in medians) + " (M=200)")
    assert res.passed


@pytest.mark.acceptance
def test_criterion_09_constants_table(tmp_path, capsys):
    code = dispatch("constants", parse_config("d = 2\nalpha = 0.9\n"), out_dir=tmp_path)
    capsys.readouterr()
    tables_ok = code == 0
    expected = {
        1: {"kappa_at": (0.3, 0.7), "a": 1 / 4, "weak": 7 / 20, "s_d": 3 / 20, "pair": (float("inf"), 2.0)},
        2: {"kappa_at": (0.9, 0.6), "a": 5 / 6, "weak": 18 / 20, "s_d": 1 / 10, "pair": (4.0, 4.0)},
        3: {"kappa_at": (1.45, 0.55), "a": 17 / 12, "weak": 29 / 20, "s_d": 1 / 24, "pair": (2.0, 6.0)},
    }
    for d, exp in expected.items():
        table = constants_table(d, exp["kappa_at"][0])
        tables_ok &= table["kappa"] == pytest.approx(exp["kappa_at"][1], abs=1e-15)
        tables_ok &= table["alpha_threshold"] == exp["a"]
        tables_ok &= table["alpha_threshold_weak"] == exp["weak"]
        tables_ok &= table["weak_s_bound"] == exp["s_d"]
        tables_ok &= (table["pair_p"], table["pair_q"]) == exp["pair"]
    # kappa table extremes of the d=3 branch
    tables_ok &= constants_table(3, 0.9)["kappa"] == 1.0
    tables_ok &= constants_table(3, 1.2)["kappa"] == pytest.approx(0.8, abs=1e-15)
    report(9, "constants tables exact", bool(tables_ok), "kappa / alpha_d / weak tables / pairs")
    assert tables_ok


@pytest.mark.acceptance
def test_criterion_10_reproducibility(tmp_path):
    args = ["--set", "M=400", "--set", "chunk=200", "--set", "K=64", "--set", "N=128", "--set", "n=16"]
    assert main(["covariance", *args, "--seed", str(SEED), "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["covariance", "--config", str(tmp_path / "a" / "config.resolved"), "--out", str(tmp_path / "b")]
    ) == 0
    same = (tmp_path / "a" / "covariance.csv").read_bytes() == (
        tmp_path / "b" / "covariance.csv"
    ).read_bytes()
    assert main(["renorm", "--set", "d=2", "--set", "alpha=0.9", "--set", "N=512",
                 "--seed", str(SEED), "--out", str(tmp_path / "c")]) == 0
    assert main(
        ["renorm", "--config", str(tmp_path / "c" / "config.resolved"), "--out", str(tmp_path / "d")]
    ) == 0
    same &= (tmp_path / "c" / "renorm.csv").read_bytes() == (tmp_path / "d" / "renorm.csv").read_bytes()
    report(10, "byte-identical re-runs from recorded config", bool(same),
           "covariance + renorm CSVs reproduced from config.resolved")
    assert same
