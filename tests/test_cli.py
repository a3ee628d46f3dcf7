"""Configuration grammar, dispatch, persistence, and byte-level reproducibility."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from wsnl.cli import (
    SUBCOMMANDS,
    ConfigError,
    dispatch,
    main,
    parse_config,
)
from wsnl.config import KEYS, StudyConfig, validate_config
from wsnl.snapshots import read_snapshot


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Recognized keys: `([^`]*)`", readme).group(1)
    names = [name.strip() for name in listed.split(",")]
    assert len(names) == len(KEYS) == 19
    assert set(names) == set(KEYS)


class TestParseConfig:
    def test_minimal_file_fills_defaults(self):
        cfg = parse_config("d = 1\nalpha = 0.3\n")
        assert cfg.d == 1 and cfg.alpha == 0.3
        assert cfg.N == 256 and cfg.K == 256 and cfg.T == 0.5
        assert cfg.seed == 2024 and cfg.dealias is True
        assert cfg.provided == {"d", "alpha"}

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# heading\n\nd = 2  # dimension\nalpha = 0.9\n")
        assert cfg.d == 2 and cfg.alpha == 0.9

    def test_alpha_window_violation_cites_constraint(self):
        with pytest.raises(ConfigError) as err:
            parse_config("d = 1\nalpha = 0.2\n")
        assert any("d/4 < alpha < d/2" in e for e in err.value.errors)

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("d = 1\nalpha = 0.3\nd = 2\n")
        msg = "; ".join(err.value.errors)
        assert "duplicate key 'd'" in msg and "line 3" in msg and "line 1" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("dimension = 1\n")
        assert "unknown key" in err.value.errors[0]

    def test_all_errors_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("bogus = 1\nno equals sign\nN = seven\n")
        assert len(err.value.errors) == 3

    def test_set_overrides_file_values(self):
        cfg = parse_config("d = 1\nalpha = 0.3\nseed = 5\n", overrides=["seed=9", "N=128"])
        assert cfg.seed == 9 and cfg.N == 128

    def test_ladder_parsing(self):
        cfg = parse_config("ladder = 8, 16, 32\n")
        assert cfg.ladder == (8.0, 16.0, 32.0)

    def test_nyquist_reported_before_compute(self):
        with pytest.raises(ConfigError) as err:
            parse_config("N = 64\nn = 64\n").for_kind("solve")
        assert "Nyquist" in err.value.errors[0]

    def test_default_alpha_per_dimension(self):
        cfg = parse_config("d = 2\n")
        assert validate_config(cfg) == []
        assert cfg.alpha == 0.9
        # the library resolves alpha in the same place: 0.3 is outside the d=2 window
        assert StudyConfig(kind="renorm_rate", d=2).alpha == 0.9


class TestConstants:
    def test_values_exact(self, tmp_path, capsys):
        code = dispatch("constants", parse_config("d = 2\nalpha = 0.9\n"), out_dir=tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa = 0.6" in out
        assert f"alpha_threshold = {5/6!r}" in out
        assert "pair_p = 4.0" in out and "pair_q = 4.0" in out
        text = (tmp_path / "constants.csv").read_text()
        assert text.splitlines()[0] == "schema_version,name,value"
        assert f"alpha_threshold_weak,{18/20!r}" in text

    def test_full_reference_tables(self, tmp_path):
        # every table value appears exactly for each dimension
        from wsnl.reference import constants_table

        for d, alpha, a_d, weak, s_d in [
            (1, 0.3, 1 / 4, 7 / 20, 3 / 20),
            (2, 0.9, 5 / 6, 18 / 20, 1 / 10),
            (3, 1.45, 17 / 12, 29 / 20, 1 / 24),
        ]:
            table = constants_table(d, alpha)
            assert table["alpha_threshold"] == a_d
            assert table["alpha_threshold_weak"] == weak
            assert table["weak_s_bound"] == s_d


def test_sample_snapshot_reproducible(tmp_path):
    cfg = parse_config("d = 1\nalpha = 0.3\nN = 64\nK = 8\nT = 0.25\nM = 1\nseed = 7\n")
    assert dispatch("sample", cfg, out_dir=tmp_path / "a") == 0
    assert dispatch("sample", cfg, out_dir=tmp_path / "b") == 0
    a = (tmp_path / "a" / "path-0000.wsnl").read_bytes()
    b = (tmp_path / "b" / "path-0000.wsnl").read_bytes()
    assert a == b
    assert a[:4] == b"WSNL"
    summary = (tmp_path / "a" / "path-0000.csv").read_text().splitlines()
    assert summary[0] == "schema_version,t,psi_l2,wick_spatial_mean,ipsi2_l2"
    assert len(summary) == 10  # header + K+1 rows


def test_sample_blocks_do_not_change_its_files(tmp_path):
    # the config.resolved files differ only in the chunk they record
    args = ["--set", "M=5", "--set", "N=64", "--set", "n=8", "--set", "K=16", "--seed", "9"]
    for chunk in (2, 5):
        out = str(tmp_path / str(chunk))
        assert main(["sample", *args, "--set", f"chunk={chunk}", "--out", out]) == 0
    names = sorted(p.name for p in (tmp_path / "5").iterdir())
    assert len(names) == 11 and names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        a, b = ((tmp_path / c / name).read_text(encoding="latin-1") for c in ("2", "5"))
        if name == "config.resolved":
            a, b = a.replace("chunk = 2\n", ""), b.replace("chunk = 5\n", "")
        assert a == b, name


@pytest.mark.parametrize("d, alpha, N, n", [(1, 0.3, 64, 8), (2, 0.9, 16, 4)])
def test_sample_rows_are_the_per_level_formulas_bit_for_bit(tmp_path, d, alpha, N, n):
    text = f"d = {d}\nalpha = {alpha}\nN = {N}\nn = {n}\nK = 8\nT = 0.25\nM = 2\nseed = 7\n"
    assert dispatch("sample", parse_config(text), out_dir=tmp_path) == 0
    for member in range(2):
        path = read_snapshot(tmp_path / f"path-{member:04d}.wsnl")
        volume = path.grid.L**d
        expected = [
            [
                float(t),
                float(np.sqrt(np.sum(np.abs(path.psi[k].values) ** 2) / volume)),
                float(np.mean(path.wick[k].values.real)),
                float(np.sqrt(np.sum(np.abs(path.ipsi2[k].values) ** 2) / volume)),
            ]
            for k, t in enumerate(path.times)
        ]
        lines = (tmp_path / f"path-{member:04d}.csv").read_text().splitlines()[1:]
        rows = [[float(cell) for cell in line.split(",")[1:]] for line in lines]
        assert repr(rows) == repr(expected)


def test_renorm_subcommand_writes_slope_row(tmp_path):
    cfg = parse_config("d = 1\nalpha = 0.3\n")
    assert dispatch("renorm", cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "renorm.csv").read_text().splitlines()
    assert lines[0] == "schema_version,record,n,c_n,slope,slope_stderr"
    slope_rows = [l for l in lines if l.split(",")[1] == "slope_increment"]
    assert len(slope_rows) == 1
    slope = float(slope_rows[0].split(",")[4])
    assert slope == pytest.approx(0.4, abs=0.05)
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "overall = PASS" in verdict
    resolved = (tmp_path / "config.resolved").read_text()
    assert "study = renorm_rate" in resolved


def test_study_output_reproducible_byte_for_byte(tmp_path):
    # reduced covariance study run twice, then re-run from its own resolved config
    args = ["--set", "M=200", "--set", "chunk=100", "--set", "K=32", "--set", "N=64", "--set", "n=8"]
    assert main(["covariance", *args, "--seed", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(["covariance", *args, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "covariance.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "covariance.csv").read_bytes()
    assert main(
        ["covariance", "--config", str(tmp_path / "a" / "config.resolved"), "--out", str(tmp_path / "c")]
    ) == 0
    assert csv_a == (tmp_path / "c" / "covariance.csv").read_bytes()


def test_solve_subcommand_traces(tmp_path):
    cfg = parse_config("d = 1\nalpha = 0.3\nN = 64\nn = 8\nK = 16\nT = 0.25\nseed = 11\n")
    code = dispatch("solve", cfg, out_dir=tmp_path)
    assert code == 0
    lines = (tmp_path / "solve.csv").read_text().splitlines()
    assert lines[0] == "schema_version,t,H_minus_s,Wsq,localized,picard_iters,residual"
    assert len(lines) == 18  # header + K+1 rows
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "completed = True" in verdict


def test_main_error_paths(tmp_path, capsys):
    assert main(["covariance", "--set", "alpha"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err
    assert main(["constants", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["covariance", "--set", "alpha=0.1"]) == 2
    err = capsys.readouterr().err
    assert "d/4 < alpha < d/2" in err
    for overrides, constraint in [
        (["--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["--seed", str(2**64)], "seed must lie in [0, 2**64)"),
        (["--set", "chunk=0"], "chunk must be >= 1"),
        (["--set", "L=0"], "L must be positive and finite"),
        (["--set", "L=inf"], "L must be positive and finite"),
        (["--set", "ladder=,"], "ladder must be a non-empty, strictly increasing list"),
        (["--set", "n=nan"], "n must be >= 0 and finite"),
        (["--set", "confidence=0.93"], "confidence must be one of [0.9, 0.95, 0.975, 0.99]"),
    ]:
        assert main(["covariance", *overrides, "--out", str(tmp_path)]) == 2
        assert constraint in capsys.readouterr().err
    for argv, constraint in [
        (["renorm", "--set", "ladder=,"], "ladder must be a non-empty"),
        (["solve", "--set", "n=nan"], "n must be >= 0 and finite"),
        (["constants", "--set", "eps=nan"], "eps must be > 0 and finite"),
        (["renorm", "--set", "confidence=0.5"], "confidence must be one of"),
        # each fit's rung count is checked before any member runs
        (
            ["smoothing", "--set", "M=100", "--set", "N=64", "--set", "K=16", "--set", "ladder=1,2,4"],
            "ladder must have >= 4 rungs for a smoothing study, got 3",
        ),
        (["renorm", "--set", "ladder=8,16,32"], "ladder must have >= 4 rungs for a renorm_rate"),
        (["cauchy", "--set", "ladder=8,16"], "ladder must have >= 3 rungs for a cauchy_rate"),
        (["converge", "--set", "ladder=8"], "ladder must have >= 2 rungs for a solver_convergence"),
        # the exponent fits read each increment as a dyadic one
        (
            ["renorm", "--set", "ladder=8,16,32,48,64"],
            "ladder must double at every rung for a renorm_rate study, "
            "got (8.0, 16.0, 32.0, 48.0, 64.0)",
        ),
        (
            ["smoothing", "--set", "M=100", "--set", "N=64", "--set", "K=16", "--set", "ladder=1,2,3,4"],
            "ladder must double at every rung for a smoothing study, got (1.0, 2.0, 3.0, 4.0)",
        ),
    ]:
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert constraint in capsys.readouterr().err
    # the per-study checks are reported together
    assert main(["smoothing", "--set", "M=50", "--set", "ladder=8,32", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "M must be >= 100" in err and "2*max(ladder) <= Nyquist" in err
    # the hoelder lags, measured from T/2, must end inside [0, T]
    assert main(["hoelder", "--set", "T=0.2", "--set", "M=50", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "M must be >= 100" in err
    assert "hoelder lags need T/2 + max(lags) <= T: 0.1 + 0.125 = 0.225 > T = 0.2" in err


def test_hoelder_reads_its_lags_on_its_k_step_grid(tmp_path, capsys):
    # at T = 0.5, K = 48 puts the lag 1/64 between steps of 1/96; K = 64 marches
    # steps of 1/128 and draws other normals than the default K = 32
    assert main(["hoelder", "--set", "M=100", "--set", "K=48", "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert "hoelder needs T/2 and T/2 + h for every lag h" in err
    assert "on the K-step grid, at multiples of T/K = 0.0104167: got T = 0.5, K = 48" in err
    csv = {}
    for K in (32, 64):
        out = tmp_path / f"K{K}"
        assert main(["hoelder", "--set", "M=100", "--set", f"K={K}", "--out", str(out)]) in (0, 1)
        assert f"K = {K}\n" in (out / "verdict.txt").read_text()
        csv[K] = (out / "hoelder.csv").read_bytes()
    assert csv[32] != csv[64]


@pytest.mark.parametrize("K, excluded", [(4, 22), (1, 100)], ids=["some", "all"])
def test_converge_with_excluded_members_fails_quietly(K, excluded, tmp_path):
    # members that blow up are iterated on with the healthy ones and then
    # excluded without a numpy warning, which pytest would raise; with none
    # left the statistics are nan, not a mean over no member
    args = ["M=100", "N=128", "chunk=100", f"K={K}", "T=1", "ladder=2,4"]
    argv = ["converge", *(item for pair in args for item in ("--set", pair))]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["config.resolved", "converge.csv", "verdict.txt"]
    rows = (tmp_path / "converge.csv").read_text().splitlines()
    assert f"1,excluded,,{excluded:.1f},," in rows
    if excluded == 100:
        assert "1,point,2.0,nan,nan,nan" in rows and "1,point,4.0,nan,nan,nan" in rows
    assert (tmp_path / "verdict.txt").read_text().endswith("overall = FAIL\n")


def test_cauchy_slope_row_sits_under_its_column_names(tmp_path):
    # the slope and its SE sit under value and stderr, as every other row's do
    args = ["--set", "M=100", "--set", "N=64", "--set", "ladder=2,4,8", "--out", str(tmp_path)]
    assert main(["cauchy", *args]) == 1
    header, *rows = (line.split(",") for line in (tmp_path / "cauchy.csv").read_text().splitlines())
    [slope] = [dict(zip(header, row)) for row in rows if row[header.index("record")] == "slope_ols"]
    verdict = (tmp_path / "verdict.txt").read_text()
    assert f"slope ols: {slope['value']} +/- {slope['stderr']} (R^2 = " in verdict
    assert slope["n"] == slope["pass"] == ""


def test_cauchy_decrement_with_zero_stderr_fails_its_verdict(tmp_path):
    # at L = 2 pi no annulus (n, 2n] holds a lattice mode: every gap and stderr is 0,
    # and no log-log fit runs through the all-zero means
    status = main(
        ["cauchy", "--set", "M=100", "--set", "ladder=0.1,0.2,0.4", "--out", str(tmp_path)]
    )
    assert status == 1
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "slope ols: nan +/- nan (R^2 = nan, m = 3)\n" in verdict
    assert "FAIL cauchy_means_strictly_decreasing: value=nan " in verdict
    assert verdict.endswith("overall = FAIL\n")


def test_smoothing_rung_with_no_exact_pairs_writes_its_verdicts(tmp_path):
    # at L = 8 pi the zero-mode-free ball |xi| <= 0.125 holds no lattice mode, and
    # no log-log fit runs through its exact 0
    status = main(
        ["smoothing", "--set", "M=100", "--set", "N=64", "--set", "K=16"]
        + ["--set", "ladder=0.125,0.25,0.5,1", "--out", str(tmp_path)]
    )
    assert status == 1
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "slope exact_ipsi2_no_zero_mode: nan +/- nan (R^2 = nan, m = 4)\n" in verdict
    assert verdict.endswith("overall = FAIL\n")
    rows = (tmp_path / "smoothing.csv").read_text().splitlines()
    assert "1,exact_ipsi2_no_zero_mode,0.22999999999999993,0.125,0.0,0.0" in rows


@pytest.mark.parametrize(
    "subcommand, overrides, verdict",
    [
        # at L = 2 pi every ball of the ladder holds the zero mode alone, so
        # c_n is the same at every rung
        ("renorm", ["ladder=0.1,0.2,0.4,0.8"], "renorm_divergence_exponent"),
        # at L = 8 pi they do too: the first mean increment of <I Psi^2>_n is 0
        # at any M, and so is the first exact one
        ("smoothing", ["M=100", "N=64", "K=16", "ladder=0.1,0.2,0.4,0.8"],
         "ipsi2_bounded_at_gain_probe"),
    ],
    ids=["renorm", "smoothing"],
)
def test_ladder_with_a_flat_increment_fails_and_writes_every_file(
    subcommand, overrides, verdict, tmp_path
):
    args = [item for pair in overrides for item in ("--set", pair)]
    assert main([subcommand, *args, "--out", str(tmp_path)]) == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([f"{subcommand}.csv", "verdict.txt", "config.resolved"])
    text = (tmp_path / "verdict.txt").read_text()
    assert f"FAIL {verdict}: value=nan " in text
    assert text.endswith("overall = FAIL\n")


@pytest.mark.parametrize(
    "subcommand, overrides, unread",
    [
        ("covariance", ["M=100", "N=32", "n=4", "K=4"], "ladder"),
        ("smoothing", ["M=100", "N=64", "K=16", "ladder=0.5,1,2,4"], "n"),
    ],
    ids=["covariance", "smoothing"],
)
def test_verdict_records_only_the_radius_key_its_kind_reads(
    subcommand, overrides, unread, tmp_path
):
    args = [item for pair in overrides for item in ("--set", pair)]
    assert main([subcommand, *args, "--out", str(tmp_path)]) in (0, 1)
    lines = (tmp_path / "verdict.txt").read_text().splitlines()
    read = {"ladder": "n", "n": "ladder"}[unread]
    assert not any(line.startswith((f"{unread} = ", "kind = ")) for line in lines)
    assert sum(line.startswith(f"{read} = ") for line in lines) == 1


def test_output_directory_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["constants", "--out", str(taken)]) == 2
    assert "error: cannot write outputs:" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("d = 1  # dimension \xb9\n".encode("latin-1"))
    assert main(["constants", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "error: cannot read config:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        # renorm runs at N = 512, whose Nyquist bound 256 admits the top rung
        ["ladder=8,16,32,64,128,256"],
        # renorm reads the ladder, so n, above every Nyquist bound here, is not a radius
        ["n=1000"],
    ],
)
def test_radii_are_checked_against_the_kind_that_runs_them(overrides, tmp_path):
    args = [item for pair in overrides for item in ("--set", pair)]
    assert main(["renorm", *args, "--out", str(tmp_path)]) == 0


def test_padded_grid_over_the_point_budget_exits_2(tmp_path, capsys):
    # d = 2, N = 8192: the study grid holds 8192^2 points, exactly the 2^26
    # budget, but the rung n = 4096 (its Nyquist bound) squares psi_n on
    # 12500^2, the smallest even 2-3-5-smooth size above 2P + N/2 = 12288
    assert main(["sample", "--set", "d=2", "--set", "N=8192", "--set", "n=4096",
                 "--out", str(tmp_path / "run")]) == 2
    assert "rung 4096 needs a padded grid of 12500 points per axis" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert parse_config("d = 2\nN = 8192\nn = 1024\n").for_kind("sample").n == 1024


@pytest.mark.parametrize("subcommand", ["smoothing", "converge"])
def test_study_pinned_values_fill_unset_keys(subcommand):
    # L, N and chunk the user did not set come from the study, not the generic defaults
    kind = SUBCOMMANDS[subcommand]
    assert parse_config("").for_kind(kind) == StudyConfig(kind=kind)
    explicit = parse_config("N = 2048\nchunk = 250\n").for_kind(kind)
    assert (explicit.N, explicit.chunk) == (2048, 250)


REDUCED = {
    "constants": [],
    "sample": ["M=1", "N=32", "n=4", "K=4"],
    "solve": ["N=32", "n=4", "K=8", "T=0.25"],
    "covariance": ["M=100", "N=32", "n=4", "K=4"],
    "renorm": ["N=64", "ladder=2,4,8,16"],
    "cauchy": ["M=100", "N=32", "ladder=2,4,8"],
    "smoothing": ["M=100", "N=64", "K=16", "ladder=0.5,1,2,4"],
    "hoelder": ["M=100", "N=32", "n=4"],
    "converge": ["M=100", "N=64", "K=8", "ladder=2,4"],
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_rerun_from_resolved_config_reproduces_every_file(subcommand, tmp_path):
    first, again = tmp_path / "a", tmp_path / "b"
    args = [item for pair in REDUCED[subcommand] for item in ("--set", pair)]
    code = main([subcommand, *args, "--seed", "5", "--out", str(first)])
    assert code in (0, 1)
    assert main([subcommand, "--config", str(first / "config.resolved"), "--out", str(again)]) == code
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_study_key_must_match_subcommand(tmp_path):
    cfg = parse_config("study = smoothing\n")
    with pytest.raises(ConfigError):
        dispatch("renorm", cfg, out_dir=tmp_path)


def test_infinity_prints_parseable(tmp_path, capsys):
    dispatch("constants", parse_config("d = 1\nalpha = 0.3\n"), out_dir=tmp_path)
    out = capsys.readouterr().out
    assert "pair_p = inf" in out
    assert math.isinf(float("inf"))
