"""Configuration grammar, dispatch, persistence, and byte-level reproducibility."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from wsnl.cli import (
    STUDY_OF_SUBCOMMAND,
    SUBCOMMANDS,
    ConfigError,
    dispatch,
    main,
    parse_config,
)
from wsnl.config import KEYS, validate_config
from wsnl.studies import default_config


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
            parse_config("N = 64\nn = 64\n")
        assert "Nyquist" in err.value.errors[0]

    def test_default_alpha_per_dimension(self):
        cfg = parse_config("d = 2\n")
        assert validate_config(cfg) == []
        assert cfg.alpha == 0.9
        # the library resolves alpha in the same place: 0.3 is outside the d=2 window
        assert default_config("renorm_rate", d=2).alpha == 0.9


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
    kind = STUDY_OF_SUBCOMMAND[subcommand]
    assert parse_config("").for_kind(kind) == default_config(kind)
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
