"""Command-line front end: configuration parsing, dispatch, and persistence.

Configuration grammar: UTF-8 text, one `key = value` per line, `#` starts a
comment, blank lines ignored.  Unknown keys are rejected, duplicate keys are
reported with both line numbers, and validation returns every error at once.
Each run writes its fully resolved configuration next to its outputs, so any
artifact directory is reproducible from its own contents.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import CutoffRho, Field, GridError, SpectralGrid
from .output import write_csv, write_resolved_config, write_study_csv, write_verdicts
from .reference import ParameterError, constants_table
from .snapshots import write_snapshot
from .solver import SolverConfig, solve
from .stochastic import sample_path
from .studies import default_config, run_study

SUBCOMMANDS = (
    "constants",
    "sample",
    "covariance",
    "renorm",
    "cauchy",
    "smoothing",
    "hoelder",
    "solve",
    "converge",
)

STUDY_OF_SUBCOMMAND = {
    "covariance": "covariance",
    "renorm": "renorm_rate",
    "cauchy": "cauchy_rate",
    "smoothing": "smoothing",
    "hoelder": "hoelder",
    "converge": "solver_convergence",
}


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ladder(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


KEY_PARSERS = {
    "d": int,
    "alpha": float,
    "eps": float,
    "eta": float,
    "L": float,
    "N": int,
    "T": float,
    "K": int,
    "n": float,
    "ladder": _parse_ladder,
    "M": int,
    "seed": int,
    "study": str,
    "out": str,
    "dealias": _parse_bool,
    "solver_mode": str,
    "confidence": float,
    "threads": int,
    "chunk": int,
}


@dataclass
class RunConfig:
    d: int = 1
    alpha: float | None = None
    eps: float = 0.01
    eta: float | None = None
    L: float = 2.0 * math.pi
    N: int = 256
    T: float = 0.5
    K: int = 256
    n: float = 32.0
    ladder: tuple[float, ...] = ()
    M: int | None = None
    seed: int = 2024
    study: str | None = None
    out: str = "out"
    dealias: bool = True
    solver_mode: str = "step-local"
    confidence: float = 0.95
    threads: int = 1
    chunk: int = 500
    provided: frozenset[str] = field(default_factory=frozenset)

    DEFAULT_ALPHA = {1: 0.3, 2: 0.9, 3: 1.45}

    def resolved_alpha(self) -> float:
        return self.DEFAULT_ALPHA[self.d] if self.alpha is None else self.alpha


def _parse_pairs(text: str, errors: list[str]) -> dict[str, object]:
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {raw_line.strip()!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in KEY_PARSERS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        try:
            values[key] = KEY_PARSERS[key](raw_value)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    return values


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse the key = value grammar; raise ConfigError carrying ALL problems.

    `overrides` are `KEY=VALUE` strings (from --set) that replace file values.
    """
    errors: list[str] = []
    values = _parse_pairs(text, errors)
    for item in overrides or []:
        if "=" not in item:
            errors.append(f"--set expects KEY=VALUE, got {item!r}")
            continue
        key, _, raw_value = item.partition("=")
        key = key.strip()
        if key not in KEY_PARSERS:
            errors.append(f"--set: unknown key {key!r}")
            continue
        try:
            values[key] = KEY_PARSERS[key](raw_value.strip())
        except ValueError as exc:
            errors.append(f"--set: bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    config = RunConfig(**values, provided=frozenset(values))
    errors.extend(validate_config(config))
    if errors:
        raise ConfigError(errors)
    return config


def validate_config(config: RunConfig) -> list[str]:
    """All constraint violations, each naming the violated constraint."""
    errors: list[str] = []
    if config.d not in (1, 2, 3):
        errors.append(f"d must be 1, 2 or 3, got {config.d}")
        return errors
    alpha = config.resolved_alpha()
    if not (config.d / 4.0 < alpha < config.d / 2.0):
        errors.append(
            f"alpha must satisfy d/4 < alpha < d/2 "
            f"({config.d/4:.4g} < alpha < {config.d/2:.4g}); got {alpha}"
        )
    if config.eps <= 0:
        errors.append(f"eps must be > 0, got {config.eps}")
    if not (config.L > 0 and math.isfinite(config.L)):
        errors.append(f"L must be positive and finite, got {config.L}")
    if config.N % 2 != 0 or config.N < 4:
        errors.append(f"N must be even and >= 4, got {config.N}")
    if not 0 < config.T <= 1.0:
        errors.append(f"T must lie in (0, 1], got {config.T}")
    if config.K < 1:
        errors.append(f"K must be >= 1, got {config.K}")
    if config.M is not None and config.M < 1:
        errors.append(f"M must be >= 1, got {config.M}")
    if config.study is not None and config.study not in STUDY_OF_SUBCOMMAND.values():
        errors.append(f"unknown study kind {config.study!r}")
    if config.solver_mode not in ("step-local", "global"):
        errors.append(f"solver_mode must be step-local or global, got {config.solver_mode!r}")
    if config.threads < 1:
        errors.append(f"threads must be >= 1, got {config.threads}")
    if config.chunk < 1:
        errors.append(f"chunk must be >= 1, got {config.chunk}")
    if not 0 <= config.seed < 2**64:
        errors.append(f"seed must lie in [0, 2**64), got {config.seed}")
    if not errors:
        # per-kind feasibility (coupled doubling etc.) is validated by StudyConfig;
        # here only explicitly configured radii are screened
        nyquist = math.pi * config.N / config.L
        checked = [config.n] if "n" in config.provided else []
        if "ladder" in config.provided:
            checked.extend(config.ladder)
        for radius in checked:
            if radius > nyquist:
                errors.append(
                    f"truncation {radius} exceeds the Nyquist bound pi*N/L = {nyquist:.6g}"
                )
                break
    return errors


def _study_overrides(config: RunConfig) -> dict[str, object]:
    out: dict[str, object] = {
        "d": config.d,
        "alpha": config.resolved_alpha(),
        "seed": config.seed,
        "confidence": config.confidence,
        "threads": config.threads,
        "dealias": config.dealias,
    }
    # keys whose per-study defaults should win unless explicitly configured
    for key in ("eps", "eta", "L", "N", "T", "K", "n", "ladder", "M", "chunk"):
        if key in config.provided:
            out[key] = getattr(config, key)
    return out


def _resolved_pairs(config: RunConfig, subcommand: str, study_cfg=None) -> dict[str, object]:
    pairs: dict[str, object] = {"study": STUDY_OF_SUBCOMMAND.get(subcommand, subcommand)}
    if study_cfg is not None:
        pairs.update(
            d=study_cfg.d,
            alpha=study_cfg.alpha,
            eps=study_cfg.eps,
            L=study_cfg.L,
            N=study_cfg.N,
            T=study_cfg.T,
            K=study_cfg.K,
            M=study_cfg.M,
            seed=study_cfg.seed,
            confidence=study_cfg.confidence,
            dealias=study_cfg.dealias,
            threads=study_cfg.threads,
            chunk=study_cfg.chunk,
        )
        if study_cfg.kind in ("renorm_rate", "cauchy_rate", "smoothing", "solver_convergence"):
            pairs["ladder"] = ",".join(repr(v) for v in study_cfg.ladder)
        else:
            pairs["n"] = study_cfg.n
        if study_cfg.eta is not None:
            pairs["eta"] = study_cfg.eta
    else:
        for f in fields(RunConfig):
            if f.name in ("provided", "study", "out"):
                continue
            value = getattr(config, f.name)
            if f.name == "alpha":
                value = config.resolved_alpha()
            if f.name == "ladder":
                if not value:
                    continue
                value = ",".join(repr(v) for v in value)
            if value is None:
                continue
            pairs[f.name] = value
    pairs["solver_mode"] = config.solver_mode
    return pairs


def _run_constants(config: RunConfig, out_dir: Path) -> int:
    rows = []
    table = constants_table(config.d, config.resolved_alpha(), config.eps)
    for key, value in table.items():
        rows.append([key, value])
        print(f"{key} = {value!r}")
    write_csv(out_dir / "constants.csv", ["name", "value"], rows)
    write_resolved_config(_resolved_pairs(config, "constants"), out_dir / "config.resolved")
    return 0


def _run_sample(config: RunConfig, out_dir: Path) -> int:
    grid = SpectralGrid(config.d, config.L, config.N)
    from .reference import PaperParams

    params = PaperParams(
        d=config.d, alpha=config.resolved_alpha(), eps=config.eps, n=config.n, eta=config.eta
    )
    count = config.M or 1
    for member in range(count):
        path = sample_path(params, grid, seed=config.seed, stream_id=member, T=config.T, K=config.K)
        write_snapshot(path, out_dir / f"path-{member:04d}.wsnl")
        rows = []
        for k, t in enumerate(path.times):
            rows.append(
                [
                    float(t),
                    float(np.sqrt(np.sum(np.abs(path.psi[k].values) ** 2) / grid.L**grid.d)),
                    float(np.mean(path.wick[k].values.real)),
                    float(np.sqrt(np.sum(np.abs(path.ipsi2[k].values) ** 2) / grid.L**grid.d)),
                ]
            )
        write_csv(
            out_dir / f"path-{member:04d}.csv",
            ["t", "psi_l2", "wick_spatial_mean", "ipsi2_l2"],
            rows,
        )
    write_resolved_config(_resolved_pairs(config, "sample"), out_dir / "config.resolved")
    print(f"wrote {count} snapshot(s) to {out_dir}")
    return 0


def _run_solve(config: RunConfig, out_dir: Path) -> int:
    grid = SpectralGrid(config.d, config.L, config.N)
    from .reference import PaperParams

    params = PaperParams(
        d=config.d, alpha=config.resolved_alpha(), eps=config.eps, n=config.n, eta=config.eta
    )
    path = sample_path(params, grid, seed=config.seed, T=config.T, K=config.K)
    solver_cfg = SolverConfig(
        params=params,
        rho=CutoffRho.for_grid(grid),
        phi=Field(grid, np.zeros(grid.shape), "physical"),
        dt=config.T / config.K,
        T=config.T,
        dealias=config.dealias,
        mode=config.solver_mode,
    )
    output = solve(solver_cfg, path)
    rows = []
    for k, t in enumerate(output.times):
        rows.append(
            [
                float(t),
                float(output.trace_h[k]),
                float(output.trace_wq[k]),
                float(output.trace_localized[k]),
                int(output.picard_iterations[k - 1]) if k > 0 else 0,
                float(output.residuals[k - 1]) if k > 0 else 0.0,
            ]
        )
    write_csv(
        out_dir / "solve.csv",
        ["t", "H_minus_s", "Wsq", "localized", "picard_iters", "residual"],
        rows,
    )
    lines = [f"completed = {output.completed}"]
    for name, value in output.y_norms.items():
        lines.append(f"{name} = {value!r}")
    if output.failure is not None:
        lines.append(f"failure = {output.failure}")
    (out_dir / "verdict.txt").write_bytes(("\n".join(lines) + "\n").encode())
    write_resolved_config(_resolved_pairs(config, "solve"), out_dir / "config.resolved")
    print("\n".join(lines))
    return 0 if output.completed and all(np.isfinite(v) for v in output.y_norms.values()) else 1


def dispatch(subcommand: str, config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Run one subcommand; returns the process exit status (0 iff all verdicts pass)."""
    out_path = Path(out_dir if out_dir is not None else config.out)
    out_path.mkdir(parents=True, exist_ok=True)
    if subcommand == "constants":
        return _run_constants(config, out_path)
    if subcommand == "sample":
        return _run_sample(config, out_path)
    if subcommand == "solve":
        return _run_solve(config, out_path)
    kind = STUDY_OF_SUBCOMMAND[subcommand]
    if config.study is not None and config.study != kind:
        raise ConfigError([f"config sets study = {config.study!r} but subcommand is {subcommand}"])
    study_cfg = default_config(kind, **_study_overrides(config))
    result = run_study(study_cfg)
    write_study_csv(result, out_path / f"{subcommand}.csv")
    write_verdicts(result, out_path / "verdict.txt")
    write_resolved_config(_resolved_pairs(config, subcommand, study_cfg), out_path / "config.resolved")
    for line in result.verdict_lines():
        print(line)
    return 0 if result.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wsnl",
        description="Monte Carlo studies of a Wick-renormalized stochastic Schrodinger equation",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=str, default=None, help="path to a key = value file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    parser.add_argument("--seed", type=int, default=None, help="ensemble seed (u64)")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.threads is not None:
        overrides.append(f"threads={args.threads}")

    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        return dispatch(args.subcommand, config, out_dir=args.out)
    except (ConfigError, GridError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
