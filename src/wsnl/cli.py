"""Command-line front end: subcommand dispatch and persistence.

The configuration schema and its `key = value` grammar live in config.py.
Each run writes its fully resolved configuration next to its outputs, so any
artifact directory is reproducible from its own contents.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import KINDS, ConfigError, StudyConfig, parse_config
from .grid import GridError
from .output import write_csv, write_resolved_config, write_study_csv, write_verdicts
from .reference import ParameterError, constants_table
from .snapshots import write_snapshot
from .solver import solve
from .stochastic import sample_path, sample_paths
from .studies import run_study

# each subcommand and the kind it runs, in the order of KINDS
SUBCOMMANDS = {rules.subcommand: kind for kind, rules in KINDS.items()}


def _run_constants(config: StudyConfig, out_dir: Path) -> int:
    rows = []
    table = constants_table(config.d, config.alpha, config.eps)
    for key, value in table.items():
        rows.append([key, value])
        print(f"{key} = {value!r}")
    write_csv(out_dir / "constants.csv", ["name", "value"], rows)
    return 0


def _run_sample(config: StudyConfig, out_dir: Path) -> int:
    grid = config.grid()
    params = config.params()
    count = config.M or 1
    # the summary takes one reduction per column over the stacked levels, one
    # stack at a time; each row's sum has the bits of its level's own sum
    axes = tuple(range(1, grid.d + 1))

    def stacked(fields):
        return np.stack([f.values for f in fields])

    # the members march in blocks of `chunk`, one ensemble per block
    for first in range(0, count, config.chunk):
        size = min(config.chunk, count - first)
        for path in sample_paths(params, grid, config.seed, first, size, T=config.T, K=config.K):
            member = path.stream_id
            write_snapshot(path, out_dir / f"path-{member:04d}.wsnl")
            columns = (
                path.times,
                np.sqrt(np.sum(np.abs(stacked(path.psi)) ** 2, axis=axes) / grid.L**grid.d),
                np.mean(stacked(path.wick).real, axis=axes),
                np.sqrt(np.sum(np.abs(stacked(path.ipsi2)) ** 2, axis=axes) / grid.L**grid.d),
            )
            write_csv(
                out_dir / f"path-{member:04d}.csv",
                ["t", "psi_l2", "wick_spatial_mean", "ipsi2_l2"],
                np.stack(columns, axis=1).tolist(),
            )
    print(f"wrote {count} snapshot(s) to {out_dir}")
    return 0


def _run_solve(config: StudyConfig, out_dir: Path) -> int:
    path = sample_path(config.params(), config.grid(), seed=config.seed, T=config.T, K=config.K)
    output = solve(config.solver(), path)
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
    print("\n".join(lines))
    return 0 if output.completed and all(np.isfinite(v) for v in output.y_norms.values()) else 1


def _run_study(config: StudyConfig, out_dir: Path, subcommand: str) -> int:
    result = run_study(config)
    write_study_csv(result, out_dir / f"{subcommand}.csv")
    write_verdicts(result, out_dir / "verdict.txt")
    for line in result.verdict_lines():
        print(line)
    return 0 if result.passed else 1


def dispatch(subcommand: str, config: StudyConfig, out_dir: str | Path | None = None) -> int:
    """Run one subcommand; returns the process exit status (0 iff all verdicts pass).

    The config's set values are resolved for the subcommand's kind; a config
    that names another kind (`study`) is rejected.
    """
    kind = SUBCOMMANDS.get(subcommand, subcommand)
    if config.kind not in (None, kind):
        raise ConfigError([f"config sets study = {config.kind!r} but subcommand is {subcommand}"])
    config = config.for_kind(kind)
    out_path = Path(out_dir if out_dir is not None else config.out)
    out_path.mkdir(parents=True, exist_ok=True)
    run = {"constants": _run_constants, "sample": _run_sample, "solve": _run_solve}.get(subcommand)
    code = run(config, out_path) if run else _run_study(config, out_path, subcommand)
    write_resolved_config(config.resolved_pairs(), out_path / "config.resolved")
    return code


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
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.threads is not None:
        overrides.append(f"threads={args.threads}")

    try:
        return dispatch(args.subcommand, parse_config(text, overrides), out_dir=args.out)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (GridError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
