"""One verdict of one workload in a fresh interpreter, started by run.py.

Usage: python3 perfbench/worker.py '<json job>'

The job names the workload, the seed, whether to trace, an output directory,
the file to write the result to and the monotonic time at which run.py
started this process.  Set-up time runs from that instant until wsnl is
imported and the workload's inputs exist; with "setup_only" the worker stops
there.  Otherwise it times one verdict (entry call until the outputs are
written), then checks the outputs outside the timed region.

Every verdict runs in its own process so that each pays the first-FFT-plan
cost a user pays, and so that its peak RSS is its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each workload runs one study or pipeline at its pinned configuration; only
# the member count M (or the path count) is reduced so that a verdict fits a
# run.  converge sets N, L and chunk itself: the CLI would otherwise put its
# own defaults (N=256, L=2 pi, chunk=500) in place of the study's pinned ones.
# "members" counts the operations a verdict attempts and "member_steps" the
# member x time-step work it does.
PATHS = 4
PATH_STEPS = 256
SETUP_PROBES = 10
SOLVER_MODES = ("step-local", "global")
WORKLOADS = {
    "covariance": {
        "argv": ["covariance", "--set", "M=200"],
        "members": 200,
        "member_steps": 200 * 256,
    },
    "smoothing": {
        "argv": ["smoothing", "--set", "M=100"],
        "members": 100,
        "member_steps": 100 * 1024,
    },
    "converge": {
        "argv": ["converge", "--set", "M=100", "--set", "N=1024",
                 "--set", f"L={8.0 * math.pi!r}", "--set", "chunk=100"],
        "members": 100,
        "member_steps": 100 * 128,
    },
    "paths": {
        "argv": ["sample", "--set", f"M={PATHS}", "--set", "N=256", "--set", f"K={PATH_STEPS}",
                 "--set", "T=0.5", "--set", "n=32"],
        # each path is sampled once and solved once per solver mode
        "members": PATHS * (1 + len(SOLVER_MODES)),
        "member_steps": PATHS * len(SOLVER_MODES) * PATH_STEPS,
    },
}


def set_pairs(workload: str) -> dict[str, str]:
    """The KEY=VALUE pairs a workload passes with --set."""
    return dict(a.split("=", 1) for a in WORKLOADS[workload]["argv"][2::2])


def import_wsnl():
    """Import the package from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import wsnl

    if Path(wsnl.__file__).resolve().parent != SRC / "wsnl":
        raise ImportError(f"wsnl imported from {wsnl.__file__}, not from {SRC}")
    return wsnl


def make_inputs(workload: str, seed: int, out_dir: str) -> list[str]:
    return WORKLOADS[workload]["argv"] + ["--seed", str(seed), "--threads", "1", "--out", out_dir]


def run_verdict(workload: str, argv: list[str]) -> dict:
    """The timed work: the CLI entry call, plus read-back and solves for paths."""
    import numpy as np
    import wsnl.cli
    import wsnl.snapshots
    import wsnl.solver
    from wsnl.grid import CutoffRho, Field

    status = wsnl.cli.main(argv)
    if workload != "paths" or status != 0:
        return {"status": status}
    out_dir = Path(argv[argv.index("--out") + 1])
    solves = []
    for member in range(PATHS):
        path = wsnl.snapshots.read_snapshot(out_dir / f"path-{member:04d}.wsnl")
        grid = path.grid
        T = float(path.times[-1])
        for mode in SOLVER_MODES:
            config = wsnl.solver.SolverConfig(
                params=path.params,
                rho=CutoffRho.for_grid(grid),
                phi=Field(grid, np.zeros(grid.shape), "physical"),
                dt=T / (len(path.times) - 1),
                T=T,
                dealias=True,
                mode=mode,
            )
            solves.append((member, mode, wsnl.solver.solve(config, path)))
    return {"status": status, "solves": solves}


def digests(out_dir: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
    }


def read_resolved(out_dir: Path) -> dict[str, str]:
    pairs = {}
    for line in (out_dir / "config.resolved").read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def read_verdicts(out_dir: Path) -> tuple[dict[str, float], dict[str, bool]]:
    """Verdict and slope values from verdict.txt, with each verdict's PASS/FAIL."""
    values: dict[str, float] = {}
    passed: dict[str, bool] = {}
    for line in (out_dir / "verdict.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith(("PASS ", "FAIL ")):
            status, _, rest = line.partition(" ")
            name, _, rest = rest.partition(": value=")
            values[name] = float(rest.split(" ", 1)[0])
            passed[name] = status == "PASS"
        elif line.startswith("slope "):
            name, _, rest = line[len("slope "):].partition(": ")
            values[f"slope {name}"] = float(rest.split(" ", 1)[0])
    return values, passed


def check_study(workload: str, seed: int, out_dir: Path, outcome: dict) -> dict:
    """Failures, recorded values and problems found in one study's outputs."""
    members = WORKLOADS[workload]["members"]
    problems: list[str] = []
    if outcome["status"] not in (0, 1):
        return {"failed": members, "problems": [f"exit status {outcome['status']}"]}
    resolved = read_resolved(out_dir)
    expected = set_pairs(workload)
    expected.update(seed=str(seed), threads="1")
    for key, value in expected.items():
        if float(resolved.get(key, "nan")) != float(value):
            problems.append(f"config.resolved has {key} = {resolved.get(key)}, expected {value}")
    values, passed = read_verdicts(out_dir)
    if not passed:
        problems.append("verdict.txt holds no verdict")
    if (outcome["status"] == 0) != all(passed.values()):
        problems.append(f"exit status {outcome['status']} disagrees with verdicts {passed}")
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    failed = members if bad else 0
    if bad:
        problems.append(f"non-finite verdict values: {bad}")
    if workload == "converge":
        for line in (out_dir / "converge.csv").read_text(encoding="utf-8").splitlines():
            if line.startswith("1,excluded,"):
                failed = max(failed, int(float(line.split(",")[3])))
    return {
        "failed": failed,
        "problems": problems,
        "values": values,
        "passed": passed,
        "resolved": resolved,
    }


def check_paths(seed: int, out_dir: Path, outcome: dict) -> dict:
    """Solve outcomes plus an exact snapshot round trip through the public API."""
    import numpy as np
    from wsnl.grid import SpectralGrid
    from wsnl.reference import PaperParams
    from wsnl.snapshots import read_snapshot, write_snapshot
    from wsnl.stochastic import sample_path

    if outcome["status"] != 0:
        return {"failed": WORKLOADS["paths"]["members"],
                "problems": [f"sample exit status {outcome['status']}"]}
    problems: list[str] = []
    values: dict[str, float] = {}
    failed = 0
    for member, mode, sol in outcome["solves"]:
        tag = f"path{member}.{mode}"
        for name, value in sol.y_norms.items():
            values[f"{tag}.{name}"] = float(value)
        values[f"{tag}.picard_iters"] = float(np.sum(sol.picard_iterations))
        if not sol.completed or not all(math.isfinite(v) for v in sol.y_norms.values()):
            failed += 1
            problems.append(f"{tag}: solve did not complete ({sol.failure})")

    resolved = read_resolved(out_dir)
    pairs = set_pairs("paths")
    grid = SpectralGrid(int(resolved["d"]), float(resolved["L"]), int(pairs["N"]))
    params = PaperParams(
        d=grid.d, alpha=float(resolved["alpha"]), eps=float(resolved["eps"]), n=float(pairs["n"])
    )
    path = sample_path(params, grid, seed=seed, stream_id=0, T=float(pairs["T"]), K=int(pairs["K"]))
    copy = out_dir.parent / (out_dir.name + "-roundtrip.wsnl")
    write_snapshot(path, copy)
    back = read_snapshot(copy)
    same = (
        copy.read_bytes() == (out_dir / "path-0000.wsnl").read_bytes()
        and np.array_equal(back.times, path.times)
        and (back.seed, back.stream_id) == (path.seed, path.stream_id)
        and back.params == path.params
        and all(
            np.array_equal(a.values, b.values) and a.space == b.space
            for name in ("psi", "wick", "ipsi2")
            for a, b in zip(getattr(back, name), getattr(path, name))
        )
    )
    copy.unlink()
    if not same:
        problems.append("read_snapshot(write_snapshot(p)) is not an exact round trip")
    return {
        "failed": failed,
        "problems": problems,
        "values": values,
        "passed": {},
        "resolved": resolved,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    workload, seed = job["workload"], int(job["seed"])
    out_dir = Path(job["out_dir"])
    wsnl = import_wsnl()
    # numpy loads these on first use.  The speed probe runs in a signal handler
    # and uses both, so it must never be the one to trigger (or interrupt) that
    # first import; loading them here moves their few milliseconds from the
    # verdict into set-up, alike on every commit.
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401

    argv = make_inputs(workload, seed, str(out_dir))
    setup_s = time.monotonic() - job["spawned_at"]
    result: dict = {"setup_s": setup_s}
    if job.get("setup_only"):
        # set-up is too short to sample during; run.py scales it by the run's median speed
        speed = SpeedSampler()
        for _ in range(SETUP_PROBES):
            speed.probe()
        result["speed_scale"] = speed.scale()
    else:
        import numpy as np

        import tracer as tracing

        tracer = undo = None
        if job["trace"]:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
        # speed probes would land inside layer spans, so traced runs go without
        speed = nullcontext() if tracer else SpeedSampler()
        with speed:
            root = tracer.open(tracing.ROOT) if tracer else None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                outcome = run_verdict(workload, argv)
            except Exception:  # a crash is a failed operation to report, not to hide
                outcome = {"status": "exception", "traceback": traceback.format_exc()}
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.close(root)
                undo()
        probe_wall, probe_cpu = (0.0, 0.0) if tracer else speed.spent(t0, t1)
        if not tracer:
            result["speed_scale"] = speed.scale()
        if outcome["status"] == "exception":
            check = {"failed": WORKLOADS[workload]["members"], "problems": [outcome["traceback"]]}
        elif workload == "paths":
            check = check_paths(seed, out_dir, outcome)
        else:
            check = check_study(workload, seed, out_dir, outcome)
        result.update(
            attempted=WORKLOADS[workload]["members"],
            time_to_verdict_s=(t1 - t0) - probe_wall,
            cpu_s=(c1 - c0) - probe_cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            status=outcome["status"],
            digests=digests(out_dir) if out_dir.is_dir() else {},
            python=platform.python_version(),
            numpy=np.__version__,
            wsnl=wsnl.__version__,
            **check,
        )
        if tracer:
            result["layers"] = tracing.summary(tracer, tracing.wrapper_cost())
            result["counts"] = dict(tracer.counts)
            if job.get("spans"):
                tracer.save(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
