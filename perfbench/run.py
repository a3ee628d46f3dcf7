"""Benchmark of the wsnl harness: time to verdict per workload, and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload covariance [--seed 20260808]
                             [--seconds 10] [--trace 0|1]

With --trace 0 the run starts the interpreter several times to measure
set-up, before and after running whole verdicts, one fresh process each, for
about --seconds seconds (always at least one), and reports the end-to-end
metrics as medians.  Times are scaled to a reference machine speed sampled
while they run (see speed.py); the unscaled medians are printed too.  With
--trace 1 the verdicts run with spans recorded at every layer boundary and
the run reports the per-layer metrics instead.

Every verdict's outputs are checked: verdict values must be finite, the
resolved configuration must be the one asked for, paths must solve and
snapshots must round-trip exactly, and repeated verdicts of one seed must
agree byte for byte (and, traced, count for count).  A verdict FAIL is a
result, not a failure.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it are
the same numbers for people, plus every verdict.  A full record (provenance,
resolved configuration, every verdict value and output digest) goes to
.perfbench/results/, and the spans of the last traced verdict to
.perfbench/spans-<workload>.npz.  Outputs of the program go to a temporary
directory under .perfbench/ that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
from worker import ROOT, SRC, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 20260808
# Set-up is sampled half before and half after the verdicts, so that its
# median spans the run rather than its first second: on a VM whose host other
# tenants share, the speed left to a process drifts over tens of seconds.
SETUP_SPAWNS = 6
DEADLINE_S = 170.0  # a run must end within 180 s
# A worker that dies without a result (or cannot start) is retried up to this
# many times per run; each one counts as a verdict's worth of failed operations.
MAX_CRASHES = 2


def spawn(job: dict, tmp: Path, timeout: float) -> dict:
    """Run one worker to completion; a crash or timeout is returned as such."""
    result = tmp / "result.json"
    result.unlink(missing_ok=True)
    job = dict(job, result=str(result))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    job["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"crash": f"worker exceeded {timeout:.0f} s"}
    except OSError as exc:  # the process could not be started
        return {"crash": f"worker did not start: {exc}"}
    wall = time.monotonic() - job["spawned_at"]
    if proc.returncode != 0 or not result.exists():
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr.decode()[-2000:]}"}
    out = json.loads(result.read_text(encoding="utf-8"))
    out["worker_wall_s"] = wall
    return out


def measure_setup(job: dict, tmp: Path, count: int, setups: list, crashes: list) -> None:
    """Append `count` set-up samples, each from a fresh interpreter."""
    for _ in range(count):
        if len(crashes) > MAX_CRASHES:
            return
        out = spawn(dict(job, setup_only=True, out_dir=str(tmp / "setup")), tmp, 60.0)
        if "crash" in out:
            crashes.append(out["crash"])
        else:
            setups.append(out)


def machine() -> dict:
    """Provenance of the machine the numbers were taken on."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(verdicts: list[dict], setups: list[dict], member_steps: int) -> dict:
    """Medians of the end-to-end metrics, times at the reference machine speed.

    Each verdict is scaled by the speed sampled while it ran.  Set-up is too
    short to sample during, so it is scaled by the median speed of the run.
    """
    times = [v["time_to_verdict_s"] * v["speed_scale"] for v in verdicts]
    run_scale = median([x["speed_scale"] for x in verdicts + setups])
    return {
        "time_to_verdict_s": (median(times), "s"),
        "member_steps_per_s": (median([member_steps / t for t in times]), "1/s"),
        "cpu_s": (median([v["cpu_s"] * v["speed_scale"] for v in verdicts]), "s"),
        "setup_s": (median([s["setup_s"] for s in setups]) * run_scale, "s"),
        "peak_rss_mb": (median([v["peak_rss_mb"] for v in verdicts]), "MB"),
    }


def measured(verdicts: list[dict], setups: list[dict]) -> dict:
    """Medians of the unscaled times and of the speed scale, for the record."""
    out = {
        "time_to_verdict_s": median([v["time_to_verdict_s"] for v in verdicts]),
        "cpu_s": median([v["cpu_s"] for v in verdicts]),
    }
    if setups:
        out["setup_s"] = median([s["setup_s"] for s in setups])
        out["speed_scale"] = median([x["speed_scale"] for x in verdicts + setups])
    return out


def per_layer(verdicts: list[dict]) -> dict:
    return {
        name: (median([v["layers"][name][0] for v in verdicts]), unit)
        for name, (_, unit) in verdicts[0]["layers"].items()
    }


def consistency_problems(verdicts: list[dict]) -> list[str]:
    """Repeated verdicts of one seed must agree exactly, counts included."""
    problems = []
    first = verdicts[0]
    for i, v in enumerate(verdicts[1:], start=2):
        for key in ("digests", "values", "passed"):
            if v.get(key) != first.get(key):
                problems.append(f"verdict {i} differs from verdict 1 in {key}")
        if "counts" in first:
            for key in tracing.EXACT_COUNTS:
                if v["counts"].get(key, 0) != first["counts"].get(key, 0):
                    problems.append(f"verdict {i} differs from verdict 1 in count {key}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wsnl" / "__init__.py").is_file():
        print(f"error: no wsnl source tree at {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: seed must be an unsigned 64-bit integer, got {args.seed}", file=sys.stderr)
        return 2

    started = time.monotonic()
    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    job = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    crashes: list[str] = []
    setups: list[dict] = []
    verdicts: list[dict] = []
    try:
        if not args.trace:
            measure_setup(job, tmp, SETUP_SPAWNS // 2, setups, crashes)
        measure_start = time.monotonic()
        while len(crashes) <= MAX_CRASHES:
            spans = STATE / f"spans-{args.workload}.npz" if args.trace else None
            out_dir = tmp / f"out-{len(verdicts) + len(crashes)}"
            out = spawn(
                dict(job, out_dir=str(out_dir), spans=str(spans) if spans else None),
                tmp,
                DEADLINE_S - (time.monotonic() - started),
            )
            shutil.rmtree(out_dir, ignore_errors=True)
            if "crash" in out:
                crashes.append(out["crash"])
            else:
                verdicts.append(out)
            # start another verdict only if it should end within --seconds
            elapsed = time.monotonic() - measure_start
            if verdicts and elapsed + verdicts[-1]["worker_wall_s"] > args.seconds:
                break
        if not args.trace:
            measure_setup(job, tmp, SETUP_SPAWNS - len(setups), setups, crashes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = WORKLOADS[args.workload]
    attempted = spec["members"] * (len(verdicts) + len(crashes))
    failed = spec["members"] * len(crashes) + sum(v["failed"] for v in verdicts)
    for crash in crashes:
        print(f"error: {crash}", file=sys.stderr)
    if not verdicts or (not args.trace and not setups):
        print("error: no verdict completed; no metrics to report", file=sys.stderr)
        return 1
    problems = [p for v in verdicts for p in v["problems"]] + consistency_problems(verdicts)
    if args.trace:
        metrics = per_layer(verdicts)
    else:
        metrics = end_to_end(verdicts, setups, spec["member_steps"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": dict(machine(), numpy=verdicts[0]["numpy"], wsnl=verdicts[0]["wsnl"]),
        "resolved_config": verdicts[0].get("resolved"),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "crashes": crashes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": measured(verdicts, setups),
        "setups": setups,
        "verdicts": verdicts,
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    record_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(verdicts)} verdict(s), {len(setups)} set-up sample(s)")
    first = verdicts[0]
    for name, passed in first.get("passed", {}).items():
        print(f"  verdict {'PASS' if passed else 'FAIL'} {name} = {first['values'][name]!r}")
    print(f"  failed_fraction = {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for name, value in record["unscaled"].items():
        print(f"  unscaled {name} = {value!r}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  record: {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
