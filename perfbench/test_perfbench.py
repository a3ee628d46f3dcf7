"""The benchmark's own checks.  Run from the repository root with

    python3 -m pytest perfbench -q

(about two minutes: every workload runs two traced verdicts).
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer as tracing
from worker import ROOT, WORKLOADS


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    outer = tr.open("a")
    inner = tr.open("b")
    leaf = tr.open("c")
    tr.close(leaf)
    tr.close(inner)
    tr.close(outer)
    for idx, (start, end) in enumerate([(0.0, 10.0), (1.0, 7.0), (2.0, 5.0)]):
        tr.start[idx], tr.end[idx] = start, end
    assert tr.self_times() == {"a": 4.0, "b": 3.0, "c": 3.0}
    assert list(tr.parent) == [-1, 0, 1]


def test_wrapper_counts_a_raising_call_and_reraises():
    tr = tracing.Tracer()
    seen = []

    def boom():
        raise KeyError("x")

    traced = tr.wrap(boom, "boom", lambda args, out: seen.append(out))
    with pytest.raises(KeyError):
        traced()
    assert seen == [tracing.RAISED]
    assert tr.end[0] >= tr.start[0] and not tr._stack


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_repeated_verdicts_agree_exactly(workload):
    run.STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="test-", dir=run.STATE))
    try:
        job = {"workload": workload, "seed": run.DEFAULT_SEED, "trace": 1, "spans": None}
        first, second = (
            run.spawn(dict(job, out_dir=str(tmp / f"out-{i}")), tmp, run.DEADLINE_S)
            for i in range(2)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for result in (first, second):
        assert "crash" not in result, result.get("crash")
        assert result["problems"] == []
        assert result["failed"] == 0
        assert result["values"] and all(math.isfinite(v) for v in result["values"].values())
    assert first["digests"] and first["digests"] == second["digests"]
    assert first["values"] == second["values"]
    for key in tracing.EXACT_COUNTS:
        assert first["counts"].get(key, 0) == second["counts"].get(key, 0), key
    if workload != "paths":
        assert first["layers"]["trace.covered_frac"][0] >= 0.95


def test_refuses_to_run_without_the_source_tree():
    run.STATE.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.STATE))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "covariance", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
