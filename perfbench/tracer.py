"""Span tracer installed from outside the package.

`install(tracer)` replaces each layer boundary with a wrapper that records a
span (name, start, end, parent) and updates that layer's counters.  A name is
patched where its caller looks it up: several modules bind their
dependencies with `from .x import y` at import time, so patching only the
defining module would miss those calls.  Spans live in flat arrays until the
run ends; `summary()` turns them into self times per layer.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from collections.abc import Callable

import numpy as np

# Layers reported with a self time in seconds: each runs on every workload.
# The others are reported only as a share of the traced wall time, because on
# some workloads they never run and their seconds would read 0 on every run.
LAYERS_ALWAYS = ("noise", "grid.fft", "stochastic.advance", "output", "cli")
LAYERS = (
    "cli",
    "studies",
    "studies.reduce",
    "stochastic.advance",
    "stochastic.sample",
    "noise",
    "grid.fft",
    "grid.norm",
    "solver.step",
    "solver.solve",
    "secondmoment.oracle",
    "reference.oracle",
    "snapshots.write",
    "snapshots.read",
    "output",
)
ROOT = "verdict"
RAISED = object()  # passed to a counter in place of the result when the call raised

_now = time.perf_counter


class Tracer:
    """In-memory span store plus per-layer counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """fn with a span around each call; count(args, result) runs after it.

        When fn raises, count sees RAISED as the result and the exception
        propagates unchanged.
        """

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                if count is not None:
                    count(args, RAISED)
                raise
            self.close(idx)
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its direct children's."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_name = np.zeros(len(self.names))
        np.add.at(per_name, name, dur - child)
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def total(self, name: str) -> float:
        """Summed inclusive duration of every span with this name."""
        nid = self._name_id.get(name)
        if nid is None:
            return 0.0
        sel = np.frombuffer(self.name, dtype=np.int32) == nid
        start = np.frombuffer(self.start, dtype=np.float64)[sel]
        return float(np.sum(np.frombuffer(self.end, dtype=np.float64)[sel] - start))

    def save(self, filename) -> None:
        np.savez_compressed(
            filename,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary of the imported package; returns the undo."""
    import wsnl.cli
    import wsnl.secondmoment
    import wsnl.snapshots
    import wsnl.solver
    import wsnl.stochastic
    import wsnl.studies
    from wsnl.grid import SpectralGrid
    from wsnl.stochastic import PathEnsemble
    from wsnl.studies import MeanAccumulator

    counts = tracer.counts
    saved = []

    def patch(owner, attr, name, count=None):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(orig, name, count))

    def count_noise(args, out):
        counts["noise.blocks"] += 1
        if out is not RAISED:
            counts["noise.normals"] += out.size

    def count_fft(args, out):
        counts["grid.fft.calls"] += 1
        values = args[1]
        counts["grid.fft.points"] += values.size
        if out is not RAISED:
            counts["grid.fft.bytes"] += values.nbytes + out.nbytes

    def count_step(args, out):
        counts["solver.step.calls"] += 1
        if out is RAISED:  # strict mode raised StepFailure for the whole batch
            members = int(np.prod(np.shape(args[1])[: np.ndim(args[1]) - args[0].d]))
            counts["solver.step.members"] += members
            counts["solver.step.failed_members"] += members
            return
        counts["solver.picard_iters"] += int(out[1])
        failed = np.asarray(out[5])
        counts["solver.step.members"] += failed.size
        counts["solver.step.failed_members"] += int(failed.sum())

    def count_calls(key):
        def count(args, out):
            counts[key] += 1

        return count

    def count_file(key, pos):
        def count(args, out):
            if out is not RAISED:
                counts[key] += os.path.getsize(args[pos])

        return count

    patch(wsnl.stochastic, "gaussian_block", "noise", count_noise)
    patch(SpectralGrid, "forward_values", "grid.fft", count_fft)
    patch(SpectralGrid, "inverse_values", "grid.fft", count_fft)
    patch(PathEnsemble, "advance", "stochastic.advance", count_calls("stochastic.advance.calls"))
    patch(MeanAccumulator, "add", "studies.reduce")
    patch(wsnl.studies, "hs_norm_sq", "grid.norm")
    patch(wsnl.studies, "step_values", "solver.step", count_step)
    patch(wsnl.solver, "step_values", "solver.step", count_step)
    patch(wsnl.studies, "covariance_oracle", "reference.oracle")
    # imported lazily inside run_smoothing_study, so the module attribute is read per call
    patch(
        wsnl.secondmoment,
        "ipsi2_norm_sq_expectation",
        "secondmoment.oracle",
        count_calls("secondmoment.oracle.calls"),
    )
    patch(wsnl.cli, "run_study", "studies")
    patch(wsnl.cli, "sample_path", "stochastic.sample")
    patch(wsnl.cli, "write_snapshot", "snapshots.write", count_file("snapshots.write.bytes", 1))
    patch(wsnl.snapshots, "read_snapshot", "snapshots.read", count_file("snapshots.read.bytes", 0))
    patch(wsnl.solver, "solve", "solver.solve")
    patch(wsnl.cli, "write_csv", "output", count_file("output.bytes", 0))
    patch(wsnl.cli, "write_study_csv", "output", count_file("output.bytes", 1))
    patch(wsnl.cli, "write_verdicts", "output", count_file("output.bytes", 1))
    patch(wsnl.cli, "write_resolved_config", "output", count_file("output.bytes", 1))
    patch(wsnl.cli, "main", "cli")

    def undo() -> None:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return undo


def wrapper_cost(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra seconds one traced call costs over a plain call."""

    def noop(*args):
        return None

    samples = []
    for _ in range(repeats):
        traced = Tracer().wrap(noop, "calibration", lambda args, out: None)
        t0 = _now()
        for _ in range(calls):
            noop(1)
        t1 = _now()
        for _ in range(calls):
            traced(1)
        t2 = _now()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(samples))


def summary(tracer: Tracer, per_call_cost: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced verdict: name -> (value, unit)."""
    c = tracer.counts
    self_s = tracer.self_times()
    wall = tracer.total(ROOT)
    spans = len(tracer.start) - 1  # the root span is not a wrapped call
    overhead = spans * per_call_cost
    steps = c["solver.step.calls"]
    members = c["solver.step.members"]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (self_s.get(layer, 0.0) / wall, "frac")
    for layer in LAYERS_ALWAYS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out.update({
        "noise.blocks": (c["noise.blocks"], "count"),
        "noise.normals_per_s": (c["noise.normals"] / self_s["noise"], "1/s"),
        "grid.fft.calls": (c["grid.fft.calls"], "count"),
        "grid.fft.points": (c["grid.fft.points"], "count"),
        "grid.fft.computed_gb_per_s": (c["grid.fft.bytes"] / self_s["grid.fft"] / 1e9, "GB/s"),
        "stochastic.advance.calls": (c["stochastic.advance.calls"], "count"),
        "stochastic.advance.ms_per_call": (
            1e3 * tracer.total("stochastic.advance") / c["stochastic.advance.calls"], "ms"
        ),
        "solver.step.calls": (steps, "count"),
        "solver.picard_iters": (c["solver.picard_iters"], "count"),
        "solver.picard_iters_per_step": (c["solver.picard_iters"] / steps if steps else 0.0, "count"),
        "solver.accepted_fraction": (
            1.0 - c["solver.step.failed_members"] / members if members else 1.0, "frac"
        ),
        "secondmoment.oracle.calls": (c["secondmoment.oracle.calls"], "count"),
        "snapshots.write.bytes": (c["snapshots.write.bytes"], "bytes"),
        "snapshots.read.bytes": (c["snapshots.read.bytes"], "bytes"),
        "output.bytes": (c["output.bytes"], "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.covered_frac": (sum(self_s.get(layer, 0.0) for layer in LAYERS) / wall, "frac"),
        "trace.overhead_frac": (overhead / (wall - overhead), "frac"),
    })
    return out


# Counts that must repeat exactly across runs of one commit at threads=1.
EXACT_COUNTS = (
    "grid.fft.calls",
    "grid.fft.points",
    "noise.blocks",
    "stochastic.advance.calls",
    "solver.step.calls",
    "solver.picard_iters",
)
