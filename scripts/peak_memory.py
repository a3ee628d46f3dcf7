#!/usr/bin/env python3
"""Where the memory peak of one wsnl command goes.

    PYTHONPATH=src scripts/peak_memory.py converge --set M=100 --set N=1024 --set chunk=100

The arguments are those of `python -m wsnl.cli`.  The command runs in this
process under tracemalloc, which starts once wsnl and numpy are imported, so
the peak it prints is the peak above import.  A profile hook reads the
traced total at every function return and takes a snapshot whenever the
total has risen past the last snapshot's by more than 1% (at least
MIN_STEP): the last snapshot lies within that step of the highest total
seen at a return.  The peak itself can fall inside a numpy call, between
two returns, so the snapshot can sit further below it.  The report names
that snapshot's total and the wsnl lines whose allocations are live in it,
largest first: each allocation is charged to the innermost frame in the
wsnl package, so an array that a numpy function makes for a wsnl line
counts against that line.  The hook slows the command about twofold.
Without --out the outputs go to a temporary directory.  The exit status is
the command's, also when the reader of the report closes its pipe early.
"""

from __future__ import annotations

import linecache
import os
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy  # noqa: F401  (imported before tracing starts)

import wsnl.cli

MIN_STEP = 64 * 1024
FRAMES = 32
SITES = 12


class PeakSnapshots:
    """The profile hook: the latest snapshot taken on a new high."""

    def __init__(self) -> None:
        self.high = 0
        self.snapshot: tracemalloc.Snapshot | None = None

    def __call__(self, frame, event, arg) -> None:
        if event not in ("return", "c_return"):
            return
        current = tracemalloc.get_traced_memory()[0]
        if current > self.high + max(MIN_STEP, self.high // 100):
            self.high = current
            self.snapshot = tracemalloc.take_snapshot()


def wsnl_sites(snapshot: tracemalloc.Snapshot) -> tuple[Counter, int]:
    """Bytes per (file, line) of wsnl, each allocation charged to its
    innermost wsnl frame, and the bytes no wsnl frame made."""
    package = str(Path(wsnl.cli.__file__).resolve().parent)
    sites: Counter = Counter()
    other = 0
    for trace in snapshot.traces:
        # a traceback lists its frames from the oldest to the most recent
        frame = next((f for f in reversed(trace.traceback) if f.filename.startswith(package)), None)
        if frame is None:
            other += trace.size
        else:
            sites[(frame.filename, frame.lineno)] += trace.size
    return sites, other


def report(peak: int, snapshot: tracemalloc.Snapshot | None) -> list[str]:
    mb = 1e-6
    lines = [f"peak above import: {peak * mb:.2f} MB"]
    if snapshot is None:
        return lines
    sites, other = wsnl_sites(snapshot)
    total = sum(sites.values()) + other
    lines.append(f"snapshot nearest the peak: {total * mb:.2f} MB, of which outside wsnl: {other * mb:.2f} MB")
    for (filename, lineno), size in sites.most_common(SITES):
        code = linecache.getline(filename, lineno).strip()
        lines.append(f"  {size * mb:7.2f} MB  {Path(filename).name}:{lineno}  {code}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: peak_memory.py SUBCOMMAND [wsnl options...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        if "--out" not in argv:
            argv = argv + ["--out", tmp]
        hook = PeakSnapshots()
        tracemalloc.start(FRAMES)
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            status = wsnl.cli.main(argv)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    try:
        print("\n".join(report(peak, hook.snapshot)), flush=True)
    except BrokenPipeError:
        # the reader has gone (`| head`): what it read stands, and the
        # interpreter's last flush at exit must not find the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
