"""scripts/golden_moves.py: the report of how far two golden runs' numbers moved."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np

from wsnl.grid import Field, SpectralGrid
from wsnl.reference import PaperParams
from wsnl.snapshots import write_snapshot
from wsnl.stochastic import sample_path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_moves.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True)


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_golden_moves_reports_moved_cells_columns_and_changed_lines(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    csv = "schema_version,t,residual\n1,0.0,0.0\n1,0.5,{}\n1,1.0,{}\n"
    write(old, {
        "run/solve.csv": csv.format("1e-10", "2.0"),
        "run/verdict.txt": "PASS v: value=-0.01\nnote: picard iterations per step: 3: 5\n",
        "run.status": "0\n",
        "gone.txt": "x\n",
    })
    write(new, {
        "run/solve.csv": csv.format("2e-10", "2.5"),
        "run/verdict.txt": "FAIL v: value=-0.01\nnote: picard iterations per step: 2: 5\n",
        "run.status": "0\n",
    })
    result = run(old, new)
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "gone.txt: only in OLD",
        "run/solve.csv: 2 numeric cells moved",
        "  largest relative move in residual: 0.5",
        "run/verdict.txt: 1 numeric cell moved",
        "  largest relative move: 0.33",
        "  - PASS v: value=-0.01",
        "  + FAIL v: value=-0.01",
        "3 of 4 files differ",
    ]
    assert run(old, old).stdout == "all 4 files byte-identical\n"
    assert run(old).returncode == 2


def test_golden_moves_reports_snapshot_moves_per_block(tmp_path):
    grid = SpectralGrid(1, 2 * np.pi, 16)
    path = sample_path(PaperParams(d=1, alpha=0.3, eps=0.01, n=4), grid, seed=7, T=0.25, K=4)
    wick = [field.values.copy() for field in path.wick]
    wick[2][5] *= 2.0  # one value moves by 0.5 of the larger
    moved = dataclasses.replace(path, wick=[Field(grid, values, "physical") for values in wick])
    old, new = tmp_path / "old", tmp_path / "new"
    for root, sample in ((old, path), (new, moved)):
        (root / "sample").mkdir(parents=True)
        write_snapshot(sample, root / "sample" / "path-0000.wsnl")
        write_snapshot(path, root / "sample" / "path-0001.wsnl")
    # a file that is not a snapshot of the documented layout stays "binary"
    (old / "sample" / "path-0002.wsnl").write_bytes(b"WSNL")
    (new / "sample" / "path-0002.wsnl").write_bytes(b"WSNL\x00")
    result = run(old, new)
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "sample/path-0000.wsnl: 1 value moved",
        "  wick: 1 value moved, largest relative move 0.5",
        "sample/path-0002.wsnl: binary files differ",
        "2 of 3 files differ",
    ]
    # a path of another K: the headers differ, and the blocks are not compared
    shorter = sample_path(path.params, grid, seed=7, T=0.25, K=2)
    write_snapshot(shorter, new / "sample" / "path-0001.wsnl")
    lines = run(old, new).stdout.splitlines()
    assert lines[2:5] == [
        "sample/path-0001.wsnl: 1 value moved",
        "  header: 1 value moved, largest relative move 0.5",
        "  times, psi, wick, ipsi2: not compared, the headers give different layouts",
    ]
