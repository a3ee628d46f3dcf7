"""scripts/golden_moves.py: the report of how far two golden runs' numbers moved."""

import subprocess
import sys
from pathlib import Path

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
