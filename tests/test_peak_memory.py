"""scripts/peak_memory.py: the memory report of one wsnl command."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "peak_memory.py"


def run(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, env=env, cwd=cwd
    )


def test_peak_memory_reports_the_peak_and_the_wsnl_lines_live_near_it(tmp_path):
    out = tmp_path / "run"
    result = run("converge", "--set", "M=100", "--set", "N=32", "--set", "ladder=1,2",
                 "--set", "K=4", "--out", out, cwd=tmp_path)
    # the exit status is the command's: 0 on PASS, 1 on FAIL
    verdict = (out / "verdict.txt").read_text()
    assert result.returncode == (0 if verdict.startswith("PASS") else 1), result.stderr
    lines = result.stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("peak above import: "))
    peak = float(re.fullmatch(r"peak above import: (\d+\.\d\d) MB", lines[first]).group(1))
    snapshot = re.fullmatch(
        r"snapshot nearest the peak: (\d+\.\d\d) MB, of which outside wsnl: (\d+\.\d\d) MB",
        lines[first + 1],
    )
    total, outside = (float(x) for x in snapshot.groups())
    assert 0 < total <= peak and outside <= total
    sites = lines[first + 2 :]
    assert sites and all(re.fullmatch(r" +\d+\.\d\d MB  \w+\.py:\d+  \S.*", line) for line in sites)
    sizes = [float(line.split()[0]) for line in sites]
    assert sizes == sorted(sizes, reverse=True) and sum(sizes) <= total - outside + 0.01 * len(sizes)
    # without --out nothing lands in the working directory
    assert run("constants", cwd=tmp_path).returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
    assert run(cwd=tmp_path).returncode == 2


def test_peak_memory_ends_quietly_when_its_reader_closes_the_pipe(tmp_path):
    # as `peak_memory.py sample ... | head -1`: the command's one line is
    # read, and the report that follows it finds the pipe closed; unbuffered,
    # each print writes at once
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    args = ["sample", "--set", "M=1", "--set", "N=32", "--set", "n=4", "--set", "K=4", "--out", "run"]
    with subprocess.Popen(
        [sys.executable, str(SCRIPT), *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=tmp_path, text=True,
    ) as proc:
        assert proc.stdout.readline().startswith("wrote 1 snapshot(s)")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, stderr
    assert stderr == ""
