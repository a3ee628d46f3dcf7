#!/usr/bin/env python3
"""Say how far the numbers of two golden runs (scripts/golden.sh) moved.

    scripts/golden_moves.py /tmp/golden-old /tmp/golden-new

For each file that differs between the two directories it prints the number
of numeric cells that moved and the largest relative move |new - old| /
max(|old|, |new|), per column for a CSV file and over the whole file for any
other text file, then every line whose non-numeric text differs, verbatim.  A
CSV cell is numeric when it parses as a float; in other text a number is a
token such as 12, -3.5e-08, inf or nan that is not part of a word.  A file
that is not UTF-8 text is reported as differing, and a file on one side only
is named.  The report gates nothing: the exit status is 0 unless the
arguments are wrong.
"""

from __future__ import annotations

import difflib
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])"
)


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _split(line: str, header: list[str] | None) -> tuple[str, list[tuple[str, str]]]:
    """A line's non-numeric skeleton, numbers replaced by '#', and its numbers
    with their columns: the CSV header's names, or '' outside a CSV file."""
    if header is None:
        return NUMBER.sub("#", line), [("", x) for x in NUMBER.findall(line)]
    cells = line.split(",")
    names = header + [f"column {j}" for j in range(len(header), len(cells))]
    numeric = [_float(c) is not None for c in cells]
    skeleton = ",".join("#" if n else c for c, n in zip(cells, numeric))
    return skeleton, [(names[j], c) for j, c in enumerate(cells) if numeric[j]]


def relative_move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def compare(name: str, old: str, new: str) -> list[str]:
    """The report lines of one file whose bytes differ."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    header = None
    if name.endswith(".csv"):
        header = old_lines[0].split(",") if old_lines else []
    old_split, new_split = ([_split(l, header) for l in lines] for lines in (old_lines, new_lines))
    moved = 0
    largest: dict[str, float] = {}
    verbatim: list[str] = []
    matcher = difflib.SequenceMatcher(
        None, [s for s, _ in old_split], [s for s, _ in new_split], autojunk=False
    )
    for tag, i0, i1, j0, j1 in matcher.get_opcodes():
        if tag != "equal":
            verbatim += [f"  - {l}" for l in old_lines[i0:i1]]
            verbatim += [f"  + {l}" for l in new_lines[j0:j1]]
            continue
        for i, j in zip(range(i0, i1), range(j0, j1)):
            for (column, a), (_, b) in zip(old_split[i][1], new_split[j][1]):
                if a != b:
                    moved += 1
                    largest[column] = max(largest.get(column, 0.0), relative_move(float(a), float(b)))
    cells = "cell" if moved == 1 else "cells"
    report = [f"{name}: {moved} numeric {cells} moved"]
    for column, move in largest.items():
        report.append(f"  largest relative move{' in ' + column if column else ''}: {move:.2g}")
    return report + verbatim


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: golden_moves.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_root, new_root = (Path(a) for a in argv)
    old_files = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    differing = 0
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            print(f"{rel}: only in {'OLD' if rel in old_files else 'NEW'}")
            differing += 1
            continue
        old, new = (old_root / rel).read_bytes(), (new_root / rel).read_bytes()
        if old == new:
            continue
        differing += 1
        try:
            lines = compare(str(rel), old.decode("utf-8"), new.decode("utf-8"))
        except UnicodeDecodeError:
            lines = [f"{rel}: binary files differ"]
        print("\n".join(lines))
    total = len(old_files | new_files)
    print(f"{differing} of {total} files differ" if differing else f"all {total} files byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
