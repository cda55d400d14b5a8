"""Measure how far the CLI's numbers moved between two source trees.

    python3 tools/cli_digest.py --src <parent>/src --outputs a.json > /dev/null
    python3 tools/cli_digest.py --src <change>/src --outputs b.json > /dev/null
    python3 tools/cli_drift.py a.json b.json

For each CSV column it prints the number of cells that changed and the
largest drift among them: relative to the cell of A, or absolute for the
err_* columns, which are differences of nearly equal numbers.  A cell
that is empty in one run and not the other counts as an infinite drift.
Then it lists the requests whose exit code, stderr or SVG output changed,
whose stdout changed outside a CSV cell (a text line, a header, the
number of lines), and those that ran in only one of the two files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def _load(path: str) -> dict[str, dict]:
    return {run["name"]: run for run in json.loads(Path(path).read_text())}


def _number(text: str) -> float | None:
    """A CSV cell as a float, NaN for an empty cell, None for text."""
    try:
        return float(text) if text else math.nan
    except ValueError:
        return None


def _drift(column: str, x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):
        return math.inf  # one cell empty and the other not
    if column.startswith("err_"):
        return abs(y - x)
    return abs(y - x) / abs(x) if x else math.inf


def compare_stdout(a: str, b: str, columns: dict[str, list]) -> bool:
    """Add each changed CSV cell of b against a to columns[name] as
    [count, largest drift]; False where the two differ in anything but
    the numbers in CSV cells."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return False
    header = None
    for line_a, line_b in zip(lines_a, lines_b):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if line_a == line_b:
            if len(cells_a) > 1 and _number(cells_a[0]) is None:
                header = cells_a
            continue
        if header is None or not len(header) == len(cells_a) == len(cells_b):
            return False
        for name, x, y in zip(header, map(_number, cells_a), map(_number, cells_b)):
            if x is None or y is None:
                return False
            if x != y and not (math.isnan(x) and math.isnan(y)):
                entry = columns.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] = max(entry[1], _drift(name, x, y))
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="cli_digest.py --outputs file of the reference tree")
    parser.add_argument("b", help="cli_digest.py --outputs file of the changed tree")
    args = parser.parse_args()
    runs_a, runs_b = _load(args.a), _load(args.b)
    columns: dict[str, list] = {}
    changed = {"exit code": [], "stderr": [], "SVG": [], "other stdout": []}
    for name in runs_a.keys() & runs_b.keys():
        a, b = runs_a[name], runs_b[name]
        if a["exit"] != b["exit"]:
            changed["exit code"].append(name)
        if a["stderr"] != b["stderr"]:
            changed["stderr"].append(name)
        if a["stdout"] == b["stdout"]:
            continue
        if a["stdout"].lstrip().startswith("<") or b["stdout"].lstrip().startswith("<"):
            changed["SVG"].append(name)
        elif not compare_stdout(a["stdout"], b["stdout"], columns):
            changed["other stdout"].append(name)
    print(f"{len(runs_a.keys() & runs_b.keys())} requests in both files")
    print(f"{'column':<16} {'changed':>8} {'max drift':>10}")
    for name, (count, drift) in sorted(columns.items()):
        kind = "abs" if name.startswith("err_") else "rel"
        print(f"{name:<16} {count:>8} {drift:>10.2g} {kind}")
    changed["only in A"] = sorted(runs_a.keys() - runs_b.keys())
    changed["only in B"] = sorted(runs_b.keys() - runs_a.keys())
    for what, names in changed.items():
        print(f"{what}: {', '.join(sorted(names)) if names else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
