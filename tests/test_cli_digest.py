"""The CLI's answers to the request set of tools/cli_digest.py, against
the committed digests in tests/data/cli_digest.txt.

A change that moves output on purpose rewrites that file with

    python3 tests/test_cli_digest.py

and the file's diff names the requests that changed.  The digests pin
the last bits of numpy's and scipy's functions, so the file's first line
names the versions it was made under, and the test fails under others.
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "data" / "cli_digest.txt"
FIELDS = ("exit code", "stdout", "stderr")


def _versions() -> str:
    return f"numpy {numpy.__version__}, scipy {scipy.__version__}, Python {platform.python_version()}"


def _digest_lines() -> list[str]:
    """The lines tools/cli_digest.py prints on this tree's src, run in a
    fresh interpreter."""
    tool = [sys.executable, str(ROOT / "tools" / "cli_digest.py"), "--src", str(ROOT / "src")]
    proc = subprocess.run(tool, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _changes(expected: list[str], got: list[str]) -> list[str]:
    """One entry per request (or total) whose digest line differs, naming
    what changed."""
    want, have = (dict(line.split(" ", 1) for line in lines) for lines in (expected, got))
    changes = []
    for name in [*want, *(name for name in have if name not in want)]:
        a, b = want.get(name), have.get(name)
        if a == b:
            continue
        if a is None or b is None:
            changes.append(f"{name}: only in the {'run' if a is None else 'committed digest'}")
        elif len(a.split()) == len(b.split()) == len(FIELDS):
            moved = [field for field, x, y in zip(FIELDS, a.split(), b.split()) if x != y]
            changes.append(f"{name}: {', '.join(moved)} changed")
        else:
            changes.append(f"{name}: {a} -> {b}")
    return changes


def test_cli_output_matches_committed_digest():
    header, *expected = DIGEST.read_text().splitlines()
    assert header == f"# {_versions()}", (
        f"{DIGEST.name} was made under {header.lstrip('# ')}, this run has {_versions()}"
    )
    got = _digest_lines()
    changes = _changes(expected, got)
    assert not changes, f"{len(changes)} digest lines changed:\n" + "\n".join(changes)
    assert got == expected, "the same digest lines in a different order"


if __name__ == "__main__":
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text("\n".join([f"# {_versions()}", *_digest_lines()]) + "\n")
