"""Smoke test: the demos that call the wing API run to completion.

Demo 01 (seconds of Monte Carlo) and demo 04 (it writes an SVG next to
itself) are left out; 02, 03 and 05 run in-process in a few
milliseconds each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "02_left_wing_formulas.py",
        "03_bounds_sandwich.py",
        "05_quantile_diagnostics.py",
    ],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
