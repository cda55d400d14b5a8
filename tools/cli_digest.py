"""Digest the CLI's answers to a fixed request set, to compare two source trees.

    python3 tools/cli_digest.py --src <tree>/src [--outputs outputs.json] > digests.txt

Each request prints one line: its name, its exit code, and the SHA-256
of its standard output and of its standard error.  The last three lines
digest the exit codes, the stdout digests and the stderr digests over
all requests, so two trees that print the same "stdout" line gave the
same bytes on every request, and a diff of two runs names the requests
that differ.  With --outputs, the run also writes every request's name,
exit code, stdout and stderr to a JSON file, for tools/cli_drift.py to
measure how far two trees' numbers moved.

The requests are the perfbench request sets, built by
perfbench/workloads.py (read, not edited): oracle_grid, atom_wing and
mc_smile at seeds 1-3, 8 blocks each, with every mc request's path count
cut 100-fold so that the run takes seconds, and the hard slices at the
same seeds.  Six mc_smile requests of seed 1 then run uncut (about
0.6 s): in each n_steps tercile (64-127, 128-255, 256-512) the first
with antithetic pairs and the first without, so that the digests also
cover full-size samples and the chunk and thread-share boundaries they
cut.  Then come the command lines of tests/test_cli.py on its
CEV_CONFIG and ATOM_CONFIG, two SVG requests (mc and compare with
[mc]) that draw the Monte Carlo series, and requests that read the
configuration key table: two boolean spellings, an upper-case key, the
'--key value' form, one bad value of each type, and an incomplete [mc]
and [grid].  Last come smile requests on ATOM_CONFIG that read the
P_TILDE_TABLE of tests/test_cli.py and each of its P_TILDE_VARIANTS,
spellings of that table that must read the same.  Each request runs
through atomvol.cli.main in this process, in a fresh temporary directory that
holds every file it reads under a relative name, so no output depends
on where the run took place.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BLOCKS = 8
MC_PATH_CUT = 100


def _test_configs() -> dict[str, object]:
    """CEV_CONFIG, ATOM_CONFIG, P_TILDE_TABLE and P_TILDE_VARIANTS as
    written in tests/test_cli.py."""
    names = ("CEV_CONFIG", "ATOM_CONFIG", "P_TILDE_TABLE", "P_TILDE_VARIANTS")
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") in names
    }


def _test_runs(workloads) -> list[list[str]]:
    """Write the files tests/test_cli.py uses and return its command lines."""
    configs = _test_configs()
    cev, atom = configs["CEV_CONFIG"], configs["ATOM_CONFIG"]
    files = {
        "cev.ini": cev,
        "atom.ini": atom,
        "beta.ini": cev.replace("rho = 0.6", "beta = 0.6"),
        "half.ini": atom.replace("m_t = 0.0707", "m_t = 0.5"),
        "zero_pt.csv": "1e-9,0.0\n1.0,0.0\n",
        "nan_pt.csv": "1e-12,0.001\n1e-6,nan\n1e-3,0.01\n1.0,0.2\n",
        "short.csv": "1e-9,0.0\n0.5\n1.0,0.2\n",
        "no_grid.ini": cev.split("[grid]")[0],
    }
    # the p_tilde table and its spellings that read the same, byte for byte
    tables = {"pt_table.csv": configs["P_TILDE_TABLE"]}
    tables |= {f"pt_{name}.csv": text for name, text in configs["P_TILDE_VARIANTS"].items()}
    for name, text in (files | tables).items():
        Path(name).write_bytes(text.encode())
    # the tests' reference_sigma fixture: CEV mass 0.0707 at s0=0.05, rho=0.6, T=1.2
    ref = f"--model.sigma={workloads.sigma_for_mass(0.05, 0.6, 1.2, 0.0707)!r}"
    C, A = ["--config", "cev.ini"], ["--config", "atom.ini"]
    mc = ["--mc.n_paths=4000", "--mc.n_steps=40", "--mc.seed=11"]
    deep = ["--grid.k_min=-10", "--grid.k_max=-8", "--grid.n_points=2"]
    nan_table = ["--model.p_tilde_csv=nan_pt.csv", "--grid.k_min=-40", "--grid.k_max=-0.5", "--grid.n_points=27"]
    return [
        ["mass", *C], ["mass", *C, "--model.sigma=0.4"], ["mass", "--config", "beta.ini"],
        ["mass", *C, "--model.sigma=0.25"], ["mass", *C, "--format", "svg"],
        ["smile", *C], ["smile", "--config", "half.ini"], ["smile", *A, "--model.p_tilde_csv=zero_pt.csv"],
        ["bounds", *C, ref], ["bounds", *C], ["compare", *C], ["compare", *A], ["compare", *C, *mc],
        *([cmd, *C, ref, "--grid.k_min=-10", "--grid.k_max=-2", "--grid.n_points=17"]
          for cmd in ("smile", "bounds", "compare")),
        *([cmd, *A, *nan_table] for cmd in ("smile", "bounds")),
        ["compare", *C, ref, "--grid.k_min=-12", "--grid.k_max=-1", "--grid.n_points=12"],
        ["mc", *C, *mc], ["mc", *C], ["mc", *C, "--mc.n_paths=2000", "--mc.n_steps=20", "--mc.seed=3"],
        ["compare", *C, "--format", "svg"], ["bounds", *C, "--model.sigma=0.3", "--format", "svg"],
        ["compare", *C, "--grid.n_points=3"],
        ["smile", *C, "--grid.k_min=-1", "--grid.k_max=-3"],
        ["smile", *C, "--grid.k_min=-inf"], ["smile", *C, "--grid.k_min=nan"],
        ["bounds", *C, "--model.epsilon=inf"], ["smile", *A, "--model.p_tilde_csv=short.csv"],
        ["smile", *C, "--out", "no_such_dir/x.csv"], ["mass", "--config", "nonexistent.ini"],
        ["mass", *C, "--bogus"], ["nosuch", *C],
        ["compare", *C, "--model.sigma=0.015", *deep], ["compare", *C, "--model.sigma=0.02", *deep],
        ["mc", *C, *mc, "--format", "svg"], ["compare", *C, *mc, "--format", "svg"],
        # the configuration key table: boolean spellings, key case and the
        # space form, one bad value of each type, and incomplete sections
        ["mc", *C, *mc, "--mc.antithetic=yes"], ["mc", *C, *mc, "--mc.antithetic=0"],
        ["mass", *C, "--MODEL.Sigma=0.25"], ["mass", *C, "--model.sigma", "0.25"],
        ["smile", *C, "--model.sigma=abc"], ["mc", *C, *mc[:2], "--mc.seed=1.5"],
        ["mc", *C, *mc, "--mc.antithetic=maybe"],
        ["mc", *C, "--mc.n_paths=100"], ["smile", "--config", "no_grid.ini", "--grid.k_min=-3"],
        *(["smile", *A, f"--model.p_tilde_csv={name}"] for name in tables),
    ]


def _perfbench_runs(workloads) -> list[tuple[str, list[str]]]:
    """Write the perfbench requests, each set under its own directory, and
    return (name, command line) pairs."""
    runs = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            reqs = [req for block in workloads.generate(name, seed, BLOCKS) for req in block]
            for req in reqs:
                if "mc" in req.sections:
                    mc = req.sections["mc"]
                    mc["n_paths"] = str(max(1, int(mc["n_paths"]) // MC_PATH_CUT))
            workloads.write(reqs, Path(f"{name}-{seed}"))
            runs += [(f"{name}/{seed}/{req.rid}", req.argv()) for req in reqs]
    for seed in SEEDS:
        reqs = workloads.hard_slice(seed, rid0=0)
        workloads.write(reqs, Path(f"hard-{seed}"))
        runs += [(f"hard/{seed}/{req.rid}", req.argv()) for req in reqs]
    return runs + _uncut_mc_runs(workloads)


def _uncut_mc_runs(workloads) -> list[tuple[str, list[str]]]:
    """The first full-size mc_smile request of seed 1 in each (n_steps
    tercile, antithetic) cell, written under their own directory."""
    cells = {}
    for req in (req for block in workloads.generate("mc_smile", SEEDS[0], BLOCKS) for req in block):
        mc = req.sections["mc"]
        tercile = sum(int(mc["n_steps"]) >= edge for edge in (128, 256))
        cells.setdefault((tercile, mc["antithetic"]), req)
    reqs = [cells[cell] for cell in sorted(cells)]
    workloads.write(reqs, Path("mc_smile-uncut"))
    return [(f"mc_smile/uncut/{req.rid}", req.argv()) for req in reqs]


def _call(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--outputs", metavar="FILE", help="also write every request's output to FILE as JSON")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    outputs_path = Path(args.outputs).resolve() if args.outputs else None
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import atomvol.cli
    import workloads

    if Path(atomvol.cli.__file__).resolve().parent != src / "atomvol":
        sys.exit(f"cli_digest: imported atomvol from {atomvol.cli.__file__}, not from {src}")
    home = os.getcwd()
    totals = {"exit": [], "stdout": [], "stderr": []}
    outputs = []
    with tempfile.TemporaryDirectory(prefix="cli_digest-") as work:
        os.chdir(work)
        try:
            runs = _perfbench_runs(workloads)
            runs += [(f"test_cli/{i}", argv) for i, argv in enumerate(_test_runs(workloads))]
            for name, argv in runs:
                code, out, err = _call(atomvol.cli.main, argv)
                outputs.append({"name": name, "exit": code, "stdout": out, "stderr": err})
                digests = (str(code), _sha(out), _sha(err))
                for total, value in zip(totals.values(), digests):
                    total.append(value)
                print(name, *digests)
        finally:
            os.chdir(home)
    for name, values in totals.items():
        print(name, _sha("\n".join(values)))
    if outputs_path:
        outputs_path.write_text(json.dumps(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
