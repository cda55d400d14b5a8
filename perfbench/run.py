"""atomvol benchmark: seeded CLI requests run in process, timed from outside.

    python3 perfbench/run.py --workload oracle_grid --seed 1 --seconds 20 --trace 0

One process acts as one closed-loop client: it calls atomvol.cli.main(argv)
on generated INI files, one request after another, for --seconds seconds
(ending at the first block boundary after that), then checks every output.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
fixed set of requests untraced, then twice more with the layers' functions
wrapped (a timing pass and a counting pass), and prints the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it are for people.
See perfbench/README.md for the workloads, metrics and their mapping.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# one BLAS/OpenMP thread, set before numpy loads (the machine has two cores)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if not (SRC / "atomvol" / "cli.py").is_file():
    sys.exit(f"perfbench: no atomvol sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
from time import perf_counter

import numpy as np

import atomvol.cli as cli
import checks
import layers
import workloads
from spans import Tracer

if Path(cli.__file__).resolve().parent != SRC / "atomvol":
    sys.exit(f"perfbench: imported atomvol from {cli.__file__}, not from {SRC}")

# blocks generated per second of window: room for the program to get
# this many times faster than today before the pool would repeat
POOL_BLOCKS_PER_S = {"oracle_grid": 10, "mc_smile": 5, "atom_wing": 30}
# blocks in the traced replay; fixed so that counts repeat exactly
TRACE_BLOCKS = {"oracle_grid": 3, "mc_smile": 2, "atom_wing": 30}
SETUP_REPS = 5
DETERMINISM_SAMPLE = 8

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, {src!r})
import atomvol.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = atomvol.cli.main({argv!r})
print(time.perf_counter() - t0)
sys.exit(code)
"""


def run_request(req) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(req.argv())
    return code, out.getvalue()


def measure_setup(req) -> list[float]:
    """Seconds for each of SETUP_REPS fresh interpreters to import atomvol.cli and finish req."""
    script = SETUP_CHILD.format(src=str(SRC), argv=req.argv())
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least 10 samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(results, wall_s: float, setup: list[float], rss_mb: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of the timed window, and lines describing them."""
    done = [r for r in results if r["code"] == 0]
    lat = [r["latency_s"] for r in done]
    rows = sum(r["req"].n_rows for r in done)
    tail_s, tail_pct = tail(lat)
    failed = sum(1 for r in results if r["problems"])
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "rows_per_s": rows / wall_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "latency_tail_ms": f"p{tail_pct:.1f} of {len(lat)} completed requests",
        "rows_per_s": f"{rows} rows in {wall_s:.2f} s",
    }
    lines = [f"  {name:<16} {metrics[name]:>12.4f} {unit:<4} {notes.get(name, '')}"
             for name, unit in END_TO_END]
    lines.append(f"  {'error_rate':<16} {failed / len(results):>12.4f} frac {failed} of {len(results)} attempted")
    return metrics, lines


def record(req, code: int, out: str, latency_s: float, rng) -> dict:
    """What the checks need from one request, without keeping its whole output."""
    r = {"req": req, "code": code, "latency_s": latency_s, "digest": _digest(code, out),
         "problems": checks.shape_problems(req, code, out), "rows": {}}
    if not r["problems"] and req.fmt == "csv":
        r["rows"] = checks.sample_rows(req, out, rng)
    return r


def _digest(code: int, out: str) -> bytes:
    return hashlib.sha256(f"{code}\n{out}".encode()).digest()


def check_all(results) -> None:
    """Add to each result's problems: sampled cells, repeat determinism."""
    mc_checked = 0
    for r in results:
        req = r["req"]
        if not r["rows"]:
            continue
        if req.command != "mc":
            r["problems"] += checks.cell_problems(req, r["rows"])
        elif mc_checked < 2:
            # a reference simulation costs as much as the request: check two
            r["problems"] += checks.cell_problems(req, r["rows"])
            mc_checked += 1
    for r in results[:: max(1, len(results) // DETERMINISM_SAMPLE)]:
        if r["digest"] != _digest(*run_request(r["req"])):
            r["problems"].append("repeated request gave different output")


def hard_slice_report(seed: int, directory: Path) -> tuple[bool, str]:
    """Run the hard slice; exit 3 is the known defect, exit 0 must pass the checks."""
    reqs = workloads.hard_slice(seed, rid0=10**7)
    workloads.write(reqs, directory)
    codes, ok = [], True
    for req in reqs:
        code, out = run_request(req)
        codes.append(code)
        if code == 0:
            ok = ok and not (checks.shape_problems(req, code, out)
                             or checks.cell_problems(req, dict(enumerate(checks.parse_csv(out)[1:]))))
        elif code != 3:
            ok = False
    failing = sum(c != 0 for c in codes)
    return ok, (f"hard slice (true mass in [1e-300, 1e-17], outside the timed window): "
                f"{failing} of {len(reqs)} requests fail, exit codes {codes}")


def traced_pass(results, targets) -> tuple[Tracer, float, bool]:
    """Replay the requests with targets wrapped: tracer, wall seconds, outputs unchanged."""
    tracer = Tracer()
    restore = tracer.install(targets)
    same = True
    try:
        t_start = perf_counter()
        for r in results:
            tracer.rid = r["req"].rid
            same = _digest(*tracer.call(layers.ROOT, "cli", run_request, r["req"])) == r["digest"] and same
        wall_s = perf_counter() - t_start
    finally:
        restore()
    return tracer, wall_s, same


def traced_replay(results, untraced_s: float, spans_path: Path) -> tuple[dict, list[str], bool]:
    """Per-layer metrics from a timing pass and a counting pass over the same requests."""
    targets = layers.targets()
    timing, timing_s, same_a = traced_pass(results, [t for t in targets if t.kind == "span"])
    counting, counting_s, same_b = traced_pass(results, targets)
    timing.write(spans_path)
    requests = {r["req"].rid: r["req"] for r in results}
    metrics = layers.layer_metrics(timing, counting, requests, untraced_s, timing_s)
    units = dict(layers.PER_LAYER)
    lines = [f"  {name:<36} {value:>14.4f} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  counting pass overhead {counting_s / untraced_s - 1.0:.4f} frac; spans in {spans_path}")
    if not (same_a and same_b):
        lines.append("  a traced replay gave different output than the untraced run")
    return metrics, lines, same_a and same_b


def run(args, work: Path) -> int:
    wl, seed = args.workload, args.seed
    n_blocks = TRACE_BLOCKS[wl] if args.trace else math.ceil(POOL_BLOCKS_PER_S[wl] * args.seconds)
    blocks = workloads.generate(wl, seed, max(1, n_blocks))
    warmup = workloads.warmup_request(wl)
    workloads.write([r for b in blocks for r in b] + [warmup], work)

    setup = [] if args.trace else measure_setup(warmup)
    if run_request(warmup)[0] != 0:
        raise RuntimeError("warm-up request failed")

    # The timed window: whole blocks until --seconds have passed (trace: the
    # fixed set).  Each output is checked for shape and reduced to what the
    # later checks need at once, so memory does not grow with the request
    # count; that bookkeeping is left out of the window's wall time.
    rng = np.random.default_rng([seed, 1])
    results, bookkeeping_s = [], 0.0
    t_start = perf_counter()
    for block in blocks if args.trace else itertools.cycle(blocks):
        for req in block:
            t0 = perf_counter()
            code, out = run_request(req)
            t1 = perf_counter()
            results.append(record(req, code, out, t1 - t0, rng))
            bookkeeping_s += perf_counter() - t1
        if not args.trace and perf_counter() - t_start - bookkeeping_s >= args.seconds:
            break
    wall_s = perf_counter() - t_start - bookkeeping_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {wl} seed {seed}: {len(results)} requests "
          f"({len(results) // len(blocks[0])} blocks) in {wall_s:.2f} s")

    traced_ok = True
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        metrics, lines, traced_ok = traced_replay(results, wall_s, OUT_DIR / f"spans-{wl}-seed{seed}.jsonl")
        units = dict(layers.PER_LAYER)
    check_all(results)
    if not args.trace:
        metrics, lines = end_to_end(results, wall_s, setup, rss_mb)
        units = dict(END_TO_END)
    failed = 0
    for r in results:
        if r["problems"]:
            failed += 1
            print(f"  request {r['req'].rid} ({r['req'].command}, {r['req'].path.name}): "
                  + "; ".join(r["problems"][:3]))
    correct = failed == 0 and traced_ok
    if wl == "oracle_grid":
        hard_ok, text = hard_slice_report(seed, work / "hard")
        print(text)
        correct = correct and hard_ok

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
