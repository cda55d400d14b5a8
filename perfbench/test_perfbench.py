"""Tests of the benchmark itself: generator, span arithmetic, metric names.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run  # puts the repository's src/ on sys.path first
import layers
import workloads
from atomvol import CevModel, CevParams
from spans import PARENT, Target, Tracer, covered, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _snapshot(blocks):
    return [
        (r.rid, r.command, r.fmt, r.sections, None if r.table is None else r.table.tolist())
        for block in blocks
        for r in block
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _snapshot(workloads.generate(workload, 7, 10))
    assert first == _snapshot(workloads.generate(workload, 7, 10))
    assert first != _snapshot(workloads.generate(workload, 8, 10))
    # a longer pool starts with the same requests
    assert _snapshot(workloads.generate(workload, 7, 12))[: len(first)] == first


def test_blocks_are_balanced():
    for block in workloads.generate("oracle_grid", 3, 8):
        assert sorted(r.command for r in block) == ["bounds"] * 3 + ["compare"] * 3 + ["smile"] * 3
        assert sum(r.fmt == "svg" for r in block) == 1
    for block in workloads.generate("atom_wing", 3, 8):
        assert sum(r.table is not None for r in block) == 2


def test_sigma_reproduces_the_mass():
    assert workloads.sigma_for_mass(0.05, 0.6, 1.2, 0.0707) == pytest.approx(0.27674, abs=5e-5)
    for s0, rho, T, mass in [(100.0, 0.3, 0.25, 0.3), (1.0, 0.9, 2.0, 1e-3), (0.05, 0.45, 0.7, 0.02)]:
        sigma = workloads.sigma_for_mass(s0, rho, T, mass)
        assert CevModel(CevParams(s0=s0, sigma=sigma, rho=rho, T=T)).mass == pytest.approx(mass, rel=1e-9)


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == pytest.approx(3.0)


def _span(name, parent, t0, t1, leaf=0.0):
    return [name, "x", 0, parent, t0, t1, leaf, False]


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0, leaf=0.5),
        _span("b", 0, 3.0, 6.0),  # overlaps a: the union counts once
        _span("a1", 1, 2.0, 3.0),
        _span("b1", 2, 5.0, 7.0),  # runs past its parent: clipped to it
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 1.0, 2.0])


def test_tracer_records_parents_leaves_and_counts():
    def inner(x):
        return ns.leaf(x) + 1

    def outer(x):
        return ns.inner(x) + ns.tick(x)

    ns = SimpleNamespace(leaf=lambda x: x, inner=inner, outer=outer, tick=lambda x: 0)
    originals = dict(vars(ns))
    tracer = Tracer()
    restore = tracer.install([
        Target(ns, "outer", "outer", "top"),
        Target(ns, "inner", "inner", "mid", measure=lambda out: out),
        Target(ns, "leaf", "leaf", "low", kind="leaf"),
        Target(ns, "tick", "tick", "top", kind="count"),
    ])
    try:
        tracer.rid = 4
        assert tracer.call("root", "top", ns.outer, 2) == 3
    finally:
        restore()
    assert vars(ns) == originals
    assert [s[0] for s in tracer.spans] == ["root", "outer", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[2] == 4 for s in tracer.spans)
    assert tracer.counts == {"root": 1, "outer": 1, "inner": 1, "inner.units": 3, "leaf": 1, "tick": 1}
    assert tracer.spans[2][6] == tracer.leaf_s["low"] > 0.0


def test_counts_repeat_between_traced_runs(tmp_path):
    blocks = workloads.generate("atom_wing", 11, 1)
    reqs = blocks[0]
    workloads.write(reqs, tmp_path)
    rng = np.random.default_rng(0)
    results = [run.record(r, *run.run_request(r), 0.0, rng) for r in reqs]
    assert not any(r["problems"] for r in results)
    passes = [run.traced_pass(results, layers.targets()) for _ in range(2)]
    assert all(same for _, _, same in passes)
    counts = [tracer.counts for tracer, _, _ in passes]
    assert counts[0] == counts[1]
    assert counts[0]["wing.u_k_inv"] > 0


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers.PER_LAYER

    req = workloads.generate("atom_wing", 1, 1)[0][0]
    results = [{"req": req, "code": 0, "latency_s": 0.01 * i, "problems": []} for i in range(1, 30)]
    metrics, _ = run.end_to_end(results, 1.0, [0.5, 0.6, 0.7], 80.0)
    assert list(metrics) == [name for name, _ in declared]
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    metrics = layers.layer_metrics(Tracer(), Tracer(), {}, 1.0, 1.5)
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
