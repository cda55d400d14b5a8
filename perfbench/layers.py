"""Which program functions the traced run wraps, and the per-layer metrics.

Each layer is one module of atomvol.  A function is wrapped under the
name its caller looks it up by: cli calls the wing formulas, mc_smile,
render_plot and vega through its own module namespace; wing calls
u_k_inv, u_k and the normal CDF through wing's namespace; cev and
montecarlo call implied_vol through theirs; CevModel methods are looked
up on the class.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import atomvol.blackscholes as blackscholes
import atomvol.cev as cev
import atomvol.cli as cli
import atomvol.montecarlo as montecarlo
import atomvol.wing as wing
from spans import FAILED, LAYER, NAME, RID, T0, T1, Target, self_times

ROOT = "cli.main"
COMMANDS = ("smile", "bounds", "compare", "mc")


def targets() -> list[Target]:
    T = Target
    return [
        T(cev.CevModel, "__init__", "cev.model_init", "cev"),
        T(cev.CevModel, "put_price", "cev.put_price", "cev"),
        T(cev.CevModel, "p_tilde", "cev.p_tilde", "cev"),
        T(cev.CevModel, "exact_smile", "cev.exact_smile", "cev"),
        T(cev.CevModel, "density", "cev.density", "cev", kind="count"),
        *(T(cli, f, f"wing.{f}", "wing") for f in (
            "smile_leading", "smile_three_term_atom", "smile_three_term_pT",
            "smile_three_term_G", "smile_dmhj", "smile_bounds")),
        T(wing, "u_k_inv", "wing.u_k_inv", "wing"),
        T(wing, "u_k", "wing.u_k", "wing", kind="count"),
        T(cli, "vega", "blackscholes.vega", "blackscholes"),
        T(cev, "implied_vol", "blackscholes.implied_vol", "blackscholes"),
        T(montecarlo, "implied_vol", "blackscholes.implied_vol", "blackscholes"),
        T(cli, "mc_smile", "montecarlo.mc_smile", "montecarlo"),
        T(montecarlo, "simulate_terminals", "montecarlo.simulate_terminals", "montecarlo"),
        T(montecarlo, "counter_normals", "montecarlo.counter_normals", "montecarlo",
          measure=lambda z: z.size),
        T(cli, "render_plot", "svgplot.render_plot", "svgplot"),
        T(wing, "norm_cdf", "specfun.norm_cdf", "specfun", kind="leaf"),
        T(wing, "norm_cdf_inv", "specfun.norm_cdf_inv", "specfun", kind="leaf"),
        T(blackscholes, "log_norm_cdf", "specfun.log_norm_cdf", "specfun", kind="leaf"),
        T(cev, "reg_inc_gamma", "specfun.reg_inc_gamma", "specfun", kind="leaf"),
    ]


# (name, unit); the order is the order printed
PER_LAYER = [
    ("cev.model_init.us_p50", "us"),
    ("cev.put_price.us_p50", "us"),
    ("cev.p_tilde.us_p50", "us"),
    ("cev.oracle_calls.per_row", "count/row"),
    *((f"cev.oracle_calls.per_row.{c}", "count/row") for c in COMMANDS),
    ("cev.density.evals_per_call", "count"),
    ("cev.self_share", "frac"),
    ("wing.u_k_inv.calls", "count"),
    ("wing.u_k_inv.us_p50", "us"),
    ("wing.u_k.per_inv", "count"),
    ("wing.self_share", "frac"),
    ("blackscholes.implied_vol.calls", "count"),
    ("blackscholes.implied_vol.us_p50", "us"),
    ("blackscholes.implied_vol.failed", "count"),
    ("blackscholes.self_share", "frac"),
    ("montecarlo.ns_per_path_step", "ns"),
    ("montecarlo.counter_normals.draws", "count"),
    ("montecarlo.live_step_frac", "frac"),
    ("montecarlo.mc_smile.self_ms", "ms"),
    ("montecarlo.self_share", "frac"),
    ("specfun.calls", "count"),
    ("specfun.self_share", "frac"),
    ("cli.self_ms_p50", "ms"),
    ("svgplot.render_plot.ms_p50", "ms"),
    ("trace.overhead_frac", "frac"),
]


def _median(values) -> float:
    # a layer the workload never reaches reads 0
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timing, counting, requests: dict, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the two traced passes over the same requests.

    timing wrapped only the span targets, so its durations carry little
    wrapper cost; counting wrapped every target and supplies the counts
    of the short, frequent calls (u_k, density, special functions) and
    the special functions' own time.  requests maps request id ->
    Request; untraced_s and traced_s are the wall times of the requests
    without tracing and in the timing pass.
    """
    spans, counts = timing.spans, counting.counts
    selfs = self_times(spans)
    dur = defaultdict(list)
    self_by_name = defaultdict(list)
    layer_self = defaultdict(float)
    failed = defaultdict(int)
    oracle_by_rid = defaultdict(int)
    for s, st in zip(spans, selfs):
        name = s[NAME]
        dur[name].append(s[T1] - s[T0])
        self_by_name[name].append(st)
        layer_self[s[LAYER]] += st
        failed[name] += s[FAILED]
        if name in ("cev.put_price", "cev.p_tilde"):
            oracle_by_rid[s[RID]] += 1
    total = sum(dur[ROOT])

    rows_by_cmd, oracle_by_cmd = defaultdict(int), defaultdict(int)
    for rid, req in requests.items():
        rows_by_cmd[req.command] += req.n_rows
        oracle_by_cmd[req.command] += oracle_by_rid[rid]
    oracle_calls = sum(oracle_by_cmd.values())
    path_steps = sum(req.path_steps for req in requests.values())
    draws = counts["montecarlo.counter_normals.units"]
    inversions = counts["wing.u_k_inv"]

    m = {
        "cev.model_init.us_p50": 1e6 * _median(dur["cev.model_init"]),
        "cev.put_price.us_p50": 1e6 * _median(dur["cev.put_price"]),
        "cev.p_tilde.us_p50": 1e6 * _median(dur["cev.p_tilde"]),
        "cev.oracle_calls.per_row": _ratio(oracle_calls, sum(rows_by_cmd.values())),
        **{f"cev.oracle_calls.per_row.{c}": _ratio(oracle_by_cmd[c], rows_by_cmd[c]) for c in COMMANDS},
        "cev.density.evals_per_call": _ratio(counts["cev.density"], oracle_calls),
        "cev.self_share": _ratio(layer_self["cev"], total),
        "wing.u_k_inv.calls": float(inversions),
        "wing.u_k_inv.us_p50": 1e6 * _median(dur["wing.u_k_inv"]),
        "wing.u_k.per_inv": _ratio(counts["wing.u_k"], inversions),
        "wing.self_share": _ratio(layer_self["wing"], total),
        "blackscholes.implied_vol.calls": float(counts["blackscholes.implied_vol"]),
        "blackscholes.implied_vol.us_p50": 1e6 * _median(dur["blackscholes.implied_vol"]),
        "blackscholes.implied_vol.failed": float(failed["blackscholes.implied_vol"]),
        "blackscholes.self_share": _ratio(layer_self["blackscholes"], total),
        "montecarlo.ns_per_path_step": 1e9 * _ratio(sum(dur["montecarlo.simulate_terminals"]), path_steps),
        "montecarlo.counter_normals.draws": float(draws),
        "montecarlo.live_step_frac": _ratio(draws, path_steps),
        "montecarlo.mc_smile.self_ms": 1e3 * _median(self_by_name["montecarlo.mc_smile"]),
        "montecarlo.self_share": _ratio(layer_self["montecarlo"], total),
        "specfun.calls": float(sum(v for k, v in counts.items() if k.startswith("specfun."))),
        # special-function time comes from the counting pass; in the timing
        # pass it is part of its callers' self time
        "specfun.self_share": _ratio(counting.leaf_s["specfun"], total),
        "cli.self_ms_p50": 1e3 * _median(self_by_name[ROOT]),
        "svgplot.render_plot.ms_p50": 1e3 * _median(dur["svgplot.render_plot"]),
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
    }
    return {name: m[name] for name, _ in PER_LAYER}
