"""Per-layer metrics derived from the spans `tracer.py` writes.

Each metric is named `<module>.<metric>`.  README.md maps each one to the
end-to-end metric and workload it should move.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SOLVE_SPAN = "lp_solver.RepeatSolver.solve_value"
EVAL_SPAN = "sed_model.SedEvaluator.__call__"
BATCH_SPAN = "sed_model.SedEvaluator.evaluate_batch"
MAP_SPAN = "estimate.parallel_map"

UNITS = {
    "cli.import_s": "s", "grid_model.load_case_s": "s", "forecast.spec_s": "s",
    "sed_model.build_instance_s": "s",
    "lp_solver.cold_solve_s": "s", "lp_solver.cold_pivots": "count",
    "lp_solver.warm_solve_s_p50": "s", "lp_solver.warm_solve_s_p90": "s",
    "lp_solver.warm_pivots_p50": "count", "lp_solver.warm_pivots_p90": "count",
    "lp_solver.warm_pivots_total": "count", "lp_solver.zero_pivot_share": "fraction",
    "lp_solver.s_per_pivot": "s", "lp_solver.cpu_over_wall": "ratio",
    "sed_model.evals": "count", "sed_model.eval_node_s_p50": "s",
    "sed_model.eval_mc_s_p50": "s", "sed_model.eval_s_p90": "s",
    "sed_model.overhead_s_p50": "s",
    "pce.grid_build_s": "s", "pce.grid_nodes": "count",
    "estimate.pools": "count", "estimate.pool_overhead_s": "s",
    "estimate.parallel_map_s": "s",
    "estimate.pce_evals_to_target": "count", "estimate.mc_evals_to_target": "count",
    "bench.trace_overhead_s": "s",
}


def load_spans(span_dir) -> list:
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                rec["pid"] = pid
                spans.append(rec)
    return spans


def _dur(s) -> float:
    return s["end"] - s["start"]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _outermost_total(spans, by_id, member) -> float:
    """Summed duration of member spans that have no member ancestor."""
    total = 0.0
    for s in spans:
        if not member(s):
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and not member(parent):
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += _dur(s)
    return total


def pool_stats(spans, main_pid: int):
    """(pools, overhead, map time) over the main process's parallel_map calls.

    A call used a pool when evaluation batches from other processes ran
    inside it.  Its overhead is the time before its first batch starts plus
    the time after its last batch ends: pool start and teardown when it
    forks workers, argument handling when it runs in-process."""
    batches = [s for s in spans if s["name"] == BATCH_SPAN]
    pools, overhead, total = 0, 0.0, 0.0
    for m in (s for s in spans if s["name"] == MAP_SPAN and s["pid"] == main_pid):
        total += _dur(m)
        inside = [b for b in batches if m["start"] <= b["start"] <= m["end"]]
        if not inside:
            continue
        pools += any(b["pid"] != main_pid for b in inside)
        overhead += (min(b["start"] for b in inside) - m["start"]) \
            + (m["end"] - max(b["end"] for b in inside))
    return pools, overhead, total


def layer_metrics(spans, grid_nodes: set) -> dict:
    """Every per-layer metric except the report-derived and overhead ones.

    `grid_nodes` holds the finest grid's nodes as tuples; an evaluation at
    one of them counts as a node evaluation, any other as an MC draw.  The
    main process is the one that imported `windsed.cli`."""
    main_pid = next(s["pid"] for s in spans if s["name"] == "cli.import")
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name):
        return float(sum(_dur(s) for s in named.get(name, ())))

    out = {
        "cli.import_s": total("cli.import"),
        "grid_model.load_case_s": total("grid_model.load_case"),
        "forecast.spec_s": _outermost_total(
            spans, by_id, lambda s: s["name"] == "cli.build_forecast_spec"
            or s["name"].startswith("forecast.")),
        "sed_model.build_instance_s": total("sed_model.build_instance"),
    }

    solves = named.get(SOLVE_SPAN, [])
    cold = [s for s in solves if s["cold"]]
    warm = [s for s in solves if not s["cold"]]
    warm_t = [_dur(s) for s in warm]
    warm_p = [s["iterations"] for s in warm]
    pivoting = [s for s in warm if s["iterations"] > 0]
    pivots = sum(warm_p)
    out.update({
        "lp_solver.cold_solve_s": float(sum(_dur(s) for s in cold)),
        "lp_solver.cold_pivots": int(sum(s["iterations"] for s in cold)),
        "lp_solver.warm_solve_s_p50": _pct(warm_t, 50),
        "lp_solver.warm_solve_s_p90": _pct(warm_t, 90),
        "lp_solver.warm_pivots_p50": _pct(warm_p, 50),
        "lp_solver.warm_pivots_p90": _pct(warm_p, 90),
        "lp_solver.warm_pivots_total": int(pivots),
        "lp_solver.zero_pivot_share": (len(warm) - len(pivoting)) / len(warm) if warm else 0.0,
        "lp_solver.s_per_pivot": sum(_dur(s) for s in pivoting) / pivots if pivots else 0.0,
        "lp_solver.cpu_over_wall": sum(s["cpu"] for s in warm) / sum(warm_t) if warm else 0.0,
    })

    evals = named.get(EVAL_SPAN, [])
    solve_time = {}
    for s in solves:
        if s["parent"] is not None:
            solve_time[s["parent"]] = solve_time.get(s["parent"], 0.0) + _dur(s)
    node_t = [_dur(e) for e in evals if tuple(e["germ"]) in grid_nodes]
    mc_t = [_dur(e) for e in evals if tuple(e["germ"]) not in grid_nodes]
    out.update({
        "sed_model.evals": len(evals),
        "sed_model.eval_node_s_p50": _pct(node_t, 50),
        "sed_model.eval_mc_s_p50": _pct(mc_t, 50),
        "sed_model.eval_s_p90": _pct([_dur(e) for e in evals], 90),
        "sed_model.overhead_s_p50": _pct(
            [_dur(e) - solve_time.get(e["id"], 0.0) for e in evals], 50),
    })

    grids = named.get("pce.build_sparse_grid", [])
    pools, overhead, map_total = pool_stats(spans, main_pid)
    out.update({
        "pce.grid_build_s": total("pce.build_sparse_grid"),
        "pce.grid_nodes": max((s["nodes"] for s in grids), default=0),
        "estimate.pools": pools,
        "estimate.pool_overhead_s": overhead,
        "estimate.parallel_map_s": map_total,
    })
    return out
