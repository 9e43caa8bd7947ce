"""Per-layer metrics from the span files of traced repeats.

Times named ``*_s`` are seconds per repeat of the workload; ``*_us`` are
microseconds per call, or per sweep for the admm phases. A function that the
running code no longer has is counted in ``trace.absent_functions`` and its
metrics read 0.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

import spans as sp

PHASES = {
    "z": "admm.compute_z",
    "select": "admm.select_working_set",
    "u": "admm.update_u",
    "w": "admm.update_w",
    "b": "admm.update_b",
    "lambda": "admm.update_lambda",
    "residuals": "admm.residuals",
    "objective": "admm.objective_value",
}
EXPECTED = sorted(
    set(PHASES.values())
    | {
        "admm.solve_w_system",
        "admm.train",
        "cli.main",
        "data.apply_scaling",
        "data.fit_scaling",
        "data.flip_labels",
        "data.kfold_plan",
        "data.parse_libsvm",
        "data.subset",
        "loss.prox_slide_vector",
        "loss.prox_thresholds",
        "loss.slide_loss_sum",
        "model.accuracy",
        "model.extract_support_vectors",
        "model.load_model",
        "model.predict_dataset",
        "model.save_model",
        "tuning._score_folds",
        "tuning.fit_full",
        "tuning.grid_search",
    }
)


def tail(values):
    """(median, highest whole percentile with at least 10 values above it,
    that percentile); the max and 100 when that percentile would lie below
    the median, that is with fewer than 20 values."""
    if not values:
        return 0.0, 0.0, 0.0
    x = np.asarray(values, dtype=float)
    pct = float(np.floor(100.0 * (x.size - 10) / x.size))
    if pct < 50.0:
        return float(np.median(x)), float(x.max()), 100.0
    return float(np.median(x)), float(np.percentile(x, pct)), pct


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by its direct
    children}; children in other processes count, and overlapping children
    cover their union once."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - covered(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }


def merge(aggs):
    totals, sweep = {}, sp.new_sweep_stats()
    extra = {"parse_bytes": 0, "predict_rows": 0, "densify": 0, "model_bytes": []}
    for agg in aggs:
        for name, (count, total) in agg["totals"].items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += count
            acc[1] += total
        for key, value in agg["sweep"].items():
            sweep[key] += value
        for key in extra:
            extra[key] += agg[key]
    return totals, sweep, extra


def pool_metrics(spans):
    """(busy solve seconds, grid seconds x solving processes, idle seconds)
    over every grid_search span."""
    grids = [s for s in spans if s[1] == "tuning.grid_search"]
    solves = [s for s in spans if s[1] == "admm.train"]
    configs = [s for s in spans if s[1] == "tuning._score_folds"] or solves
    busy = capacity = idle = 0.0
    for _, _, lo, hi, _, _ in grids:
        inside = [s for s in solves if lo <= s[2] and s[3] <= hi]
        busy += sum(s[3] - s[2] for s in inside)
        capacity += (hi - lo) * max(1, len({s[5] for s in inside}))
        work = [(s[2], s[3]) for s in configs if lo <= s[2] and s[3] <= hi]
        idle += (hi - lo) - covered(work, lo, hi)
    return busy, capacity, idle


def per_layer(traced, plain):
    """Per-layer metrics {name: (value, unit)} from traced and plain repeats,
    and the expected functions that no traced invocation had."""
    n = len(traced)
    spans, aggs, wrapped, worker_spans = [], [], set(), 0
    for rep in traced:
        for inv in rep["invs"]:
            s, a = sp.read_dir(inv["dir"])
            main = {x[5] for x in s if x[1] == "cli.main"}
            worker_spans += sum(1 for x in s if x[5] not in main)
            spans += s
            aggs += a
            path = os.path.join(inv["dir"], "wrapped.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    wrapped.update(json.load(fh))
    totals, sw, extra = merge(aggs)

    def total(name):
        return totals.get(name, [0, 0.0])[1]

    def per_call_us(name):
        count, tot = totals.get(name, [0, 0.0])
        return 1e6 * tot / count if count else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    solve_s = [s[3] - s[2] for s in spans if s[1] == "admm.train"]
    config_s = [s[3] - s[2] for s in spans if s[1] == "tuning._score_folds"]
    solve_p50, solve_tail, solve_pct = tail(solve_s)
    config_p50, config_tail, config_pct = tail(config_s)
    phase_total = sum(total(name) for name in PHASES.values())
    sweeps = sw["sweeps"]
    busy, capacity, idle = pool_metrics(spans)
    own = self_times(spans)
    plain_invs = [inv for rep in plain for inv in rep["invs"]]
    all_invs = plain_invs + [inv for rep in traced for inv in rep["invs"]]

    m = {
        "data.parse_s": (total("data.parse_libsvm") / n, "s"),
        "data.parse_mb_per_s": (
            share(extra["parse_bytes"] / 1e6, total("data.parse_libsvm")), "MB/s"),
        "data.scale_s": ((total("data.fit_scaling") + total("data.apply_scaling")) / n, "s"),
        "data.fold_build_s": ((total("data.kfold_plan") + total("data.subset")) / n, "s"),
        "data.densify_count": (extra["densify"] / n, "count"),
        "data.flip_s": (total("data.flip_labels") / n, "s"),
        "loss.prox_vector_us": (per_call_us("loss.prox_slide_vector"), "us"),
        "loss.loss_sum_us": (per_call_us("loss.slide_loss_sum"), "us"),
        "loss.thresholds_per_sweep": (
            share(totals.get("loss.prox_thresholds", [0])[0], sweeps), "count"),
        "admm.solves": (sw["solves"] / n, "count"),
        "admm.solve_s.p50": (solve_p50, "s"),
        "admm.solve_s.tail": (solve_tail, "s"),
        "admm.solve_s.tail_pct": (solve_pct, "%"),
        "admm.sweep_us": (1e6 * share(total("admm.train"), sweeps), "us"),
        "admm.sweeps_per_solve": (share(sweeps, sw["solves"]), "count"),
        "admm.capped_share": (share(sw["capped"], sw["solves"]), "fraction"),
        "admm.trivial_share": (share(sw["trivial"], sw["solves"]), "fraction"),
    }
    for phase, name in PHASES.items():
        m[f"admm.{phase}_us"] = (1e6 * share(total(name), sweeps), "us")
        m[f"admm.{phase}_share"] = (share(total(name), phase_total), "fraction")
    m.update({
        "admm.ws_size_p50": (float(np.median(sw["ws_sizes"])) if sw["ws_sizes"] else 0.0, "count"),
        "admm.ws_turnover": (float(np.median(sw["turnover"])) if sw["turnover"] else 0.0, "fraction"),
        "admm.improving_sweep_share": (share(sw["improving"], sweeps), "fraction"),
        "admm.last_to_best_objective": (
            float(np.median(sw["last_to_best"])) if sw["last_to_best"] else 1.0, "ratio"),
        "admm.w_branch_smw_share": (share(sw["w_smw"], sw["w_solves"]), "fraction"),
        "model.predict_rows_per_s": (
            share(extra["predict_rows"], total("model.predict_dataset")), "rows/s"),
        "model.accuracy_s": (total("model.accuracy") / n, "s"),
        "model.support_s": (total("model.extract_support_vectors") / n, "s"),
        "model.save_s": (total("model.save_model") / n, "s"),
        "model.load_s": (total("model.load_model") / n, "s"),
        "model.file_bytes": (
            float(np.median(extra["model_bytes"])) if extra["model_bytes"] else 0.0, "bytes"),
        "tuning.grid_s": (total("tuning.grid_search") / n, "s"),
        "tuning.configs": (len(config_s) / n, "count"),
        "tuning.config_s.p50": (config_p50, "s"),
        "tuning.config_s.tail": (config_tail, "s"),
        "tuning.config_s.tail_pct": (config_pct, "%"),
        "tuning.fit_full_s": (total("tuning.fit_full") / n, "s"),
        "tuning.self_s": (
            sum(own[s[0]] for s in spans if s[1].startswith("tuning.")) / n, "s"),
        "tuning.pool_busy_share": (share(busy, capacity), "fraction"),
        "tuning.dispatch_idle_s": (idle / n, "s"),
        "cli.import_s": (
            statistics.median([i["import_s"] for i in plain_invs if i["import_s"] is not None] or [0.0]),
            "s"),
        "cli.process_s": (statistics.median(i["wall_s"] for i in plain_invs), "s"),
        "cli.nonzero_exits": (float(sum(1 for i in all_invs if i["status"] != 0)), "count"),
        "trace.overhead_share": (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0,
            "fraction"),
        "trace.worker_spans": (worker_spans / n, "count"),
    })
    missing = sorted(set(EXPECTED) - wrapped)
    m["trace.absent_functions"] = (float(len(missing)), "count")
    return m, missing

