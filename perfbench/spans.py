"""Span recorder that patches slidesvm's functions from outside the package.

``install`` replaces every public function of the data, loss, admm, model,
tuning and cli modules, plus the private per-config and fold-build helpers of
tuning, in every ``slidesvm.*`` namespace that binds it (tuning and cli
import by name). Each call becomes a span with a name, start, end, parent and
pid.

Spans outside a solve (parse, scaling, folds, one ``train``, accuracy, grid,
CLI commands) are kept one by one. Spans inside a solve, the sweep phases
and the loss calls under them, run about 10^4 times per second, so they are
folded into per-name call counts and total time instead.

Per-sweep counts come from return values: working-set size and turnover from
``select_working_set``, the max residual from ``residuals``, the objective
from ``objective_value``.

Forked pool workers inherit the patches and the open parent spans, so their
spans name the grid span that caused them. Each process appends to its own
``trace-<pid>.jsonl`` whenever its stack returns to where it started, because
pool workers end through ``os._exit`` and never run exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types

import numpy as np

LAYERS = ("data", "loss", "admm", "model", "tuning", "cli")
# private helpers whose spans the report needs: one config's folds, and the
# fold build
PRIVATE = {"tuning": ("_score_folds", "_scaled_folds")}


class Tracer:
    """Span stack, per-name aggregates and per-sweep counts of one process."""

    def __init__(self, out_dir=None, clock=time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.pid = os.getpid()
        self.base_depth = 0
        self.stack = []  # open frames: [span id, start]
        self.next_id = 0
        self.in_solve = 0
        self.solve = None
        self.new_record()

    def new_record(self):
        self.spans = []  # kept spans: [id, name, start, end, parent id, pid]
        self.totals = {}  # name -> [count, total s]
        self.sweep = new_sweep_stats()
        self.parse_bytes = 0
        self.predict_rows = 0
        self.densify = 0
        self.model_bytes = []

    def after_fork(self):
        """Start a worker's own record; its open frames stay as parents."""
        self.pid = os.getpid()
        self.base_depth = len(self.stack)
        self.new_record()

    def enter(self, name):
        span_id = None
        if self.in_solve == 0:
            span_id = f"{self.pid}:{self.next_id}"
            self.next_id += 1
        if name == "admm.train":
            self.in_solve += 1
            self.solve = new_solve()
        frame = (span_id, self.clock())
        self.stack.append(frame)
        return frame

    def exit(self, name, frame):
        end = self.clock()
        self.stack.pop()
        span_id, start = frame
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0]
        agg[0] += 1
        agg[1] += end - start
        if name == "admm.train":
            self.in_solve -= 1
        if span_id is not None:
            parent = None
            for up in reversed(self.stack):
                if up[0] is not None:
                    parent = up[0]
                    break
            self.spans.append([span_id, name, start, end, parent, self.pid])
            if len(self.stack) <= self.base_depth:
                self.flush()

    def flush(self):
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"trace-{self.pid}.jsonl")
        lines = [json.dumps({"span": s}) for s in self.spans]
        lines.append(json.dumps({"agg": self.snapshot()}))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.spans = []

    def snapshot(self):
        return {
            "pid": self.pid,
            "totals": self.totals,
            "sweep": self.sweep,
            "parse_bytes": self.parse_bytes,
            "predict_rows": self.predict_rows,
            "densify": self.densify,
            "model_bytes": self.model_bytes,
        }

    # observers: per-call counts read from arguments and return values

    def on_select(self, args, ws):
        solve = self.solve
        if solve is None:
            return
        m = len(args[0])
        mask = np.zeros(m, dtype=bool)
        mask[ws.indices] = True
        size = int(ws.size)
        sw = self.sweep
        sw["ws_sizes"].append(size)
        prev = solve["mask"]
        if prev is not None and prev.shape == mask.shape and size:
            sw["turnover"].append(int(np.count_nonzero(prev ^ mask)) / size)
        solve["mask"] = mask
        if solve["first_ws"] is None:
            solve["first_ws"] = size

    def on_residuals(self, args, res):
        value = res.max()
        solve = self.solve
        if solve is None:
            return
        solve["sweeps"] += 1
        if value < solve["best_res"]:
            solve["best_res"] = value
            self.sweep["improving"] += 1
        self.sweep["sweeps"] += 1

    def on_objective(self, args, value):
        solve = self.solve
        if solve is None:
            return
        solve["last_obj"] = value
        solve["best_obj"] = min(solve["best_obj"], value)

    def on_w_system(self, args, w):
        a_t = args[0]
        branch = args[3] if len(args) > 3 else None
        t_size, n = a_t.shape
        if t_size:
            self.sweep["w_solves"] += 1
            if branch == "smw" or (branch is None and n > t_size):
                self.sweep["w_smw"] += 1

    def on_train(self, args, result):
        solve = self.solve
        cfg = args[1] if len(args) > 1 else None
        diag = result[1] if isinstance(result, tuple) and len(result) > 1 else None
        converged = bool(getattr(diag, "converged", False))
        cap = getattr(cfg, "K", None)
        sw = self.sweep
        sw["solves"] += 1
        sw["converged"] += int(converged)
        sw["capped"] += int(not converged and solve["sweeps"] == cap)
        sw["trivial"] += int(solve["first_ws"] == 0)
        if solve["sweeps"] > 1 and solve["best_obj"] > 0.0:
            sw["last_to_best"].append(solve["last_obj"] / solve["best_obj"])

    def on_parse(self, args, ds):
        src = args[0]
        if hasattr(src, "fileno"):
            self.parse_bytes += os.fstat(src.fileno()).st_size
        elif isinstance(src, (str, bytes)):
            self.parse_bytes += len(src)

    def on_predict(self, args, _):
        self.predict_rows += args[1].m

    def on_save(self, args, _):
        self.model_bytes.append(os.path.getsize(args[1]))


def new_sweep_stats():
    return {
        "solves": 0,
        "converged": 0,
        "capped": 0,
        "trivial": 0,
        "sweeps": 0,
        "improving": 0,
        "w_solves": 0,
        "w_smw": 0,
        "ws_sizes": [],
        "turnover": [],
        "last_to_best": [],
    }


def new_solve():
    return {
        "sweeps": 0,
        "mask": None,
        "first_ws": None,
        "best_res": float("inf"),
        "best_obj": float("inf"),
        "last_obj": float("nan"),
    }


OBSERVERS = {
    "admm.select_working_set": Tracer.on_select,
    "admm.residuals": Tracer.on_residuals,
    "admm.objective_value": Tracer.on_objective,
    "admm.solve_w_system": Tracer.on_w_system,
    "admm.train": Tracer.on_train,
    "data.parse_libsvm": Tracer.on_parse,
    "model.predict_dataset": Tracer.on_predict,
    "model.save_model": Tracer.on_save,
}


def make_wrapper(tracer: Tracer, name: str, fn):
    observer = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(name, frame)
        if observer is not None:
            observer(tracer, args, result)
        return result

    return wrapper


def targets(modules):
    """(layer, name, function) for every function the trace wraps."""
    found = []
    for layer in LAYERS:
        mod = modules.get(f"slidesvm.{layer}")
        if mod is None:
            continue
        for name, obj in sorted(vars(mod).items()):
            if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                continue
            found.append((layer, name, obj))
    return found


def rebind(modules, original, replacement):
    """Point every slidesvm namespace that binds ``original`` at ``replacement``."""
    for mod_name, mod in list(modules.items()):
        if mod is None or not (mod_name == "slidesvm" or mod_name.startswith("slidesvm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(out_dir):
    """Patch the loaded slidesvm modules; returns the process's Tracer."""
    tracer = Tracer(out_dir)
    modules = sys.modules
    wrapped = []
    for layer, name, fn in targets(modules):
        wrapped.append(f"{layer}.{name}")
        rebind(modules, fn, make_wrapper(tracer, wrapped[-1], fn))
    with open(os.path.join(out_dir, "wrapped.json"), "w", encoding="utf-8") as fh:
        json.dump(wrapped, fh)

    dataset = getattr(modules.get("slidesvm.data"), "Dataset", None)
    signed = getattr(dataset, "signed_matrix", None)
    if signed is not None:

        @functools.wraps(signed)
        def signed_matrix(self):
            if self.__dict__.get("_signed_dense", 0) is None:
                tracer.densify += 1
            return signed(self)

        dataset.signed_matrix = signed_matrix

    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def read_dir(out_dir):
    """Kept spans of all processes and each process's last aggregate snapshot."""
    spans, aggs = [], []
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("trace-") and entry.endswith(".jsonl")):
            continue
        last = None
        with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if "span" in rec:
                    spans.append(rec["span"])
                else:
                    last = rec["agg"]
        if last is not None:
            aggs.append(last)
    return spans, aggs
