"""Offline benchmark of the slidesvm CLI on seeded splice-shaped data.

    python3 perfbench/run.py --workload grid-noisy --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; it needs ``src/slidesvm`` and writes only
under ``.perfbench_work/``. Each run generates LIBSVM files from ``--seed``,
then drives one client process in a closed loop: it starts the workload's
next CLI command only when the previous one has ended, and repeats the
workload while a repeat as slow as the slowest so far would still end
within ``--seconds``.

Workloads (the seed reaches only the generated files):
  grid-noisy        ``grid --test --folds 10 --parallel 1`` over 8 stock-grid
                    configs (2 trivial, 3 ramp, 3 pin) on 1000/2175 rows;
                    sweeps of capped solves dominate.
  flip-par2         ``flip --rates 0.05,0.15 --parallel 2`` over 4 configs
                    (1 trivial, 2 ramp, 1 pin) on the same shape; a pool per
                    rate, fold pickling, ``flip_labels`` and ``fit_full``.
  train-eval-large  ``train`` with default flags on 20000 rows, then ``eval``
                    on 100000 rows; parsing, one solve at m=20000, model IO.
grid-noisy caps solves at 300 sweeps and flip-par2 at 150 (``--max-iter``;
the stock cap is 1000), so that one repeat takes about 8 s and 5 s and a
40-second run holds four to eight repeats; most solves still hit the cap.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
  wall_s             median wall time of one repeat of the workload's commands
  setup_s            median time from process start to the first solve,
                     over set-up probes (commands killed at the first solve)
                     and the measured commands
  peak_rss_mb        median over repeats of the largest peak RSS of any one
                     process of a repeat, pool workers included
  cv_acc             CV accuracy of the chosen config (flip: mean over rates);
                     train-eval-large runs no CV and reports the model's
                     accuracy on its own training rows
  test_acc           held-out accuracy of the final model (flip: mean)
  unconverged_share  solves that did not stop on tol / solves run
  success_share      CLI invocations that passed every check / attempted
Plain lines before it give every metric by name and unit, plus
converged_share and failed_share. The JSON carries their complements
instead, because both read 0 on some workload (no invocation fails; the one
solve of train-eval-large hits the cap) and a share of 0 has no relative
spread or bound.
With ``--trace 1`` untraced and traced (``spans.py``) repeats alternate, and
the last line holds the per-layer metrics instead.

Every invocation is checked (``check.py``): exit status, CSV and model
parsing, mean_acc against fold_accs, the printed best config against the
CSV argmax, printed against CSV accuracies, eval counts against a numpy
recomputation, and equal output hashes across repeats of one run. The first
stdout line holds a record: environment, input and output SHA-256s, and
per-invocation times, sweeps and accuracies.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import report  # noqa: E402

BLAS_THREADS = "1"
SETUP_PROBES = 3
COMMAND_TIMEOUT = 150.0


def _powers(*exps) -> str:
    # the same floats as default_grid(): float(np.sqrt(2.0) ** i)
    return ",".join(repr(float(np.sqrt(2.0) ** e)) for e in exps)


WORKLOADS = {
    "grid-noisy": {
        "shape": "splice",
        "commands": [
            ["grid", "--data", "{train}", "--test", "{test}", "--parallel", "1",
             "--folds", "10", "--max-iter", "300",
             "--c-values", _powers(-6, 2), "--delta-values", _powers(-2, 2),
             "--v-values", "0.2,1.0", "--out", "{dir}/grid.csv"],
        ],
    },
    "flip-par2": {
        "shape": "splice",
        "commands": [
            ["flip", "--data", "{train}", "--test", "{test}", "--rates", "0.05,0.15",
             "--parallel", "2", "--folds", "10", "--max-iter", "150",
             "--c-values", _powers(-2, 2),
             "--delta-values", _powers(2), "--v-values", "0.2,1.0",
             "--out", "{dir}/flip.csv"],
        ],
    },
    "train-eval-large": {
        "shape": "large",
        "commands": [
            ["train", "--data", "{train}", "--out", "{dir}/model.txt"],
            ["eval", "--model", "{dir}/model.txt", "--data", "{test}"],
        ],
    },
}


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def invoke(mode, argv, inv_dir):
    """Run one CLI command under launch.py in its own process group.

    Returns a dict with status, wall time, peak RSS of the largest process,
    stdout, and the events the launcher wrote.
    """
    os.makedirs(inv_dir)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    out_path = os.path.join(inv_dir, "stdout")
    err_path = os.path.join(inv_dir, "stderr")
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), mode, inv_dir, "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        status, rss_kb = _wait(proc, started)
        wall = time.monotonic() - started
    _reap_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    events = {"stamp": [], "solve": [], "import": []}
    events_path = os.path.join(inv_dir, "events")
    if os.path.exists(events_path):
        with open(events_path, encoding="utf-8") as fh:
            for line in fh:
                kind, *fields = line.split()
                events.setdefault(kind, []).append([float(f) for f in fields])
    setup = min(s[0] for s in events["stamp"]) - started if events["stamp"] else None
    return {
        "argv": argv,
        "status": status,
        "wall_s": wall,
        "rss_mb": rss_kb / 1024.0,
        "setup_s": setup,
        "import_s": events["import"][0][0] if events["import"] else None,
        "solves": events["solve"],
        "stdout": stdout,
        "dir": inv_dir,
    }


def _wait(proc, started):
    """wait4 the command: its rusage covers every descendant it reaped, so
    ru_maxrss is the peak RSS of the largest process of the command."""
    while True:
        pid, wstatus, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(wstatus)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() - started > COMMAND_TIMEOUT:
            os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(0.005)


def _reap_group(pgid):
    """Kill what is left of the command's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Run:
    """One benchmark run: inputs, invocations, checks and facts."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        paths, digests, arrays = gen.write_files(self.spec["shape"], seed, work)
        self.paths, self.input_sha, self.arrays = paths, digests, arrays
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.output_sha = None
        self.setup = []

    def argv(self, template, inv_dir):
        fill = {"train": self.paths["train"], "test": self.paths["test"], "dir": inv_dir}
        return [arg.format(**fill) for arg in template]

    def _next_dir(self):
        self.count += 1
        return os.path.join(self.work, f"inv{self.count:04d}")

    def probe(self):
        """Run the first command until its first solve; record set-up time."""
        inv_dir = self._next_dir()
        res = invoke("probe", self.argv(self.spec["commands"][0], inv_dir), inv_dir)
        self.attempted += 1
        if res["setup_s"] is None or res["status"] != -signal.SIGKILL:
            self.failed += 1
            self.failures.append(f"probe: status {res['status']}, no first solve")
        else:
            self.setup.append(res["setup_s"])

    def repeat(self, mode):
        """One repeat of the workload's commands, checked. Returns its record."""
        inv_dir = self._next_dir()
        os.makedirs(inv_dir)
        invs = []
        for i, template in enumerate(self.spec["commands"]):
            sub = os.path.join(inv_dir, f"cmd{i}")
            invs.append(invoke(mode, self.argv(template, inv_dir), sub))
        self.attempted += len(invs)
        errors, facts, hashes = self.check(invs, inv_dir)
        failed = sum(1 for inv, errs in zip(invs, errors) if inv["status"] != 0 or errs)
        for inv, errs in zip(invs, errors):
            if inv["status"] != 0:
                errs.insert(0, f"exit status {inv['status']}")
            self.failures += [f"{inv['argv'][0]}: {e}" for e in errs]
        if self.output_sha is None:
            self.output_sha = hashes
        elif hashes != self.output_sha:
            failed = max(failed, 1)
            self.failures.append(f"outputs differ from the first repeat: {hashes}")
        self.failed += failed
        if mode == "plain":
            self.setup += [inv["setup_s"] for inv in invs if inv["setup_s"] is not None]
        solves = [s for inv in invs for s in inv["solves"]]
        return {
            "mode": mode,
            "wall_s": sum(inv["wall_s"] for inv in invs),
            "rss_mb": max(inv["rss_mb"] for inv in invs),
            "failed": failed,
            "solves": len(solves),
            "converged": int(sum(s[1] for s in solves)),
            "sweeps": int(sum(s[0] for s in solves)),
            "facts": facts,
            "output_sha": hashes,
            "commands": [
                {k: inv[k] for k in ("status", "wall_s", "rss_mb", "setup_s", "import_s")}
                for inv in invs
            ],
            "invs": invs,
        }

    def check(self, invs, inv_dir):
        """Per-invocation error lists, the reported facts and output hashes."""
        errors = [[] for _ in invs]
        facts, hashes = {}, {}
        for inv in invs:
            hashes[f"{inv['argv'][0]}.stdout"] = hashlib.sha256(
                inv["stdout"].encode()
            ).hexdigest()
        try:
            if self.name == "grid-noisy":
                path = os.path.join(inv_dir, "grid.csv")
                hashes["grid.csv"] = sha256_file(path)
                with open(path, encoding="utf-8") as fh:
                    errors[0], facts = check.check_grid(fh.read(), invs[0]["stdout"], 10)
                conv = sum(s[1] for s in invs[0]["solves"])
                if facts and invs[0]["solves"] and conv != facts["converged_solves"]:
                    errors[0].append("converged solves disagree with the CSV")
            elif self.name == "flip-par2":
                path = os.path.join(inv_dir, "flip.csv")
                hashes["flip.csv"] = sha256_file(path)
                with open(path, encoding="utf-8") as fh:
                    errors[0], facts = check.check_flip(
                        fh.read(), invs[0]["stdout"], [0.05, 0.15]
                    )
            else:
                path = os.path.join(inv_dir, "model.txt")
                hashes["model.txt"] = sha256_file(path)
                with open(path, encoding="utf-8") as fh:
                    errors[0], model = check.check_train(
                        invs[0]["stdout"], fh.read(), self.arrays["train"][0]
                    )
                if model:
                    (tp, fp, tn, fn), _ = check.confusion(
                        model["w"], model["b"], *self.arrays["train"]
                    )
                    errors[1], facts = check.check_eval(
                        invs[1]["stdout"], model["w"], model["b"], *self.arrays["test"]
                    )
                    facts["cv_acc"] = (tp + tn) / (tp + fp + tn + fn)
                else:
                    errors[1].append("no model to check eval against")
        except OSError as exc:
            errors[0].append(f"missing output: {exc}")
        return errors, facts, hashes


def end_to_end(run, repeats):
    solves = sum(r["solves"] for r in repeats)
    converged = sum(r["converged"] for r in repeats)
    facts = repeats[0]["facts"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in repeats), "s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in repeats), "MB"),
        "cv_acc": (facts["cv_acc"], "fraction"),
        "test_acc": (facts["test_acc"], "fraction"),
        "unconverged_share": ((solves - converged) / solves, "fraction"),
        "success_share": (1.0 - run.failed / run.attempted, "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slidesvm", "cli.py")):
        print(f"error: no slidesvm sources under {ROOT}/src", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work) -> int:
    run = Run(args.workload, args.seed, work)
    started = time.monotonic()
    deadline = started + args.seconds
    repeats = []

    if args.trace:
        # alternate, so that slow drift of the host's speed hits both sides
        modes, least = itertools.cycle(("plain", "trace")), 2
    else:
        for _ in range(SETUP_PROBES):
            run.probe()
        modes, least = itertools.repeat("plain"), 1
    for mode in modes:
        repeats.append(run.repeat(mode))
        slowest = max(r["wall_s"] for r in repeats)
        if repeats[-1]["failed"] or (
            len(repeats) >= least and time.monotonic() + slowest > deadline
        ):
            break

    plain = [r for r in repeats if r["mode"] == "plain"]
    failed = run.failed
    correct = failed == 0 and bool(plain[0]["facts"])
    metrics = {}
    if correct and args.trace:
        traced = [r for r in repeats if r["mode"] == "trace"]
        metrics, missing = report.per_layer(traced, plain)
        print(f"{args.workload} absent functions: {' '.join(missing) or 'none'}")
    elif correct:
        metrics = end_to_end(run, plain)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "input_sha256": run.input_sha,
        "failures": run.failures,
        "setup_s": run.setup,
        "repeats": [{k: v for k, v in r.items() if k != "invs"} for r in repeats],
    }
    print(json.dumps({"record": record}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    if "unconverged_share" in metrics:
        share = 1.0 - metrics["unconverged_share"][0]
        print(f"{args.workload} converged_share {share!r} fraction")
    print(f"{args.workload} failed_share {failed / run.attempted!r} ({failed}/{run.attempted})")
    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
