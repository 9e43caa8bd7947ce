#!/usr/bin/env python3
"""Check that the benchmark's outputs still hash as recorded.

Runs each workload of perfbench/run.py once per seed, through the same
``Run(...).repeat("plain")`` the benchmark uses (same generated files, same
BLAS thread pinning), and compares the SHA-256 of every output file and
stdout with ``output_sha256_by_seed`` in perfbench/baseline.json. Exits 1 on
any mismatch or failed invocation, printing both hashes and how this
machine's environment differs from the recorded one; the hashes belong to
the recorded numpy and OpenBLAS build.

Usage, from the root of a checkout (about 1.5 minutes for all 30 hashes on
a 2-vCPU Xeon):
    python3 scripts/check_hashes.py [--seeds 1,2,3]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402


def _seed_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


def main(argv=None) -> int:
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seeds", type=_seed_list, default=baseline["seeds"],
        help="comma-separated seeds to check (default: every recorded seed)",
    )
    args = parser.parse_args(argv)
    if not args.seeds or not set(args.seeds) <= set(baseline["seeds"]):
        parser.error(f"seeds must be among {baseline['seeds']}, got {args.seeds}")

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    mismatches = 0
    for name, recorded in baseline["workloads"].items():
        for seed in args.seeds:
            want = recorded["output_sha256_by_seed"][str(seed)]
            work = tempfile.mkdtemp(prefix=f"hashes-{name}-{seed}-", dir=base)
            try:
                run = bench.Run(name, seed, work)
                got = run.repeat("plain")["output_sha"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            for failure in run.failures:
                print(f"FAILED {name} seed {seed}: {failure}")
            for key in bad:
                print(f"MISMATCH {name} seed {seed} {key}: "
                      f"got {got.get(key)} recorded {want.get(key)}")
            if bad or run.failures:
                mismatches += 1
            else:
                print(f"ok {name} seed {seed}")

    checked = len(baseline["workloads"]) * len(args.seeds)
    if mismatches:
        recorded_env, this_env = baseline["environment"], bench.environment()
        for key in sorted(recorded_env.keys() | this_env.keys()):
            if recorded_env.get(key) != this_env.get(key):
                print(f"environment {key}: here {this_env.get(key)!r}, "
                      f"recorded {recorded_env.get(key)!r}")
        print(f"{mismatches} of {checked} workload runs differ from perfbench/baseline.json")
        return 1
    print(f"all {checked} workload runs match perfbench/baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
