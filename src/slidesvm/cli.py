"""Command-line surface: train, eval, grid, flip, proxcheck.

Exit-code policy: 0 on success (a non-converged solve is still a success and
is recorded in the model file), 1 for IO/parse/solve failures, 2 for flag
validation problems. Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from . import __version__
from .admm import TrainConfig, train
from .data import ParseError, align_features, parse_libsvm, widen
from .loss import SlideParams, prox_oracle, prox_slide, prox_thresholds
from .model import (
    ModelFormatError,
    accuracy,
    confusion_counts,
    load_model,
    predict_dataset,
    save_model,
)
from .tuning import (
    Grid,
    default_grid,
    fit_full,
    flip_experiment,
    flip_rows_to_csv,
    grid_search,
    repeat_cv,
)


class CliError(Exception):
    """Fatal command failure; carries the exit status."""

    def __init__(self, message: str, status: int = 1):
        super().__init__(message)
        self.status = status


def _read_dataset(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if b"\r" in raw:  # CRLF and lone CR end a line, as in text mode
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return parse_libsvm(raw)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _slide_params(args) -> SlideParams:
    eps = args.eps if args.eps is not None else args.v / 10.0
    try:
        return SlideParams(eps, args.v)
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc


def _train_config(args) -> TrainConfig:
    try:
        return TrainConfig(
            C=args.C,
            delta=args.delta,
            slide=_slide_params(args),
            eta=args.eta,
            K=args.max_iter,
            tol=args.tol,
        )
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_train(args) -> int:
    cfg = _train_config(args)
    ds = _read_dataset(args.data)
    mdl, diag = train(ds, cfg)
    try:
        save_model(mdl, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    if args.diagnostics:
        _write_text(args.diagnostics, diag.to_csv())
    print(
        f"trained on {ds.m} samples, {ds.n} features: "
        f"converged={str(diag.converged).lower()} iterations={diag.iterations} "
        f"max_residual={diag.residual_history[-1].max():.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    try:
        mdl = load_model(args.model)
    except OSError as exc:
        raise CliError(f"cannot read {args.model}: {exc}") from exc
    except ModelFormatError as exc:
        raise CliError(f"{args.model}: {exc}") from exc
    ds = _read_dataset(args.data)
    if ds.n > mdl.n:
        raise CliError(
            f"dimension mismatch: data has {ds.n} features, model has {mdl.n}"
        )
    ds = widen(ds, mdl.n)
    pred = predict_dataset(mdl, ds)
    acc = accuracy(mdl, ds, pred=pred)
    tp, fp, tn, fn = confusion_counts(mdl, ds, pred=pred)
    print(f"accuracy {acc:.4f}")
    print(f"tp {tp} fp {fp} tn {tn} fn {fn}")
    return 0


def _grid_from_args(args) -> Grid:
    base = default_grid()
    try:
        grid = Grid(
            c_values=tuple(args.c_values) if args.c_values else base.c_values,
            delta_values=(
                tuple(args.delta_values) if args.delta_values else base.delta_values
            ),
            v_values=tuple(args.v_values) if args.v_values else base.v_values,
            eps_values=tuple(args.eps_values) if args.eps_values else None,
            eta=args.eta,
            K=args.max_iter,
            tol=args.tol,
        )
        grid.configs()  # surface bad (eps, v) pairs and solver settings now
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc
    return grid


def cmd_grid(args) -> int:
    ds = _read_dataset(args.data)
    grid = _grid_from_args(args)
    test_ds = None
    if args.test:
        test_ds = _read_dataset(args.test)
        ds, test_ds = align_features(ds, test_ds)
    result = grid_search(ds, grid, k=args.folds, seed=args.seed, parallelism=args.parallel)

    extra_rows = []
    if test_ds is not None:
        _, diag, test_acc = fit_full(ds, test_ds, result.best)
        extra_rows.append(("test", test_acc, int(diag.converged)))
        print(f"test accuracy {test_acc:.4f}")
    else:
        mean_acc, _ = repeat_cv(ds, result.best, k=args.folds, n_repeats=args.repeats, seed=args.seed)
        extra_rows.append(("repeated_cv", mean_acc, args.repeats))
        print(f"repeated cv accuracy {mean_acc:.4f}")

    best = result.best
    print(
        f"best config: C={best.C!r} delta={best.delta!r} "
        f"v={best.slide.v!r} epsilon={best.slide.epsilon!r} "
        f"cv_acc={result.best_accuracy:.4f}"
    )
    if args.out:
        buf = io.StringIO()
        buf.write(result.to_csv())
        writer = csv.writer(buf, lineterminator="\n")
        for kind, value, extra in extra_rows:
            writer.writerow(
                [
                    repr(best.C),
                    repr(best.delta),
                    repr(best.slide.v),
                    repr(best.slide.epsilon),
                    repr(float(value)),
                    kind,
                    extra,
                ]
            )
        _write_text(args.out, buf.getvalue())
    return 0


def cmd_flip(args) -> int:
    ds = _read_dataset(args.data)
    test_ds = _read_dataset(args.test)
    ds, test_ds = align_features(ds, test_ds)
    for rate in args.rates:
        if not 0.0 <= rate <= 1.0:
            raise CliError(f"flip rate must be in [0, 1], got {rate}", status=2)
    grid = _grid_from_args(args)
    rows = flip_experiment(
        ds,
        test_ds,
        grid,
        rates=args.rates,
        seed=args.seed,
        k=args.folds,
        parallelism=args.parallel,
    )
    for row in rows:
        print(
            f"rate {row.rate:g}: test accuracy {row.test_accuracy:.4f} "
            f"(C={row.config.C!r} delta={row.config.delta!r} v={row.config.slide.v!r})"
        )
    if args.out:
        _write_text(args.out, flip_rows_to_csv(rows))
    return 0


def _draw_prox_case(rng: np.random.Generator):
    """One random (s, gamma_c, params) tuple; even draws take the ramp regime,
    odd draws the pin regime."""
    v = rng.uniform(0.08, 1.0)
    eps = rng.uniform(0.0, 0.9 * v)
    p = SlideParams(eps, v)
    boundary = 2.0 * p.ramp_width**2
    if rng.integers(2) == 0:
        gamma_c = boundary * rng.uniform(0.05, 0.98)
    else:
        gamma_c = boundary * rng.uniform(1.0, 8.0)
    s = rng.uniform(-1.5, p.v + gamma_c / p.ramp_width + 2.0)
    return s, gamma_c, p


def cmd_proxcheck(args) -> int:
    if args.samples < 1:
        raise CliError(f"need at least one sample, got {args.samples}", status=2)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()

    rows = []
    deviations = []
    failures = 0
    for _ in range(args.samples):
        s, gamma_c, p = _draw_prox_case(rng)
        closed = prox_slide(s, gamma_c, p)
        oracle = prox_oracle(s, gamma_c, p, step=args.step)
        deviation = abs(closed.value - oracle)
        tie = prox_thresholds(gamma_c, p).tie_point
        near_tie = abs(s - tie) <= 1e-6
        if near_tie:
            # the grid cannot resolve which minimizer wins this close to the
            # tie; require the closed form to output one of the two
            alt = closed.alternate if closed.alternate is not None else p.epsilon
            ok = min(abs(closed.value - s), abs(closed.value - alt)) <= 1e-9
        else:
            ok = deviation <= args.limit
            deviations.append(deviation)
        failures += int(not ok)
        rows.append(
            (
                repr(s),
                repr(gamma_c),
                repr(p.epsilon),
                repr(p.v),
                repr(closed.value),
                repr(oracle),
                repr(deviation),
                int(near_tie),
                int(not ok),
            )
        )

    elapsed = time.perf_counter() - started
    max_dev = max(deviations) if deviations else 0.0
    mean_dev = float(np.mean(deviations)) if deviations else 0.0
    print(
        f"proxcheck: {args.samples} samples, max_dev={max_dev:.3g} "
        f"mean_dev={mean_dev:.3g} failures={failures} ({elapsed:.2f}s)"
    )
    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "s",
                "gamma_c",
                "epsilon",
                "v",
                "prox",
                "oracle",
                "abs_dev",
                "near_tie",
                "fail",
            ]
        )
        writer.writerows(rows)
        _write_text(args.out, buf.getvalue())
    return 0 if failures == 0 else 1


def _float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _add_solver_flags(sub, with_cv=False):
    sub.add_argument("--eta", type=float, default=1.618, help="dual step size (default 1.618)")
    sub.add_argument("--max-iter", type=int, default=1000, help="sweep cap (default 1000)")
    sub.add_argument("--tol", type=float, default=1e-3, help="residual tolerance (default 1e-3)")
    if with_cv:
        sub.add_argument("--folds", type=int, default=10, help="cross-validation folds (default 10)")
        sub.add_argument("--seed", type=int, default=0, help="fold/flip seed (default 0)")
        sub.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")
        sub.add_argument("--c-values", type=_float_list, default=None, help="override C grid, comma separated")
        sub.add_argument("--delta-values", type=_float_list, default=None, help="override delta grid")
        sub.add_argument("--v-values", type=_float_list, default=None, help="override v grid")
        sub.add_argument("--eps-values", type=_float_list, default=None, help="override epsilon grid (default: v/10)")
        sub.add_argument("--out", default=None, help="write the result table as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidesvm",
        description="Linear binary SVM with the slide loss (working-set ADMM).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("train", help="train a model on a LIBSVM file")
    sub.add_argument("--data", required=True, help="training data (LIBSVM text)")
    sub.add_argument("--C", type=float, default=1.0, help="loss weight (default 1.0)")
    sub.add_argument("--delta", type=float, default=1.0, help="penalty parameter (default 1.0)")
    sub.add_argument("--v", type=float, default=1.0, help="loss knee (default 1.0)")
    sub.add_argument("--eps", type=float, default=None, help="loss dead zone (default v/10)")
    _add_solver_flags(sub)
    sub.add_argument("--out", required=True, help="model file to write")
    sub.add_argument("--diagnostics", default=None, help="per-iteration CSV to write")
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("eval", help="score a model on a LIBSVM file")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_eval)

    sub = subs.add_parser("grid", help="grid search with k-fold cross-validation")
    sub.add_argument("--data", required=True)
    sub.add_argument("--test", default=None, help="optional held-out test file")
    sub.add_argument(
        "--repeats",
        type=int,
        default=10,
        help="fold-seed repeats for the no-test-set report (default 10)",
    )
    _add_solver_flags(sub, with_cv=True)
    sub.set_defaults(func=cmd_grid)

    sub = subs.add_parser("flip", help="label-flip robustness experiment")
    sub.add_argument("--data", required=True)
    sub.add_argument("--test", required=True)
    sub.add_argument(
        "--rates",
        type=_float_list,
        default=[0.05, 0.15],
        help="flip rates, comma separated (default 0.05,0.15)",
    )
    _add_solver_flags(sub, with_cv=True)
    sub.set_defaults(func=cmd_flip)

    sub = subs.add_parser("proxcheck", help="closed-form prox vs grid oracle")
    sub.add_argument("--samples", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--step", type=float, default=1e-6, help="oracle grid step")
    sub.add_argument("--limit", type=float, default=1e-6, help="max allowed deviation")
    sub.add_argument("--out", default=None, help="per-sample CSV to write")
    sub.set_defaults(func=cmd_proxcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
