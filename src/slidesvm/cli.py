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
from .loss import SlideParams, prox_oracle, prox_slide_vector, prox_thresholds
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


def _write_csv(path: str, header, rows) -> None:
    """Write a table with float cells as ``repr(float(x))``, which reads back
    bit for bit, and int and str cells as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows
    )
    _write_text(path, buf.getvalue())


def _config_cells(cfg: TrainConfig) -> list:
    return [cfg.C, cfg.delta, cfg.slide.v, cfg.slide.epsilon]


def cmd_train(args) -> int:
    cfg = _train_config(args)
    ds = _read_dataset(args.data)
    mdl, diag = train(ds, cfg)
    try:
        save_model(mdl, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    if args.diagnostics:
        sweeps = zip(diag.residual_history, diag.working_set_sizes, diag.objective_history)
        _write_csv(
            args.diagnostics,
            ["k", "working_set_size", "e1", "e2", "e3", "e4", "objective"],
            (
                [k, size, res.e1, res.e2, res.e3, res.e4, obj]
                for k, (res, size, obj) in enumerate(sweeps, start=1)
            ),
        )
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
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc
    return grid


def cmd_grid(args) -> int:
    grid = _grid_from_args(args)
    ds = _read_dataset(args.data)
    test_ds = None
    if args.test:
        test_ds = _read_dataset(args.test)
        ds, test_ds = align_features(ds, test_ds)
    result = grid_search(ds, grid, k=args.folds, seed=args.seed, parallelism=args.parallel)

    best = result.best
    if test_ds is not None:
        _, diag, test_acc = fit_full(ds, test_ds, best)
        trailer = [test_acc, "test", int(diag.converged)]
        print(f"test accuracy {test_acc:.4f}")
    else:
        mean_acc, _ = repeat_cv(ds, best, k=args.folds, n_repeats=args.repeats, seed=args.seed)
        trailer = [mean_acc, "repeated_cv", args.repeats]
        print(f"repeated cv accuracy {mean_acc:.4f}")

    print(
        f"best config: C={best.C!r} delta={best.delta!r} "
        f"v={best.slide.v!r} epsilon={best.slide.epsilon!r} "
        f"cv_acc={result.best_accuracy:.4f}"
    )
    if args.out:
        # the last row reports the best config; its last three cells do not
        # follow the header
        rows = [
            [*_config_cells(cfg), mean, ";".join(repr(float(a)) for a in accs), int(conv)]
            for cfg, mean, accs, conv in zip(
                result.configs,
                result.mean_accuracies,
                result.fold_accuracies,
                result.converged_folds,
            )
        ]
        rows.append(_config_cells(best) + trailer)
        _write_csv(
            args.out,
            ["C", "delta", "v", "epsilon", "mean_acc", "fold_accs", "converged_folds"],
            rows,
        )
    return 0


def cmd_flip(args) -> int:
    for rate in args.rates:
        if not 0.0 <= rate <= 1.0:
            raise CliError(f"flip rate must be in [0, 1], got {rate}", status=2)
    grid = _grid_from_args(args)
    ds = _read_dataset(args.data)
    test_ds = _read_dataset(args.test)
    ds, test_ds = align_features(ds, test_ds)
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
        _write_csv(
            args.out,
            ["rate", "C", "delta", "v", "epsilon", "cv_acc", "test_acc", "converged"],
            (
                [row.rate, *_config_cells(row.config), row.cv_accuracy,
                 row.test_accuracy, int(row.converged)]
                for row in rows
            ),
        )
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
        th = prox_thresholds(gamma_c, p)
        closed = float(prox_slide_vector(s, gamma_c, p, th=th))
        oracle = prox_oracle(s, gamma_c, p, step=args.step)
        deviation = abs(closed - oracle)
        near_tie = abs(s - th.tie_point) <= 1e-6
        if near_tie:
            # the grid cannot resolve which minimizer wins this close to the
            # tie; require the closed form to output one of the two
            alt = s - th.shift if th.ramp_regime else p.epsilon
            ok = min(abs(closed - s), abs(closed - alt)) <= 1e-9
        else:
            ok = deviation <= args.limit
            deviations.append(deviation)
        failures += int(not ok)
        rows.append(
            [s, gamma_c, p.epsilon, p.v, closed, oracle, deviation, int(near_tie), int(not ok)]
        )

    elapsed = time.perf_counter() - started
    max_dev = max(deviations) if deviations else 0.0
    mean_dev = float(np.mean(deviations)) if deviations else 0.0
    print(
        f"proxcheck: {args.samples} samples, max_dev={max_dev:.3g} "
        f"mean_dev={mean_dev:.3g} failures={failures} ({elapsed:.2f}s)"
    )
    if args.out:
        _write_csv(
            args.out,
            ["s", "gamma_c", "epsilon", "v", "prox", "oracle", "abs_dev", "near_tie", "fail"],
            rows,
        )
    return 0 if failures == 0 else 1


def _float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _bounded(kind, low, strict=False):
    """An argparse type: ``kind`` of the text, ``>= low`` (``> low`` if strict)."""

    def check(text):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"need {'>' if strict else '>='} {low}, got {text}")
        return value

    check.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return check


def _add_solver_flags(sub, with_cv=False):
    sub.add_argument("--eta", type=float, default=1.618, help="dual step size (default 1.618)")
    sub.add_argument("--max-iter", type=int, default=1000, help="sweep cap (default 1000)")
    sub.add_argument("--tol", type=float, default=1e-3, help="residual tolerance (default 1e-3)")
    if with_cv:
        sub.add_argument("--folds", type=_bounded(int, 2), default=10, help="cross-validation folds (default 10)")
        sub.add_argument("--seed", type=int, default=0, help="fold/flip seed (default 0)")
        sub.add_argument("--parallel", type=_bounded(int, 1), default=1, help="worker processes (default 1)")
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
        type=_bounded(int, 1),
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
    sub.add_argument("--step", type=_bounded(float, 0.0, strict=True), default=1e-6, help="oracle grid step")
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
