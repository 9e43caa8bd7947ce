"""Command-line surface: train, eval, grid, flip, proxcheck.

Exit-code policy: 0 on success (a non-converged solve is still a success and
is recorded in the model file), 1 for IO/parse/solve failures, 2 for flag
validation problems. Exit 1 for a file that cannot be read, parsed or written
is decided in one place, ``_file_errors``. Every command is deterministic
given its flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .admm import TrainConfig, train
from .data import ParseError, align_features, parse_libsvm, widen
from .loss import SlideParams, prox_branches, prox_move, prox_oracle, prox_slide_vector, prox_thresholds
from .model import ModelFormatError, confusion_counts, load_model, save_model
from .tuning import STOCK_POWERS, STOCK_V_VALUES, check_rates, grid_configs, grid_search


class CliError(Exception):
    """Fatal command failure; carries the exit status."""

    def __init__(self, message: str, status: int = 1):
        super().__init__(message)
        self.status = status


@contextlib.contextmanager
def _file_errors(path: str, verb: str, malformed=()):
    """Turn a failure to ``verb`` the file at ``path`` into exit 1: an
    OSError names the path and the verb, an error of a ``malformed`` type
    (bad contents) names the path."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot {verb} {path}: {exc}") from exc
    except malformed as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read_dataset(path: str):
    with _file_errors(path, "read", ParseError), open(path, "rb") as fh:
        ds = parse_libsvm(fh.read())
    # every command needs rows; say which file has none before any solve
    if ds.m == 0:
        raise CliError(f"{path}: empty dataset, no samples")
    return ds


INPUT_FLAGS = ("--data", "--test")
OUTPUT_FLAGS = ("--out", "--diagnostics")


def _check_outputs(args) -> None:
    """Fail where writing the command's outputs would, before any data is
    read: an output that names an input or an earlier output is a usage
    error, since its write would replace that file, and each output path
    fails as writing it would. Every path is left as it was: an existing
    file keeps its bytes."""
    given = [(flag, getattr(args, flag[2:], None)) for flag in INPUT_FLAGS + OUTPUT_FLAGS]
    given = [(flag, path) for flag, path in given if path]
    for i, (flag, path) in enumerate(given):
        for other, other_path in given[:i]:
            if flag in OUTPUT_FLAGS and _same_file(other_path, path):
                raise CliError(f"{other} and {flag} name the same file: {path}", status=2)
    for path in [path for flag, path in given if flag in OUTPUT_FLAGS]:
        with _file_errors(path, "write"):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
                os.remove(path)
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY))


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or, when
    both exist, the same inode (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    with contextlib.suppress(OSError):
        return os.path.samefile(a, b)
    return False


def _write_csv(path: str, header, rows) -> None:
    """Write a table with float cells as ``repr(float(x))``, which reads back
    bit for bit, and int and str cells as they are."""
    with _file_errors(path, "write"), open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows
        )


def _config_cells(cfg: TrainConfig) -> list:
    return [cfg.C, cfg.delta, cfg.slide.v, cfg.slide.epsilon]


def _grid_from_args(args, *values) -> list[TrainConfig]:
    """grid_configs of the (C, delta, v, epsilon) value lists, by default
    those of the grid flags, with the solver flags; a bad value is a usage
    error."""
    # a value flag not given is the stock list; one given empty stays empty,
    # so grid_configs rejects it
    values = values or (args.c_values, args.delta_values, args.v_values, args.eps_values)
    try:
        return grid_configs(*values, eta=args.eta, K=args.max_iter, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc


def cmd_train(args) -> int:
    # the one config is the grid of train's single values
    eps_values = None if args.eps is None else [args.eps]
    [cfg] = _grid_from_args(args, [args.C], [args.delta], [args.v], eps_values)
    _check_outputs(args)
    ds = _read_dataset(args.data)
    mdl, diag = train(ds, cfg, history=bool(args.diagnostics))
    with _file_errors(args.out, "write"):
        save_model(mdl, args.out)
    if args.diagnostics:
        _write_csv(
            args.diagnostics,
            ["k", "working_set_size", "e1", "e2", "e3", "e4", "objective"],
            (
                [k, size, res.e1, res.e2, res.e3, res.e4, obj]
                for k, (size, res, obj) in enumerate(diag.history, start=1)
            ),
        )
    print(
        f"trained on {ds.m} samples, {ds.n} features: "
        f"converged={str(diag.converged).lower()} iterations={diag.iterations} "
        f"max_residual={diag.residuals.max():.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    with _file_errors(args.model, "read", ModelFormatError):
        mdl = load_model(args.model)
    ds = _read_dataset(args.data)
    if ds.n > mdl.n:
        raise CliError(
            f"dimension mismatch: data has {ds.n} features, model has {mdl.n}"
        )
    tp, fp, tn, fn = confusion_counts(mdl, widen(ds, mdl.n))
    # the quotient of the same count that accuracy() takes the mean of
    print(f"accuracy {(tp + tn) / ds.m:.4f}")
    print(f"tp {tp} fp {fp} tn {tn} fn {fn}")
    return 0


def _search(args, test_path, **options) -> list:
    """grid_search of the grid flags' configs on --data, and on the test file
    unless ``test_path`` is None, both widened to one feature count. The grid
    flags fail first, then the outputs, then each file as it is read, all
    before any solve."""
    configs = _grid_from_args(args)
    _check_outputs(args)
    ds = _read_dataset(args.data)
    test_ds = None
    if test_path is not None:
        ds, test_ds = align_features(ds, _read_dataset(test_path))
    return grid_search(
        ds, configs, k=args.folds, seed=args.seed, parallelism=args.parallel,
        test_ds=test_ds, **options,
    )


def cmd_grid(args) -> int:
    # grid's test file is optional, and an empty --test names none
    [result] = _search(args, args.test or None, repeats=args.repeats)
    best = result.best
    if result.test is not None:
        mdl, test_acc = result.test
        trailer = [test_acc, "test", int(mdl.converged)]
        print(f"test accuracy {test_acc:.4f}")
    else:
        mean_acc = float(result.repeated.mean())
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
    try:
        if not args.rates:
            raise ValueError("rates must be nonempty")
        check_rates(args.rates)
    except ValueError as exc:
        raise CliError(str(exc), status=2) from exc
    rows = []
    for result in _search(args, args.test, rates=args.rates):
        best = result.best
        mdl, test_acc = result.test
        print(
            f"rate {result.rate:g}: test accuracy {test_acc:.4f} "
            f"(C={best.C!r} delta={best.delta!r} v={best.slide.v!r})"
        )
        rows.append([result.rate, *_config_cells(best), result.best_accuracy, test_acc,
                     int(mdl.converged)])
    if args.out:
        _write_csv(
            args.out,
            ["rate", "C", "delta", "v", "epsilon", "cv_acc", "test_acc", "converged"],
            rows,
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
    _check_outputs(args)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()

    rows = []
    deviations = []
    failures = 0
    for _ in range(args.samples):
        s, gamma_c, p = _draw_prox_case(rng)
        th = prox_thresholds(gamma_c, p)
        closed = float(prox_slide_vector(s, gamma_c, p))
        oracle = prox_oracle(s, gamma_c, p, step=args.step)
        deviation = abs(closed - oracle)
        near_tie = abs(s - th.tie_point) <= 1e-6
        if near_tie:
            # the grid cannot resolve which minimizer wins this close to the
            # tie: s, or the value at s of the branch the tie point joins
            below = prox_branches(np.array([th.tie_point]), th, p.epsilon, np.ones(1))
            alt = float(prox_move(np.array([s]), *below, th, p.epsilon)[0])
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


def _bounded(kind, low, strict=False, finite=False):
    """An argparse type: ``kind`` of the text, ``>= low`` (``> low`` if
    strict), and finite if asked."""

    def check(text):
        value = kind(text)
        if not (value > low if strict else value >= low) or (finite and not math.isfinite(value)):
            bound = f"{'finite ' if finite else ''}{'>' if strict else '>='} {low}"
            raise argparse.ArgumentTypeError(f"need {bound}, got {text}")
        return value

    check.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return check


def _add_solver_flags(sub, with_cv=False):
    sub.add_argument("--eta", type=float, default=TrainConfig.eta, help="dual step size (default 1.618)")
    sub.add_argument("--max-iter", type=int, default=TrainConfig.K, help="sweep cap (default 1000)")
    sub.add_argument("--tol", type=float, default=TrainConfig.tol, help="residual tolerance (default 1e-3)")
    if with_cv:
        sub.add_argument("--folds", type=_bounded(int, 2), default=10, help="cross-validation folds (default 10)")
        sub.add_argument("--seed", type=_bounded(int, 0), default=0, help="fold/flip seed (default 0)")
        sub.add_argument("--parallel", type=_bounded(int, 1), default=1, help="worker processes (default 1)")
        sub.add_argument("--c-values", type=_float_list, default=STOCK_POWERS, help="override C grid, comma separated")
        sub.add_argument("--delta-values", type=_float_list, default=STOCK_POWERS, help="override delta grid")
        sub.add_argument("--v-values", type=_float_list, default=STOCK_V_VALUES, help="override v grid")
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
    sub.add_argument("--samples", type=_bounded(int, 1), default=10000)
    sub.add_argument("--seed", type=_bounded(int, 0), default=0)
    sub.add_argument(
        "--step", type=_bounded(float, 0.0, strict=True, finite=True), default=1e-6,
        help="oracle grid step",
    )
    sub.add_argument("--limit", type=_bounded(float, 0.0), default=1e-6, help="max allowed deviation")
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
