"""Hyperparameter tuning: k-fold cross-validation and grid search over
(C, delta, v), on the clean training labels and on labels flipped at given
rates, the paper's label-noise robustness protocol.

All configurations and rates inside one grid search share a single fold
plan. A search is a list of (rate, fold seed, config, fold) tasks, then one
task per final fit or repeated fold, all run by one set of processes: the
calling process at parallelism 1, else one pool of workers, started by the
platform's default method (on Linux, fork up to Python 3.13 and forkserver
from 3.14); either way the pool's initializer hands each worker the data.
Every task is one ``fit_full``: a CV task flips the labels of its rate, cuts
its fold, then scales by the fold's training part, trains and scores the
held-out part; no fold outlives its task. Results are put back in task
order, so a search differs across parallelism degrees only in wall time,
never in output.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .admm import TrainConfig, train
from .data import Dataset, apply_scaling, fit_scaling, flip_labels, kfold_plan, subset
from .loss import SlideParams
from .model import accuracy

SQRT2 = np.sqrt(2.0)
# the stock grid's values: C and delta over the powers sqrt(2)^-7..sqrt(2)^7,
# v over 0.1..1.0
STOCK_POWERS = tuple(float(SQRT2**i) for i in range(-7, 8))
STOCK_V_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 11))


def grid_configs(
    c_values,
    delta_values,
    v_values,
    eps_values=None,
    *,
    eta: float = TrainConfig.eta,
    K: int = TrainConfig.K,
    tol: float = TrainConfig.tol,
) -> list[TrainConfig]:
    """Every (C, delta, v, epsilon) of the given values with the solver
    settings eta, K and tol, ordered ascending by (C, delta, v, epsilon).

    epsilon follows v/10 unless explicit values are given, in which case the
    epsilon list is crossed with the v list. The ordering backs the
    tie-break rule: among equal-accuracy configs the earliest one wins.
    Raises ValueError for an empty list, and TrainConfig and SlideParams
    reject a bad value.
    """
    for name, values in (
        ("c_values", c_values), ("delta_values", delta_values), ("v_values", v_values)
    ):
        if not values:
            raise ValueError(f"{name} must be nonempty")
    if eps_values is not None and not eps_values:
        raise ValueError("eps_values must be nonempty")
    return [
        TrainConfig(
            C=float(c),
            delta=float(d),
            slide=SlideParams(float(eps), float(v)),
            eta=eta,
            K=K,
            tol=tol,
        )
        for c in sorted(c_values)
        for d in sorted(delta_values)
        for v in sorted(v_values)
        for eps in sorted((v / 10.0,) if eps_values is None else eps_values)
    ]


def fit_full(train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig):
    """Scale by the full training split, train, and score the test split.

    Returns (model, test_accuracy).
    """
    smap = fit_scaling(train_ds)
    mdl, _ = train(apply_scaling(train_ds, smap), cfg)
    return mdl, accuracy(mdl, apply_scaling(test_ds, smap))


# A task reads its source: (train set, test set, k, flip seed). A serial
# search passes it to every task; a pool's initializer puts it in this global
# of each worker, which serves that one pool alone.
_SOURCE = None


def _init_worker(*source):
    global _SOURCE
    _SOURCE = source


def _in_worker(fn, task):
    return fn(_SOURCE, task)


def _labels(source, rate):
    train_ds, _, _, seed = source
    return flip_labels(train_ds, rate, seed) if rate > 0.0 else train_ds


def _score_folds(source, task):
    """``fit_full`` of one (rate, fold seed, config, fold index) task: train
    on the fold's training part and score its held-out part.

    Returns (held-out accuracy, converged).
    """
    rate, fold_seed, cfg, fold = task
    ds = _labels(source, rate)
    held_out = kfold_plan(ds.m, source[2], fold_seed) == fold
    mdl, acc = fit_full(subset(ds, ~held_out), subset(ds, held_out), cfg)
    return acc, mdl.converged


def _fit_task(source, task):
    """``fit_full`` of one (rate, config) task on the test set."""
    rate, cfg = task
    return fit_full(_labels(source, rate), source[1], cfg)


@contextmanager
def _tasks(source, parallelism, n_cv_tasks):
    """Yield ``run(fn, tasks)``, which returns ``fn(source, task)`` of each
    task, in task order.

    At parallelism 1 the tasks run in the calling process. Otherwise they run
    in one pool of min(parallelism, n_cv_tasks) workers, which inherit the
    source through the initializer, and the calling process solves nothing.
    """
    if parallelism == 1:
        yield lambda fn, tasks: [fn(source, task) for task in tasks]
        return
    # loading the process pool takes about 20 ms, which a serial run need
    # not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(parallelism, n_cv_tasks),
        initializer=_init_worker,
        initargs=source,
    ) as ex:
        yield lambda fn, tasks: list(ex.map(partial(_in_worker, fn), tasks, chunksize=1))


@dataclass
class CvResult:
    """Grid-search outcome at one flip rate: per-config scores on one shared
    fold plan, and the winner's score on a test set or over repeated fold
    seeds when asked."""

    rate: float
    configs: list[TrainConfig]
    fold_accuracies: np.ndarray = field(repr=False)  # (n_configs, k)
    converged_folds: np.ndarray = field(repr=False)
    # fit_full(ds at this rate, test_ds, best): (model, test accuracy)
    test: tuple | None = field(default=None, repr=False)
    # the winner's mean CV accuracy at fold seeds seed, seed+1, ...
    repeated: np.ndarray | None = field(default=None, repr=False)

    @property
    def mean_accuracies(self) -> np.ndarray:
        return self.fold_accuracies.mean(axis=1)

    @property
    def best_index(self) -> int:
        # ties go to the earliest config; grid_configs puts the smallest
        # (C, delta, v, epsilon) first
        return int(np.argmax(self.mean_accuracies))

    @property
    def best(self) -> TrainConfig:
        return self.configs[self.best_index]

    @property
    def best_accuracy(self) -> float:
        return float(self.mean_accuracies[self.best_index])


def check_rates(rates) -> None:
    """Raise ValueError unless the flip rates lie in [0, 1] and none repeats."""
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must be in [0, 1], got {rate}")
    if len(set(rates)) < len(rates):
        raise ValueError(f"flip rates must not repeat, got {', '.join(map(str, rates))}")


def grid_search(
    ds: Dataset,
    configs: list[TrainConfig],
    k: int,
    seed: int,
    parallelism: int = 1,
    *,
    rates=(),
    test_ds: Dataset | None = None,
    repeats: int = 0,
) -> list[CvResult]:
    """Cross-validate every configuration in ``configs`` on one shared fold
    plan, on the clean labels and on the labels flipped at each of ``rates``.

    ``configs`` is in tie-break order, as ``grid_configs`` gives it: among
    configs of equal mean accuracy the earliest wins. Returns one result per
    rate of ``[0.0]`` and the nonzero ``rates`` in order; the labels of rate
    r are ``flip_labels(ds, r, seed)``. Each (rate, config, fold) triple is
    one task, and workers take them one at a time in rate-major, then
    config-major order, so a costly config spreads over every worker. Results
    are assembled in task order, so the outcome is identical for any
    parallelism degree.

    With ``test_ds``, each rate's winner is then refit by ``fit_full`` on
    that rate's labels (``test``); otherwise, with ``repeats``, it is
    cross-validated at fold seeds seed, seed+1, ... (``repeated``). Fold seed
    ``seed`` reuses the search's own scores; the other fold seeds run on the
    same processes as the search.
    """
    if not configs:
        raise ValueError("grid search needs at least one config")
    if test_ds is not None and test_ds.m == 0:
        raise ValueError("grid search needs a nonempty test set")
    if test_ds is not None and test_ds.n != ds.n:
        raise ValueError(f"dimension mismatch: dataset n={ds.n}, test set n={test_ds.n}")
    check_rates(rates)
    all_rates = [0.0] + [float(r) for r in rates if r != 0.0]
    kfold_plan(ds.m, k, seed)  # an impossible k fails here, before any solve
    tasks = [
        (rate, seed, cfg, fold) for rate in all_rates for cfg in configs for fold in range(k)
    ]
    with _tasks((ds, test_ds, k, seed), parallelism, len(tasks)) as run:
        scores = run(_score_folds, tasks)
        shape = (len(all_rates), len(configs), k)
        accs = np.reshape([acc for acc, _ in scores], shape)
        converged = np.reshape([conv for _, conv in scores], shape).sum(axis=2)
        results = [CvResult(r, configs, a, c) for r, a, c in zip(all_rates, accs, converged)]
        if test_ds is not None:
            fits = run(_fit_task, [(r.rate, r.best) for r in results])
            for result, fit in zip(results, fits):
                result.test = fit
        elif repeats:
            scores = run(_score_folds, [
                (r.rate, seed + rep, r.best, fold)
                for r in results for rep in range(1, repeats) for fold in range(k)
            ])
            accs = np.reshape([acc for acc, _ in scores], (len(results), repeats - 1, k))
            for result, part in zip(results, accs):
                best = result.fold_accuracies[result.best_index]
                result.repeated = np.vstack([best, part]).mean(axis=1)
    return results
