"""Hyperparameter tuning: k-fold cross-validation, grid search over
(C, delta, v), and the label-flip robustness driver.

All configurations inside one grid search share a single fold plan, and the
per-fold scaled datasets are materialized once, so a search differs across
parallelism degrees only in wall time, never in output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .admm import TrainConfig, train
from .data import Dataset, FoldPlan, apply_scaling, fit_scaling, flip_labels, kfold_plan, subset
from .loss import SlideParams
from .model import accuracy

__all__ = [
    "Grid",
    "CvResult",
    "FlipRow",
    "default_grid",
    "cross_validate",
    "grid_search",
    "repeat_cv",
    "flip_experiment",
    "fit_full",
]

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Grid:
    """Cartesian grid over (C, delta, v) with fixed solver settings.

    epsilon follows v/10 unless explicit values are given, in which case the
    epsilon list is crossed with the v list.
    """

    c_values: tuple
    delta_values: tuple
    v_values: tuple
    eps_values: tuple | None = None
    eta: float = 1.618
    K: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        for name in ("c_values", "delta_values", "v_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        self.configs()  # TrainConfig and SlideParams check every value

    def configs(self) -> list[TrainConfig]:
        """All configurations, ordered ascending by (C, delta, v, epsilon).

        The ordering backs the tie-break rule: among equal-accuracy configs
        the earliest one wins.
        """
        out = []
        for c in sorted(self.c_values):
            for d in sorted(self.delta_values):
                for v in sorted(self.v_values):
                    eps_list = (
                        (v / 10.0,) if self.eps_values is None else self.eps_values
                    )
                    for eps in sorted(eps_list):
                        out.append(
                            TrainConfig(
                                C=float(c),
                                delta=float(d),
                                slide=SlideParams(float(eps), float(v)),
                                eta=self.eta,
                                K=self.K,
                                tol=self.tol,
                            )
                        )
        return out


def default_grid() -> Grid:
    """The stock grid: C and delta over the 15 powers sqrt(2)^-7..sqrt(2)^7,
    v over 0.1..1.0, epsilon = v/10, eta=1.618, K=1000, tol=1e-3."""
    powers = tuple(float(SQRT2**i) for i in range(-7, 8))
    vs = tuple(round(0.1 * i, 1) for i in range(1, 11))
    return Grid(c_values=powers, delta_values=powers, v_values=vs)


def _scaled_folds(ds: Dataset, plan: FoldPlan):
    """Per-fold (train, heldout) datasets, scaled by the train portion only."""
    folds = []
    for fold in range(plan.k):
        test_idx, train_idx = plan.fold_indices(fold)
        tr, te = subset(ds, train_idx), subset(ds, test_idx)
        smap = fit_scaling(tr)
        folds.append((apply_scaling(tr, smap), apply_scaling(te, smap)))
    return folds


def _score_folds(folds, cfg: TrainConfig):
    accs = np.empty(len(folds))
    converged = 0
    for i, (tr, te) in enumerate(folds):
        mdl, diag = train(tr, cfg)
        accs[i] = accuracy(mdl, te)
        converged += int(diag.converged)
    return accs, converged


def cross_validate(ds: Dataset, cfg: TrainConfig, k: int, seed: int):
    """Mean and per-fold held-out accuracy under a seeded fold plan.

    Scaling is refit on each fold's training portion. Single-class folds are
    trained like any other; accuracy stays well defined.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    plan = kfold_plan(ds.m, k, seed)
    accs, _ = _score_folds(_scaled_folds(ds, plan), cfg)
    return float(accs.mean()), accs


_WORKER_FOLDS = None


def _init_worker(folds):
    global _WORKER_FOLDS
    _WORKER_FOLDS = folds


def _eval_config(cfg: TrainConfig):
    accs, converged = _score_folds(_WORKER_FOLDS, cfg)
    return accs, converged


@dataclass
class CvResult:
    """Grid-search outcome: per-config scores on one shared fold plan."""

    configs: list[TrainConfig]
    fold_accuracies: np.ndarray = field(repr=False)  # (n_configs, k)
    mean_accuracies: np.ndarray = field(repr=False)
    converged_folds: np.ndarray = field(repr=False)
    best_index: int
    fold_plan: FoldPlan = field(repr=False)

    @property
    def best(self) -> TrainConfig:
        return self.configs[self.best_index]

    @property
    def best_accuracy(self) -> float:
        return float(self.mean_accuracies[self.best_index])


def _pick_best(configs, means) -> int:
    # max mean accuracy; ties prefer smaller C, then delta, then v, then eps
    keys = [
        (-means[i], cfg.C, cfg.delta, cfg.slide.v, cfg.slide.epsilon)
        for i, cfg in enumerate(configs)
    ]
    return min(range(len(configs)), key=keys.__getitem__)


def grid_search(
    ds: Dataset, grid: Grid, k: int, seed: int, parallelism: int = 1
) -> CvResult:
    """Cross-validate every grid configuration on one shared fold plan.

    Workers evaluate disjoint configs on the same immutable fold data;
    results are assembled in config order, so the outcome is identical for
    any parallelism degree.
    """
    configs = grid.configs()
    plan = kfold_plan(ds.m, k, seed)
    folds = _scaled_folds(ds, plan)

    if parallelism > 1:
        chunk = max(1, len(configs) // (parallelism * 4))
        with ProcessPoolExecutor(
            max_workers=parallelism, initializer=_init_worker, initargs=(folds,)
        ) as ex:
            results = list(ex.map(_eval_config, configs, chunksize=chunk))
    else:
        results = [(_score_folds(folds, cfg)) for cfg in configs]

    fold_accs = np.vstack([accs for accs, _ in results])
    converged = np.array([conv for _, conv in results], dtype=np.int64)
    means = fold_accs.mean(axis=1)
    best = _pick_best(configs, means)
    return CvResult(configs, fold_accs, means, converged, best, plan)


def repeat_cv(
    ds: Dataset, cfg: TrainConfig, k: int, n_repeats: int, seed: int
):
    """Mean accuracy over ``n_repeats`` distinct fold seeds (seed, seed+1, ...).

    This is the reporting mode for datasets that ship without a test split.
    """
    means = np.array(
        [cross_validate(ds, cfg, k, seed + r)[0] for r in range(n_repeats)]
    )
    return float(means.mean()), means


def fit_full(train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig):
    """Scale by the full training split, train, and score the test split.

    Returns (model, diagnostics, test_accuracy).
    """
    smap = fit_scaling(train_ds)
    mdl, diag = train(apply_scaling(train_ds, smap), cfg)
    return mdl, diag, accuracy(mdl, apply_scaling(test_ds, smap))


@dataclass(frozen=True)
class FlipRow:
    rate: float
    config: TrainConfig
    cv_accuracy: float
    test_accuracy: float
    converged: bool


def flip_experiment(
    train_ds: Dataset,
    test_ds: Dataset,
    grid: Grid,
    rates,
    seed: int,
    k: int = 10,
    parallelism: int = 1,
) -> list[FlipRow]:
    """Label-noise robustness protocol.

    For the clean baseline and each flip rate: corrupt the training labels
    with a seeded flip, grid-search on the corrupted training set, retrain the
    winning config on the full corrupted training set, and score the untouched
    test set. The rate-0 row is always included.
    """
    if test_ds.m == 0:
        raise ValueError("flip experiment needs a nonempty test set")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must be in [0, 1], got {rate}")
    all_rates = [0.0] + [float(r) for r in rates if r != 0.0]

    rows = []
    for rate in all_rates:
        flipped = flip_labels(train_ds, rate, seed) if rate > 0.0 else train_ds
        result = grid_search(flipped, grid, k=k, seed=seed, parallelism=parallelism)
        mdl, diag, test_acc = fit_full(flipped, test_ds, result.best)
        rows.append(
            FlipRow(
                rate=rate,
                config=result.best,
                cv_accuracy=result.best_accuracy,
                test_accuracy=test_acc,
                converged=diag.converged,
            )
        )
    return rows
