import itertools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import default_grid, gaussian_clusters
from oracles import cross_validate, repeat_cv

import slidesvm
from slidesvm import tuning
from slidesvm.data import Dataset, flip_labels
from slidesvm.loss import SlideParams
from slidesvm.tuning import (
    STOCK_POWERS,
    STOCK_V_VALUES,
    fit_full,
    grid_configs,
    grid_search,
)

SMALL_GRID = grid_configs((0.5, 1.0), (1.0,), (0.5, 1.0), K=300)
# three configs: at three rates and three folds, 27 tasks, which two workers
# cannot share evenly
ODD_GRID = grid_configs((0.5, 1.0, 2.0), (1.0,), (0.5,), K=100)


class TestGrid:
    def test_default_grid_shape(self):
        # 15 x 15 x 10, one epsilon per v
        configs = default_grid()
        assert len(STOCK_POWERS) == 15 and len(STOCK_V_VALUES) == 10
        assert len(configs) == 2250
        assert [(c.C, c.delta, c.slide.v) for c in configs] == list(
            itertools.product(STOCK_POWERS, STOCK_POWERS, STOCK_V_VALUES)
        )

    def test_default_grid_contains_unit(self):
        c_values = {cfg.C for cfg in default_grid()}
        assert c_values == {cfg.delta for cfg in default_grid()}
        assert 1.0 in c_values
        assert min(c_values) == pytest.approx(2.0 ** (-3.5))
        assert max(c_values) == pytest.approx(2.0**3.5)

    def test_epsilon_rule(self):
        for cfg in default_grid():
            assert cfg.slide.epsilon == cfg.slide.v / 10.0
        cfg = next(c for c in default_grid() if c.slide.v == 0.5)
        assert cfg.slide.epsilon == 0.05

    def test_default_solver_settings(self):
        for cfg in default_grid():
            assert (cfg.eta, cfg.K, cfg.tol) == (1.618, 1000, 1e-3)

    def test_configs_ordered_ascending(self):
        # given out of order, built in ascending (C, delta, v, epsilon) order
        configs = grid_configs((2.0, 0.5), (4.0, 1.0), (1.0, 0.3), (0.2, 0.0), K=300)
        keys = [(c.C, c.delta, c.slide.v, c.slide.epsilon) for c in configs]
        assert keys == sorted(keys) and len(keys) == 16
        keys = [(c.C, c.delta, c.slide.v) for c in SMALL_GRID]
        assert keys == sorted(keys)

    def test_explicit_epsilon_values(self):
        configs = grid_configs((1.0,), (1.0,), (0.5,), (0.1, 0.0))
        eps = [c.slide.epsilon for c in configs]
        assert eps == [0.0, 0.1]

    def test_validation(self):
        for name, lists in [
            ("c_values", ((), (1.0,), (0.5,))),
            ("delta_values", ((1.0,), (), (0.5,))),
            ("v_values", ((1.0,), (1.0,), ())),
            ("eps_values", ((1.0,), (1.0,), (0.5,), ())),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be nonempty$"):
                grid_configs(*lists)
        with pytest.raises(ValueError):
            grid_configs((1.0,), (-1.0,), (0.5,))
        with pytest.raises(ValueError):
            grid_configs((1.0,), (1.0,), (1.5,))
        with pytest.raises(ValueError, match="C must be finite"):
            grid_configs((float("nan"),), (1.0,), (0.5,))
        with pytest.raises(ValueError, match="epsilon"):
            grid_configs((1.0,), (1.0,), (0.5,), (0.5,))
        with pytest.raises(ValueError, match="eta"):
            grid_configs((1.0,), (1.0,), (0.5,), eta=2.0)
        with pytest.raises(ValueError, match="K must be at least 1"):
            grid_configs((1.0,), (1.0,), (0.5,), K=0)

    def test_solver_settings_reach_every_config(self):
        configs = grid_configs((1.0, 2.0), (1.0,), (0.5, 1.0), eta=1.0, K=7, tol=1e-5)
        assert [(c.eta, c.K, c.tol) for c in configs] == [(1.0, 7, 1e-5)] * 4

    def test_search_rejects_an_empty_config_list(self):
        with pytest.raises(ValueError, match="at least one config"):
            grid_search(gaussian_clusters(10, seed=0), [], k=2, seed=0)


def one_config(K):
    """The grid of the single config C = 1, delta = 1, v = 1, epsilon = 0.1."""
    return grid_configs((1.0,), (1.0,), (1.0,), K=K)


class TestCrossValidate:
    def test_separable_data_scores_one(self):
        ds = gaussian_clusters(60, seed=10, center=4.0)
        [result] = grid_search(ds, one_config(300), k=5, seed=3)
        assert result.best_accuracy == 1.0 and np.all(result.fold_accuracies == 1.0)

    def test_deterministic(self):
        ds = gaussian_clusters(40, seed=11, center=1.0)
        [a] = grid_search(ds, one_config(200), k=4, seed=9)
        [b] = grid_search(ds, one_config(200), k=4, seed=9)
        assert a.mean_accuracies.tobytes() == b.mean_accuracies.tobytes()
        assert a.fold_accuracies.tobytes() == b.fold_accuracies.tobytes()

    def test_two_folds_of_two(self):
        ds = gaussian_clusters(4, seed=12, center=4.0)
        [result] = grid_search(ds, one_config(50), k=2, seed=0)
        assert result.fold_accuracies.shape == (1, 2)

    def test_rejects_k_below_two(self):
        ds = gaussian_clusters(10, seed=0)
        with pytest.raises(ValueError):
            grid_search(ds, one_config(1000), k=1, seed=0)

    def test_empty_test_set_is_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the test set")

        monkeypatch.setattr(tuning, "train", no_solve)
        ds = gaussian_clusters(10, seed=0)
        empty = Dataset(np.empty((0, ds.n)), np.empty(0))
        with pytest.raises(ValueError, match="nonempty test set"):
            grid_search(ds, one_config(50), k=2, seed=0, test_ds=empty)

    @pytest.mark.parametrize("n", [1, 3])
    def test_test_set_of_another_width_is_rejected_before_any_solve(self, monkeypatch, n):
        solves, solve = [], tuning.train

        def counting(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(tuning, "train", counting)
        ds = gaussian_clusters(10, seed=0)
        other = Dataset(np.ones((4, n)), np.array([1.0, -1.0, 1.0, -1.0]))
        with pytest.raises(ValueError, match=f"^dimension mismatch: dataset n=2, test set n={n}$"):
            grid_search(ds, one_config(50), k=2, seed=0, test_ds=other)
        assert solves == []

    def test_single_class_fold_still_scores(self):
        # both folds end up single-class; training must not error
        base = gaussian_clusters(4, seed=1, center=4.0)
        ds = Dataset(base.X, np.ones(base.m))
        [result] = grid_search(ds, one_config(50), k=2, seed=0)
        assert 0.0 <= result.best_accuracy <= 1.0

    def test_every_config_scores_as_the_serial_reference(self):
        ds = gaussian_clusters(40, seed=17, center=1.5)
        [result] = grid_search(ds, SMALL_GRID, k=4, seed=8)
        for cfg, accs in zip(result.configs, result.fold_accuracies):
            assert accs.tobytes() == cross_validate(ds, cfg, k=4, seed=8).tobytes()


class TestGridSearch:
    def test_single_config_grid(self):
        ds = gaussian_clusters(40, seed=13, center=4.0)
        grid = grid_configs((1.0,), (1.0,), (1.0,), K=200)
        [result] = grid_search(ds, grid, k=4, seed=2)
        assert result.best == grid[0]
        assert result.fold_accuracies.shape == (1, 4)

    def test_parallel_matches_serial_bytewise(self):
        ds = gaussian_clusters(48, seed=15, center=1.5)
        [serial] = grid_search(ds, SMALL_GRID, k=4, seed=6, parallelism=1)
        [parallel] = grid_search(ds, SMALL_GRID, k=4, seed=6, parallelism=4)
        assert serial.configs == parallel.configs
        assert serial.fold_accuracies.tobytes() == parallel.fold_accuracies.tobytes()
        assert serial.mean_accuracies.tobytes() == parallel.mean_accuracies.tobytes()
        assert np.array_equal(serial.converged_folds, parallel.converged_folds)
        assert serial.best_index == parallel.best_index

    @pytest.mark.parametrize(
        "grid, converged",
        [
            # fewer configs than workers
            (grid_configs((1.0,), (1.0,), (0.5,), K=40), None),
            # C/delta = 0.125 at v = 0.2 puts the tie point at 0.52, so the
            # first config is trivial; every fold of the others hits K
            (
                grid_configs((0.125, 4.0), (1.0,), (0.2, 1.0), K=40),
                [5, 0, 0, 0],
            ),
        ],
        ids=["one config", "trivial and capped"],
    )
    def test_same_bytes_at_one_two_and_three_workers(self, grid, converged):
        ds = gaussian_clusters(48, seed=15, center=1.0)
        runs = [grid_search(ds, grid, k=5, seed=6, parallelism=p)[0] for p in (1, 2, 3)]
        if converged is not None:
            assert [cfg.thresholds.tie_point <= 1.0 for cfg in grid] == [
                True, False, False, False
            ]
            assert runs[0].converged_folds.tolist() == converged
        for other in runs[1:]:
            assert other.configs == runs[0].configs
            assert other.fold_accuracies.tobytes() == runs[0].fold_accuracies.tobytes()
            assert other.mean_accuracies.tobytes() == runs[0].mean_accuracies.tobytes()
            assert other.converged_folds.tobytes() == runs[0].converged_folds.tobytes()
            assert other.best_index == runs[0].best_index

    def test_equal_accuracy_breaks_toward_smaller_c(self):
        ds = gaussian_clusters(40, seed=16, center=5.0)
        grid = grid_configs((4.0, 0.25), (1.0,), (1.0,), K=300)
        [result] = grid_search(ds, grid, k=4, seed=7)
        assert np.all(result.mean_accuracies == 1.0)
        assert result.best.C == 0.25

    def test_ramp_and_no_dead_zone_configs_run_in_same_pipeline(self):
        # the ramp baseline is (eps=0, v=1); the no-dead-zone variant (0, v<1)
        ds = gaussian_clusters(40, seed=18, center=3.0)
        grid = grid_configs((1.0,), (1.0,), (0.5, 1.0), (0.0,), K=300)
        [result] = grid_search(ds, grid, k=4, seed=9)
        slides = [c.slide for c in result.configs]
        assert SlideParams(0.0, 1.0) in slides and SlideParams(0.0, 0.5) in slides
        assert result.fold_accuracies.shape == (2, 4)


class TestRepeatCv:
    def test_deterministic_and_averaged(self):
        ds = gaussian_clusters(40, seed=19, center=2.0)
        runs = [grid_search(ds, one_config(200), k=4, seed=11, repeats=3)[0] for _ in range(2)]
        assert runs[0].repeated.tobytes() == runs[1].repeated.tobytes()
        assert runs[0].repeated.shape == (3,)
        # fold seed 11 is the search's own cross-validation
        assert runs[0].repeated[0] == pytest.approx(runs[0].best_accuracy)

    def test_repeats_reuse_the_searchs_folds(self, monkeypatch):
        # fold seed ``seed`` was solved by the search; only seed+1, ... run again
        calls = []
        solve = tuning.train

        def counting(ds, cfg):
            calls.append(cfg)
            return solve(ds, cfg)

        monkeypatch.setattr(tuning, "train", counting)
        ds = gaussian_clusters(40, seed=19, center=2.0)
        [result] = grid_search(ds, SMALL_GRID, k=4, seed=11, repeats=3)
        assert len(calls) == len(SMALL_GRID) * 4 + (3 - 1) * 4
        assert calls[-8:] == [result.best] * 8


def flip_rows(results):
    """The flip protocol's table: (rate, config, cv accuracy, test accuracy,
    converged) per rate."""
    return [
        (r.rate, r.best, r.best_accuracy, r.test[1], r.test[0].converged) for r in results
    ]


class TestFlipExperiment:
    def test_zero_rate_equals_plain_pipeline(self):
        train_ds = gaussian_clusters(40, seed=20, center=3.0)
        test_ds = gaussian_clusters(30, seed=21, center=3.0)
        results = grid_search(train_ds, SMALL_GRID, k=4, seed=4, rates=[0.0], test_ds=test_ds)
        assert [r.rate for r in results] == [0.0]
        [plain] = grid_search(train_ds, SMALL_GRID, k=4, seed=4)
        _, expected_acc = fit_full(train_ds, test_ds, plain.best)
        assert results[0].best == plain.best
        assert results[0].fold_accuracies.tobytes() == plain.fold_accuracies.tobytes()
        assert results[0].test[1] == expected_acc

    def test_table_has_baseline_plus_rates(self):
        train_ds = gaussian_clusters(40, seed=22, center=3.0)
        test_ds = gaussian_clusters(20, seed=23, center=3.0)
        grid = grid_configs((1.0,), (1.0,), (1.0,), K=200)
        results = grid_search(train_ds, grid, k=4, seed=5, rates=[0.05, 0.15], test_ds=test_ds)
        assert [r.rate for r in results] == [0.0, 0.05, 0.15]

    def test_deterministic(self):
        train_ds = gaussian_clusters(30, seed=24, center=3.0)
        test_ds = gaussian_clusters(20, seed=25, center=3.0)
        grid = grid_configs((1.0,), (1.0,), (1.0,), K=200)
        a = grid_search(train_ds, grid, k=3, seed=6, rates=[0.1], test_ds=test_ds)
        b = grid_search(train_ds, grid, k=3, seed=6, rates=[0.1], test_ds=test_ds)
        assert flip_rows(a) == flip_rows(b)

    def test_parallel_rows_equal_serial_rows(self):
        train_ds = gaussian_clusters(40, seed=28, center=1.5)
        test_ds = gaussian_clusters(20, seed=29, center=1.5)
        serial = grid_search(train_ds, SMALL_GRID, k=4, seed=3, rates=[0.1], test_ds=test_ds)
        parallel = grid_search(train_ds, SMALL_GRID, k=4, seed=3, parallelism=2, rates=[0.1],
                               test_ds=test_ds)
        assert flip_rows(serial) == flip_rows(parallel)

    def test_rejects_bad_inputs(self):
        train_ds = gaussian_clusters(20, seed=26)
        test_ds = gaussian_clusters(10, seed=27)
        with pytest.raises(ValueError, match="flip rate"):
            grid_search(train_ds, SMALL_GRID, k=3, seed=0, rates=[1.5], test_ds=test_ds)
        with pytest.raises(ValueError, match="must not repeat"):
            grid_search(train_ds, SMALL_GRID, k=3, seed=0, rates=[0.1, 0.1], test_ds=test_ds)

    def test_rows_equal_at_one_two_and_three_workers(self):
        train_ds = gaussian_clusters(36, seed=30, center=1.2)
        test_ds = gaussian_clusters(20, seed=31, center=1.2)
        runs = [
            grid_search(train_ds, ODD_GRID, k=3, seed=8, parallelism=p, rates=[0.05, 0.15],
                        test_ds=test_ds)
            for p in (1, 2, 3)
        ]
        assert [r.rate for r in runs[0]] == [0.0, 0.05, 0.15]
        for other in runs[1:]:
            assert flip_rows(other) == flip_rows(runs[0])
            for a, b in zip(other, runs[0]):
                assert a.fold_accuracies.tobytes() == b.fold_accuracies.tobytes()
                assert a.converged_folds.tobytes() == b.converged_folds.tobytes()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_flipped_rows_equal_a_search_and_fit_on_flipped_labels(self, parallelism):
        train_ds = gaussian_clusters(40, seed=37, center=1.5)
        test_ds = gaussian_clusters(20, seed=38, center=1.5)
        results = grid_search(train_ds, SMALL_GRID, k=4, seed=5, parallelism=parallelism,
                              rates=[0.1, 0.25], test_ds=test_ds)
        assert [r.rate for r in results] == [0.0, 0.1, 0.25]
        for row in results[1:]:
            flipped = flip_labels(train_ds, row.rate, 5)
            [result] = grid_search(flipped, SMALL_GRID, k=4, seed=5)
            mdl, acc = fit_full(flipped, test_ds, result.best)
            assert flip_rows([row]) == [
                (row.rate, result.best, result.best_accuracy, acc, mdl.converged)
            ]
            assert row.fold_accuracies.tobytes() == result.fold_accuracies.tobytes()
        # the flips reach the search: each rate scores differently
        assert len({r.best_accuracy for r in results}) == len(results)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_rates_repeats_equal_repeat_cv_on_its_flipped_labels(self, parallelism):
        train_ds = gaussian_clusters(40, seed=39, center=1.5)
        results = grid_search(train_ds, SMALL_GRID, k=4, seed=2, parallelism=parallelism,
                              rates=[0.1, 0.25], repeats=3)
        assert [r.rate for r in results] == [0.0, 0.1, 0.25]
        for row in results:
            flipped = flip_labels(train_ds, row.rate, 2)
            means = repeat_cv(flipped, row.best, k=4, n_repeats=3, seed=2)
            assert row.repeated.tobytes() == means.tobytes()
            assert row.test is None

    def test_parallel_run_solves_nothing_in_the_calling_process(self):
        # one pool serves every rate's search and every final fit, so the
        # parent never loads LAPACK. The probe imports the tests' data helpers.
        src, tests = Path(slidesvm.__file__).parent.parent, Path(__file__).parent
        path = os.pathsep.join([str(src), str(tests)])
        done = subprocess.run(
            [sys.executable, "-c", _ONE_POOL_PROBE],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["pools", "1", "rows", "3", "lapack", "False"]


_ONE_POOL_PROBE = """
import concurrent.futures as cf
import sys

from helpers import gaussian_clusters

from slidesvm.tuning import grid_configs, grid_search

pools = []


class Counting(cf.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        super().__init__(*args, **kwargs)


cf.ProcessPoolExecutor = Counting
grid = grid_configs((0.5, 1.0), (1.0,), (1.0,), K=100)
rows = grid_search(gaussian_clusters(30, seed=1, center=2.0), grid, k=3, seed=3,
                   parallelism=2, rates=[0.05, 0.15],
                   test_ds=gaussian_clusters(10, seed=2, center=2.0))
print("pools", len(pools), "rows", len(rows), "lapack", "scipy.linalg._flapack" in sys.modules)
"""


class TestThreads:
    def test_serial_searches_in_two_threads_are_independent(self, monkeypatch):
        grid = grid_configs((0.5, 1.0), (1.0,), (0.5, 1.0), K=50)
        sets = [gaussian_clusters(80, seed=1, center=1.0),
                gaussian_clusters(120, seed=2, center=0.5)]
        alone = [grid_search(ds, grid, k=4, seed=3)[0] for ds in sets]
        barrier = threading.Barrier(2, timeout=60)
        started = set()
        solve = tuning.train

        def meeting(ds, cfg):
            # each thread's first solve waits until both searches have begun
            if threading.get_ident() not in started:
                started.add(threading.get_ident())
                barrier.wait()
            return solve(ds, cfg)

        monkeypatch.setattr(tuning, "train", meeting)
        with ThreadPoolExecutor(max_workers=2) as ex:
            together = list(ex.map(lambda ds: grid_search(ds, grid, k=4, seed=3)[0], sets))
        assert len(started) == 2
        for a, b in zip(alone, together):
            assert a.fold_accuracies.tobytes() == b.fold_accuracies.tobytes()
            assert a.converged_folds.tobytes() == b.converged_folds.tobytes()


class TestPool:
    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        import concurrent.futures as cf

        asked = []

        class Recording(cf.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cf, "ProcessPoolExecutor", Recording)
        ds = gaussian_clusters(24, seed=34, center=3.0)
        grid = grid_configs((1.0,), (1.0,), (1.0,), K=100)
        [serial] = grid_search(ds, grid, k=4, seed=1)
        [pooled] = grid_search(ds, grid, k=4, seed=1, parallelism=50)
        assert asked == [4]
        assert pooled.fold_accuracies.tobytes() == serial.fold_accuracies.tobytes()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_winner_scores_match_the_library_calls(self, parallelism):
        train_ds = gaussian_clusters(40, seed=35, center=1.5)
        test_ds = gaussian_clusters(20, seed=36, center=1.5)
        [tested] = grid_search(train_ds, SMALL_GRID, k=4, seed=3, parallelism=parallelism,
                             test_ds=test_ds)
        mdl, acc = fit_full(train_ds, test_ds, tested.best)
        assert tested.test[1] == acc and tested.test[0].converged == mdl.converged
        assert tested.repeated is None
        [repeated] = grid_search(train_ds, SMALL_GRID, k=4, seed=3, parallelism=parallelism,
                               repeats=3)
        means = repeat_cv(train_ds, repeated.best, k=4, n_repeats=3, seed=3)
        assert repeated.repeated.tobytes() == means.tobytes()
        assert repeated.test is None
