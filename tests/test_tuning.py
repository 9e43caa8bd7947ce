import numpy as np
import pytest

from slidesvm.admm import TrainConfig
from slidesvm.data import Dataset, gaussian_clusters, kfold_plan
from slidesvm.loss import SlideParams
from slidesvm.tuning import (
    Grid,
    cross_validate,
    default_grid,
    fit_full,
    flip_experiment,
    grid_search,
    repeat_cv,
)

SMALL_GRID = Grid(
    c_values=(0.5, 1.0),
    delta_values=(1.0,),
    v_values=(0.5, 1.0),
    K=300,
)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid.c_values) == 15 and len(grid.delta_values) == 15
        assert len(grid.v_values) == 10
        assert len(grid.configs()) == 2250

    def test_default_grid_contains_unit(self):
        grid = default_grid()
        assert 1.0 in grid.c_values and 1.0 in grid.delta_values
        assert min(grid.c_values) == pytest.approx(2.0 ** (-3.5))
        assert max(grid.c_values) == pytest.approx(2.0**3.5)

    def test_epsilon_rule(self):
        for cfg in default_grid().configs():
            assert cfg.slide.epsilon == cfg.slide.v / 10.0
        cfg = next(c for c in default_grid().configs() if c.slide.v == 0.5)
        assert cfg.slide.epsilon == 0.05

    def test_default_solver_settings(self):
        grid = default_grid()
        assert (grid.eta, grid.K, grid.tol) == (1.618, 1000, 1e-3)

    def test_configs_ordered_ascending(self):
        keys = [
            (c.C, c.delta, c.slide.v) for c in SMALL_GRID.configs()
        ]
        assert keys == sorted(keys)

    def test_explicit_epsilon_values(self):
        grid = Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(0.5,), eps_values=(0.0, 0.1))
        eps = [c.slide.epsilon for c in grid.configs()]
        assert eps == [0.0, 0.1]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(c_values=(), delta_values=(1.0,), v_values=(0.5,))
        with pytest.raises(ValueError):
            Grid(c_values=(1.0,), delta_values=(-1.0,), v_values=(0.5,))
        with pytest.raises(ValueError):
            Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(1.5,))
        with pytest.raises(ValueError, match="C must be finite"):
            Grid(c_values=(float("nan"),), delta_values=(1.0,), v_values=(0.5,))
        with pytest.raises(ValueError, match="epsilon"):
            Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(0.5,), eps_values=(0.5,))


class TestCrossValidate:
    def test_separable_data_scores_one(self):
        ds = gaussian_clusters(60, seed=10, center=4.0)
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=300)
        mean, folds = cross_validate(ds, cfg, k=5, seed=3)
        assert mean == 1.0 and np.all(folds == 1.0)

    def test_deterministic(self):
        ds = gaussian_clusters(40, seed=11, center=1.0)
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=200)
        a = cross_validate(ds, cfg, k=4, seed=9)
        b = cross_validate(ds, cfg, k=4, seed=9)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_two_folds_of_two(self):
        ds = gaussian_clusters(4, seed=12, center=4.0)
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=50)
        _, folds = cross_validate(ds, cfg, k=2, seed=0)
        assert folds.shape == (2,)

    def test_rejects_k_below_two(self):
        ds = gaussian_clusters(10, seed=0)
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0))
        with pytest.raises(ValueError):
            cross_validate(ds, cfg, k=1, seed=0)

    def test_single_class_fold_still_scores(self):
        # both folds end up single-class; training must not error
        base = gaussian_clusters(4, seed=1, center=4.0)
        ds = Dataset(base.X, np.ones(base.m))
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=50)
        mean, folds = cross_validate(ds, cfg, k=2, seed=0)
        assert 0.0 <= mean <= 1.0


class TestGridSearch:
    def test_single_config_grid(self):
        ds = gaussian_clusters(40, seed=13, center=4.0)
        grid = Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(1.0,), K=200)
        result = grid_search(ds, grid, k=4, seed=2)
        assert result.best == grid.configs()[0]
        assert result.fold_accuracies.shape == (1, 4)

    def test_shared_fold_plan_digest(self):
        ds = gaussian_clusters(40, seed=14, center=4.0)
        result = grid_search(ds, SMALL_GRID, k=4, seed=5)
        expected = kfold_plan(ds.m, 4, seed=5)
        assert np.array_equal(result.fold_plan.assignments, expected.assignments)

    def test_parallel_matches_serial_bytewise(self):
        ds = gaussian_clusters(48, seed=15, center=1.5)
        serial = grid_search(ds, SMALL_GRID, k=4, seed=6, parallelism=1)
        parallel = grid_search(ds, SMALL_GRID, k=4, seed=6, parallelism=4)
        assert serial.configs == parallel.configs
        assert serial.fold_accuracies.tobytes() == parallel.fold_accuracies.tobytes()
        assert serial.mean_accuracies.tobytes() == parallel.mean_accuracies.tobytes()
        assert np.array_equal(serial.converged_folds, parallel.converged_folds)
        assert serial.best_index == parallel.best_index

    def test_equal_accuracy_breaks_toward_smaller_c(self):
        ds = gaussian_clusters(40, seed=16, center=5.0)
        grid = Grid(c_values=(4.0, 0.25), delta_values=(1.0,), v_values=(1.0,), K=300)
        result = grid_search(ds, grid, k=4, seed=7)
        assert np.all(result.mean_accuracies == 1.0)
        assert result.best.C == 0.25

    def test_ramp_and_no_dead_zone_configs_run_in_same_pipeline(self):
        # the ramp baseline is (eps=0, v=1); the no-dead-zone variant (0, v<1)
        ds = gaussian_clusters(40, seed=18, center=3.0)
        grid = Grid(
            c_values=(1.0,), delta_values=(1.0,), v_values=(0.5, 1.0),
            eps_values=(0.0,), K=300,
        )
        result = grid_search(ds, grid, k=4, seed=9)
        slides = [c.slide for c in result.configs]
        assert SlideParams(0.0, 1.0) in slides and SlideParams(0.0, 0.5) in slides
        assert result.fold_accuracies.shape == (2, 4)


class TestRepeatCv:
    def test_deterministic_and_averaged(self):
        ds = gaussian_clusters(40, seed=19, center=2.0)
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=200)
        mean1, per1 = repeat_cv(ds, cfg, k=4, n_repeats=3, seed=11)
        mean2, per2 = repeat_cv(ds, cfg, k=4, n_repeats=3, seed=11)
        assert mean1 == mean2 and np.array_equal(per1, per2)
        assert mean1 == pytest.approx(per1.mean())


class TestFlipExperiment:
    def test_zero_rate_equals_plain_pipeline(self):
        train_ds = gaussian_clusters(40, seed=20, center=3.0)
        test_ds = gaussian_clusters(30, seed=21, center=3.0)
        rows = flip_experiment(train_ds, test_ds, SMALL_GRID, rates=[0.0], seed=4, k=4)
        assert len(rows) == 1 and rows[0].rate == 0.0
        result = grid_search(train_ds, SMALL_GRID, k=4, seed=4)
        _, _, expected_acc = fit_full(train_ds, test_ds, result.best)
        assert rows[0].config == result.best
        assert rows[0].test_accuracy == expected_acc

    def test_table_has_baseline_plus_rates(self):
        train_ds = gaussian_clusters(40, seed=22, center=3.0)
        test_ds = gaussian_clusters(20, seed=23, center=3.0)
        grid = Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(1.0,), K=200)
        rows = flip_experiment(train_ds, test_ds, grid, rates=[0.05, 0.15], seed=5, k=4)
        assert [r.rate for r in rows] == [0.0, 0.05, 0.15]

    def test_deterministic(self):
        train_ds = gaussian_clusters(30, seed=24, center=3.0)
        test_ds = gaussian_clusters(20, seed=25, center=3.0)
        grid = Grid(c_values=(1.0,), delta_values=(1.0,), v_values=(1.0,), K=200)
        a = flip_experiment(train_ds, test_ds, grid, rates=[0.1], seed=6, k=3)
        b = flip_experiment(train_ds, test_ds, grid, rates=[0.1], seed=6, k=3)
        assert a == b

    def test_rejects_bad_inputs(self):
        train_ds = gaussian_clusters(20, seed=26)
        test_ds = gaussian_clusters(10, seed=27)
        with pytest.raises(ValueError):
            flip_experiment(train_ds, test_ds, SMALL_GRID, rates=[1.5], seed=0, k=3)
