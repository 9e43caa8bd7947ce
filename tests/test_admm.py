import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from helpers import gaussian_clusters
from oracles import complement_mask, margin_violations, solve_direct, solve_smw, where_prox

from slidesvm import admm
from slidesvm.admm import (
    Residuals,
    TrainConfig,
    WorkingSet,
    check_proximal_stationarity,
    compute_z,
    objective_value,
    residuals,
    select_working_set,
    solve_w_system,
    train,
    update_b,
    update_lambda,
    update_u,
    update_w,
)
from slidesvm.data import Dataset
from slidesvm.loss import (
    SlideParams,
    prox_oracle,
    prox_slide_vector,
    prox_thresholds,
    slide_loss_sum,
)
from slidesvm.model import accuracy, dumps_model

P_WIDE = SlideParams(0.1, 1.0)


def dense_dataset(matrix, labels):
    return Dataset(
        np.atleast_2d(np.asarray(matrix, dtype=float)),
        np.asarray(labels, dtype=float),
    )


def make_cfg(C=0.5, delta=1.0, slide=P_WIDE, **kw):
    return TrainConfig(C=C, delta=delta, slide=slide, **kw)


def random_problem(rng, m, n):
    X = rng.normal(size=(m, n))
    y = rng.choice([-1.0, 1.0], size=m)
    return dense_dataset(X, y)


NO_ROWS = np.empty(0, dtype=np.int64)


class Iterate(NamedTuple):
    """A solver iterate (w, b, u, lambda) and the working set of the sweep
    that left it."""

    w: np.ndarray
    b: float
    u: np.ndarray
    lam: np.ndarray
    working_set: WorkingSet = WorkingSet(NO_ROWS, NO_ROWS)


def initial(m, n):
    """train's starting iterate: w = 0, b = 0, u = 1, lambda = 0."""
    return Iterate(np.zeros(n), 0.0, np.ones(m), np.zeros(m))


def returned(mdl, diag):
    """The iterate a solve returned: w and b from its model, the rest from
    its diagnostics."""
    return Iterate(mdl.w, mdl.b, diag.u, diag.lam, diag.working_set)


def iterates(ds, cfg, sweeps):
    """The initial iterate, then the iterate returned by ``train`` capped at
    K = 1, 2, ..., ``sweeps`` sweeps, up to the first converged run; and that
    last run's diagnostics, with its history."""
    states = [initial(ds.m, ds.n)]
    for k in range(1, sweeps + 1):
        mdl, diag = train(ds, dataclasses.replace(cfg, K=k), history=True)
        states.append(returned(mdl, diag))
        if diag.converged:
            break
    return states, diag


def fresh_z(state, ds, cfg):
    """z at ``state`` in plain numpy."""
    A = ds.X * ds.y[:, None]
    return 1.0 - A @ state.w - state.b * ds.y - state.lam / cfg.delta


def z_at(state, ds, cfg):
    """compute_z at ``state``, with its products computed here."""
    margins = 1.0 - ds.signed_matrix() @ state.w - state.b * ds.y
    return compute_z(margins, state.lam / cfg.delta)


def residuals_at(state, ds, cfg):
    """residuals at ``state``, with its products computed here."""
    A = ds.signed_matrix()
    idx = state.working_set.indices
    gap = 1.0 - state.u - A @ state.w - state.b * ds.y
    return residuals(
        state.w, state.u, state.lam, idx, ds.y, A[idx], gap, state.lam / cfg.delta, cfg
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(C=0.0)
        with pytest.raises(ValueError):
            make_cfg(delta=-1.0)
        with pytest.raises(ValueError):
            make_cfg(eta=1.62)  # above (1+sqrt(5))/2
        with pytest.raises(ValueError):
            make_cfg(tol=0.0)
        with pytest.raises(ValueError):
            make_cfg(K=0)
        for name in ("C", "delta", "tol"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    make_cfg(**{name: bad})
        # C and delta are fine alone, but gamma_c = C/delta overflows or
        # underflows to 0
        for C, delta in ((0.5, 1e-320), (1e-308, 1e308)):
            with pytest.raises(ValueError, match=r"^C/delta must be finite and positive"):
                make_cfg(C=C, delta=delta)

    def test_default_eta_is_legal(self):
        assert make_cfg().eta == 1.618 < (1.0 + math.sqrt(5.0)) / 2.0


class TestComputeZ:
    def test_initial_state_gives_ones(self):
        ds = gaussian_clusters(10, seed=0)
        z = z_at(initial(ds.m, ds.n), ds, make_cfg())
        assert np.array_equal(z, np.ones(10))

    def test_single_sample_arithmetic(self):
        ds = dense_dataset([[1.0, 0.0]], [1.0])
        state = Iterate(np.array([0.5, 0.0]), 0.25, np.ones(1), np.zeros(1))
        z = z_at(state, ds, make_cfg(delta=3.0))
        assert z == pytest.approx([0.25], abs=1e-15)

    def test_multiplier_shift(self):
        ds = gaussian_clusters(6, seed=1)
        delta = 2.5
        state = initial(ds.m, ds.n)._replace(lam=delta * np.ones(ds.m))
        z = z_at(state, ds, make_cfg(delta=delta))
        assert z == pytest.approx(np.zeros(ds.m), abs=1e-15)


class TestWorkingSet:
    # C/delta = 0.5 with (0.1, 1.0): pin branch up to 0.6555..., tie at 1.2777...
    def test_below_threshold_excluded(self):
        ws = select_working_set(np.array([-1.0, 0.05, 0.1]), np.zeros(3), make_cfg())
        assert ws.size == 0

    def test_ramp_regime_split(self):
        z = np.array([0.3, 0.8, 1.5])
        ws = select_working_set(z, np.zeros(3), make_cfg())
        assert list(ws.pinned) == [0]
        assert list(ws.shifted) == [1]  # 0.6556 <= 0.8 < 1.2778
        assert 2 not in ws.indices  # 1.5 beyond the tie point

    def test_tie_row_joins_only_with_nonzero_multiplier(self):
        tie = 1.0 + 0.5 / (2.0 * 0.9)
        z = np.array([tie])
        assert select_working_set(z, np.array([0.0]), make_cfg()).size == 0
        ws = select_working_set(z, np.array([-0.1]), make_cfg())
        assert list(ws.shifted) == [0]

    def test_pin_regime_has_no_shifted_rows(self):
        cfg = make_cfg(C=0.5, slide=SlideParams(0.1, 0.3))  # gamma_c=0.5 >= 0.08
        tie = math.sqrt(1.0) + 0.1
        z = np.array([0.2, tie, tie, 2.0])
        lam = np.array([0.0, 0.0, -0.3, 0.0])
        ws = select_working_set(z, lam, cfg)
        assert list(ws.pinned) == [0, 2]
        assert ws.shifted.size == 0


class TestUpdateU:
    def test_identity_off_working_set(self):
        z = np.array([-0.3, 0.02, 2.0])
        ws = select_working_set(z, np.zeros(3), make_cfg())
        assert ws.size == 0
        assert np.array_equal(update_u(z, ws, make_cfg()), z)

    def test_frozen_split_values(self):
        cfg = make_cfg()
        z = np.array([0.3, 0.8, 1.5])
        ws = select_working_set(z, np.zeros(3), cfg)
        u = update_u(z, ws, cfg)
        assert u == pytest.approx([0.1, 0.24444444444444446, 1.5], abs=1e-12)

    def test_pin_regime_sets_epsilon_everywhere(self):
        cfg = make_cfg(C=0.5, slide=SlideParams(0.1, 0.3))
        z = np.array([0.2, 0.5, 1.0])
        ws = select_working_set(z, np.zeros(3), cfg)
        assert ws.size == 3
        assert np.array_equal(update_u(z, ws, cfg), np.full(3, 0.1))


class TestUpdateW:
    def test_empty_working_set_gives_zero(self):
        assert np.array_equal(
            solve_w_system(np.empty((0, 4)), np.empty(0), delta=2.0), np.zeros(4)
        )

    def test_scalar_closed_form_both_branches(self):
        # one row with one feature takes the n x n system; a second, zero
        # feature takes the |T| x |T| one and leaves its weight at zero
        a, r, delta = 1.7, -0.6, 2.3
        expected = -delta * a * r / (1.0 + delta * a * a)
        for a_t, want in (([[a]], [expected]), ([[a, 0.0]], [expected, 0.0])):
            w = solve_w_system(np.array(a_t), np.array([r]), delta)
            assert w == pytest.approx(want, rel=1e-14)

    def test_overflowed_gram_solves_to_nan_in_both_branches(self):
        # LAPACK solves an infinite Gram to w = 0 without an error; the one
        # row of 1e200 overflows both the n x n and the |T| x |T| Gram
        for a_t in ([[1e200]], [[1e200, 0.0]]):
            with pytest.warns(RuntimeWarning, match="overflow"):
                w = solve_w_system(np.array(a_t), np.array([0.5]), 1.0)
            assert w.shape == (len(a_t[0]),) and np.isnan(w).all()

    def test_indefinite_system_raises(self):
        # delta < 0 makes I + delta*A'A indefinite; the solver never passes
        # one, but a failed factorization must surface, not return garbage
        for shape in ((3, 2), (2, 2), (2, 3)):
            with pytest.raises(np.linalg.LinAlgError, match="LAPACK info="):
                solve_w_system(np.ones(shape), np.ones(shape[0]), -10.0)

    def test_branch_equivalence_20x5(self):
        rng = np.random.default_rng(3)
        a_t = rng.normal(size=(20, 5))
        r_t = rng.normal(size=20)
        wa = solve_direct(a_t, r_t, 1.3)
        wb = solve_smw(a_t, r_t, 1.3)
        assert np.linalg.norm(wa - wb) <= 1e-8 * (1.0 + np.linalg.norm(wa))

    def test_public_call_solves_the_smaller_system(self):
        # the n x n system when n <= |T|, n == |T| included, else the
        # |T| x |T| one, each bit for bit as a Cholesky factor and its solve
        # give it; an empty working set or no features give zeros
        rng = np.random.default_rng(6)
        shapes = [(5, 5), (6, 5), (4, 5), (1, 1), (1, 2), (2, 1)] + [
            (int(rng.integers(1, 31)), int(rng.integers(1, 31))) for _ in range(40)
        ]
        for t_size, n in shapes:
            a_t = rng.normal(size=(t_size, n))
            r_t = rng.normal(size=t_size)
            delta = float(rng.uniform(0.05, 10.0))
            solve = solve_direct if n <= t_size else solve_smw
            assert solve_w_system(a_t, r_t, delta).tobytes() == solve(a_t, r_t, delta).tobytes()
        for t_size, n in [(0, 4), (3, 0), (0, 0)]:
            w = solve_w_system(np.ones((t_size, n)), np.ones(t_size), 2.0)
            assert w.tobytes() == np.zeros(n).tobytes()

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t_size = int(rng.integers(0, 31))
            n = int(rng.integers(1, 31))
            delta = float(rng.uniform(0.05, 10.0))
            a_t = rng.normal(size=(t_size, n))
            r_t = rng.normal(size=t_size)
            w = solve_w_system(a_t, r_t, delta)
            defect = (w + delta * (a_t.T @ (a_t @ w))) + delta * (a_t.T @ r_t)
            assert np.linalg.norm(defect) <= 1e-8 * (1.0 + np.linalg.norm(w))

    def test_update_w_uses_previous_b_and_multipliers(self):
        ds = random_problem(np.random.default_rng(5), 8, 3)
        cfg = make_cfg()
        state = initial(ds.m, ds.n)._replace(
            b=0.4, lam=np.where(np.arange(8) % 2 == 0, -0.2, 0.0)
        )
        z = z_at(state, ds, cfg)
        ws = select_working_set(z, state.lam, cfg)
        u_next = update_u(z, ws, cfg)
        idx = ws.indices
        a_t = ds.signed_matrix()[idx]
        w = update_w(a_t, idx, u_next, state.b, ds.y, state.lam / cfg.delta, cfg)
        r = state.lam / cfg.delta + u_next + state.b * ds.y - 1.0
        defect = w + cfg.delta * (a_t.T @ (a_t @ w)) + cfg.delta * (a_t.T @ r[idx])
        assert np.linalg.norm(defect) <= 1e-10


class TestUpdateB:
    def test_feasible_start_gives_zero(self):
        ds = gaussian_clusters(12, seed=2)
        b = update_b(1.0 - np.ones(12) - np.zeros(12), ds.y, np.zeros(12))
        assert b == 0.0

    def test_two_sample_arithmetic(self):
        # w=0, lam=0, so b = <y, 1-u>/m; u chosen so that 1-u = (0.4, 0.2)
        ds = dense_dataset([[0.0], [0.0]], [1.0, -1.0])
        u = np.array([0.6, 0.8])
        b = update_b(1.0 - u - np.zeros(2), ds.y, np.zeros(2))
        assert b == pytest.approx((0.4 - 0.2) / 2.0, abs=1e-15)

    def test_gradient_identity(self):
        rng = np.random.default_rng(6)
        ds = random_problem(rng, 9, 4)
        cfg = make_cfg(delta=1.7)
        u = rng.normal(size=9)
        w = rng.normal(size=4)
        lam = rng.normal(size=9)
        A = ds.signed_matrix()
        b = update_b(1.0 - u - A @ w, ds.y, lam / cfg.delta)
        grad = float(lam @ ds.y) + cfg.delta * float(
            ds.y @ (u + A @ w + b * ds.y - 1.0)
        )
        assert abs(grad) <= 1e-10 * ds.m


class TestUpdateLambda:
    def test_empty_working_set_zeroes_everything(self):
        ds = gaussian_clusters(7, seed=3)
        no_rows = np.empty(0, dtype=np.int64)
        lam = update_lambda(
            np.full(7, -0.5), no_rows, np.ones(7), np.zeros(7), 0.0 * ds.y, make_cfg()
        )
        assert np.array_equal(lam, np.zeros(7))

    def test_feasible_iterate_keeps_values_on_set(self):
        ds = dense_dataset([[1.0], [2.0]], [1.0, -1.0])
        cfg = make_cfg()
        lam = np.array([-0.4, -0.2])
        ws = select_working_set(np.array([0.5, 0.5]), lam, cfg)
        assert ws.size == 2
        # u chosen to satisfy u + Aw + by = 1 exactly with w=0, b=0
        lam_next = update_lambda(lam, ws.indices, np.ones(2), np.zeros(2), 0.0 * ds.y, cfg)
        assert np.array_equal(lam_next, lam)

    def test_step_arithmetic(self):
        ds = dense_dataset([[1.0]], [1.0])
        cfg = make_cfg(delta=2.0, eta=1.618)
        ws = select_working_set(np.array([0.5]), np.zeros(1), cfg)
        # u + Aw + by - 1 = 0.1 via u = 1.1, w = 0, b = 0
        lam = update_lambda(
            np.zeros(1), ws.indices, np.array([1.1]), np.zeros(1), 0.0 * ds.y, cfg
        )
        assert lam[0] == pytest.approx(0.3236, abs=1e-12)


class TestResiduals:
    def test_exact_stationary_point_scores_zero(self):
        # every z lands beyond the tie point, so nothing is selected and the
        # all-ones u is a prox fixed point
        ds = gaussian_clusters(9, seed=4)
        cfg = make_cfg(C=1.0, delta=50.0, slide=SlideParams(0.1, 0.3))
        state = initial(ds.m, ds.n)
        state = state._replace(
            working_set=select_working_set(z_at(state, ds, cfg), state.lam, cfg)
        )
        assert state.working_set.size == 0
        res = residuals_at(state, ds, cfg)
        assert (res.e1, res.e2, res.e3, res.e4) == (0.0, 0.0, 0.0, 0.0)

    def test_initial_state_prox_gap(self):
        ds = gaussian_clusters(16, seed=5)
        cfg = make_cfg(C=1.0, delta=1.0)
        # residuals take the prox defect over the working set, as a sweep
        # leaves every row off it at a prox fixed point; the initial iterate
        # is not such an iterate, so every row is put in the set
        state = initial(ds.m, ds.n)._replace(working_set=WorkingSet(np.arange(ds.m), NO_ROWS))
        res = residuals_at(state, ds, cfg)
        assert (res.e1, res.e2, res.e3) == (0.0, 0.0, 0.0)
        # independent scalar oracle for the prox of the all-ones vector
        p1 = prox_oracle(1.0, cfg.gamma_c, cfg.slide)
        m = ds.m
        expected = math.sqrt(m) * abs(1.0 - p1) / (1.0 + math.sqrt(m))
        assert res.e4 == pytest.approx(expected, abs=1e-9)

    def test_feasibility_norm_arithmetic(self):
        ds = dense_dataset([[0.0], [0.0]], [1.0, -1.0])
        state = initial(2, 1)._replace(u=np.array([0.7, 0.6]))  # violation (0.3, 0.4)
        res = residuals_at(state, ds, make_cfg())
        assert res.e3 == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-15)


class TestResidualsMax:
    @pytest.mark.parametrize("position", range(4))
    def test_nan_anywhere_gives_nan(self, position):
        values = [0.0, 1e-9, 2e-9, 3e-9]
        values[position] = math.nan
        assert math.isnan(Residuals(*values).max())

    def test_finite_values_give_the_largest(self):
        assert Residuals(1e-9, 4e-9, 3e-9, 2e-9).max() == 4e-9


class TestTrain:
    def test_nan_residual_is_not_converged(self):
        # a NaN feature makes the feasibility residual NaN from the first
        # sweep on; the stop test must not read it as small, and the solve
        # ends there, since no later sweep could stop
        ds = dense_dataset([[0.5], [math.nan], [0.7], [-0.2]], [1.0, -1.0, 1.0, -1.0])
        mdl, diag = train(ds, make_cfg(K=5), history=True)
        assert not diag.converged and not mdl.converged
        assert diag.iterations == mdl.iterations == 1
        assert len(diag.history) == 1 and math.isnan(diag.history[0][1].max())

    @pytest.mark.parametrize("history", [False, True])
    @pytest.mark.parametrize("C", [1.0, 0.5])
    def test_overflowing_solve_stops_after_its_first_sweep(self, C, history):
        # features at +-1e308 overflow the Gram of the w-system, which then
        # solves to w = nan and leaves b = nan after sweep 1. At C = 0.5 the
        # right-hand side is finite, and LAPACK alone would solve the
        # infinite Gram to w = 0, from which the solve never stops
        ds = dense_dataset([[-1e308], [1e308], [0.5], [0.25]], [1.0, -1.0, 1.0, -1.0])
        with pytest.warns(RuntimeWarning, match="overflow"):
            mdl, diag = train(ds, make_cfg(C=C), history=history)
        assert diag.iterations == mdl.iterations == 1 and not diag.converged
        assert np.isnan(mdl.w).all() and math.isnan(mdl.b)
        assert math.isnan(diag.residuals.e3)
        assert diag.history is None or len(diag.history) == 1

    def test_separable_clusters_converge(self, clusters200, clusters_config, trained_clusters):
        mdl, diag = trained_clusters
        assert diag.converged and diag.iterations <= 1000
        assert diag.residuals.max() < clusters_config.tol
        fresh = gaussian_clusters(2000, seed=43)
        assert accuracy(mdl, fresh) >= 0.99

    def test_single_sweep_when_k_is_one(self, clusters200):
        cfg = make_cfg(C=1.0, K=1, tol=1e10)
        mdl, diag = train(clusters200, cfg)
        assert diag.iterations == 1 and diag.converged
        cfg = make_cfg(C=1.0, K=1, tol=1e-12)
        mdl, diag = train(clusters200, cfg)
        assert diag.iterations == 1 and not diag.converged

    def test_nonconvergence_returns_final_iterate(self, clusters200):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 0.3), K=40)
        mdl, diag = train(clusters200, cfg)
        assert not diag.converged and diag.iterations == 40
        assert mdl.w.shape == (2,) and np.isfinite(mdl.w).all()

    def test_degenerate_working_set_converges_to_zero(self):
        # the tie threshold sits below 1, so nothing is ever selected
        ds = gaussian_clusters(20, seed=6)
        cfg = TrainConfig(C=1.0, delta=8.0, slide=SlideParams(0.015, 0.15))
        mdl, diag = train(ds, cfg)
        assert diag.converged and diag.iterations == 1
        assert np.array_equal(mdl.w, np.zeros(2)) and mdl.support.t_star.size == 0

    def test_featureless_dataset_fits_the_bias_alone(self):
        # with n = 0 the w-system is empty: w stays zero and b carries the fit
        ds = Dataset(np.zeros((3, 0)), np.array([1.0, -1.0, 1.0]))
        mdl, diag = train(ds, make_cfg(C=1.0, slide=SlideParams(0.1, 1.0)))
        assert diag.converged and mdl.w.shape == (0,)
        assert mdl.b > 0.0 and accuracy(mdl, ds) == 2 / 3

    def test_deterministic_reruns_bit_identical(self, clusters200, clusters_config):
        m1, d1 = train(clusters200, clusters_config, history=True)
        m2, d2 = train(clusters200, clusters_config, history=True)
        assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
        residuals1, residuals2 = (
            np.array([dataclasses.astuple(r) for _, r, _ in d.history]) for d in (d1, d2)
        )
        assert residuals1.tobytes() == residuals2.tobytes()
        assert [s for s, _, _ in d1.history] == [s for s, _, _ in d2.history]
        objectives1, objectives2 = (np.array([o for _, _, o in d.history]) for d in (d1, d2))
        assert objectives1.tobytes() == objectives2.tobytes()

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            train(ds, make_cfg())

    def test_diagnostics_csv_shape(self, clusters200, clusters_config):
        # the diagnostics table has one row per sweep, read from the history
        _, diag = train(clusters200, clusters_config, history=True)
        assert len(diag.history) == diag.iterations
        assert all(len(sweep) == 3 for sweep in diag.history)

    def test_diagnostics_objective_column(self, clusters200, clusters_config, trained_clusters):
        # the objective is that of the returned iterate
        mdl, diag = trained_clusters
        A = clusters200.signed_matrix()
        margins = 1.0 - A @ mdl.w - mdl.b * clusters200.y
        expected = 0.5 * float(mdl.w @ mdl.w) + slide_loss_sum(
            margins, clusters_config.slide, clusters_config.C
        )
        assert diag.objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "m, n, C, slide, K",
        [
            (200, 2, 1.0, P_WIDE, 1000),  # converges on separable clusters
            (60, 8, 0.5, P_WIDE, 25),  # capped, ramp regime, direct w-solves
            (40, 3, 1.0, P_WIDE, 1),  # a single sweep
            (12, 30, 2.0, P_WIDE, 15),  # m < n: Woodbury w-solves
            (60, 8, 1.0, SlideParams(0.02, 0.2), 25),  # pin regime
            (30, 4, 0.01, SlideParams(0.02, 0.2), 5),  # empty working set
        ],
    )
    def test_objective_with_and_without_the_history(self, m, n, C, slide, K):
        rng = np.random.default_rng(m * 100 + n)
        ds = gaussian_clusters(m, seed=42) if n == 2 else random_problem(rng, m, n)
        cfg = make_cfg(C=C, slide=slide, K=K)
        m1, d1 = train(ds, cfg)
        m2, d2 = train(ds, cfg, history=True)
        assert d1.history is None and len(d2.history) == d2.iterations
        bits = np.float64(d2.objective).tobytes()
        assert np.float64(d2.history[-1][2]).tobytes() == bits
        assert np.float64(d1.objective).tobytes() == bits
        # the history changes nothing else
        assert (d1.iterations, d1.converged) == (d2.iterations, d2.converged)
        assert d1.residuals == d2.residuals == d2.history[-1][1]
        assert d1.working_set.size == d2.history[-1][0]
        assert m1.w.tobytes() == m2.w.tobytes() and m1.b == m2.b
        assert d1.u.tobytes() == d2.u.tobytes()
        assert d1.lam.tobytes() == d2.lam.tobytes()

    def test_lambda_zero_off_working_set_every_sweep(self):
        ds = random_problem(np.random.default_rng(7), 12, 3)
        cfg = make_cfg(C=1.0)
        states, _ = iterates(ds, cfg, sweeps=6)
        assert len(states) == 7
        for state in states[1:]:
            off = complement_mask(state.working_set, ds.m)
            assert np.array_equal(state.lam[off], np.zeros(off.sum()))

    def test_u_update_matches_prox_vector_every_sweep(self):
        rng = np.random.default_rng(8)
        for slide in (P_WIDE, SlideParams(0.05, 0.25)):
            ds = random_problem(rng, 15, 3)
            cfg = make_cfg(C=0.8, delta=1.3, slide=slide)
            states, _ = iterates(ds, cfg, sweeps=5)
            assert len(states) == 6
            for previous, state in zip(states, states[1:]):
                z = fresh_z(previous, ds, cfg)
                assert np.array_equal(state.u, prox_slide_vector(z, cfg.gamma_c, cfg.slide))

    def test_multiplier_range_at_convergence(self, trained_clusters, clusters_config):
        mdl, diag = trained_clusters
        cfg = clusters_config
        lam = diag.lam
        slack = 10.0 * cfg.tol
        assert cfg.gamma_c < 2.0 * cfg.slide.ramp_width**2
        lo = -cfg.C / cfg.slide.ramp_width - slack
        assert np.all(lam >= lo) and np.all(lam <= slack)

    def test_multiplier_range_pin_regime(self, clusters200):
        cfg = TrainConfig(C=1.0, delta=2.0, slide=SlideParams(0.03, 0.3))
        assert cfg.gamma_c >= 2.0 * cfg.slide.ramp_width**2
        mdl, diag = train(clusters200, cfg)
        assert diag.converged
        lam = diag.lam
        slack = 10.0 * cfg.tol
        lo = -math.sqrt(2.0 * cfg.C * cfg.delta) - slack
        assert np.all(lam >= lo) and np.all(lam <= slack)

    def test_support_reconstruction_at_convergence(self, clusters200, trained_clusters, clusters_config):
        mdl, diag = trained_clusters
        A = clusters200.signed_matrix()
        w_hat = -A[mdl.support.t_star].T @ mdl.support.lambda_values
        bound = 10.0 * clusters_config.tol * (1.0 + np.linalg.norm(mdl.w))
        assert np.linalg.norm(mdl.w - w_hat) <= bound

    def test_pin_regime_support_margins(self, clusters200):
        # every support row of a converged pin-regime run sits on the
        # confidence margin 1 - epsilon
        cfg = TrainConfig(C=1.0, delta=2.0, slide=SlideParams(0.03, 0.3))
        mdl, diag = train(clusters200, cfg)
        assert diag.converged and mdl.support.t_star.size > 0 and mdl.support.t2.size == 0
        assert margin_violations(mdl, clusters200, mdl.support, tol=10.0 * cfg.tol) == []

    def test_tightly_converged_point_is_locally_minimal(self, clusters200):
        # a near-exact stationary point should beat every nearby hyperplane;
        # at looser tolerances tol-scale improvements remain possible
        cfg = TrainConfig(
            C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), tol=1e-6, K=5000
        )
        mdl, diag = train(clusters200, cfg)
        assert diag.converged
        A, y = clusters200.signed_matrix(), clusters200.y

        def objective(w, b):
            return objective_value(w, 1.0 - A @ w - b * y, cfg)

        base = objective(mdl.w, mdl.b)
        rng = np.random.default_rng(21)
        for _ in range(200):
            step = rng.normal(size=3)
            step *= 1e-3 / np.linalg.norm(step)
            assert base <= objective(mdl.w + step[:2], mdl.b + step[2]) + 1e-9


class TestStationarityCheck:
    def test_identity_region_point_is_exactly_stationary(self):
        ds = gaussian_clusters(11, seed=9)
        p = SlideParams(0.1, 0.3)
        # gamma*C small: prox identity region covers u = 1
        rep = check_proximal_stationarity(
            np.zeros(2), 0.0, np.ones(11), np.zeros(11), gamma=0.02, ds=ds, C=1.0, p=p
        )
        assert rep.max() == 0.0

    def test_converged_run_passes_at_ten_tol(self, clusters200, clusters_config, trained_clusters):
        mdl, diag = trained_clusters
        rep = check_proximal_stationarity(
            mdl.w,
            mdl.b,
            diag.u,
            diag.lam,
            gamma=1.0 / clusters_config.delta,
            ds=clusters200,
            C=clusters_config.C,
            p=clusters_config.slide,
        )
        assert rep.max() <= 10.0 * clusters_config.tol

    def test_perturbed_w_fails(self, clusters200, clusters_config, trained_clusters):
        mdl, diag = trained_clusters
        tau = 10.0 * clusters_config.tol
        w_bad = mdl.w.copy()
        w_bad[0] += 1.0
        rep = check_proximal_stationarity(
            w_bad, mdl.b, diag.u, diag.lam, 1.0, clusters200, clusters_config.C, clusters_config.slide
        )
        assert rep.e1 >= 1.0 - tau and not rep.max() <= tau

    def test_rejects_bad_gamma(self, clusters200):
        with pytest.raises(ValueError):
            check_proximal_stationarity(
                np.zeros(2), 0.0, np.ones(200), np.zeros(200), 0.0, clusters200, 1.0, P_WIDE
            )

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324])
    def test_rejects_bad_gamma_by_its_name(self, clusters200, gamma):
        # the penalty 1/gamma is internal; the message must name what the
        # caller passed
        with pytest.raises(ValueError, match=r"^gamma must be finite and positive"):
            check_proximal_stationarity(
                np.zeros(2), 0.0, np.ones(200), np.zeros(200), gamma, clusters200, 1.0, P_WIDE
            )


@st.composite
def tiny_problem(draw):
    m = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    v = draw(st.floats(min_value=0.1, max_value=1.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    C = draw(st.floats(min_value=0.05, max_value=4.0))
    delta = draw(st.floats(min_value=0.1, max_value=4.0))
    rng = np.random.default_rng(seed)
    ds = random_problem(rng, m, n)
    cfg = TrainConfig(C=C, delta=delta, slide=SlideParams(v * frac, v))
    return ds, cfg


@st.composite
def stationarity_point(draw):
    """A point (w, b, u, lambda) and a prox scale gamma on a tiny problem, with
    lambda nonzero on an arbitrary subset of the rows."""
    ds, cfg = draw(tiny_problem())
    on = np.array(draw(st.lists(st.booleans(), min_size=ds.m, max_size=ds.m)))
    gamma = draw(st.floats(min_value=0.1, max_value=10.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    w, b, u = rng.normal(size=ds.n), float(rng.normal()), rng.normal(size=ds.m)
    lam = np.where(on, rng.normal(size=ds.m), 0.0)
    return ds, cfg, w, b, u, lam, gamma


class TestStationarityReference:
    @given(stationarity_point())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_four_norms_over_the_dense_matrix(self, point):
        # the paper's four conditions in plain numpy, independent of the
        # solver's code; terms are O(1), so abs=1e-12 covers cancellation
        ds, cfg, w, b, u, lam, gamma = point
        rep = check_proximal_stationarity(w, b, u, lam, gamma, ds, cfg.C, cfg.slide)
        A = ds.X * ds.y[:, None]
        assert rep.e1 == pytest.approx(np.linalg.norm(w + A.T @ lam), rel=1e-12, abs=1e-12)
        assert rep.e2 == pytest.approx(abs(ds.y @ lam), rel=1e-12, abs=1e-12)
        assert rep.e3 == pytest.approx(
            np.linalg.norm(u + A @ w + b * ds.y - 1.0), rel=1e-12, abs=1e-12
        )
        gamma_c = gamma * cfg.C
        s = u - gamma * lam
        tie = prox_thresholds(gamma_c, cfg.slide).tie_point
        # the prox jumps at the tie, where the grid cannot pick the winner
        assume(np.all(np.abs(s - tie) > 1e-6))
        step = 1e-6
        prox = np.array([prox_oracle(si, gamma_c, cfg.slide, step=step) for si in s])
        assert abs(rep.e4 - np.linalg.norm(u - prox)) <= step * math.sqrt(ds.m)


class TestSweepProperties:
    @given(tiny_problem())
    @settings(max_examples=150, deadline=None)
    def test_lambda_support_zeroing(self, problem):
        ds, cfg = problem
        states, _ = iterates(ds, cfg, sweeps=3)
        for state in states[1:]:
            off = complement_mask(state.working_set, ds.m)
            assert np.array_equal(state.lam[off], np.zeros(int(off.sum())))

    @given(tiny_problem())
    @settings(max_examples=150, deadline=None)
    def test_b_gradient_identity(self, problem):
        ds, cfg = problem
        rng = np.random.default_rng(ds.m * 7 + ds.n)
        u = rng.normal(size=ds.m)
        w = rng.normal(size=ds.n)
        lam = rng.normal(size=ds.m)
        A = ds.signed_matrix()
        b = update_b(1.0 - u - A @ w, ds.y, lam / cfg.delta)
        grad = float(lam @ ds.y) + cfg.delta * float(ds.y @ (u + A @ w + b * ds.y - 1.0))
        assert abs(grad) <= 1e-10 * ds.m


@st.composite
def stop_test_run(draw):
    """A solve that converges, hits the cap or has an empty working set:
    separable 2-D clusters (m > n), or a random problem with up to 12 rows and
    16 features, where m < n sends every w-solve through the Woodbury system."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if draw(st.booleans()):
        m = draw(st.integers(min_value=3, max_value=120))
        center = draw(st.floats(min_value=0.5, max_value=3.0))
        ds = gaussian_clusters(m, seed=seed, center=center)
    else:
        m = draw(st.integers(min_value=1, max_value=12))
        ds = random_problem(np.random.default_rng(seed), m, draw(st.integers(1, 16)))
    v = draw(st.floats(min_value=0.1, max_value=1.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    cfg = TrainConfig(
        C=draw(st.floats(min_value=0.01, max_value=4.0)),
        delta=draw(st.floats(min_value=0.1, max_value=4.0)),
        slide=SlideParams(v * frac, v),
        K=draw(st.integers(min_value=1, max_value=300)),
        tol=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
    )
    return ds, cfg


class TestStopTest:
    @given(stop_test_run())
    @settings(max_examples=200, deadline=None)
    def test_skipping_the_full_residuals_changes_no_bit(self, run):
        # without the history a sweep whose e3 is not below tol skips the
        # other residuals; the history computes all four every sweep
        ds, cfg = run
        m1, d1 = train(ds, cfg)
        m2, d2 = train(ds, cfg, history=True)
        sizes = [size for size, _, _ in d2.history]
        event("trivial" if max(sizes) == 0 else "converged" if d2.converged else "capped")
        event("m < n" if ds.m < ds.n else "m >= n")
        assert (d1.iterations, d1.converged) == (d2.iterations, d2.converged)
        s1, s2 = returned(m1, d1), returned(m2, d2)
        for a, b in [(s1.w, s2.w), (s1.u, s2.u), (s1.lam, s2.lam),
                     (s1.working_set.pinned, s2.working_set.pinned),
                     (s1.working_set.shifted, s2.working_set.shifted)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert bits(s1.b) == bits(s2.b)
        assert bits(dataclasses.astuple(d1.residuals)) == bits(dataclasses.astuple(d2.residuals))
        assert bits(dataclasses.astuple(d2.history[-1][1])) == bits(
            dataclasses.astuple(d2.residuals)
        )
        assert bits(d1.objective) == bits(d2.objective)
        assert dumps_model(m1) == dumps_model(m2)
        assert d1.converged == (d1.residuals.max() < cfg.tol) == d2.converged


def mask_selection(z, lam, cfg):
    """(pinned, shifted) by full-length masks over every row: the reference
    for the selection from candidate rows."""
    th = cfg.thresholds
    active = z > cfg.slide.epsilon
    on_tie = (z == th.tie_point) & (lam != 0.0)
    if th.ramp_regime:
        pinned = active & (z < th.pin_upper)
        shifted = (z >= th.pin_upper) & (z < th.tie_point) | on_tie
    else:
        pinned = active & (z < th.tie_point) | on_tie
        shifted = np.zeros_like(pinned)
    return np.flatnonzero(pinned), np.flatnonzero(shifted)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestFusedSweepIdentities:
    """The sweep forms each product once and restricts the prox defect to
    the working set T; these are the bitwise identities that keep its results
    equal to the full-length formulas."""

    @given(tiny_problem(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_z_from_margins_and_scattered_multipliers(self, problem, sweeps):
        ds, cfg = problem
        A, y = ds.signed_matrix(), ds.y
        states, _ = iterates(ds, cfg, sweeps)
        for state in states:
            Aw = A @ state.w
            idx = state.working_set.indices
            # lambda is +0.0 off T, so lambda/delta is too
            off = np.ones(ds.m, dtype=bool)
            off[idx] = False
            assert bits(state.lam[off]) == bits(np.zeros(int(off.sum())))
            z = compute_z(1.0 - Aw - state.b * y, state.lam / cfg.delta)
            assert bits(z) == bits(1.0 - Aw - state.b * y - state.lam / cfg.delta)

    @staticmethod
    def check_prox_defect(ds, cfg, sweeps):
        states, diag = iterates(ds, cfg, sweeps)
        assert len(diag.history) == len(states) - 1
        for state, (_, res, _) in zip(states[1:], diag.history):
            u = state.u
            prox = prox_slide_vector(u - state.lam / cfg.delta, cfg.gamma_c, cfg.slide)
            full = math.sqrt(float((u - prox) @ (u - prox)))
            assert bits(res.e4) == bits(full / (1.0 + math.sqrt(float(u @ u))))
        return [state.working_set.size for state in states[1:]]

    @given(tiny_problem(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_prox_defect_on_the_working_set_is_the_full_norm(self, problem, sweeps):
        self.check_prox_defect(*problem, sweeps)

    def test_prox_defect_bits_on_a_blocked_dot_product(self):
        # hundreds of rows, so the dot product of the norm runs in the
        # blocked BLAS kernel, where summing only the rows of T would
        # group the terms differently from summing every row
        ds = random_problem(np.random.default_rng(12), 400, 5)
        sizes = self.check_prox_defect(ds, make_cfg(C=2.0, delta=1.0), 8)
        assert sum(25 <= size < 400 for size in sizes) == 7  # all but sweep 1

    @given(
        tiny_problem(),
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(
                st.sampled_from(["keep", "eps", "pin", "tie", "+0", "-0", "+inf", "-inf", "nan"]),
                st.sampled_from([-math.inf, None, math.inf]),
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_selection_matches_the_mask_formulas(self, problem, sweeps, overrides):
        # rows are moved exactly onto epsilon, pin_upper and the tie point or
        # their float neighbours, or onto a signed zero, an infinity or NaN,
        # with lambda zero or not; in these configs epsilon + shift > epsilon,
        # so pin_upper lies strictly above epsilon
        ds, cfg = problem
        th = cfg.thresholds
        on = {
            "eps": cfg.slide.epsilon, "pin": th.pin_upper, "tie": th.tie_point,
            "+0": 0.0, "-0": -0.0, "+inf": math.inf, "-inf": -math.inf, "nan": math.nan,
        }
        states, _ = iterates(ds, cfg, sweeps)
        for state in states:
            z, lam = fresh_z(state, ds, cfg), state.lam.copy()
            for row, (where, toward, nonzero) in enumerate(overrides[: ds.m]):
                if where != "keep":
                    z[row] = on[where] if toward is None else math.nextafter(on[where], toward)
                lam[row] = -0.25 if nonzero else 0.0
            ws = select_working_set(z, lam, cfg)
            pinned, shifted = mask_selection(z, lam, cfg)
            assert ws.pinned.dtype == pinned.dtype and ws.shifted.dtype == shifted.dtype
            assert np.array_equal(ws.pinned, pinned)
            assert np.array_equal(ws.shifted, shifted)
            # u is the prox of z, ties at the identity, except that a tie row
            # with lambda != 0 takes the other minimizer
            expected = where_prox(z, cfg.gamma_c, cfg.slide)
            joined = (z == th.tie_point) & (lam != 0.0)
            expected[joined] = th.tie_point - th.shift if th.ramp_regime else cfg.slide.epsilon
            assert bits(update_u(z, ws, cfg)) == bits(expected)
        event("ramp regime" if th.ramp_regime else "pin regime")


CLOSE = dict(rel=1e-12, abs=1e-12)


def check_sweep(ds, cfg, before, after):
    """One sweep of train, from ``before`` to ``after``, against the block
    updates written out in plain numpy with products computed afresh."""
    A, y, delta = ds.X * ds.y[:, None], ds.y, cfg.delta
    lam_d = before.lam / delta
    z = fresh_z(before, ds, cfg)
    # T: rows above epsilon and below the tie point, or on it with lambda != 0
    tie = prox_thresholds(cfg.gamma_c, cfg.slide).tie_point
    on_t = (z > cfg.slide.epsilon) & (z < tie) | (z == tie) & (before.lam != 0.0)
    T = np.flatnonzero(on_t)
    assert np.array_equal(np.sort(after.working_set.indices), T)
    off_tie = z != tie
    prox = prox_slide_vector(z, cfg.gamma_c, cfg.slide)
    assert np.array_equal(after.u[off_tie], prox[off_tie])
    # (I + delta A_T'A_T) w = -delta A_T' r_T, r = lambda/delta + u + b y - 1
    a_t = A[T]
    rhs = -delta * (a_t.T @ (lam_d + after.u + before.b * y - 1.0)[T])
    defect = after.w + delta * (a_t.T @ (a_t @ after.w)) - rhs
    assert np.linalg.norm(defect) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
    Aw = A @ after.w
    assert after.b == pytest.approx(float(y @ (1.0 - after.u - Aw - lam_d)) / ds.m, **CLOSE)
    step = before.lam + cfg.eta * delta * (after.u + Aw + after.b * y - 1.0)
    assert after.lam[T] == pytest.approx(step[T], **CLOSE)
    assert not np.delete(after.lam, T).any()


def check_records(ds, cfg, state, res, obj):
    """The residuals and objective recorded for ``state``, recomputed in plain
    numpy from fresh products."""
    A, y, w, u = ds.X * ds.y[:, None], ds.y, state.w, state.u
    T = state.working_set.indices
    prox = prox_slide_vector(u - state.lam / cfg.delta, cfg.gamma_c, cfg.slide)
    gap = 1.0 - u - A @ w - state.b * y
    expected = (
        np.linalg.norm(w + A[T].T @ state.lam[T]) / (1.0 + np.linalg.norm(w)),
        abs(y[T] @ state.lam[T]) / (1.0 + T.size),
        np.linalg.norm(gap) / math.sqrt(ds.m),
        np.linalg.norm(u - prox) / (1.0 + np.linalg.norm(u)),
    )
    assert (res.e1, res.e2, res.e3, res.e4) == pytest.approx(expected, **CLOSE)
    # the stop test reads e3 from _feasibility, the recorded e3 the same float
    assert bits(res.e3) == bits(admm._feasibility(gap))
    margins = 1.0 - A @ w - state.b * y
    expected_obj = 0.5 * w @ w + slide_loss_sum(margins, cfg.slide, cfg.C)
    assert obj == pytest.approx(expected_obj, **CLOSE)


def check_train_sweeps(ds, cfg, sweeps):
    """Every sweep of train capped at ``sweeps``, checked from consecutive
    iterates, with every recorded residual and objective. Returns the sweep
    kinds met (w branch or empty working set, and the prox regime)."""
    states, diag = iterates(ds, cfg, sweeps)
    assert diag.iterations == len(states) - 1
    assert diag.iterations == sweeps or diag.converged
    assert len(diag.history) == diag.iterations
    kinds = {"ramp" if cfg.thresholds.ramp_regime else "pin"}
    for before, after, (size, res, obj) in zip(states, states[1:], diag.history):
        assert size == after.working_set.size
        check_sweep(ds, cfg, before, after)
        check_records(ds, cfg, after, res, obj)
        if size == 0:
            kinds.add("empty")
        else:
            kinds.add("direct" if ds.n <= size else "smw")
    return kinds


class TestTrainIsTheCheckedSweep:
    def test_fixed_cases_cover_both_branches_regimes_and_empty_sets(self):
        rng = np.random.default_rng(11)
        cases = [
            # ramp regime, every row shifted, |T| >= n: direct branch
            (random_problem(rng, 10, 2), make_cfg()),
            # pin regime, |T| = 2 < n = 4: Woodbury branch
            (random_problem(rng, 2, 4), make_cfg(slide=SlideParams(0.1, 0.3))),
            # tie point below 1: nothing is ever selected
            (
                random_problem(rng, 6, 2),
                make_cfg(C=1.0, delta=8.0, slide=SlideParams(0.015, 0.15)),
            ),
        ]
        kinds = set()
        for ds, cfg in cases:
            kinds |= check_train_sweeps(ds, cfg, sweeps=4)
        assert kinds == {"ramp", "pin", "direct", "smw", "empty"}

    @given(tiny_problem(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_every_sweep_follows_the_block_updates(self, problem, sweeps):
        ds, cfg = problem
        for kind in sorted(check_train_sweeps(ds, cfg, sweeps)):
            event(kind)


def _boundary_case(C):
    # v = 0.5, eps = 0, delta = 1: C = 0.5 puts the tie point at exactly 1
    ds = random_problem(np.random.default_rng(3), 6, 2)
    return ds, TrainConfig(C=C, delta=1.0, slide=SlideParams(0.0, 0.5))


class TestTrivialConfigs:
    @given(tiny_problem())
    @example(_boundary_case(0.5))
    @example(_boundary_case(0.5000001))
    @settings(max_examples=200, deadline=None)
    def test_trivial_exactly_when_tie_point_is_at_most_one(self, problem):
        # at w = 0, b = 0, lambda = 0 every z is 1, so no row lies below the
        # tie point exactly when the tie point is at most 1; no solve is needed
        # to tell such a config apart
        ds, cfg = problem
        cfg = dataclasses.replace(cfg, K=3)
        trivial = cfg.thresholds.tie_point <= 1.0
        event(f"trivial={trivial}")
        mdl, diag = train(ds, cfg, history=True)
        stopped = (
            diag.iterations == 1
            and diag.converged
            and [size for size, _, _ in diag.history] == [0]
            and not mdl.w.any()
            and mdl.b == 0.0
        )
        assert stopped == trivial
