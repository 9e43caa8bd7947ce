import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from slidesvm.admm import TrainConfig
from slidesvm.data import Dataset, gaussian_clusters
from slidesvm.loss import SlideParams
from slidesvm.model import (
    Model,
    ModelFormatError,
    SupportSet,
    accuracy,
    confusion_counts,
    decision_values,
    dumps_model,
    extract_support_vectors,
    loads_model,
    margin_identity_check,
    model_lambda,
    predict,
    predict_dataset,
    reconstruct_hyperplane,
)

P_WIDE = SlideParams(0.1, 1.0)


def idx(*values):
    return np.asarray(values, dtype=np.int64)


def make_model(w, b, slide=P_WIDE, C=1.0, delta=1.0, support=None, converged=True, iterations=10):
    if support is None:
        support = SupportSet(idx(), idx(), idx(), np.empty(0))
    return Model(
        w=np.asarray(w, dtype=float),
        b=b,
        slide=slide,
        C=C,
        delta=delta,
        support=support,
        converged=converged,
        iterations=iterations,
    )


def dense_dataset(matrix, labels):
    return Dataset(sp.csr_matrix(np.atleast_2d(np.asarray(matrix, dtype=float))), np.asarray(labels, dtype=float))


class TestExtractSupportVectors:
    def test_zero_multipliers_give_empty_support(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE)
        sup = extract_support_vectors(np.zeros(5), cfg)
        assert sup.size == 0 and sup.t1.size == 0 and sup.t2.size == 0

    def test_ramp_regime_split(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE)  # gamma_c = 1 < 1.62
        lam = np.array([0.0, -1.0 / 0.9, -0.5])
        sup = extract_support_vectors(lam, cfg)
        assert list(sup.t_star) == [1, 2]
        assert list(sup.t2) == [1]  # pinned at -C/(v-eps)
        assert list(sup.t1) == [2]
        assert np.array_equal(sup.lambda_values, lam[[1, 2]])

    def test_pin_regime_keeps_single_group(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 0.3))
        sup = extract_support_vectors(np.array([-0.2, 0.0]), cfg)
        assert list(sup.t_star) == [0]
        assert list(sup.t1) == [0] and sup.t2.size == 0

    def test_near_zero_multipliers_stay_out(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE, tol=1e-3)
        lam = np.array([-0.009, -0.011])  # threshold is 10*tol = 0.01
        sup = extract_support_vectors(lam, cfg)
        assert list(sup.t_star) == [1]

    def test_complement_has_small_multipliers(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE)
        rng = np.random.default_rng(0)
        lam = -np.abs(rng.normal(size=40))
        sup = extract_support_vectors(lam, cfg)
        outside = np.setdiff1d(np.arange(40), sup.t_star)
        assert np.all(np.abs(lam[outside]) <= 10.0 * cfg.tol)


class TestPredict:
    def test_positive_bias_dominates(self):
        mdl = make_model([0.0, 0.0], b=1.0)
        assert predict(mdl, [123.0, -5.0]) == 1

    def test_tie_goes_negative(self):
        mdl = make_model([1.0, 0.0], b=-0.5)
        assert predict(mdl, [0.5, 9.0]) == -1

    def test_negative_score(self):
        mdl = make_model([1.0, 0.0], b=0.0)
        assert predict(mdl, [-0.3, 7.0]) == -1

    def test_sparse_input(self):
        mdl = make_model([2.0, 0.0], b=0.0)
        x = sp.csr_matrix(np.array([[1.0, 4.0]]))
        assert predict(mdl, x) == 1


class TestAccuracy:
    def test_all_correct(self):
        ds = dense_dataset([[1.0], [-1.0]], [1.0, -1.0])
        assert accuracy(make_model([1.0], b=0.0), ds) == 1.0

    def test_all_wrong(self):
        ds = dense_dataset([[1.0], [-1.0]], [-1.0, 1.0])
        assert accuracy(make_model([1.0], b=0.0), ds) == 0.0

    def test_three_of_four(self):
        ds = dense_dataset([[1.0], [2.0], [-1.0], [1.0]], [1.0, 1.0, -1.0, -1.0])
        assert accuracy(make_model([1.0], b=0.0), ds) == 0.75

    def test_empty_dataset_rejected(self):
        ds = Dataset(sp.csr_matrix((0, 1)), np.empty(0))
        with pytest.raises(ValueError):
            accuracy(make_model([1.0], b=0.0), ds)

    def test_matches_sign_mismatch_formula_exactly(self):
        rng = np.random.default_rng(1)
        ds = dense_dataset(rng.normal(size=(57, 3)), rng.choice([-1.0, 1.0], 57))
        mdl = make_model(rng.normal(size=3), b=rng.normal())
        signs = np.where(decision_values(mdl, ds) > 0.0, 1.0, -1.0)
        formula = 1.0 - np.sum(np.abs(signs - ds.y)) / (2.0 * ds.m)
        assert accuracy(mdl, ds) == formula

    def test_confusion_counts(self):
        ds = dense_dataset([[1.0], [2.0], [-1.0], [1.0]], [1.0, 1.0, -1.0, -1.0])
        assert confusion_counts(make_model([1.0], b=0.0), ds) == (2, 1, 1, 0)


class TestMarginIdentity:
    def test_pin_regime_margins_at_one_minus_eps(self):
        slide = SlideParams(0.1, 0.3)
        ds = dense_dataset([[0.9], [5.0]], [1.0, 1.0])
        sup = SupportSet(idx(0), idx(0), idx(), np.array([-0.2]))
        mdl = make_model([1.0], b=0.0, slide=slide, support=sup)
        report = margin_identity_check(mdl, ds, sup, tol=1e-6)
        assert report.passed and report.checked == 1

    def test_ramp_regime_interval_upper_end_passes(self):
        # pinned-multiplier rows may sit anywhere in [1 + gc/(2(v-eps)) - v, 1]
        ds = dense_dataset([[1.0]], [1.0])
        sup = SupportSet(idx(0), idx(), idx(0), np.array([-1.0 / 0.9]))
        mdl = make_model([1.0], b=0.0, support=sup)
        assert margin_identity_check(mdl, ds, sup, tol=1e-9).passed

    def test_ramp_regime_interval_violations_flagged(self):
        ds = dense_dataset([[1.001], [0.4]], [1.0, 1.0])
        sup = SupportSet(idx(0, 1), idx(), idx(0, 1), np.array([-1.0 / 0.9] * 2))
        mdl = make_model([1.0], b=0.0, support=sup)
        report = margin_identity_check(mdl, ds, sup, tol=1e-4)
        # 1.001 exceeds the upper end, 0.4 undershoots 1 + 0.5556 - 1
        assert [v[0] for v in report.violations] == [0, 1]

    def test_interior_violation_flagged_at_five_tol(self):
        tol = 1e-3
        ds = dense_dataset([[0.9 + 5.0 * tol]], [1.0])
        sup = SupportSet(idx(0), idx(0), idx(), np.array([-0.5]))
        mdl = make_model([1.0], b=0.0, support=sup)
        report = margin_identity_check(mdl, ds, sup, tol=tol)
        assert not report.passed and len(report.violations) == 1

    def test_converged_run_passes_at_ten_tol(self, clusters200, clusters_config, trained_clusters):
        mdl, _ = trained_clusters
        report = margin_identity_check(
            mdl, clusters200, mdl.support, tol=10.0 * clusters_config.tol
        )
        assert report.passed


class TestReconstruction:
    def test_predictions_match_outside_dead_band(self, clusters200, clusters_config, trained_clusters):
        mdl, _ = trained_clusters
        w_hat = reconstruct_hyperplane(clusters200, mdl.support)
        rebuilt = dataclasses.replace(mdl, w=w_hat)
        for ds in (clusters200, gaussian_clusters(500, seed=77)):
            scores = decision_values(mdl, ds)
            norms = np.sqrt(np.asarray(ds.X.multiply(ds.X).sum(axis=1)).ravel())
            decided = np.abs(scores) > 10.0 * clusters_config.tol * norms
            assert np.array_equal(
                predict_dataset(mdl, ds)[decided], predict_dataset(rebuilt, ds)[decided]
            )

    def test_support_is_a_strict_subset(self, clusters200, trained_clusters):
        mdl, _ = trained_clusters
        assert 0 < mdl.support.size < clusters200.m


class TestPersistence:
    def test_round_trip_is_exact(self, trained_clusters):
        mdl, _ = trained_clusters
        back = loads_model(dumps_model(mdl))
        assert np.array_equal(back.w, mdl.w) and back.b == mdl.b
        assert back.slide == mdl.slide and back.C == mdl.C and back.delta == mdl.delta
        assert back.converged == mdl.converged and back.iterations == mdl.iterations
        assert np.array_equal(back.support.t_star, mdl.support.t_star)
        assert np.array_equal(back.support.t1, mdl.support.t1)
        assert np.array_equal(back.support.t2, mdl.support.t2)
        assert np.array_equal(back.support.lambda_values, mdl.support.lambda_values)

    def test_empty_text_rejected(self):
        with pytest.raises(ModelFormatError, match="empty"):
            loads_model("")

    def test_corrupt_header_rejected(self, trained_clusters):
        mdl, _ = trained_clusters
        text = dumps_model(mdl).replace("slidesvm-model v1", "something-else v9")
        with pytest.raises(ModelFormatError, match="header"):
            loads_model(text)

    def test_truncated_text_rejected(self, trained_clusters):
        mdl, _ = trained_clusters
        lines = dumps_model(mdl).splitlines()
        with pytest.raises(ModelFormatError, match="truncated"):
            loads_model("\n".join(lines[:6]))

    def test_inconsistent_dimension_rejected(self, trained_clusters):
        mdl, _ = trained_clusters
        text = dumps_model(mdl).replace("n=2", "n=1")
        with pytest.raises(ModelFormatError, match="inconsistent"):
            loads_model(text)

    def test_bad_field_rejected(self, trained_clusters):
        mdl, _ = trained_clusters
        text = dumps_model(mdl).replace("converged=true", "converged=maybe")
        with pytest.raises(ModelFormatError):
            loads_model(text)

    @pytest.mark.parametrize(
        "field, bad",
        [("b", "b=nan"), ("b", "b=-inf"), ("w", "w 0:inf"), ("support_t1", "support_t1 0:nan")],
    )
    def test_non_finite_values_rejected(self, field, bad):
        sup = SupportSet(idx(0), idx(0), idx(), np.array([-0.5]))
        lines = dumps_model(make_model([1.0, 2.0], b=0.5, support=sup)).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field))
        lines[at] = bad
        with pytest.raises(ModelFormatError, match="non-finite"):
            loads_model("\n".join(lines) + "\n")

    def test_accuracy_and_counts_reuse_given_predictions(self):
        ds = dense_dataset([[1.0], [-1.0], [2.0], [-3.0]], [1, 1, -1, -1])
        mdl = make_model([1.0], b=0.0)
        pred = predict_dataset(mdl, ds)
        assert accuracy(mdl, ds, pred=pred) == accuracy(mdl, ds) == 0.5
        assert confusion_counts(mdl, ds, pred=pred) == confusion_counts(mdl, ds)
        flipped = -pred
        assert accuracy(mdl, ds, pred=flipped) == 0.5
        assert confusion_counts(mdl, ds, pred=flipped) == (1, 1, 1, 1)

    def test_model_lambda_lookup(self):
        sup = SupportSet(idx(3, 8), idx(3), idx(8), np.array([-0.25, -1.5]))
        assert model_lambda(sup, 8) == -1.5
        with pytest.raises(KeyError):
            model_lambda(sup, 4)
