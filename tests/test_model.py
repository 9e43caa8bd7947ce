import dataclasses

import numpy as np
import pytest

from helpers import gaussian_clusters
from oracles import margin_violations, reconstruct_hyperplane

from slidesvm import data
from slidesvm.admm import TrainConfig
from slidesvm.data import Dataset, parse_libsvm
from slidesvm.loss import SlideParams
from slidesvm.model import (
    Model,
    ModelFormatError,
    SupportSet,
    accuracy,
    confusion_counts,
    dumps_model,
    extract_support_vectors,
    loads_model,
    predict_dataset,
    save_model,
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
    return Dataset(np.atleast_2d(np.asarray(matrix, dtype=float)), np.asarray(labels, dtype=float))


class TestExtractSupportVectors:
    def test_zero_multipliers_give_empty_support(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE)
        sup = extract_support_vectors(np.zeros(5), cfg)
        assert sup.t_star.size == 0 and sup.t1.size == 0 and sup.t2.size == 0

    def test_ramp_regime_split(self):
        cfg = TrainConfig(C=1.0, delta=1.0, slide=P_WIDE)  # gamma_c = 1 < 1.62
        lam = np.array([0.0, -1.0 / 0.9, -0.5])
        sup = extract_support_vectors(lam, cfg)
        assert list(sup.t_star) == [1, 2]
        assert list(sup.t2) == [1]  # pinned at -C/(v-eps)
        assert list(sup.t1) == [2]
        assert np.array_equal(sup.lambda_values, lam[[1, 2]])

    def test_pin_regime_keeps_single_group(self):
        # a multiplier at -C/(v-eps) = -5 still belongs to t1 here
        cfg = TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 0.3))
        sup = extract_support_vectors(np.array([-0.2, 0.0, -5.0]), cfg)
        assert list(sup.t_star) == [0, 2]
        assert list(sup.t1) == [0, 2] and sup.t2.size == 0
        assert sup.t2.dtype == np.int64

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


def predict_one(mdl, row):
    """The label predict_dataset gives a one-row dataset."""
    [label] = predict_dataset(mdl, dense_dataset([row], [1.0]))
    return label


class TestPredict:
    def test_positive_bias_dominates(self):
        mdl = make_model([0.0, 0.0], b=1.0)
        assert predict_one(mdl, [123.0, -5.0]) == 1

    def test_tie_goes_negative(self):
        mdl = make_model([1.0, 0.0], b=-0.5)
        assert predict_one(mdl, [0.5, 9.0]) == -1

    def test_negative_score(self):
        mdl = make_model([1.0, 0.0], b=0.0)
        assert predict_one(mdl, [-0.3, 7.0]) == -1

    def test_sparse_input(self):
        # a row of sparse LIBSVM text, read into the dense matrix
        mdl = make_model([2.0, 0.0, -1.0], b=0.0)
        assert predict_dataset(mdl, parse_libsvm("+1 1:1 3:1.5\n")).tolist() == [1.0]
        assert predict_dataset(mdl, parse_libsvm("+1 3:1\n")).tolist() == [-1.0]


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
        ds = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError):
            accuracy(make_model([1.0], b=0.0), ds)

    def test_matches_sign_mismatch_formula_exactly(self):
        rng = np.random.default_rng(1)
        ds = dense_dataset(rng.normal(size=(57, 3)), rng.choice([-1.0, 1.0], 57))
        mdl = make_model(rng.normal(size=3), b=rng.normal())
        signs = np.where(ds.X @ mdl.w + mdl.b > 0.0, 1.0, -1.0)
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
        assert margin_violations(mdl, ds, sup, tol=1e-6) == []

    def test_ramp_regime_interval_upper_end_passes(self):
        # pinned-multiplier rows may sit anywhere in [1 + gc/(2(v-eps)) - v, 1]
        ds = dense_dataset([[1.0]], [1.0])
        sup = SupportSet(idx(0), idx(), idx(0), np.array([-1.0 / 0.9]))
        mdl = make_model([1.0], b=0.0, support=sup)
        assert margin_violations(mdl, ds, sup, tol=1e-9) == []

    def test_ramp_regime_interval_violations_flagged(self):
        ds = dense_dataset([[1.001], [0.4]], [1.0, 1.0])
        sup = SupportSet(idx(0, 1), idx(), idx(0, 1), np.array([-1.0 / 0.9] * 2))
        mdl = make_model([1.0], b=0.0, support=sup)
        violations = margin_violations(mdl, ds, sup, tol=1e-4)
        # 1.001 exceeds the upper end, 0.4 undershoots 1 + 0.5556 - 1
        assert [v[0] for v in violations] == [0, 1]

    def test_interior_violation_flagged_at_five_tol(self):
        tol = 1e-3
        ds = dense_dataset([[0.9 + 5.0 * tol]], [1.0])
        sup = SupportSet(idx(0), idx(0), idx(), np.array([-0.5]))
        mdl = make_model([1.0], b=0.0, support=sup)
        assert len(margin_violations(mdl, ds, sup, tol=tol)) == 1

    def test_converged_run_passes_at_ten_tol(self, clusters200, clusters_config, trained_clusters):
        mdl, _ = trained_clusters
        assert mdl.support.t_star.size > 0
        assert margin_violations(
            mdl, clusters200, mdl.support, tol=10.0 * clusters_config.tol
        ) == []


class TestReconstruction:
    def test_predictions_match_outside_dead_band(self, clusters200, clusters_config, trained_clusters):
        mdl, _ = trained_clusters
        w_hat = reconstruct_hyperplane(clusters200, mdl.support)
        rebuilt = dataclasses.replace(mdl, w=w_hat)
        for ds in (clusters200, gaussian_clusters(500, seed=77)):
            scores = ds.X @ mdl.w + mdl.b
            norms = np.sqrt((ds.X * ds.X).sum(axis=1))
            decided = np.abs(scores) > 10.0 * clusters_config.tol * norms
            assert np.array_equal(
                predict_dataset(mdl, ds)[decided], predict_dataset(rebuilt, ds)[decided]
            )

    def test_support_is_a_strict_subset(self, clusters200, trained_clusters):
        mdl, _ = trained_clusters
        assert 0 < mdl.support.t_star.size < clusters200.m


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

    def test_negative_dimension_rejected(self):
        text = dumps_model(make_model([0.0, 0.0], b=0.5)).replace("n=2\n", "n=-1\n")
        with pytest.raises(ModelFormatError, match="^negative dimension n=-1$"):
            loads_model(text)

    def test_weight_vector_larger_than_memory_rejected(self, monkeypatch):
        monkeypatch.setattr(data, "_memory_bytes", lambda: 4000)
        text = dumps_model(make_model([1.0, 2.0], b=0.5))
        assert loads_model(text.replace("n=2\n", "n=500\n")).n == 500
        with pytest.raises(
            ModelFormatError,
            match="^weight vector of n=501 features needs 4008 bytes, "
            "more than the 4000 bytes of memory$",
        ):
            loads_model(text.replace("n=2\n", "n=501\n"))

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

    @pytest.mark.parametrize(
        "edit, field, bad",
        [
            (dict(b=np.nan), "b", "b=nan"),
            (dict(b=-np.inf), "b", "b=-inf"),
            (dict(w=np.array([1.0, np.inf])), "w", "w 0:1.0 1:inf"),
            (dict(support=SupportSet(idx(0), idx(0), idx(), np.array([np.nan]))),
             "support_t1", "support_t1 0:nan"),
        ],
    )
    def test_dumps_refuses_what_loads_rejects(self, edit, field, bad, tmp_path):
        # a model with a non-finite value is refused with the message that
        # loading its text would give, and saving it leaves no file
        good = make_model([1.0, 2.0], b=0.5, support=SupportSet(idx(0), idx(0), idx(), np.array([-0.5])))
        lines = dumps_model(good).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field))
        lines[at] = bad
        with pytest.raises(ModelFormatError) as loaded:
            loads_model("\n".join(lines) + "\n")
        refused = dataclasses.replace(good, **edit)
        with pytest.raises(ModelFormatError) as dumped:
            dumps_model(refused)
        assert str(dumped.value) == str(loaded.value)
        path = tmp_path / "model.txt"
        with pytest.raises(ModelFormatError):
            save_model(refused, path)
        assert not path.exists()

    def test_lines_are_matched_by_tag(self):
        sup = SupportSet(idx(3, 8), idx(3), idx(8), np.array([-0.25, -1.5]))
        text = dumps_model(make_model([1.0, 0.0, -2.0], b=0.5, support=sup))
        head, *body = text.splitlines()
        assert body[-2:] == ["support_t1 3:-0.25", "support_t2 8:-1.5"]
        back = loads_model("\n".join([head] + body[::-1]) + "\n")
        assert dumps_model(back) == text

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [ln for ln in lines if not ln.startswith("delta=")],
             "missing 'delta' line"),
            (lambda lines: lines + ["support_t2 "], "repeated 'support_t2' line"),
            (lambda lines: lines + ["iterations=3"], "repeated 'iterations' line"),
            (lambda lines: lines + ["gamma=2.0"], "unknown tag in line 'gamma=2.0'"),
            (lambda lines: lines + [""], "unknown tag in line ''"),
        ],
        ids=["missing", "repeated-vector", "repeated-scalar", "unknown", "blank"],
    )
    def test_bad_tag_is_named(self, edit, message):
        lines = dumps_model(make_model([1.0, 2.0], b=0.5)).splitlines()
        with pytest.raises(ModelFormatError, match=message):
            loads_model("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("w", "w 0:1.0 0:2.0", "^weight index 0 listed twice$"),
            ("support_t1", "support_t1 3:-0.25 3:-0.5", "^support index 3 listed twice$"),
            ("support_t2", "support_t2 3:-1.5", "^support index 3 listed twice$"),
            ("C", "C=nan", "^C must be finite and positive, got C=nan$"),
            ("delta", "delta=-2", "^delta must be finite and positive, got delta=-2$"),
            ("iterations", "iterations=-4", "^negative iteration count iterations=-4$"),
            ("v", "v=2.0", "^need 0 <= epsilon < v <= 1"),
        ],
        ids=["w-index-twice", "t1-row-twice", "row-in-t1-and-t2", "C-nan",
             "delta-negative", "iterations-negative", "v-above-one"],
    )
    def test_fields_the_writer_never_produces_are_rejected(self, field, bad, message):
        sup = SupportSet(idx(3, 8), idx(3), idx(8), np.array([-0.25, -1.5]))
        lines = dumps_model(make_model([1.0, 2.0], b=0.5, support=sup)).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field))
        loads_model("\n".join(lines) + "\n")  # the file as written loads
        lines[at] = bad
        with pytest.raises(ModelFormatError, match=message):
            loads_model("\n".join(lines) + "\n")

    def test_written_files_load_unchanged(self, trained_clusters):
        # a trivial solve writes iterations=0 and empty vectors
        for mdl in (trained_clusters[0], make_model([0.0, 0.0], b=-1.0, iterations=0)):
            text = dumps_model(mdl)
            assert dumps_model(loads_model(text)) == text
