import numpy as np
import pytest
import scipy.sparse as sp

from slidesvm.data import (
    Dataset,
    FoldPlan,
    ParseError,
    ScalingMap,
    align_features,
    apply_scaling,
    fit_scaling,
    flip_labels,
    gaussian_clusters,
    kfold_plan,
    parse_libsvm,
    subset,
    write_libsvm,
)


def dense_dataset(matrix, labels):
    return Dataset(sp.csr_matrix(np.asarray(matrix, dtype=float)), np.asarray(labels, dtype=float))


class TestParseLibsvm:
    def test_basic_format(self):
        ds = parse_libsvm("+1 1:0.5 3:-0.2\n-1 2:1.0\n")
        assert (ds.m, ds.n) == (2, 3)
        idx0, val0 = ds.row(0)
        assert list(idx0) == [0, 2] and list(val0) == [0.5, -0.2]
        assert list(ds.y) == [1.0, -1.0]

    def test_zero_one_label_mapping(self):
        ds = parse_libsvm("0 1:1\n1 2:1\n")
        assert list(ds.y) == [-1.0, 1.0]

    def test_malformed_label_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("abc 1:1\n")

    def test_unmappable_label(self):
        with pytest.raises(ParseError, match="line 2.*unmappable"):
            parse_libsvm("+1 1:1\n3 1:1\n")

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="line 1.*malformed token"):
            parse_libsvm("+1 1:a\n")
        with pytest.raises(ParseError, match="malformed token"):
            parse_libsvm("+1 nonsense\n")

    def test_non_increasing_indices(self):
        with pytest.raises(ParseError, match="line 1.*non-increasing"):
            parse_libsvm("+1 3:1 2:1\n")
        with pytest.raises(ParseError, match="non-increasing"):
            parse_libsvm("+1 2:1 2:2\n")

    def test_indices_are_one_based(self):
        with pytest.raises(ParseError, match="1-based"):
            parse_libsvm("+1 0:1\n")

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("\n# full comment\n+1 1:2.0  # trailing\n\n-1 1:1.0\n")
        assert ds.m == 2 and ds.n == 1

    def test_accepts_bytes_and_iterables(self):
        text = "+1 1:1\n-1 2:1\n"
        assert parse_libsvm(text.encode()) == parse_libsvm(text)
        assert parse_libsvm(iter(text.splitlines(True))) == parse_libsvm(text)

    def test_n_override(self):
        ds = parse_libsvm("+1 1:1\n", n_features=5)
        assert ds.n == 5
        with pytest.raises(ParseError, match="exceeds"):
            parse_libsvm("+1 7:1\n", n_features=5)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_value_reports_line(self, literal):
        text = f"+1 1:0.5\n# comment\n\n-1 1:1 3:{literal}\n+1 2:nan\n"
        with pytest.raises(ParseError, match="line 4: non-finite value .* at index 3"):
            parse_libsvm(text)

    def test_label_only_rows(self):
        ds = parse_libsvm("+1\n-1 1:1\n")
        assert ds.m == 2
        assert ds.row(0)[0].size == 0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(30):
            picked = np.sort(rng.choice(12, size=rng.integers(0, 6), replace=False))
            label = "+1" if rng.integers(2) else "-1"
            rows.append(
                " ".join(
                    [label] + [f"{j + 1}:{rng.normal():.17g}" for j in picked]
                )
            )
        ds = parse_libsvm("\n".join(rows) + "\n", n_features=12)
        assert parse_libsvm(write_libsvm(ds), n_features=12) == ds


class TestScaling:
    def test_midpoint_maps_to_zero(self):
        ds = dense_dataset([[0.0], [2.0], [4.0]], [1, 1, -1])
        smap = fit_scaling(ds)
        assert (smap.mins[0], smap.maxs[0]) == (0.0, 4.0)
        scaled = apply_scaling(ds, smap)
        assert scaled.X.toarray()[1, 0] == 0.0

    def test_constant_column_maps_to_zero(self):
        ds = dense_dataset([[5.0], [5.0], [5.0]], [1, -1, 1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.all(scaled.X.toarray() == 0.0)

    def test_symmetric_column_is_identity(self):
        ds = dense_dataset([[-1.0], [1.0]], [1, -1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.array_equal(scaled.X.toarray().ravel(), [-1.0, 1.0])

    def test_extremes_map_to_unit_interval_ends(self):
        ds = dense_dataset([[3.0, -2.0], [7.0, 5.0]], [1, -1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.array_equal(scaled.X.toarray(), [[-1.0, -1.0], [1.0, 1.0]])

    def test_train_values_land_in_unit_interval(self):
        rng = np.random.default_rng(6)
        ds = dense_dataset(rng.normal(size=(40, 7)) * 10, rng.choice([-1.0, 1.0], 40))
        scaled = apply_scaling(ds, fit_scaling(ds))
        values = scaled.X.toarray()
        assert values.min() >= -1.0 and values.max() <= 1.0

    def test_unseen_values_are_not_clipped(self):
        train = dense_dataset([[0.0], [1.0]], [1, -1])
        smap = fit_scaling(train)
        test = dense_dataset([[2.0]], [1])
        assert apply_scaling(test, smap).X.toarray()[0, 0] == 3.0

    def test_sparse_zeros_enter_min_max(self):
        # second feature is absent from row 0, so its min is 0
        ds = parse_libsvm("+1 1:2\n-1 1:4 2:6\n")
        smap = fit_scaling(ds)
        assert (smap.mins[1], smap.maxs[1]) == (0.0, 6.0)

    def test_dimension_mismatch(self):
        ds = dense_dataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError, match="mismatch"):
            apply_scaling(ds, ScalingMap(np.zeros(3), np.ones(3)))

    def test_text_round_trip(self):
        smap = ScalingMap(np.array([-1.5, 0.0]), np.array([2.25, 0.0]))
        back = ScalingMap.from_text(smap.to_text())
        assert np.array_equal(back.mins, smap.mins)
        assert np.array_equal(back.maxs, smap.maxs)


class TestFlipLabels:
    def test_rate_zero_is_identity(self):
        ds = gaussian_clusters(50, seed=1)
        assert flip_labels(ds, 0.0, seed=3) == ds

    def test_rate_one_negates_everything(self):
        ds = gaussian_clusters(50, seed=1)
        assert np.array_equal(flip_labels(ds, 1.0, seed=3).y, -ds.y)

    def test_flip_count_is_floor(self):
        ds = gaussian_clusters(100, seed=1)
        flipped = flip_labels(ds, 0.05, seed=9)
        assert int(np.sum(flipped.y != ds.y)) == 5

    def test_same_seed_restores(self):
        ds = gaussian_clusters(60, seed=2)
        twice = flip_labels(flip_labels(ds, 0.25, seed=4), 0.25, seed=4)
        assert np.array_equal(twice.y, ds.y)

    def test_determinism(self):
        ds = gaussian_clusters(60, seed=2)
        a = flip_labels(ds, 0.3, seed=5)
        b = flip_labels(ds, 0.3, seed=5)
        assert np.array_equal(a.y, b.y)

    def test_rejects_bad_rate(self):
        ds = gaussian_clusters(10, seed=0)
        with pytest.raises(ValueError):
            flip_labels(ds, 1.5, seed=0)


class TestKfoldPlan:
    def test_each_fold_size_one(self):
        plan = kfold_plan(10, 10, seed=0)
        assert sorted(np.bincount(plan.assignments)) == [1] * 10

    def test_uneven_split(self):
        plan = kfold_plan(11, 10, seed=0)
        assert sorted(np.bincount(plan.assignments)) == [1] * 9 + [2]

    def test_determinism(self):
        a = kfold_plan(37, 5, seed=8)
        b = kfold_plan(37, 5, seed=8)
        assert np.array_equal(a.assignments, b.assignments)

    def test_partition_and_balance(self):
        plan = kfold_plan(103, 10, seed=3)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert sizes.sum() == 103 and sizes.max() - sizes.min() <= 1
        test, train = plan.fold_indices(4)
        assert sorted(np.concatenate([test, train])) == list(range(103))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kfold_plan(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_plan(5, 1, seed=0)

    def test_text_round_trip(self):
        plan = kfold_plan(23, 4, seed=17)
        back = FoldPlan.from_text(plan.to_text())
        assert back.k == plan.k and back.seed == plan.seed
        assert np.array_equal(back.assignments, plan.assignments)


class TestDatasetHelpers:
    def test_subset_keeps_rows(self):
        ds = gaussian_clusters(20, seed=3)
        sub = subset(ds, np.array([0, 5, 7]))
        assert sub.m == 3 and np.array_equal(sub.y, ds.y[[0, 5, 7]])
        assert np.array_equal(sub.X.toarray(), ds.X.toarray()[[0, 5, 7]])

    def test_align_features_widens(self):
        a = parse_libsvm("+1 1:1\n")
        b = parse_libsvm("-1 3:1\n")
        wa, wb = align_features(a, b)
        assert wa.n == wb.n == 3
        assert wa.X.toarray()[0, 0] == 1.0 and wb.X.toarray()[0, 2] == 1.0

    def test_signed_matrix(self):
        ds = dense_dataset([[1.0, 2.0], [3.0, 4.0]], [1, -1])
        assert np.array_equal(ds.signed_matrix(), [[1.0, 2.0], [-3.0, -4.0]])

    def test_gaussian_clusters_shape(self):
        ds = gaussian_clusters(201, seed=0)
        assert (ds.m, ds.n) == (201, 2)
        assert int(np.sum(ds.y > 0)) == 100 and int(np.sum(ds.y < 0)) == 101

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.eye(3)), np.array([1.0, -1.0]))
