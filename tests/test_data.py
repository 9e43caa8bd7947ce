import io
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from slidesvm import data
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


def parse_outcome(text, **kwargs):
    """The parsed arrays, bit for bit, or the type and message of the error."""
    try:
        ds = parse_libsvm(text, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison covers every error
        return ("error", type(exc).__name__, str(exc))
    X = ds.X
    return (
        X.shape,
        X.data.dtype.str, X.data.view(np.int64).tolist(),
        X.indices.dtype.str, X.indices.tolist(),
        X.indptr.dtype.str, X.indptr.tolist(),
        ds.y.dtype.str, ds.y.view(np.int64).tolist(),
    )


def per_line_outcome(text, **kwargs):
    """What the per-line reader gives, which takes every line iterable."""
    return parse_outcome(io.StringIO(text), **kwargs)


_DIGITS = st.text("0123456789", max_size=20)


@st.composite
def _decimal(draw):
    """A decimal literal, valid for float(), with up to 40 digits and an
    exponent up to 400, so that both the exact and the float() route run."""
    whole, frac = draw(_DIGITS), draw(st.none() | _DIGITS)
    if not (whole or frac):
        whole = "0"
    text = draw(st.sampled_from(["", "+", "-"])) + whole
    if frac is not None:
        text += "." + frac
    if draw(st.booleans()):
        exp = draw(st.integers(0, 400 if draw(st.integers(0, 4)) == 0 else 30))
        text += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"]))
        text += "0" * draw(st.integers(0, 2)) + str(exp)
    return text


_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.6f}"),
    st.integers(-10**25, 10**25).map(str),
    st.integers(1, 4).map(str),
    _decimal(),
    st.sampled_from(["0", "-0", "+1", ".5", "5.", "-.5e-3", "1e22", "1e23",
                     "9007199254740993", "0.1", "4.9e-324", "1e400", "-1e-400"]),
)
_BAD_VALUES = st.sampled_from(["nan", "-inf", "1_0", "+", ".", "e5", "1e", "1.2.3", "", "1:2"])
_LABELS = st.sampled_from(["+1", "-1", "1", "0", "-0", "1.0", "1e0", ".1e1", "0e5", "+0.0"])
_BAD_LABELS = st.sampled_from(["2", "abc", "1:1", "inf", "nan", "+", "1_0"])
_BAD_INDICES = st.sampled_from(["0", "+3", "007", "1234567890", "99999999999", "-1", "1e1", ""])
_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  "])


@st.composite
def _libsvm_line(draw, valid):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "  ", "\t"] + ([] if valid else ["# comment"])))
    parts = [draw(_LABELS if valid or draw(st.booleans()) else _BAD_LABELS)]
    idx = sorted(draw(st.lists(st.integers(1, 60), max_size=6, unique=True)))
    if not valid and draw(st.booleans()):
        idx.reverse()
    for j in idx:
        index, value = str(j), draw(_VALUES)
        if not valid and draw(st.integers(0, 3)) == 0:
            index = draw(_BAD_INDICES)
        if not valid and draw(st.integers(0, 3)) == 0:
            value = draw(_BAD_VALUES)
        parts.append(f"{index}:{value}")
    line = "".join(p + draw(_SEPARATORS) for p in parts).rstrip(" ")
    return line if valid else line + draw(st.sampled_from(["", " ", " # note"]))


@st.composite
def _libsvm_text(draw):
    """Lines in the common grammar, some of them swapped for defective lines,
    joined by LF, CRLF or CR, with or without a final line end."""
    lines = draw(st.lists(_libsvm_line(valid=True), max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bad = draw(_libsvm_line(valid=False) | st.text("0123456789+-.eE:# \t_", max_size=20))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


_LIBSVM_TEXT = _libsvm_text() | st.text(alphabet="0123456789+-.eE:# \t\r\n_", max_size=80)


class TestVectorisedParse:
    """The vectorised reader against the per-line reader: bit-identical
    arrays, or the same error with the same message."""

    @given(_LIBSVM_TEXT, st.sampled_from([1, 8, 64, 1 << 18]),
           st.sampled_from([None, 0, 5, 60, 80]))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reader(self, text, chunk, n_features):
        expected = per_line_outcome(text, n_features=n_features)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            assert parse_outcome(text, n_features=n_features) == expected
            assert parse_outcome(text.encode(), n_features=n_features) == expected

    def test_common_grammar_takes_the_vectorised_path(self, monkeypatch):
        text = "+1 1:0.5 3:-2e-3\t4:1.\n-1 2:7 9:.25E+2\n0\n\n 1 5:00012\n"
        expected = per_line_outcome(text)

        def fail(*args):
            raise AssertionError("per-line reader called")

        monkeypatch.setattr(data, "_read_lines", fail)
        for chunk in (1, 16, 1 << 18):
            monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
            assert parse_outcome(text) == expected

    @pytest.mark.parametrize(
        "literal",
        ["1e22", "1e23", "1e-22", "1.5e-23", "9007199254740992", "9007199254740993",
         "0.9007199254740993", "1234567890123456789", "12345678901234567890",
         "100000000000000000000", "1" + "0" * 30 + "e-30", "0." + "0" * 30 + "1",
         "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "0.1",
         "-0", "-0.0e7", "3.0000000000000004", "1e0000000000000000000000000005",
         "0." + "1" * 300],
    )
    def test_literals_are_correctly_rounded(self, literal):
        for text in (literal, "-" + literal.lstrip("-")):
            ds = parse_libsvm(f"+1 1:{text}\n")  # alone, so digits-only ones take their route
            assert ds.X.data.view(np.int64)[0] == np.float64(float(text)).view(np.int64)

    @pytest.mark.parametrize(
        "line",
        ["+1 1:2:3", "+1 1::2", "+1 :2", "+1 1:", "1:2 3:4", "+1 1:1 5", "+1 2:1 1:1",
         "+1 1:1 1:2", "+1 0:1", "+1 +3:1", "+1 -3:1", "+1 1e1:1", "+1 1.0:1",
         "+1 1234567890:1", "+1 0001:1", "2 1:1", "-2 1:1", "1.5 1:1", "+ 1:1",
         "+1 1:1.2.3", "+1 1:1e", "+1 1:+", "+1 1:-.", "+1 1:e5", "+1 1:.e5",
         "+1 1:1e+", "+1 1:5e5e5", "+1 1:1e5.", "+1 1:--1", "+1 1:1-", "+1 1:1e400",
         "+1 1:" + "1" * 70, "+1 1:1\v2:1", "+1 1:1\r", "+1 1:1 # c",
         "+1 1:0." + "1" * 255 + " 2:0.25 3:-1e-5"],
    )
    def test_odd_line_matches_per_line_reader(self, line):
        for text in (f"{line}\n", f"-1 1:1\n{line}\n+1 2:2\n"):
            assert parse_outcome(text) == per_line_outcome(text)

    def test_whitespace_only_input(self):
        for text in ("", " ", "\n\n", " \t \n  \n"):
            ds = parse_libsvm(text)
            assert (ds.m, ds.n) == (0, 0)
            assert parse_outcome(text) == per_line_outcome(text)

    def test_no_trailing_newline(self):
        ds = parse_libsvm("+1 1:1\n-1 2:0.5")
        assert ds.m == 2 and ds.row(1)[1].tolist() == [0.5]
        assert parse_outcome("+1 1:1\n-1 2:0.5") == per_line_outcome("+1 1:1\n-1 2:0.5")

    def test_blank_and_label_only_rows(self):
        text = "\n+1\n\n  \n-1 3:2\n0\t\n"
        ds = parse_libsvm(text)
        assert ds.y.tolist() == [1.0, -1.0, -1.0]
        assert ds.X.indptr.tolist() == [0, 0, 1, 1]
        assert parse_outcome(text) == per_line_outcome(text)

    def test_explicit_zeros_are_kept(self):
        ds = parse_libsvm("+1 1:0 2:-0 3:0.0e5\n")
        assert ds.X.nnz == 3
        assert np.signbit(ds.X.data).tolist() == [False, True, False]

    def test_row_straddling_a_chunk_boundary(self, monkeypatch):
        text = "+1 1:1 2:2\n-1 1:3 2:4 3:5 4:6 5:7\n+1 6:8\n"
        monkeypatch.setattr(data, "_CHUNK_BYTES", 16)  # the cut falls mid-row
        ds = parse_libsvm(text)
        assert ds.X.indptr.tolist() == [0, 2, 7, 8]
        assert ds.X.data.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_error_past_the_first_chunk_reports_its_line(self, monkeypatch):
        rows = ["+1 1:1 2:2"] * 50
        rows[37] = "-1 2:1 1:1"
        monkeypatch.setattr(data, "_CHUNK_BYTES", 64)
        with pytest.raises(ParseError, match="^line 38: non-increasing index 1 after 2$"):
            parse_libsvm("\n".join(rows) + "\n")
        rows[37] = "-1 2:1 3:1e999"
        with pytest.raises(ParseError, match="^line 38: non-finite value inf at index 3$"):
            parse_libsvm("\n".join(rows) + "\n")

    def test_malformed_line_after_a_non_finite_value_is_reported_first(self, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_BYTES", 8)
        with pytest.raises(ParseError, match="^line 3: malformed token"):
            parse_libsvm("+1 1:nan\n-1 1:1\n+1 2:x\n")

    def test_n_features_widens_and_is_checked(self):
        text = "+1 1:1 3:2\n-1 2:1\n"
        ds = parse_libsvm(text, n_features=7)
        assert ds.X.shape == (2, 7)
        assert ds.X.indices.tolist() == [0, 2, 1]
        assert parse_outcome(text, n_features=7) == per_line_outcome(text, n_features=7)
        with pytest.raises(ParseError, match="^feature index 3 exceeds declared dimension 2$"):
            parse_libsvm(text, n_features=2)


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
