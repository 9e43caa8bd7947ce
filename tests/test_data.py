import io
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_clusters, write_libsvm

from slidesvm import data
from slidesvm.data import (
    Dataset,
    ParseError,
    ScalingMap,
    align_features,
    apply_scaling,
    fit_scaling,
    flip_labels,
    kfold_plan,
    parse_libsvm,
    subset,
    widen,
)


def dense_dataset(matrix, labels):
    return Dataset(np.asarray(matrix, dtype=float), np.asarray(labels, dtype=float))


def bits(ds):
    """Shape, layout and bits of a dataset's arrays."""
    X = ds.X
    return (
        X.shape, X.dtype.str, X.flags.c_contiguous, X.view(np.int64).tolist(),
        ds.y.dtype.str, ds.y.view(np.int64).tolist(),
    )


@pytest.fixture
def small_memory(monkeypatch):
    """Cap the memory a parsed matrix may take at 1 MiB, whatever the host has."""
    monkeypatch.setattr(data, "_memory_bytes", lambda: 1 << 20)


class TestParseLibsvm:
    def test_basic_format(self):
        ds = parse_libsvm("+1 1:0.5 3:-0.2\n-1 2:1.0\n")
        assert (ds.m, ds.n) == (2, 3)
        assert ds.X.tolist() == [[0.5, 0.0, -0.2], [0.0, 1.0, 0.0]]
        assert ds.X.flags.c_contiguous and ds.X.dtype == np.float64
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

    @pytest.mark.parametrize("text", ["+1 3000000000:1\n", "-1 1:1\n+1 2:1 2147483648:1\n"])
    def test_index_above_int32_reports_line(self, text):
        line = text.count("\n")
        with pytest.raises(ParseError, match=f"^line {line}: index .* exceeds 2147483647$"):
            parse_libsvm(text)

    def test_matrix_too_large_for_memory_is_reported(self, monkeypatch):
        monkeypatch.setattr(data, "_memory_bytes", lambda: 1 << 30)
        with pytest.raises(
            ParseError,
            match="^dense matrix of m=1 rows and n=1234567890 features needs 9876543120 "
            "bytes, more than the 1073741824 bytes of memory$",
        ):
            parse_libsvm("+1 1234567890:1\n")

    def test_widening_is_checked_before_it_allocates(self, monkeypatch):
        probes = []

        def memory():
            probes.append(None)
            return 10_000

        monkeypatch.setattr(data, "_memory_bytes", memory)
        monkeypatch.setattr(data, "_CHUNK_BYTES", 16)
        text = "+1 1:1\n" * 10 + "-1 1000:1\n"
        with pytest.raises(ParseError, match="m=11 rows and n=1000 features needs 88000 bytes"):
            parse_libsvm(text)
        assert len(probes) == 2  # the first chunk's matrix fitted; the wider one did not
        assert parse_libsvm(text.replace("1000:", "100:")).X.shape == (11, 100)

    def test_size_is_checked_when_a_chunk_needs_it(self, small_memory, monkeypatch):
        # a matrix too large is reported only when no defect follows, whether
        # the defect shares the wide row's chunk or lies in a later one; the
        # second text is a case hypothesis found at one byte per chunk
        cases = [
            ("+1 1234567890:1\n-1 x\n", "line 2: malformed token 'x'"),
            ("+1 1234567890:0.0\n2", "line 2: unmappable label '2' (need -1, 0, or +1)"),
            ("+1 1234567890:1\n-1 1:1\n", "dense matrix of m=2 rows and n=1234567890 features "
             "needs 19753086240 bytes, more than the 1048576 bytes of memory"),
        ]
        for text, message in cases:
            for chunk in (1, 16, 1 << 18):
                monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
                assert parse_outcome(text) == ("error", "ParseError", message)
                assert per_line_outcome(text) == ("error", "ParseError", message)

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("\n# full comment\n+1 1:2.0  # trailing\n\n-1 1:1.0\n")
        assert ds.m == 2 and ds.n == 1

    def test_accepts_str_and_bytes(self):
        for text in ("+1 1:1\n-1 2:1\n", "+1 1:1 # café\n-1 2:1\n"):
            assert bits(parse_libsvm(text.encode())) == bits(parse_libsvm(text))
        with pytest.raises(TypeError, match="need str or bytes, got list"):
            parse_libsvm(["+1 1:1\n"])

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_cr_and_crlf_end_a_line(self, end):
        text = "+1 1:1\n-1 2:0.5\n+1\n"
        assert bits(parse_libsvm(text.replace("\n", end))) == bits(parse_libsvm(text))
        with pytest.raises(ParseError, match="^line 3: malformed token '1:x'$"):
            parse_libsvm(f"+1 1:1{end}{end}-1 1:x{end}")

    def test_byte_that_is_not_utf8_reports_its_line(self, monkeypatch):
        text = b"+1 1:1\n-1 1:2 # caf\xe9\n+1 2:1\n"
        for chunk in (8, 1 << 18):
            monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
            with pytest.raises(ParseError, match="^line 2: byte 0xe9 is not UTF-8$"):
                parse_libsvm(text)
            # a defect on an earlier line of the same chunk comes first
            with pytest.raises(ParseError, match="^line 1: malformed token"):
                parse_libsvm(b"+1 1:x\n" + text)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_value_reports_line(self, literal):
        text = f"+1 1:0.5\n# comment\n\n-1 1:1 3:{literal}\n+1 2:nan\n"
        with pytest.raises(ParseError, match="line 4: non-finite value .* at index 3"):
            parse_libsvm(text)

    def test_label_only_rows(self):
        ds = parse_libsvm("+1\n-1 1:1\n")
        assert ds.m == 2
        assert ds.X.tolist() == [[0.0], [1.0]]

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
        ds = widen(parse_libsvm("\n".join(rows) + "\n"), 12)
        assert bits(widen(parse_libsvm(write_libsvm(ds)), 12)) == bits(ds)


def outcome(parse, *args):
    """The arrays ``parse`` gives, bit for bit, or the type and message of
    its error."""
    try:
        ds = parse(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison covers every error
        return ("error", type(exc).__name__, str(exc))
    return bits(ds)


def parse_outcome(text):
    return outcome(parse_libsvm, text)


def per_line_outcome(text):
    """What the per-line reader gives over the whole text, its lines split at
    LF, CRLF and CR by Python's universal newlines, assembled into a matrix
    as the parser assembles its chunks."""
    lines = [line.encode() for line in io.StringIO(text, newline=None)]
    return outcome(lambda: data._dataset(len(lines), [data._read_lines(lines)]))


def read_outcome(text, per_line=False):
    """The rows read before any dense matrix is built, joined over chunks,
    bit for bit, or the type and message of the error; from the chunked
    reader, or from the per-line reader over the whole text."""
    if isinstance(text, str):
        text = text.encode()
    text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        if per_line:
            blocks = [data._read_lines(io.BytesIO(text))]
        else:
            blocks = list(data._read_bytes(text))
    except Exception as exc:  # noqa: BLE001 - the comparison covers every error
        return ("error", type(exc).__name__, str(exc))

    def joined(name, dtype):
        parts = [np.asarray(getattr(rows, name), dtype=dtype) for rows in blocks]
        return np.concatenate([np.empty(0, dtype)] + parts)

    sizes = np.concatenate([np.empty(0, np.int64)] + [np.diff(rows.indptr) for rows in blocks])
    return (
        joined("labels", np.float64).view(np.int64).tolist(),
        sizes.tolist(),
        joined("indices", np.int64).tolist(),
        joined("data", np.float64).view(np.int64).tolist(),
    )


def row_values(text):
    """Values the reader gives for the entries of one line of ASCII text."""
    return np.asarray(next(data._read_bytes(text.encode())).data, dtype=np.float64)


_DIGITS = st.text("0123456789", max_size=20)


@st.composite
def _decimal(draw):
    """A decimal literal, valid for float(), with up to 40 digits and an
    exponent up to 400, so that both the integer and the numpy route run."""
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

    @given(_LIBSVM_TEXT, st.sampled_from([1, 8, 64, 1 << 18]))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reader(self, text, chunk):
        # rows are compared before assembly: valid rows may hold indices up to
        # 2**31 - 1, too wide for a dense matrix; small ones are assembled too
        rows = read_outcome(text, per_line=True)
        wide = rows[0] != "error" and max(rows[2], default=-1) >= 1000
        expected = None if wide else per_line_outcome(text)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            for source in (text, text.encode()):
                assert read_outcome(source) == rows
                if not wide:
                    assert parse_outcome(source) == expected

    def test_common_grammar_takes_the_vectorised_path(self, monkeypatch):
        rng = np.random.default_rng(8)
        normals = dense_dataset(rng.normal(size=(6, 4)), [1, -1, 1, 1, -1, -1])
        text = (
            "+1 1:0.5 3:-2e-3\t4:1.\n-1 2:7 9:.25E+2\n0\n\n 1 5:00012\n"
            + write_libsvm(normals)  # 17-digit repr values
            + "-1 1:12345678901234567890 2:0." + "3" * 68 + " 3:1e-300\n"
        )
        expected = per_line_outcome(text)

        def fail(*args):
            raise AssertionError("per-line reader called")

        monkeypatch.setattr(data, "_read_lines", fail)
        for chunk in (1, 16, 1 << 18):
            monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
            assert parse_outcome(text) == expected

    @pytest.mark.parametrize("text", [b"1-2 ", b"1 . "])
    def test_numpy_refuses_unmatched_text(self, text):
        # the vectorised reader relies on this: a prefix parse would misread "1-2"
        with pytest.raises(ValueError):
            np.fromstring(text, sep=" ")

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
            line = f"+1 1:{text}\n"  # alone, so digits-only ones take their route
            value = np.float64(float(text))
            assert row_values(line).view(np.int64)[0] == value.view(np.int64)
            assert parse_libsvm(line).X.view(np.int64)[0, 0] == (value + 0.0).view(np.int64)

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
    def test_odd_line_matches_per_line_reader(self, line, small_memory):
        for text in (f"{line}\n", f"-1 1:1\n{line}\n+1 2:2\n"):
            assert read_outcome(text) == read_outcome(text, per_line=True)
            assert parse_outcome(text) == per_line_outcome(text)

    def test_whitespace_only_input(self):
        for text in ("", " ", "\n\n", " \t \n  \n"):
            ds = parse_libsvm(text)
            assert (ds.m, ds.n) == (0, 0)
            assert parse_outcome(text) == per_line_outcome(text)

    def test_no_trailing_newline(self):
        ds = parse_libsvm("+1 1:1\n-1 2:0.5")
        assert ds.X.tolist() == [[1.0, 0.0], [0.0, 0.5]]
        assert parse_outcome("+1 1:1\n-1 2:0.5") == per_line_outcome("+1 1:1\n-1 2:0.5")

    def test_blank_and_label_only_rows(self):
        text = "\n+1\n\n  \n-1 3:2\n0\t\n"
        ds = parse_libsvm(text)
        assert ds.y.tolist() == [1.0, -1.0, -1.0]
        assert ds.X.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]
        assert parse_outcome(text) == per_line_outcome(text)

    def test_explicit_zeros_are_kept(self):
        text = "+1 1:0 2:-0 3:0.0e5\n"
        assert np.signbit(row_values(text)).tolist() == [False, True, False]
        # the matrix reads +0.0 for each, as a sum of the entries into zeros would
        X = parse_libsvm(text).X
        assert X.shape == (1, 3) and not np.signbit(X).any()

    def test_row_straddling_a_chunk_boundary(self, monkeypatch):
        text = "+1 1:1 2:2\n-1 1:3 2:4 3:5 4:6 5:7\n+1 6:8\n"
        monkeypatch.setattr(data, "_CHUNK_BYTES", 16)  # the cut falls mid-row
        ds = parse_libsvm(text)
        assert ds.X.tolist() == [[1, 2, 0, 0, 0, 0], [3, 4, 5, 6, 7, 0], [0, 0, 0, 0, 0, 8]]

    def test_error_past_the_first_chunk_reports_its_line(self, monkeypatch):
        rows = ["+1 1:1 2:2"] * 50
        rows[37] = "-1 2:1 1:1"
        monkeypatch.setattr(data, "_CHUNK_BYTES", 64)
        with pytest.raises(ParseError, match="^line 38: non-increasing index 1 after 2$"):
            parse_libsvm("\n".join(rows) + "\n")
        rows[37] = "-1 2:1 3:1e999"
        with pytest.raises(ParseError, match="^line 38: non-finite value inf at index 3$"):
            parse_libsvm("\n".join(rows) + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [("+1 1:nan\n-1 1:1\n+1 2:x\n", "line 1: non-finite value nan at index 1"),
         ("+1 2:x\n-1 1:inf\n", "line 1: malformed token '2:x'"),
         ("-1 1:1\n+1 1:1 2:-inf 1:3\n", "line 2: non-finite value -inf at index 2"),
         ("-1 1:1\n+1 3:1e999 2:1\n", "line 2: non-finite value inf at index 3"),
         ("+1 1:1\n-1 1:1 2:nan\n3 1:1\n", "line 2: non-finite value nan at index 2"),
         ("+1 1:1\n-1 0:nan\n", "line 2: index 0 is not 1-based"),
         ("+1 1:1\n-1 7 2:nan\n", "line 2: malformed token '7'")],
        ids=["nan-before-malformed", "malformed-before-inf", "nan-before-order",
             "overflow-before-order", "nan-before-label", "index-before-nan",
             "no-colon-before-nan"],
    )
    def test_first_defect_in_file_order_is_reported(self, text, message, monkeypatch):
        for chunk in (8, 1 << 18):
            monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_libsvm(text)

    def test_non_ascii_chunk_leaves_the_others_on_the_numpy_path(self, monkeypatch):
        first = "+1 1:0.5 2:-1\n-1 2:3\n"
        second = "+1 1:1 # café\n-1 2:2\n"
        expected = per_line_outcome(first + second)
        read, per_line = data._read_lines, []

        def counting(lines, first_lineno=1):
            per_line.append(first_lineno)
            return read(lines, first_lineno)

        monkeypatch.setattr(data, "_read_lines", counting)
        monkeypatch.setattr(data, "_CHUNK_BYTES", len(first.encode()))
        assert parse_outcome(first + second) == expected
        assert per_line == [3]  # only the second chunk, from its first line


class TestScaling:
    def test_midpoint_maps_to_zero(self):
        ds = dense_dataset([[0.0], [2.0], [4.0]], [1, 1, -1])
        smap = fit_scaling(ds)
        assert (smap.mins[0], smap.maxs[0]) == (0.0, 4.0)
        scaled = apply_scaling(ds, smap)
        assert scaled.X[1, 0] == 0.0

    def test_constant_column_maps_to_zero(self):
        ds = dense_dataset([[5.0], [5.0], [5.0]], [1, -1, 1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.all(scaled.X == 0.0)

    def test_symmetric_column_is_identity(self):
        ds = dense_dataset([[-1.0], [1.0]], [1, -1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.array_equal(scaled.X.ravel(), [-1.0, 1.0])

    def test_extremes_map_to_unit_interval_ends(self):
        ds = dense_dataset([[3.0, -2.0], [7.0, 5.0]], [1, -1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert np.array_equal(scaled.X, [[-1.0, -1.0], [1.0, 1.0]])

    def test_train_values_land_in_unit_interval(self):
        rng = np.random.default_rng(6)
        ds = dense_dataset(rng.normal(size=(40, 7)) * 10, rng.choice([-1.0, 1.0], 40))
        scaled = apply_scaling(ds, fit_scaling(ds))
        values = scaled.X
        assert values.min() >= -1.0 and values.max() <= 1.0

    def test_unseen_values_are_not_clipped(self):
        train = dense_dataset([[0.0], [1.0]], [1, -1])
        smap = fit_scaling(train)
        test = dense_dataset([[2.0]], [1])
        assert apply_scaling(test, smap).X[0, 0] == 3.0

    def test_sparse_zeros_enter_min_max(self):
        # second feature is absent from row 0, so its min is 0
        ds = parse_libsvm("+1 1:2\n-1 1:4 2:6\n")
        smap = fit_scaling(ds)
        assert (smap.mins[1], smap.maxs[1]) == (0.0, 6.0)

    def test_range_above_half_the_largest_float_scales_finitely(self):
        # 2 * (x - min) would overflow to inf before the division
        ds = dense_dataset([[-4.5e307, 1.0], [4.5e307, 2.0], [0.0, 3.0]], [1, -1, 1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        assert scaled.X.tolist() == [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]

    def test_unseen_value_whose_offset_overflows_scales_finitely(self):
        # 1e308 - (-1e308) overflows, but 2*(x - min)/(max - min) - 1 is 3;
        # the other entries keep the bits of the plain formula
        smap = ScalingMap(np.array([-1e308, 0.0]), np.array([0.5, 4.0]))
        test = dense_dataset([[1e308, 1.0], [0.1, 2.0], [-1e308, 4.5]], [1, -1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = apply_scaling(test, smap)
        with np.errstate(over="ignore"):
            plain = (test.X - smap.mins) / (smap.maxs - smap.mins) * 2.0 - 1.0
        assert scaled.X[0, 0] == 3.0
        assert scaled.X.ravel()[1:].tobytes() == plain.ravel()[1:].tobytes()

    def test_range_that_overflows_is_rejected_without_a_warning(self):
        ds = dense_dataset([[1.0, -1e308], [2.0, 1.7e308]], [1, -1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"^feature 2: range -1e\+308 to 1\.7e\+308 overflows$"
            ):
                fit_scaling(ds)
        # an empty dataset has no range to fit
        with pytest.raises(ValueError, match="^cannot fit scaling on an empty dataset$"):
            fit_scaling(dense_dataset(np.zeros((0, 2)), []))

    def test_dimension_mismatch(self):
        ds = dense_dataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError, match="mismatch"):
            apply_scaling(ds, ScalingMap(np.zeros(3), np.ones(3)))


class TestFlipLabels:
    def test_rate_zero_is_identity(self):
        ds = gaussian_clusters(50, seed=1)
        assert bits(flip_labels(ds, 0.0, seed=3)) == bits(ds)

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
        folds = kfold_plan(10, 10, seed=0)
        assert sorted(np.bincount(folds)) == [1] * 10

    def test_uneven_split(self):
        folds = kfold_plan(11, 10, seed=0)
        assert sorted(np.bincount(folds)) == [1] * 9 + [2]

    def test_determinism(self):
        a = kfold_plan(37, 5, seed=8)
        b = kfold_plan(37, 5, seed=8)
        assert np.array_equal(a, b)

    def test_partition_and_balance(self):
        folds = kfold_plan(103, 10, seed=3)
        sizes = np.bincount(folds, minlength=10)
        assert sizes.sum() == 103 and sizes.max() - sizes.min() <= 1
        test, train = np.flatnonzero(folds == 4), np.flatnonzero(folds != 4)
        assert sorted(np.concatenate([test, train])) == list(range(103))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kfold_plan(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_plan(5, 1, seed=0)


class TestDatasetHelpers:
    def test_subset_keeps_rows(self):
        ds = gaussian_clusters(20, seed=3)
        sub = subset(ds, np.array([0, 5, 7]))
        assert sub.m == 3 and np.array_equal(sub.y, ds.y[[0, 5, 7]])
        assert np.array_equal(sub.X, ds.X[[0, 5, 7]])

    def test_align_features_widens(self):
        a = parse_libsvm("+1 1:1\n")
        b = parse_libsvm("-1 3:1\n")
        wa, wb = align_features(a, b)
        assert wa.n == wb.n == 3
        assert wa.X[0, 0] == 1.0 and wb.X[0, 2] == 1.0

    def test_widen_returns_the_input_when_wide_enough(self):
        ds = dense_dataset([[1.0, 2.0]], [1])
        assert widen(ds, ds.n) is ds and widen(ds, 1) is ds
        a, b = dense_dataset([[1.0]], [1]), dense_dataset([[2.0]], [-1])
        wa, wb = align_features(a, b)
        assert wa is a and wb is b

    def test_widen_pads_with_zero_columns(self):
        ds = parse_libsvm("+1 1:1.5\n-1 2:-2\n")
        wide = widen(ds, 4)
        assert wide.X.tolist() == [[1.5, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0]]
        assert wide.X.flags.c_contiguous
        # as if the text had declared the last column with an explicit zero
        assert bits(wide) == bits(parse_libsvm("+1 1:1.5 4:0\n-1 2:-2\n"))

    def test_widen_is_checked_before_it_allocates(self, monkeypatch):
        monkeypatch.setattr(data, "_memory_bytes", lambda: 1600)
        ds = parse_libsvm("+1 1:1.5\n-1 2:-2\n")
        assert widen(ds, 100).X.shape == (2, 100)
        with pytest.raises(
            ValueError,
            match="^dense matrix of m=2 rows and n=101 features needs 1616 bytes, "
            "more than the 1600 bytes of memory$",
        ):
            widen(ds, 101)

    def test_signed_matrix(self):
        ds = dense_dataset([[1.0, 2.0], [3.0, 4.0]], [1, -1])
        assert np.array_equal(ds.signed_matrix(), [[1.0, 2.0], [-3.0, -4.0]])

    def test_gaussian_clusters_shape(self):
        ds = gaussian_clusters(201, seed=0)
        assert (ds.m, ds.n) == (201, 2)
        assert int(np.sum(ds.y > 0)) == 100 and int(np.sum(ds.y < 0)) == 101

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(3), np.array([1.0, -1.0]))
