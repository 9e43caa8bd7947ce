"""Dataset handling: LIBSVM text parsing, per-feature min-max scaling,
seeded label flipping, and k-fold partitioning."""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed LIBSVM input; the message carries the 1-based line number."""


@dataclass(eq=False)
class Dataset:
    """Dense feature matrix, C-contiguous float64 of shape (m, n), with
    labels in {+1, -1}.

    Treated as immutable after construction; every operation in this module
    returns a new Dataset or the input itself.
    """

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"labels length {self.y.shape[0]} != row count {self.X.shape[0]}"
            )

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def signed_matrix(self) -> np.ndarray:
        """A new matrix whose i-th row is ``y_i * x_i``."""
        return self.X * self.y[:, None]


def _map_label(raw: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: malformed label {raw!r}") from None
    if value == 1.0:
        return 1.0
    if value == -1.0 or value == 0.0:  # {0,1} files map 0 to the negative class
        return -1.0
    raise ParseError(f"line {lineno}: unmappable label {raw!r} (need -1, 0, or +1)")


class _Rows(NamedTuple):
    """Parsed rows of one chunk: ``indptr`` starts at 0 and ``indices`` are
    0-based. The per-line reader returns lists, the vectorised one arrays."""

    labels: Sequence[float]
    indptr: Sequence[int]
    indices: Sequence[int]
    data: Sequence[float]


_MAX_INDEX = 2**31 - 1  # 1-based; the 0-based index must fit in int32


def _read_lines(lines, first_lineno: int = 1) -> _Rows:
    """The per-line reader of UTF-8 byte lines: every chunk the vectorised
    reader does not take, and the one place that reports a defect, the first
    in file order."""
    data, indices, indptr, labels = [], [], [0], []
    for lineno, line in enumerate(lines, start=first_lineno):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: byte {line[exc.start]:#04x} is not UTF-8") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], lineno))
        prev = 0
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")  # no colon: float("") fails
            try:
                ext_idx = int(idx_str)
                value = float(val_str)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: malformed token {token!r}"
                ) from None
            if ext_idx < 1:
                raise ParseError(f"line {lineno}: index {ext_idx} is not 1-based")
            if ext_idx > _MAX_INDEX:
                raise ParseError(f"line {lineno}: index {ext_idx} exceeds {_MAX_INDEX}")
            if ext_idx <= prev:
                raise ParseError(
                    f"line {lineno}: non-increasing index {ext_idx} after {prev}"
                )
            if not math.isfinite(value):
                raise ParseError(
                    f"line {lineno}: non-finite value {value!r} at index {ext_idx}"
                )
            prev = ext_idx
            indices.append(ext_idx - 1)
            data.append(value)
        indptr.append(len(data))
    return _Rows(labels, indptr, indices, data)


# Byte classes of the common grammar; 0 marks a byte that only the per-line
# reader handles (comments, non-ASCII bytes, letters of nan/inf, ...).
_DIGIT, _DOT, _EXP, _PLUS, _MINUS, _COLON, _BLANK, _NEWLINE = range(1, 9)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_CLASS[ord(".")] = _DOT
_CLASS[[ord("e"), ord("E")]] = _EXP
_CLASS[ord("+")] = _PLUS
_CLASS[ord("-")] = _MINUS
_CLASS[ord(":")] = _COLON
_CLASS[[ord(" "), ord("\t")]] = _BLANK
_CLASS[ord("\n")] = _NEWLINE

_POW10_INT = 10 ** np.arange(15, dtype=np.uint64)
_CHUNK_BYTES = 1 << 17


def _integers(digit, ends, length):
    """The integer spelled by each field of at most 15 digits, from its last
    digit back. ``digit`` holds the value of each digit byte and 0 for every
    other byte."""
    last = ends - 1
    out = digit[last].astype(np.uint64)
    longest = int(length.max(initial=0))
    if longest > 1:  # the byte before a field is worth 0: no mask needed
        out += digit[last - 1] * _POW10_INT[1]
    for k in range(2, longest):
        hit = np.flatnonzero(length > k)
        out[hit] += digit[last[hit] - k] * _POW10_INT[k]
    return out


def _literals(text, digit, starts, ends, plain):
    """Float value of the decimal literal in each field, or None when a
    field is not one or overflows; ``plain`` marks fields of digits only.

    A field of at most 15 digits spells an integer below 10**15 < 2**53, so
    its double is exact and integer arithmetic gives it. Every other field
    is copied out, followed by one blank, and all are read by one call to
    numpy's correctly rounded parser, which gives the bits ``float`` gives
    and raises on text that is not a whole decimal literal.
    """
    length = ends - starts
    short = plain & (length <= 15)
    value = np.empty(starts.size)
    at = slice(None) if short.all() else np.flatnonzero(short)  # all, in most files
    value[at] = _integers(digit, ends[at], length[at])
    rest = np.flatnonzero(~short)
    if rest.size:
        size = length[rest] + 1  # each field and the byte after it
        stop = np.cumsum(size)
        buf = text[np.arange(stop[-1]) + np.repeat(starts[rest] - (stop - size), size)]
        buf[stop - 1] = ord(" ")
        try:
            parsed = np.fromstring(buf.tobytes(), sep=" ")
        except ValueError:
            return None
        if parsed.size != rest.size or not np.isfinite(parsed).all():
            return None
        value[rest] = parsed
    return value


def _read_fields(chunk) -> _Rows | None:
    """Rows of one chunk of whole lines, parsed in numpy.

    Returns None when any byte or token lies outside the common grammar or
    fails a check, so that the per-line reader takes the chunk and reports
    any error. In the grammar every line is "label idx:val ..." with space
    or tab separators, labels in {-1, 0, +1}, indices of 1 to 9 digits that
    increase along the row, and decimal literals for finite values.
    """
    # bytes and their classes, with a newline at both ends
    text = np.empty(len(chunk) + 2, dtype=np.uint8)
    text[0] = text[-1] = ord("\n")
    text[1:-1] = np.frombuffer(chunk, dtype=np.uint8)
    cls = np.take(_CLASS, text)
    if not cls.all():
        return None
    in_field = cls <= _MINUS
    edges = np.flatnonzero(in_field[1:] != in_field[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    n, length = starts.size, ends - starts

    # a token is "label" or "index:value": each colon joins the field that
    # ends at it to the one that starts after it, and the remaining fields
    # are the first fields of their lines
    colon = cls == _COLON
    n_colons = np.count_nonzero(colon)
    if np.count_nonzero(colon[1:-1] & in_field[:-2] & in_field[2:]) != n_colons:
        return None
    is_index = cls[ends] == _COLON
    index_at = np.flatnonzero(is_index)
    value_at = index_at + 1
    if is_index[value_at].any():  # "a:b:c"
        return None
    is_row = np.ones(n, dtype=bool)
    is_row[index_at] = is_row[value_at] = False
    row_at = np.flatnonzero(is_row)
    first = np.searchsorted(starts, np.flatnonzero(cls == _NEWLINE))
    first = first[first < n]
    if not np.array_equal(first[np.diff(first, prepend=-1) > 0], row_at):
        return None

    # fields without a sign, dot or exponent
    plain = np.ones(n, dtype=bool)
    special = np.flatnonzero((cls >= _DOT) & (cls <= _MINUS))
    plain[np.searchsorted(starts, special, side="right") - 1] = False

    # indices: at most 9 digits, 1-based, increasing along each row
    size = length[index_at]
    if not plain[index_at].all() or size.max(initial=0) > 9:
        return None
    digit = (text - ord("0")) * (cls == _DIGIT)
    index = _integers(digit, ends[index_at], size).astype(np.int32)
    indptr = np.zeros(row_at.size + 1, dtype=np.int64)
    np.cumsum((np.diff(row_at, append=n) - 1) // 2, out=indptr[1:])
    step_up = np.diff(index) > 0
    row_first = indptr[1:-1]
    step_up[row_first[(row_first > 0) & (row_first < index.size)] - 1] = True
    if index.min(initial=1) < 1 or not step_up.all():
        return None

    values = _literals(text, digit, starts[value_at], ends[value_at], plain[value_at])
    labels = _literals(text, digit, starts[row_at], ends[row_at], plain[row_at])
    if values is None or labels is None:
        return None
    if not ((labels == 1.0) | (labels == -1.0) | (labels == 0.0)).all():
        return None
    return _Rows(np.where(labels == 1.0, 1.0, -1.0), indptr, index - 1, values)


def _read_bytes(text: bytes):
    """Rows of LF-ended input per chunk of whole lines, at most ``_CHUNK_BYTES``
    long unless one line is longer. Empty input is one empty chunk."""
    start, lineno = 0, 1
    while True:
        stop = len(text)
        if stop - start > _CHUNK_BYTES:
            stop = (text.rfind(b"\n", start, start + _CHUNK_BYTES) + 1
                    or text.find(b"\n", start + _CHUNK_BYTES) + 1 or stop)
        chunk = text[start:stop]
        yield _read_fields(chunk) or _read_lines(io.BytesIO(chunk), lineno)
        lineno += chunk.count(b"\n")
        start = stop
        if start >= len(text):
            return


def _memory_bytes() -> int:
    """Physical memory of the host: no dense array may be larger."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_fits(what: str, floats: int, error: type[ValueError]) -> None:
    """Raise ``error`` before allocating ``what``, ``floats`` float64 values,
    when it would be larger than physical memory."""
    size, limit = floats * 8, _memory_bytes()
    if size > limit:
        raise error(f"{what} needs {size} bytes, more than the {limit} bytes of memory")


def _dataset(most_rows: int, blocks) -> Dataset:
    """Scatter each block of at least one into a dense matrix of ``most_rows``
    rows, as wide as the widest block so far, as soon as it is read; a larger
    index copies it into a wider one, after checking that this fits in memory.

    A matrix too large for memory is reported only after the remaining blocks
    have been read, so that a text defect anywhere in the input comes first,
    however the input was cut into blocks."""
    X, m, labels, too_large = np.zeros((most_rows, 0)), 0, [], None
    for rows in blocks:
        if too_large is not None:
            continue
        labels.append(np.asarray(rows.labels, dtype=np.float64))
        indices = np.asarray(rows.indices, dtype=np.int64)
        n = max(X.shape[1], int(indices.max(initial=-1)) + 1)
        if n > X.shape[1]:
            shape = f"dense matrix of m={most_rows} rows and n={n} features"
            try:
                _check_fits(shape, most_rows * n, ParseError)
            except ParseError as exc:
                too_large = exc
                continue
            wider = np.zeros((most_rows, n))
            wider[:m, : X.shape[1]] = X[:m]
            X = wider
        k = labels[-1].size
        at = np.repeat(np.arange(m, m + k) * n, np.diff(rows.indptr))
        at += indices
        # an explicit -0 reads +0, as a sum into zeros would
        X.ravel()[at] = np.asarray(rows.data, dtype=np.float64) + 0.0
        m += k
    if too_large is not None:
        raise too_large
    return Dataset(X[:m], np.concatenate(labels))


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based indices) from a
    string or from UTF-8 bytes.

    LF, CRLF and a lone CR each end a line. Blank lines and '#' comments are
    ignored. Labels in {+1,-1} are kept and {0,1} files map to {-1,+1}. The
    feature count is 1 + the largest (0-based) index; ``widen`` pads to more.
    The first defect in file order is a ParseError naming its line: a
    malformed label or token, an index that is not 1-based, increasing and at
    most 2**31 - 1 (the largest that int32 holds), a value that is not finite
    (nan, inf, or a literal like 1e400 that overflows), or a non-UTF-8 byte.

    The matrix is dense and filled while the input is read, in chunks of
    about 128 KiB cut at line ends. One larger than physical memory, sized at
    one row per line, is never allocated: it is a ParseError once the rest of
    the input has been read without a defect, so the error does not depend
    on where the chunks are cut.

    A chunk whose lines all fit the common grammar of ``_read_fields`` is
    parsed in numpy, bit for bit as ``float`` reads it. A per-line reader
    gives the same rows for every other chunk, such as one with a comment, a
    non-ASCII byte, a nan, inf or underscore literal, or a defect.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    elif not isinstance(text, bytes):
        raise TypeError(f"need str or bytes, got {type(text).__name__}")
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = text.count(b"\n") + (not text.endswith(b"\n"))
    return _dataset(lines, _read_bytes(text))


@dataclass(frozen=True)
class ScalingMap:
    """Per-feature (min, max) fitted on a training split. Features with
    min == max always map to 0."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def n(self) -> int:
        return self.mins.shape[0]


def fit_scaling(train: Dataset) -> ScalingMap:
    """Per-feature min/max over the training split. A feature whose range
    max - min overflows is a ValueError."""
    if train.m < 1:
        raise ValueError("cannot fit scaling on an empty dataset")
    mins, maxs = train.X.min(axis=0), train.X.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(maxs - mins) & np.isfinite(mins) & np.isfinite(maxs))
    if wide.size:
        j = int(wide[0])
        raise ValueError(f"feature {j + 1}: range {float(mins[j])!r} to {float(maxs[j])!r} overflows")
    return ScalingMap(mins, maxs)


def apply_scaling(ds: Dataset, smap: ScalingMap) -> Dataset:
    """Affine map x' = 2(x - min)/(max - min) - 1 per feature.

    Values from a different split may land outside [-1, 1]; they are not
    clipped. Constant features map to 0.
    """
    if ds.n != smap.n:
        raise ValueError(f"dimension mismatch: dataset n={ds.n}, map n={smap.n}")
    span = smap.maxs - smap.mins
    with np.errstate(over="ignore"):
        offset = ds.X - smap.mins
    rows, cols = np.isinf(offset).nonzero()
    with np.errstate(divide="ignore", invalid="ignore"):
        # dividing first keeps a range above half the largest float finite;
        # where x - min overflows, x and min are divided apart
        scaled = offset / span * 2.0 - 1.0
        sp = span[cols]
        scaled[rows, cols] = (ds.X[rows, cols] / sp - smap.mins[cols] / sp) * 2.0 - 1.0
    scaled[:, span == 0.0] = 0.0
    return Dataset(scaled, ds.y.copy())


def flip_labels(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Negate the labels of floor(rate*m) distinct rows chosen by a seeded
    generator; the same seed gives the same flips."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"flip rate must be in [0, 1], got {rate}")
    count = int(np.floor(rate * ds.m))
    rng = np.random.default_rng(seed)
    picked = rng.choice(ds.m, size=count, replace=False)
    y = ds.y.copy()
    y[picked] = -y[picked]
    return Dataset(ds.X, y)


def kfold_plan(m: int, k: int, seed: int) -> np.ndarray:
    """The int64 fold of each of m samples: a seeded random permutation
    dealt round-robin into k folds, so fold sizes differ by at most 1."""
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    folds = np.empty(m, dtype=np.int64)
    folds[perm] = np.arange(m) % k
    return folds


def subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    """Dataset restricted to the given rows, by index array or boolean mask."""
    return Dataset(ds.X[idx], ds.y[idx])


def widen(ds: Dataset, n: int) -> Dataset:
    """The dataset with zero columns appended up to ``n`` features, as if its
    text had declared them; the input itself, not a copy, when it has ``n``
    features or more. It is the one way to fix a width past the largest
    index read. A result larger than physical memory is a ValueError."""
    if ds.n >= n:
        return ds
    _check_fits(f"dense matrix of m={ds.m} rows and n={n} features", ds.m * n, ValueError)
    return Dataset(np.pad(ds.X, ((0, 0), (0, n - ds.n))), ds.y)


def align_features(a: Dataset, b: Dataset):
    """Widen both datasets to a shared feature dimension (zero columns)."""
    n = max(a.n, b.n)
    return widen(a, n), widen(b, n)
