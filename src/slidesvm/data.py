"""Dataset handling: LIBSVM text parsing, per-feature min-max scaling,
seeded label flipping, and k-fold partitioning."""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Dataset",
    "ScalingMap",
    "FoldPlan",
    "ParseError",
    "parse_libsvm",
    "write_libsvm",
    "fit_scaling",
    "apply_scaling",
    "flip_labels",
    "kfold_plan",
    "subset",
    "align_features",
    "widen",
    "gaussian_clusters",
]


class ParseError(ValueError):
    """Malformed LIBSVM input; the message carries the 1-based line number."""


@dataclass(eq=False)
class Dataset:
    """Row-sparse feature matrix with labels in {+1, -1}.

    Treated as immutable after construction; every operation in this module
    returns a new Dataset.
    """

    X: sp.csr_matrix = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"labels length {self.y.shape[0]} != row count {self.X.shape[0]}"
            )
        self._signed_dense = None

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def signed_matrix(self) -> np.ndarray:
        """Dense matrix whose i-th row is ``y_i * x_i`` (cached)."""
        if self._signed_dense is None:
            self._signed_dense = self.X.toarray() * self.y[:, None]
        return self._signed_dense

    def row(self, i: int):
        """Sparse row ``i`` as (indices, values) arrays."""
        start, stop = self.X.indptr[i], self.X.indptr[i + 1]
        return self.X.indices[start:stop], self.X.data[start:stop]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.X.shape == other.X.shape
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.X.indptr, other.X.indptr)
            and np.array_equal(self.X.indices, other.X.indices)
            and np.array_equal(self.X.data, other.X.data)
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_signed_dense"] = None  # never ship the cache across processes
        return state


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
    """Parsed rows of one stretch of input, before the whole-input checks.

    ``indptr`` starts at 0; ``indices`` are 0-based; ``row_lines`` holds the
    1-based line number of each row. The per-line reader returns lists, the
    vectorised one arrays and no line numbers: it never returns a non-finite
    value, the one error reported after all rows are read.
    """

    labels: Sequence[float]
    indptr: Sequence[int]
    indices: Sequence[int]
    data: Sequence[float]
    row_lines: Sequence[int] | None
    max_index: int


def _read_lines(lines, first_lineno: int = 1) -> _Rows:
    """The per-line reader: every input the vectorised reader does not take,
    and the one place that reports a malformed line."""
    data, indices, indptr, labels = [], [], [0], []
    row_lines = array("l")  # line number of each row, for error messages
    max_index = -1
    for lineno, line in enumerate(lines, start=first_lineno):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], lineno))
        row_lines.append(lineno)
        prev = 0
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")
            if not _:
                raise ParseError(f"line {lineno}: malformed token {token!r}")
            try:
                ext_idx = int(idx_str)
                value = float(val_str)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: malformed token {token!r}"
                ) from None
            if ext_idx < 1:
                raise ParseError(f"line {lineno}: index {ext_idx} is not 1-based")
            if ext_idx <= prev:
                raise ParseError(
                    f"line {lineno}: non-increasing index {ext_idx} after {prev}"
                )
            prev = ext_idx
            indices.append(ext_idx - 1)
            data.append(value)
        max_index = max(max_index, prev - 1)
        indptr.append(len(data))
    return _Rows(labels, indptr, indices, data, row_lines, max_index)


# Byte classes of the common grammar; 0 marks a byte that only the per-line
# reader handles (comments, CR, letters of nan/inf, underscores, ...).
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

# The automaton that reads a decimal literal,
# [+-]? (digits [. digits?] | . digits) ([eE] [+-]? digits)?, one byte a step.
# States: 0 start, 1 sign, 2 integer digits, 3 leading dot, 4 fraction
# digits, 5 exponent mark, 6 exponent sign, 7 exponent digits, 8 rejected.
# Tables are indexed by 16 * state + class.
_NEXT = np.full((9, 16), 8, dtype=np.uint8)
_NEXT[:8, _DIGIT] = [2, 2, 2, 4, 4, 7, 7, 7]
_NEXT[[0, 1, 2], _DOT] = [3, 3, 4]
_NEXT[[2, 4], _EXP] = 5
_NEXT[[0, 5], _PLUS] = _NEXT[[0, 5], _MINUS] = [1, 6]
_NEXT = _NEXT.ravel()
_MANTISSA_DIGIT = np.zeros((9, 16), dtype=bool)
_MANTISSA_DIGIT[:5, _DIGIT] = True
_FRACTION_DIGIT = np.zeros((9, 16), dtype=np.uint8)
_FRACTION_DIGIT[[3, 4], _DIGIT] = 1
_EXPONENT_DIGIT = np.zeros((9, 16), dtype=bool)
_EXPONENT_DIGIT[5:8, _DIGIT] = True
_EXPONENT_MINUS = np.zeros((9, 16), dtype=bool)
_EXPONENT_MINUS[5, _MINUS] = True
_MANTISSA_DIGIT, _FRACTION_DIGIT, _EXPONENT_DIGIT, _EXPONENT_MINUS = (
    t.ravel() for t in (_MANTISSA_DIGIT, _FRACTION_DIGIT, _EXPONENT_DIGIT, _EXPONENT_MINUS)
)
_ACCEPT = np.zeros(9, dtype=bool)
_ACCEPT[[2, 4, 7]] = True

_POW10 = 10.0 ** np.arange(23)  # exact: every power up to 10**22 is a double
_POW10_INT = 10 ** np.arange(19, dtype=np.uint64)
_MAX_FIELD = 64  # longer fields go to the per-line reader; must fit uint8
_CHUNK_BYTES = 1 << 18


def _to_float(chunk, mantissa, digits, power, negative, starts, ends):
    """Values of literals from their mantissa M, its digit count, decimal
    exponent k and sign, or None when one overflows.

    With M <= 2**53 and |k| <= 22, M * 10**k or M / 10**-k is one correctly
    rounded operation on exact doubles, which is what ``float`` returns; any
    other literal goes through ``float``. ``power`` and ``negative`` may be
    None for literals of digits only.
    """
    value = mantissa.astype(np.float64)
    exact = (digits <= 19) & (mantissa <= 2**53)
    if power is not None:
        exact &= np.abs(power) <= 22
        scale = _POW10[np.minimum(np.abs(power), 22)]
        value = np.where(power >= 0, value * scale, value / scale)
        np.negative(value, out=value, where=negative)
    if not exact.all():
        slow = np.flatnonzero(~exact)
        bounds = zip((starts[slow] - 1).tolist(), (ends[slow] - 1).tolist())
        value[slow] = [float(chunk[a:b]) for a, b in bounds]
        if not np.isfinite(value[slow]).all():
            return None
    return value


def _integers(digit, ends, length):
    """The integer spelled by each field of digits, from its last digit
    back; only the last 19 digits count. ``digit`` holds the value of each
    digit byte and 0 for every other byte."""
    last = ends - 1
    out = digit[last].astype(np.uint64)
    longest = min(int(length.max(initial=0)), 19)
    if longest > 1:  # the byte before a field is worth 0: no mask needed
        out += digit[last - 1] * _POW10_INT[1]
    for k in range(2, longest):
        hit = np.flatnonzero(length > k)
        out[hit] += digit[last[hit] - k] * _POW10_INT[k]
    return out


def _automaton(chunk, cls, digit, starts, length):
    """Values of fields that hold a sign, dot or exponent, read by the
    automaton one byte position a step, or None when one is not a decimal
    literal or overflows.

    Fields run longest first, so that the ones still being read at step k
    are a prefix of the arrays.
    """
    order = np.argsort(length.astype(np.uint8), kind="stable")[::-1]
    starts, length = starts[order], length[order]
    n = starts.size
    reading = n - np.cumsum(np.bincount(length, minlength=_MAX_FIELD + 1))
    state = np.zeros(n, dtype=np.uint8)
    mantissa = np.zeros(n, dtype=np.uint64)
    digits = np.zeros(n, dtype=np.uint8)
    frac_digits = np.zeros(n, dtype=np.uint8)
    exponent = np.zeros(n, dtype=np.int64)
    exp_negative = np.zeros(n, dtype=bool)
    for k in range(int(length.max(initial=0))):
        at = slice(0, reading[k])
        pos = starts[at] + k
        step = state[at] * 16 + cls[pos]
        d = digit[pos]
        state[at] = _NEXT[step]
        hit = _MANTISSA_DIGIT[step]
        np.copyto(mantissa[at], mantissa[at] * 10 + d, where=hit)
        digits[at] += hit
        frac_digits[at] += _FRACTION_DIGIT[step]
        if (state[at] >= 5).any():  # exponents: rare, capped far past the exact range
            hit = _EXPONENT_DIGIT[step]
            np.copyto(exponent[at], np.minimum(exponent[at] * 10 + d, 10**6), where=hit)
            exp_negative[at] |= _EXPONENT_MINUS[step]
    if not _ACCEPT[state].all():
        return None
    power = np.where(exp_negative, -exponent, exponent) - frac_digits
    value = _to_float(
        chunk, mantissa, digits, power, cls[starts] == _MINUS, starts, starts + length
    )
    if value is None:
        return None
    out = np.empty(n)
    out[order] = value
    return out


def _literals(chunk, cls, digit, starts, ends, plain):
    """Float value of the decimal literal in each field, or None when a
    field is not one or overflows; ``plain`` marks fields of digits only."""
    length = ends - starts
    at = slice(None) if plain.all() else np.flatnonzero(plain)  # all, in most files
    value = np.empty(starts.size)
    ints = _to_float(
        chunk, _integers(digit, ends[at], length[at]), length[at], None, None,
        starts[at], ends[at],
    )
    if ints is None:
        return None
    value[at] = ints
    rest = np.flatnonzero(~plain)
    if rest.size:
        decimals = _automaton(chunk, cls, digit, starts[rest], length[rest])
        if decimals is None:
            return None
        value[rest] = decimals
    return value


def _read_fields(chunk) -> _Rows | None:
    """Rows of one ASCII chunk of whole lines, parsed in numpy.

    Returns None when any byte or token lies outside the common grammar or
    fails a check (labels in {-1, 0, +1}, digits-only 1-based strictly
    increasing indices, finite values), so that the per-line reader takes the
    chunk and reports any error.
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
    if length.max(initial=0) > _MAX_FIELD:
        return None

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

    values = _literals(chunk, cls, digit, starts[value_at], ends[value_at], plain[value_at])
    labels = _literals(chunk, cls, digit, starts[row_at], ends[row_at], plain[row_at])
    if values is None or labels is None:
        return None
    if not ((labels == 1.0) | (labels == -1.0) | (labels == 0.0)).all():
        return None
    return _Rows(
        np.where(labels == 1.0, 1.0, -1.0),
        indptr,
        index - 1,
        values,
        None,
        int(index.max(initial=0)) - 1,
    )


def _read_bytes(text: bytes) -> list[_Rows]:
    """Rows of ASCII input, chunk by chunk; each chunk ends at a newline.
    Empty input is one empty chunk."""
    blocks = []
    start, lineno = 0, 1
    while start < len(text) or not blocks:
        stop = len(text)
        if stop - start > _CHUNK_BYTES:
            cut = text.rfind(b"\n", start, start + _CHUNK_BYTES)
            if cut < 0:
                cut = text.find(b"\n", start + _CHUNK_BYTES)
            if cut >= 0:
                stop = cut + 1
        chunk = text[start:stop]
        rows = _read_fields(chunk)
        if rows is None:
            rows = _read_lines(io.StringIO(chunk.decode("ascii")), lineno)
        blocks.append(rows)
        lineno += chunk.count(b"\n")
        start = stop
    return blocks


def _dataset(blocks, n_features: int | None) -> Dataset:
    """Join parsed blocks after the whole-input checks: the first non-finite
    value in input order, then the declared dimension."""
    values = [np.asarray(rows.data, dtype=np.float64) for rows in blocks]
    for rows, vals in zip(blocks, values):
        finite = np.isfinite(vals)
        if not finite.all():
            pos = int(np.argmin(finite))
            row = int(np.searchsorted(rows.indptr, pos, side="right")) - 1
            raise ParseError(
                f"line {rows.row_lines[row]}: non-finite value {float(vals[pos])!r} "
                f"at index {rows.indices[pos] + 1}"
            )

    max_index = max(rows.max_index for rows in blocks)
    n = max_index + 1 if n_features is None else n_features
    if n_features is not None and max_index >= n_features:
        raise ParseError(
            f"feature index {max_index + 1} exceeds declared dimension {n_features}"
        )
    indptr, offset = [np.zeros(1, dtype=np.int64)], 0
    for vals, rows in zip(values, blocks):
        indptr.append(np.asarray(rows.indptr[1:], dtype=np.int64) + offset)
        offset += vals.size
    labels = np.concatenate([np.asarray(rows.labels, dtype=np.float64) for rows in blocks])
    X = sp.csr_matrix(
        (
            np.concatenate(values),
            np.concatenate([np.asarray(rows.indices, dtype=np.int32) for rows in blocks]),
            np.concatenate(indptr).astype(np.int32),
        ),
        shape=(labels.size, n),
    )
    return Dataset(X, labels)


def parse_libsvm(text, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based indices).

    Accepts a string, bytes, or a line iterable. Blank lines and '#' comments
    are ignored. Labels in {+1,-1} are kept and {0,1} files map to {-1,+1}.
    Feature values must be finite: nan, inf and literals that overflow to inf
    (1e400) are errors, reported with their line. The feature count is
    inferred as 1 + the largest (0-based) index unless ``n_features``
    overrides it, in which case any out-of-range index is an error. In a
    string or bytes only the newline character ends a line; a carriage
    return is blank space.

    ASCII strings and bytes are parsed in numpy, in chunks of about 256 KiB
    cut at newlines, where every line is "label idx:val ..." with space or
    tab separators, decimal literals, indices of at most 9 digits and labels
    in {-1, 0, +1}. A per-line reader takes everything else and gives the
    same arrays and the same errors: line iterables, non-ASCII text, and
    each chunk that holds a comment, a carriage return, a nan, inf or
    underscore literal, a field longer than 64 bytes, a signed index, or any
    malformed line.
    """
    if isinstance(text, str) and text.isascii():
        text = text.encode("ascii")
    if isinstance(text, bytes) and text.isascii():
        return _dataset(_read_bytes(text), n_features)
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = io.StringIO(text) if isinstance(text, str) else text
    return _dataset([_read_lines(lines)], n_features)


def write_libsvm(ds: Dataset) -> str:
    """Render a Dataset back to LIBSVM text (1-based indices, repr floats)."""
    out = []
    for i in range(ds.m):
        idx, val = ds.row(i)
        parts = ["+1" if ds.y[i] > 0 else "-1"]
        parts += [f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val)]
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


@dataclass(frozen=True)
class ScalingMap:
    """Per-feature (min, max) fitted on a training split; absent sparse
    entries count as 0. Features with min == max always map to 0."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def n(self) -> int:
        return self.mins.shape[0]

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        lines += [
            f"{j}={float(self.mins[j])!r},{float(self.maxs[j])!r}"
            for j in range(self.n)
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScalingMap":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n = int(lines[0].split("=", 1)[1])
        mins = np.empty(n)
        maxs = np.empty(n)
        for ln in lines[1:]:
            key, _, rest = ln.partition("=")
            lo, hi = rest.split(",")
            mins[int(key)] = float(lo)
            maxs[int(key)] = float(hi)
        return cls(mins, maxs)


def fit_scaling(train: Dataset) -> ScalingMap:
    """Per-feature min/max over the training split."""
    if train.m < 1:
        raise ValueError("cannot fit scaling on an empty dataset")
    mins = np.asarray(train.X.min(axis=0).todense()).ravel()
    maxs = np.asarray(train.X.max(axis=0).todense()).ravel()
    return ScalingMap(mins, maxs)


def apply_scaling(ds: Dataset, smap: ScalingMap) -> Dataset:
    """Affine map x' = 2(x - min)/(max - min) - 1 per feature.

    Values from a different split may land outside [-1, 1]; they are not
    clipped. Constant features map to 0.
    """
    if ds.n != smap.n:
        raise ValueError(f"dimension mismatch: dataset n={ds.n}, map n={smap.n}")
    dense = ds.X.toarray()
    span = smap.maxs - smap.mins
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = 2.0 * (dense - smap.mins) / span - 1.0
    scaled[:, span == 0.0] = 0.0
    return Dataset(sp.csr_matrix(scaled), ds.y.copy())


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


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each sample to one of k folds; sizes differ by at most 1."""

    k: int
    assignments: np.ndarray
    seed: int

    def fold_indices(self, fold: int):
        """(test_idx, train_idx) for one fold."""
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return test, train

    def to_text(self) -> str:
        body = ",".join(str(int(a)) for a in self.assignments)
        return f"k={self.k}\nseed={self.seed}\nassignments={body}\n"

    @classmethod
    def from_text(cls, text: str) -> "FoldPlan":
        fields = dict(
            ln.split("=", 1) for ln in text.splitlines() if ln.strip()
        )
        assignments = np.array(
            [int(a) for a in fields["assignments"].split(",")], dtype=np.int64
        )
        return cls(int(fields["k"]), assignments, int(fields["seed"]))


def kfold_plan(m: int, k: int, seed: int) -> FoldPlan:
    """Seeded random permutation dealt round-robin into k folds."""
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    assignments = np.empty(m, dtype=np.int64)
    assignments[perm] = np.arange(m) % k
    return FoldPlan(k, assignments, seed)


def subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    """Dataset restricted to the given row indices."""
    return Dataset(sp.csr_matrix(ds.X[idx]), ds.y[idx])


def widen(ds: Dataset, n: int) -> Dataset:
    """The dataset with zero columns appended up to ``n`` features; the same
    arrays that ``parse_libsvm(..., n_features=n)`` gives."""
    if ds.n >= n:
        return ds
    X = sp.csr_matrix((ds.X.data, ds.X.indices, ds.X.indptr), shape=(ds.m, n))
    return Dataset(X, ds.y)


def align_features(a: Dataset, b: Dataset):
    """Widen both datasets to a shared feature dimension (zero columns)."""
    n = max(a.n, b.n)
    return widen(a, n), widen(b, n)


def gaussian_clusters(
    m: int = 200, seed: int = 0, center: float = 2.0
) -> Dataset:
    """Two unit-variance 2-D Gaussian clusters at (+c, +c) with label +1 and
    (-c, -c) with label -1, half the samples each. Handy as a separable demo
    and test fixture that needs no data files."""
    rng = np.random.default_rng(seed)
    half = m // 2
    pos = rng.normal(loc=center, scale=1.0, size=(half, 2))
    neg = rng.normal(loc=-center, scale=1.0, size=(m - half, 2))
    X = sp.csr_matrix(np.vstack([pos, neg]))
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    return Dataset(X, y)
