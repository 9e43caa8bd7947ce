"""Dataset handling: LIBSVM text parsing, per-feature min-max scaling,
seeded label flipping, and k-fold partitioning."""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field

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


def parse_libsvm(text, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based indices).

    Accepts a string, bytes, or a line iterable. Blank lines and '#' comments
    are ignored. Labels in {+1,-1} are kept and {0,1} files map to {-1,+1}.
    Feature values must be finite: nan, inf and literals that overflow to inf
    (1e400) are errors, reported with their line. The feature count is
    inferred as 1 + the largest (0-based) index unless ``n_features``
    overrides it, in which case any out-of-range index is an error.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = io.StringIO(text) if isinstance(text, str) else text

    data, indices, indptr, labels = [], [], [0], []
    row_lines = array("l")  # line number of each row, for error messages
    max_index = -1
    for lineno, line in enumerate(lines, start=1):
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

    values = np.asarray(data, dtype=np.float64)
    if not np.isfinite(values).all():
        pos = int(np.argmin(np.isfinite(values)))
        row = int(np.searchsorted(indptr, pos, side="right")) - 1
        raise ParseError(
            f"line {row_lines[row]}: non-finite value {float(values[pos])!r} "
            f"at index {indices[pos] + 1}"
        )

    n = max_index + 1 if n_features is None else n_features
    if n_features is not None and max_index >= n_features:
        raise ParseError(
            f"feature index {max_index + 1} exceeds declared dimension {n_features}"
        )
    X = sp.csr_matrix(
        (
            values,
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(len(labels), n),
    )
    return Dataset(X, np.asarray(labels))


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


def align_features(a: Dataset, b: Dataset):
    """Widen both datasets to a shared feature dimension (zero columns)."""
    n = max(a.n, b.n)

    def widen(ds: Dataset) -> Dataset:
        if ds.n == n:
            return ds
        X = sp.csr_matrix(
            (ds.X.data, ds.X.indices, ds.X.indptr), shape=(ds.m, n)
        )
        return Dataset(X, ds.y)

    return widen(a), widen(b)


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
