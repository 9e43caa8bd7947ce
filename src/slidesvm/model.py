"""Trained-model artifact: prediction, accuracy, support-vector extraction,
and text persistence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, _check_fits
from .loss import SlideParams

if TYPE_CHECKING:
    from .admm import TrainConfig

FORMAT_HEADER = "slidesvm-model v1"


@dataclass(frozen=True)
class SupportSet:
    """Training rows with strictly negative multipliers at the final iterate.

    ``t1`` holds rows whose multiplier sits strictly inside its range (their
    confidence margin equals 1 - epsilon), ``t2`` rows pinned at
    -C/(v - epsilon), which only occur when C/delta < 2*(v-eps)^2. ``t_star``
    is their union; when ``t2`` is empty, ``t1 == t_star``.
    """

    t_star: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    lambda_values: np.ndarray


def extract_support_vectors(lam: np.ndarray, cfg: "TrainConfig") -> SupportSet:
    """Classify multipliers into the support set using threshold 10*tol for
    "nonzero" (finite iterations never land exactly on 0 or -C/(v-eps))."""
    theta = 10.0 * cfg.tol
    lam = np.asarray(lam, dtype=np.float64)
    t_star = np.flatnonzero(lam < -theta)
    # only the ramp regime has shifted rows, whose multiplier is -C/(v-eps)
    at_pin = np.abs(lam[t_star] + cfg.C / cfg.slide.ramp_width) <= theta
    at_pin &= cfg.thresholds.ramp_regime
    return SupportSet(t_star, t_star[~at_pin], t_star[at_pin], lam[t_star])


@dataclass(frozen=True)
class Model:
    """Decision hyperplane sign(<w, x> + b) with its hyperparameters and
    training diagnostics."""

    w: np.ndarray = field(repr=False)
    b: float
    slide: SlideParams
    C: float
    delta: float
    support: SupportSet = field(repr=False)
    converged: bool
    iterations: int

    @property
    def n(self) -> int:
        return self.w.shape[0]


def predict_dataset(model: Model, ds: Dataset) -> np.ndarray:
    """Label every row: +1 where <w, x> + b > 0, else -1 (ties go negative)."""
    return np.where(ds.X @ model.w + model.b > 0.0, 1.0, -1.0)


def accuracy(model: Model, ds: Dataset) -> float:
    """Fraction of samples whose predicted sign matches the label."""
    if ds.m == 0:
        raise ValueError("empty dataset")
    return float(np.mean(predict_dataset(model, ds) == ds.y))


def confusion_counts(model: Model, ds: Dataset):
    """(tp, fp, tn, fn) counts over a dataset."""
    pred = predict_dataset(model, ds)
    pos, neg = ds.y > 0, ds.y < 0
    tp = int(np.sum(pred[pos] > 0))
    fn = int(np.sum(pred[pos] < 0))
    tn = int(np.sum(pred[neg] < 0))
    fp = int(np.sum(pred[neg] > 0))
    return tp, fp, tn, fn


class ModelFormatError(ValueError):
    """Corrupt, truncated, or incompatible model text."""


# The v1 layout after the header line: one "tag=value" line per scalar
# field, then one "tag i:x i:x ..." line per sparse vector. The writer keeps
# this order; the reader matches lines by tag.
SCALAR_TAGS = ("n", "C", "delta", "epsilon", "v", "converged", "iterations", "b")
VECTOR_TAGS = ("w", "support_t1", "support_t2")


def _entries(idx: np.ndarray, vals: np.ndarray) -> str:
    return " ".join(f"{int(j)}:{float(x)!r}" for j, x in zip(idx, vals))


def _parse_entries(body: str, what: str):
    idx, vals = [], []
    for token in body.split():
        k, _, v = token.partition(":")  # no colon: float("") fails
        try:
            idx.append(int(k))
            vals.append(float(v))
        except ValueError:
            raise ModelFormatError(f"malformed {what} entry {token!r}") from None
        if idx[-1] < 0:
            raise ModelFormatError(f"negative index in {what} entry {token!r}")
        if not math.isfinite(vals[-1]):
            raise ModelFormatError(f"non-finite {what} entry {token!r}")
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64)


def _check_distinct(sorted_idx: np.ndarray, what: str):
    twice = sorted_idx[1:][sorted_idx[1:] == sorted_idx[:-1]]
    if twice.size:
        raise ModelFormatError(f"{what} index {int(twice[0])} listed twice")


def dumps_model(model: Model) -> str:
    """Line-oriented text rendering; floats use repr so the round trip is
    exact. Text that ``loads_model`` rejects, such as a non-finite b, raises
    its ModelFormatError."""
    converged = "true" if model.converged else "false"
    scalars = (model.n, repr(model.C), repr(model.delta), repr(model.slide.epsilon),
               repr(model.slide.v), converged, model.iterations, repr(model.b))
    sup = model.support
    nonzero = np.flatnonzero(model.w)
    vectors = [(nonzero, model.w[nonzero])] + [
        (rows, sup.lambda_values[np.searchsorted(sup.t_star, rows)])
        for rows in (sup.t1, sup.t2)
    ]
    lines = [FORMAT_HEADER]
    lines += [f"{tag}={value}" for tag, value in zip(SCALAR_TAGS, scalars)]
    lines += [f"{tag} {_entries(*vec)}" for tag, vec in zip(VECTOR_TAGS, vectors)]
    text = "\n".join(lines) + "\n"
    loads_model(text)
    return text


def loads_model(text: str) -> Model:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ModelFormatError(
            f"bad header: expected {FORMAT_HEADER!r}, got {lines[0]!r}"
            if lines
            else "empty model text"
        )
    fields = {}
    for ln in lines[1:]:
        tag, _, value = ln.partition(" ")
        if tag not in VECTOR_TAGS:
            tag, _, value = ln.partition("=")
            if tag not in SCALAR_TAGS:
                raise ModelFormatError(f"unknown tag in line {ln!r}")
        if tag in fields:
            raise ModelFormatError(f"repeated {tag!r} line")
        fields[tag] = value
    for tag in SCALAR_TAGS + VECTOR_TAGS:
        if tag not in fields:
            raise ModelFormatError(f"truncated model text: missing {tag!r} line")

    try:
        n = int(fields["n"])
        C = float(fields["C"])
        delta = float(fields["delta"])
        epsilon = float(fields["epsilon"])
        v = float(fields["v"])
        converged = {"true": True, "false": False}[fields["converged"]]
        iterations = int(fields["iterations"])
        b = float(fields["b"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad header field: {exc}") from None
    if not math.isfinite(b):
        raise ModelFormatError(f"non-finite bias b={fields['b']}")
    for tag, value in (("C", C), ("delta", delta)):
        if not (math.isfinite(value) and value > 0.0):
            raise ModelFormatError(f"{tag} must be finite and positive, got {tag}={fields[tag]}")
    if iterations < 0:
        raise ModelFormatError(f"negative iteration count iterations={iterations}")
    try:
        slide = SlideParams(epsilon, v)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if n < 0:
        raise ModelFormatError(f"negative dimension n={n}")
    _check_fits(f"weight vector of n={n} features", n, ModelFormatError)

    w_idx, w_val = _parse_entries(fields["w"], "weight")
    if w_idx.size and w_idx.max() >= n:
        raise ModelFormatError(
            f"weight index {int(w_idx.max())} inconsistent with n={n}"
        )
    _check_distinct(np.sort(w_idx), "weight")
    w = np.zeros(n)
    w[w_idx] = w_val

    t1_idx, t1_val = _parse_entries(fields["support_t1"], "support")
    t2_idx, t2_val = _parse_entries(fields["support_t2"], "support")
    order = np.argsort(np.concatenate([t1_idx, t2_idx]), kind="stable")
    all_idx = np.concatenate([t1_idx, t2_idx])[order]
    all_val = np.concatenate([t1_val, t2_val])[order]
    _check_distinct(all_idx, "support")
    support = SupportSet(all_idx, np.sort(t1_idx), np.sort(t2_idx), all_val)

    return Model(
        w=w,
        b=b,
        slide=slide,
        C=C,
        delta=delta,
        support=support,
        converged=converged,
        iterations=iterations,
    )


def save_model(model: Model, path) -> None:
    text = dumps_model(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"byte 0x{raw[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None
    # splitlines in loads_model takes CRLF and CR as text mode's newline
    # translation would
    return loads_model(text)
