"""Trained-model artifact: prediction, accuracy, support-vector extraction,
margin identities, and text persistence."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .loss import SlideParams

if TYPE_CHECKING:
    from .admm import TrainConfig

__all__ = [
    "Model",
    "SupportSet",
    "MarginReport",
    "ModelFormatError",
    "extract_support_vectors",
    "decision_values",
    "predict",
    "predict_dataset",
    "accuracy",
    "margin_identity_check",
    "reconstruct_hyperplane",
    "dumps_model",
    "loads_model",
    "save_model",
    "load_model",
]

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

    @property
    def size(self) -> int:
        return self.t_star.size


def extract_support_vectors(lam: np.ndarray, cfg: "TrainConfig") -> SupportSet:
    """Classify multipliers into the support set using threshold 10*tol for
    "nonzero" (finite iterations never land exactly on 0 or -C/(v-eps))."""
    theta = 10.0 * cfg.tol
    lam = np.asarray(lam, dtype=np.float64)
    t_star = np.flatnonzero(lam < -theta)
    if cfg.thresholds.ramp_regime:
        pinned_value = -cfg.C / cfg.slide.ramp_width
        at_pin = np.abs(lam[t_star] - pinned_value) <= theta
        t2 = t_star[at_pin]
        t1 = t_star[~at_pin]
    else:
        t1 = t_star
        t2 = np.empty(0, dtype=np.int64)
    return SupportSet(t_star, t1, t2, lam[t_star])


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


def decision_values(model: Model, ds: Dataset) -> np.ndarray:
    return ds.X @ model.w + model.b


def predict(model: Model, x) -> int:
    """Label one sample: +1 when <w, x> + b > 0, else -1 (ties go negative)."""
    if sp.issparse(x):
        score = float((x @ model.w).ravel()[0]) + model.b
    else:
        score = float(np.asarray(x, dtype=np.float64) @ model.w) + model.b
    return 1 if score > 0.0 else -1


def predict_dataset(model: Model, ds: Dataset) -> np.ndarray:
    scores = decision_values(model, ds)
    return np.where(scores > 0.0, 1.0, -1.0)


def accuracy(model: Model, ds: Dataset, *, pred: np.ndarray | None = None) -> float:
    """Fraction of samples whose predicted sign matches the label.

    ``pred`` may pass in ``predict_dataset(model, ds)`` already computed.
    """
    if ds.m == 0:
        raise ValueError("empty dataset")
    if pred is None:
        pred = predict_dataset(model, ds)
    return float(np.mean(pred == ds.y))


def confusion_counts(model: Model, ds: Dataset, *, pred: np.ndarray | None = None):
    """(tp, fp, tn, fn) counts over a dataset; ``pred`` as for ``accuracy``."""
    if pred is None:
        pred = predict_dataset(model, ds)
    pos, neg = ds.y > 0, ds.y < 0
    tp = int(np.sum(pred[pos] > 0))
    fn = int(np.sum(pred[pos] < 0))
    tn = int(np.sum(pred[neg] < 0))
    fp = int(np.sum(pred[neg] > 0))
    return tp, fp, tn, fn


def reconstruct_hyperplane(ds: Dataset, support: SupportSet) -> np.ndarray:
    """w rebuilt from the support rows alone: -sum_i lambda_i y_i x_i."""
    A = ds.signed_matrix()
    return -A[support.t_star].T @ support.lambda_values


@dataclass(frozen=True)
class MarginReport:
    """Margin-identity violations among support rows, if any."""

    checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def margin_identity_check(
    model: Model, ds: Dataset, support: SupportSet, tol: float
) -> MarginReport:
    """Verify the confidence margins of the support rows.

    t1 rows must satisfy y_i f(x_i) = 1 - epsilon within tol; t2 rows must lie
    in [1 + (C/delta)/(2(v-eps)) - v, 1], widened by tol on both ends.
    """
    margins = ds.y * decision_values(model, ds)
    target = 1.0 - model.slide.epsilon
    violations = []
    for i in support.t1:
        if abs(margins[i] - target) > tol:
            violations.append((int(i), float(margins[i]), target, target))
    gamma_c = model.C / model.delta
    lo = 1.0 + gamma_c / (2.0 * model.slide.ramp_width) - model.slide.v
    for i in support.t2:
        if not lo - tol <= margins[i] <= 1.0 + tol:
            violations.append((int(i), float(margins[i]), lo, 1.0))
    return MarginReport(checked=support.size, violations=violations)


class ModelFormatError(ValueError):
    """Corrupt, truncated, or incompatible model text."""


def _sparse_entries(vec: np.ndarray) -> str:
    idx = np.flatnonzero(vec)
    return " ".join(f"{int(j)}:{float(vec[j])!r}" for j in idx)


def _parse_entries(body: str, what: str):
    idx, vals = [], []
    for token in body.split():
        k, _, v = token.partition(":")
        if not _:
            raise ModelFormatError(f"malformed {what} entry {token!r}")
        idx.append(int(k))
        vals.append(float(v))
        if not math.isfinite(vals[-1]):
            raise ModelFormatError(f"non-finite {what} entry {token!r}")
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64)


def dumps_model(model: Model) -> str:
    """Line-oriented text rendering; floats use repr so the round trip is exact."""
    out = io.StringIO()
    out.write(FORMAT_HEADER + "\n")
    out.write(f"n={model.n}\n")
    out.write(f"C={model.C!r}\n")
    out.write(f"delta={model.delta!r}\n")
    out.write(f"epsilon={model.slide.epsilon!r}\n")
    out.write(f"v={model.slide.v!r}\n")
    out.write(f"converged={'true' if model.converged else 'false'}\n")
    out.write(f"iterations={model.iterations}\n")
    out.write(f"b={model.b!r}\n")
    out.write("w " + _sparse_entries(model.w) + "\n")
    sup = model.support
    t1 = " ".join(
        f"{int(i)}:{model_lambda(sup, i)!r}" for i in sup.t1
    )
    t2 = " ".join(
        f"{int(i)}:{model_lambda(sup, i)!r}" for i in sup.t2
    )
    out.write("support_t1 " + t1 + "\n")
    out.write("support_t2 " + t2 + "\n")
    return out.getvalue()


def model_lambda(support: SupportSet, i: int) -> float:
    """Multiplier value stored for support row i."""
    pos = np.searchsorted(support.t_star, i)
    if pos >= support.t_star.size or support.t_star[pos] != i:
        raise KeyError(f"row {i} is not in the support set")
    return float(support.lambda_values[pos])


def loads_model(text: str) -> Model:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ModelFormatError(
            f"bad header: expected {FORMAT_HEADER!r}, got {lines[0]!r}"
            if lines
            else "empty model text"
        )
    if len(lines) < 12:
        raise ModelFormatError("truncated model text")

    fields = {}
    for ln in lines[1:9]:
        key, sep, value = ln.partition("=")
        if not sep:
            raise ModelFormatError(f"malformed header line {ln!r}")
        fields[key] = value
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

    def split_line(lineno: int, tag: str) -> str:
        head, _, body = lines[lineno].partition(" ")
        if head != tag:
            raise ModelFormatError(f"expected {tag!r} line, got {lines[lineno]!r}")
        return body

    w_idx, w_val = _parse_entries(split_line(9, "w"), "weight")
    if w_idx.size and w_idx.max() >= n:
        raise ModelFormatError(
            f"weight index {int(w_idx.max())} inconsistent with n={n}"
        )
    w = np.zeros(n)
    w[w_idx] = w_val

    t1_idx, t1_val = _parse_entries(split_line(10, "support_t1"), "support")
    t2_idx, t2_val = _parse_entries(split_line(11, "support_t2"), "support")
    order = np.argsort(np.concatenate([t1_idx, t2_idx]), kind="stable")
    all_idx = np.concatenate([t1_idx, t2_idx])[order]
    all_val = np.concatenate([t1_val, t2_val])[order]
    support = SupportSet(all_idx, np.sort(t1_idx), np.sort(t2_idx), all_val)

    return Model(
        w=w,
        b=b,
        slide=SlideParams(epsilon, v),
        C=C,
        delta=delta,
        support=support,
        converged=converged,
        iterations=iterations,
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(model))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
