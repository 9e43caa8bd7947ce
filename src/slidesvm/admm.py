"""Working-set ADMM solver for the slide-loss linear SVM.

The training problem is

    min_{w,b,u}  ||w||^2/2 + C * sum_i loss(u_i)   s.t.  u + Aw + by = 1,

with A the matrix of label-signed samples. Each sweep selects a working set
from thresholds of the closed-form prox, applies the u/w/b block updates, and
takes a damped multiplier step restricted to the working set. Convergence is
declared from four residuals derived from the stationarity conditions; the
feasibility residual e3 is tested first, since no stop is possible above it.
``train`` is the one driver of the sweep; each step function it calls takes
the products it reads as arguments.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .data import Dataset
from .loss import (
    ProxThresholds,
    SlideParams,
    prox_branches,
    prox_move,
    prox_slide_vector,
    prox_thresholds,
    slide_loss_sum,
)
from . import model as model_mod

ETA_MAX = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class TrainConfig:
    """Solver hyperparameters.

    C trades margin against loss, delta is the augmented-Lagrangian penalty,
    eta the dual step size (must stay below (1+sqrt(5))/2), K the sweep cap,
    tol the residual tolerance. The prox scale used throughout the solver is
    gamma = 1/delta, so all prox calls see gamma_c = C/delta.
    """

    C: float
    delta: float
    slide: SlideParams
    eta: float = 1.618
    K: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        for name in ("C", "delta", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # every prox sees gamma_c, which may overflow or underflow where C and
        # delta do not
        if not (math.isfinite(self.gamma_c) and self.gamma_c > 0.0):
            raise ValueError(
                f"C/delta must be finite and positive, got C={self.C}, delta={self.delta}"
            )
        if not 0.0 < self.eta < ETA_MAX:
            raise ValueError(f"eta must lie in (0, {ETA_MAX}), got {self.eta}")
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")

    @property
    def gamma_c(self) -> float:
        return self.C / self.delta

    @cached_property
    def thresholds(self) -> ProxThresholds:
        """Prox breakpoints of gamma_c, shared by selection, u-update and e4."""
        return prox_thresholds(self.gamma_c, self.slide)


@dataclass(frozen=True)
class WorkingSet:
    """Indices taking part in one sweep: the rows the prox of gamma_c pins
    and those it shifts. ``shifted`` is empty outside the ramp regime, so
    consumers never need a regime branch."""

    pinned: np.ndarray
    shifted: np.ndarray

    @cached_property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.pinned, self.shifted])

    @property
    def size(self) -> int:
        return self.pinned.size + self.shifted.size


@dataclass(frozen=True)
class Residuals:
    """The four stationarity defects: e1 gradient, e2 multiplier balance,
    e3 constraint feasibility, e4 prox fixed point. ``_defects`` computes
    their raw norms, which ``check_proximal_stationarity`` returns and
    ``residuals`` normalizes."""

    e1: float
    e2: float
    e3: float
    e4: float

    def max(self) -> float:
        """Largest residual; NaN if any residual is NaN, so a NaN never
        passes the stop test."""
        values = (self.e1, self.e2, self.e3, self.e4)
        if any(math.isnan(v) for v in values):
            return math.nan
        return max(values)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, bit-equal to np.linalg.norm."""
    return math.sqrt(float(x @ x))


# Each step function below is the one definition of its formula. It takes
# the products its formula reads (A @ w, A[T], b*y, lambda/delta and the
# vectors built from them) as arguments, together with the labels y and the
# working-set indices; train computes each product once per sweep and is the
# one place that runs the steps in order.


def compute_z(margins: np.ndarray, lam_d: np.ndarray) -> np.ndarray:
    """z_i = 1 - y_i<w, x_i> - b*y_i - lambda_i/delta, from the margins
    ``1 - Aw - b*y``."""
    return margins - lam_d


def select_working_set(z: np.ndarray, lam: np.ndarray, cfg: TrainConfig) -> WorkingSet:
    """The rows of z that the prox of gamma_c moves; a tie row joins while its
    multiplier is nonzero."""
    return WorkingSet(*prox_branches(z, cfg.thresholds, cfg.slide.epsilon, lam))


def update_u(z: np.ndarray, ws: WorkingSet, cfg: TrainConfig) -> np.ndarray:
    """Prox step on the slack block: u = z with the working set's branch values."""
    return prox_move(z, ws.pinned, ws.shifted, cfg.thresholds, cfg.slide.epsilon)


@cache
def _lapack():
    """LAPACK's dposv, loaded on the first solve.

    It comes from scipy's extension module ``scipy.linalg._flapack``, loaded
    alone: the ``scipy.linalg`` package around it takes about 0.3 s and 27 MB
    to import, the extension about 20 ms and 3.5 MB. It is the very function
    ``scipy.linalg.get_lapack_funcs`` returns for float64, in either import
    order. Scoring never solves.
    """
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import module_from_spec

    # the package's own __init__ is cheap (about 12 ms); it runs the
    # distribution's set-up, which some builds need before an extension loads
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where}")
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    # a later ``import scipy.linalg`` takes this module instead of a copy
    flapack = sys.modules.setdefault(spec.name, flapack)
    return flapack.dposv


def solve_w_system(a_t: np.ndarray, r_t: np.ndarray, delta: float) -> np.ndarray:
    """Solve (I + delta*A_T'A_T) w = -delta*A_T' r_T through the smaller of
    two symmetric positive definite systems: that n x n one when n <= |T|,
    else the |T| x |T| Woodbury push-through (I + delta*A_T A_T') q = r_T,
    with w = -delta*A_T' q. Both agree to 1e-8 relative. An overflowed Gram,
    which dposv solves to w = 0 without error, gives w = NaN and ends train."""
    t_size, n = a_t.shape
    if t_size == 0 or n == 0:
        return np.zeros(n)
    direct = n <= t_size
    gram = delta * (a_t.T @ a_t if direct else a_t @ a_t.T)
    diagonal = gram.ravel()[:: gram.shape[0] + 1]  # a view: gram is C-ordered
    diagonal += 1.0
    # by Cauchy-Schwarz an infinite or NaN entry implies one on the diagonal
    if not np.isfinite(diagonal).all():
        return np.full(n, np.nan)
    # numpy forms X'X and XX' by computing one triangle and mirroring it, so
    # gram is exactly symmetric and its transpose is the Fortran-ordered
    # matrix LAPACK reads, without a copy; it is overwritten by its factor
    rhs = -delta * (a_t.T @ r_t) if direct else r_t
    _, x, info = _lapack()(gram.T, rhs, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Cholesky solve of the w-system failed (LAPACK info={info})"
        )
    return x if direct else -delta * (a_t.T @ x)


def update_w(
    a_t: np.ndarray,
    idx: np.ndarray,
    u_next: np.ndarray,
    b: float,
    y: np.ndarray,
    lam_d: np.ndarray,
    cfg: TrainConfig,
) -> np.ndarray:
    """Minimize the w block over the working set ``idx``, with the previous b
    and multipliers held fixed. ``a_t`` is A restricted to the working set."""
    r_t = lam_d[idx] + u_next[idx] + b * y[idx] - 1.0
    return solve_w_system(a_t, r_t, cfg.delta)


def update_b(t: np.ndarray, y: np.ndarray, lam_d: np.ndarray) -> float:
    """b = <y, 1 - u - Aw - lambda/delta> / m (zeroes the b-block gradient),
    with ``t = 1 - u - Aw`` at the new u and w."""
    return float(y @ (t - lam_d)) / y.size


def update_lambda(
    lam: np.ndarray,
    idx: np.ndarray,
    u_next: np.ndarray,
    Aw: np.ndarray,
    by: np.ndarray,
    cfg: TrainConfig,
) -> np.ndarray:
    """Damped dual ascent on the working set ``idx``; zero elsewhere. ``by``
    is b*y at the new b."""
    lam_next = np.zeros(lam.size)
    violation = u_next[idx] + Aw[idx] + by[idx] - 1.0
    lam_next[idx] = lam[idx] + cfg.eta * cfg.delta * violation
    return lam_next


def _defects(
    w: np.ndarray, u: np.ndarray, lam: np.ndarray, idx: np.ndarray, y: np.ndarray,
    a_t: np.ndarray, gap: np.ndarray, lam_d: np.ndarray, cfg: TrainConfig,
) -> Residuals:
    """Raw norms of the four stationarity defects at (w, u, lambda) on the
    working set T = ``idx``, with ``a_t = A[T]``: ||w + A_T' lambda_T||,
    |y_T' lambda_T|, ||gap|| for ``gap = 1 - u - Aw - b*y``, and
    ||u - prox_{gamma_c loss}(u - lambda/delta)||.

    The prox defect is formed on T and scattered into zeros. Off T a sweep
    leaves lambda = 0 and u = z, which the prox maps to itself, so every row
    there contributes exactly 0; the norm then sums the same vector as over
    all rows, bit for bit."""
    lam_t = lam[idx]
    u_t = u[idx]
    prox_gap = np.zeros(y.size)
    prox_gap[idx] = u_t - prox_slide_vector(u_t - lam_d[idx], cfg.gamma_c, cfg.slide)
    return Residuals(
        _norm(w + a_t.T @ lam_t), abs(float(y[idx] @ lam_t)), _norm(gap), _norm(prox_gap)
    )


def _feasibility(gap: np.ndarray) -> float:
    """Normalized feasibility residual e3 = ||gap|| / sqrt(m), with
    ``gap = 1 - u - Aw - b*y``. ``train``'s stop test reads it first; the e3
    of ``residuals`` is the same float."""
    return _norm(gap) / math.sqrt(gap.size)


def residuals(
    w: np.ndarray, u: np.ndarray, lam: np.ndarray, idx: np.ndarray, y: np.ndarray,
    a_t: np.ndarray, gap: np.ndarray, lam_d: np.ndarray, cfg: TrainConfig,
) -> Residuals:
    """The defects of ``_defects`` at an iterate left by a sweep, normalized
    by 1 + ||w||, 1 + |T|, sqrt(m) and 1 + ||u||."""
    raw = _defects(w, u, lam, idx, y, a_t, gap, lam_d, cfg)
    return Residuals(
        raw.e1 / (1.0 + _norm(w)),
        raw.e2 / (1.0 + idx.size),
        raw.e3 / math.sqrt(gap.size),
        raw.e4 / (1.0 + _norm(u)),
    )


def objective_value(w: np.ndarray, margins: np.ndarray, cfg: TrainConfig) -> float:
    """Primal objective ||w||^2/2 + C * sum_i loss(1 - y_i f(x_i)), from the
    margins ``1 - Aw - b*y``."""
    return 0.5 * float(w @ w) + slide_loss_sum(margins, cfg.slide, cfg.C)


@dataclass
class TrainDiagnostics:
    """The record of one solve: its sweeps, whether it converged, the
    returned slack u, multipliers lambda and last working set, and the
    residuals and objective there; w and b are the returned model's.
    ``history`` holds one (working-set size, residuals, objective) tuple per
    sweep when ``train`` was asked for it, and is None otherwise."""

    iterations: int
    converged: bool
    u: np.ndarray
    lam: np.ndarray
    working_set: WorkingSet
    residuals: Residuals
    objective: float
    history: Optional[list[tuple[int, Residuals, float]]] = None


def train(ds: Dataset, cfg: TrainConfig, *, history: bool = False):
    """Run the solver from the zero hyperplane until the residuals drop below
    tol, K sweeps elapse, or a sweep's e3 is NaN, after which none can stop.

    Non-convergence is reported through the model's ``converged`` flag, not an
    error; the final iterate is returned either way. The run is deterministic:
    equal inputs give bit-identical results. ``history`` records every
    sweep's working-set size, residuals and objective. Otherwise a sweep
    computes the full residuals only when its e3 is below tol or NaN, or when
    it is the last (sweep K), and the objective is computed once at the
    returned iterate; the results are the same bit for bit.

    Returns (Model, TrainDiagnostics).
    """
    if ds.m == 0:
        raise ValueError("empty dataset")
    A, y, m = ds.signed_matrix(), ds.y, ds.m
    # u = 1, w = 0, b = 0 makes the linear constraint exactly feasible
    w, b, u, lam = np.zeros(ds.n), 0.0, np.ones(m), np.zeros(m)
    sweeps = [] if history else None
    # A @ w, A[T], b*y, lambda/delta, the margins 1 - Aw - b*y and
    # t = 1 - u - Aw are computed once per sweep, each right after its inputs
    # change, and passed to every step that reads them
    margins = 1.0 - A @ w - b * y
    lam_d = np.zeros(m)
    for k in range(1, cfg.K + 1):
        z = compute_z(margins, lam_d)
        ws = select_working_set(z, lam, cfg)
        idx = ws.indices
        a_t = A[idx]
        u = update_u(z, ws, cfg)
        w = update_w(a_t, idx, u, b, y, lam_d, cfg)
        Aw = A @ w
        t = 1.0 - u - Aw
        b = update_b(t, y, lam_d)
        by = b * y
        lam = update_lambda(lam, idx, u, Aw, by, cfg)
        lam_d = lam / cfg.delta
        margins = 1.0 - Aw - by
        gap = t - by

        # a stop needs every residual below tol, e3 among them: a sweep whose
        # e3 is not below tol skips the other three (a NaN e3 computes them),
        # except the last, whose residuals are returned
        if sweeps is None and k < cfg.K and _feasibility(gap) >= cfg.tol:
            continue
        res = residuals(w, u, lam, idx, y, a_t, gap, lam_d, cfg)
        if sweeps is not None:
            sweeps.append((ws.size, res, objective_value(w, margins, cfg)))
        # stop below tol or at a NaN e3: a NaN gap leaves b, and then every
        # later margin, z, t and b, non-finite, so no later sweep can stop.
        # (An infinite e3 may come from a finite gap whose squares overflow.)
        if res.max() < cfg.tol or math.isnan(res.e3):
            break

    converged = res.max() < cfg.tol
    diagnostics = TrainDiagnostics(
        iterations=k, converged=converged, u=u, lam=lam, working_set=ws, residuals=res,
        objective=sweeps[-1][2] if sweeps else objective_value(w, margins, cfg),
        history=sweeps,
    )
    trained = model_mod.Model(
        w=w, b=b, slide=cfg.slide, C=cfg.C, delta=cfg.delta,
        support=model_mod.extract_support_vectors(lam, cfg),
        converged=converged, iterations=k,
    )
    return trained, diagnostics


def check_proximal_stationarity(
    w: np.ndarray, b: float, u: np.ndarray, lam: np.ndarray, gamma: float,
    ds: Dataset, C: float, p: SlideParams,
) -> Residuals:
    """Raw norms of the four stationarity defects at (w, b, u, lambda) for a
    given prox scale gamma: the solver's formulas at delta = 1/gamma, over
    all rows rather than a working set.

    The point certifies as stationary at tolerance tau when ``max() <= tau``.
    """
    # a subnormal gamma is finite, but its reciprocal, the penalty, is not
    if not (gamma > 0.0 and math.isfinite(gamma) and math.isfinite(1.0 / gamma)):
        raise ValueError(
            f"gamma must be finite and positive with a finite reciprocal, got {gamma}"
        )
    cfg = TrainConfig(C=C, delta=1.0 / gamma, slide=p)
    A, y = ds.signed_matrix(), ds.y
    gap = 1.0 - u - A @ w - b * y
    return _defects(w, u, lam, np.arange(ds.m), y, A, gap, lam / cfg.delta, cfg)
