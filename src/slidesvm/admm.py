"""Working-set ADMM solver for the slide-loss linear SVM.

The training problem is

    min_{w,b,u}  ||w||^2/2 + C * sum_i loss(u_i)   s.t.  u + Aw + by = 1,

with A the matrix of label-signed samples. Each sweep selects a working set
from thresholds of the closed-form prox, applies the u/w/b block updates, and
takes a damped multiplier step restricted to the working set. Convergence is
declared from four residuals derived from the stationarity conditions.
``train`` is the one driver of the sweep; each step function it calls takes
the products it reads as arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .data import Dataset
from .loss import (
    ProxThresholds,
    SlideParams,
    prox_slide_vector,
    prox_thresholds,
    slide_loss_sum,
)
from . import model as model_mod

__all__ = [
    "TrainConfig",
    "WorkingSet",
    "AdmmState",
    "Residuals",
    "TrainDiagnostics",
    "compute_z",
    "select_working_set",
    "update_u",
    "update_w",
    "solve_w_system",
    "update_b",
    "update_lambda",
    "residuals",
    "train",
    "check_proximal_stationarity",
]

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

    @cached_property
    def dual_step(self) -> float:
        """Multiplier step eta*delta."""
        return self.eta * self.delta


@dataclass(frozen=True)
class WorkingSet:
    """Indices taking part in one sweep.

    ``pinned`` rows get u = epsilon; ``shifted`` rows get u = z - C/(delta*(v-eps)).
    In the regime C/delta >= 2*(v-eps)^2 everything active is pinned and
    ``shifted`` is empty, so consumers never need a regime branch.
    """

    pinned: np.ndarray
    shifted: np.ndarray

    @cached_property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.pinned, self.shifted])

    @property
    def size(self) -> int:
        return self.pinned.size + self.shifted.size

    def complement_mask(self, m: int) -> np.ndarray:
        mask = np.ones(m, dtype=bool)
        mask[self.indices] = False
        return mask


_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class AdmmState:
    """Iterate (w, b, u, lambda) plus sweep counter and current working set.
    lambda is zero outside the most recent working set by construction."""

    w: np.ndarray
    b: float
    u: np.ndarray
    lam: np.ndarray
    k: int = 0
    working_set: WorkingSet = field(
        default_factory=lambda: WorkingSet(_EMPTY, _EMPTY)
    )

    @classmethod
    def initial(cls, m: int, n: int) -> "AdmmState":
        # u = 1, w = 0, b = 0 makes the linear constraint exactly feasible
        return cls(w=np.zeros(n), b=0.0, u=np.ones(m), lam=np.zeros(m))


@dataclass(frozen=True)
class Residuals:
    """The four stationarity defects: e1 gradient, e2 multiplier balance,
    e3 constraint feasibility, e4 prox fixed point. ``residuals`` returns
    them normalized, ``check_proximal_stationarity`` raw."""

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
# the products its formula reads (A @ w, A[T], lambda/delta) as arguments,
# together with the labels y and the working-set indices; train computes each
# product once per sweep and is the one place that runs the steps in order.


def compute_z(
    Aw: np.ndarray, b: float, y: np.ndarray, lam_d: np.ndarray
) -> np.ndarray:
    """z_i = 1 - y_i<w, x_i> - b*y_i - lambda_i/delta."""
    return 1.0 - Aw - b * y - lam_d


def select_working_set(
    z: np.ndarray, lam: np.ndarray, cfg: TrainConfig
) -> WorkingSet:
    """Threshold z against the prox breakpoints of gamma_c = C/delta.

    Rows with z <= epsilon never participate. A row sitting exactly on the
    outermost breakpoint joins only while its multiplier is nonzero.
    """
    th = cfg.thresholds
    active = z > cfg.slide.epsilon
    on_tie = (z == th.tie_point) & (lam != 0.0)
    if th.ramp_regime:
        pinned = active & (z < th.pin_upper)
        shifted = (z >= th.pin_upper) & (z < th.tie_point) | on_tie
    else:
        pinned = active & (z < th.tie_point) | on_tie
        shifted = np.zeros_like(pinned)
    return WorkingSet(np.flatnonzero(pinned), np.flatnonzero(shifted))


def update_u(z: np.ndarray, ws: WorkingSet, cfg: TrainConfig) -> np.ndarray:
    """Prox step on the slack block: pinned rows drop to epsilon, shifted rows
    move down by C/(delta*(v-eps)), everything else keeps u = z."""
    u = z.copy()
    u[ws.pinned] = cfg.slide.epsilon
    u[ws.shifted] = z[ws.shifted] - cfg.thresholds.shift
    return u


_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric positive definite gram, which is
    overwritten by its factor."""
    # numpy forms X'X and XX' by computing one triangle and mirroring it, so
    # gram is exactly symmetric and its transpose is the Fortran-ordered
    # matrix LAPACK reads, without a copy
    factor, info = _POTRF(gram.T, lower=1, overwrite_a=1, clean=0)
    if info == 0:
        x, info = _POTRS(factor, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Cholesky solve of the w-system failed (LAPACK info={info})"
        )
    return x


def solve_w_system(
    a_t: np.ndarray, r_t: np.ndarray, delta: float, branch: Optional[str] = None
) -> np.ndarray:
    """Solve (I + delta*A_T'A_T) w = -delta*A_T' r_T.

    branch "direct" assembles the n x n system; branch "smw" solves the
    |T| x |T| system (I + delta*A_T A_T') q = r_T and sets w = -delta*A_T' q,
    which is the Woodbury push-through of the same equations. The default
    picks whichever system is smaller. Both sides agree to 1e-8 relative.
    """
    t_size, n = a_t.shape
    if t_size == 0 or n == 0:
        return np.zeros(n)
    if branch is None:
        branch = "direct" if n <= t_size else "smw"
    if branch == "direct":
        gram = delta * (a_t.T @ a_t)
        gram.flat[:: n + 1] += 1.0
        return _cholesky_solve(gram, -delta * (a_t.T @ r_t))
    if branch == "smw":
        gram = delta * (a_t @ a_t.T)
        gram.flat[:: t_size + 1] += 1.0
        return -delta * (a_t.T @ _cholesky_solve(gram, r_t))
    raise ValueError(f"unknown branch {branch!r}")


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


def update_b(
    u_next: np.ndarray, Aw: np.ndarray, y: np.ndarray, lam_d: np.ndarray
) -> float:
    """b = <y, 1 - u - Aw - lambda/delta> / m (zeroes the b-block gradient),
    with ``Aw`` the product at the new w."""
    return float(y @ (1.0 - u_next - Aw - lam_d)) / y.size


def update_lambda(
    lam: np.ndarray,
    idx: np.ndarray,
    u_next: np.ndarray,
    Aw: np.ndarray,
    b_next: float,
    y: np.ndarray,
    cfg: TrainConfig,
) -> np.ndarray:
    """Damped dual ascent on the working set ``idx``; zero elsewhere."""
    lam_next = np.zeros(y.size)
    violation = u_next[idx] + Aw[idx] + b_next * y[idx] - 1.0
    lam_next[idx] = lam[idx] + cfg.dual_step * violation
    return lam_next


def _defect_norms(
    state: AdmmState,
    y: np.ndarray,
    Aw: np.ndarray,
    a_t: np.ndarray,
    lam_d: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, float, float, float]:
    """Raw norms of the four stationarity defects over the working set T:
    ||w + A_T' lambda_T||, |y_T' lambda_T|, ||1 - u - Aw - by|| and
    ||u - prox_{gamma_c loss}(u - lambda/delta)||."""
    idx = state.working_set.indices
    lam_t = state.lam[idx]
    prox = prox_slide_vector(
        state.u - lam_d, cfg.gamma_c, cfg.slide, th=cfg.thresholds
    )
    return (
        _norm(state.w + a_t.T @ lam_t),
        abs(float(y[idx] @ lam_t)),
        _norm(1.0 - state.u - Aw - state.b * y),
        _norm(state.u - prox),
    )


def residuals(
    state: AdmmState,
    y: np.ndarray,
    Aw: np.ndarray,
    a_t: np.ndarray,
    lam_d: np.ndarray,
    cfg: TrainConfig,
) -> Residuals:
    """Normalized residuals of the stationarity system at the current state."""
    e1, e2, e3, e4 = _defect_norms(state, y, Aw, a_t, lam_d, cfg)
    return Residuals(
        e1 / (1.0 + _norm(state.w)),
        e2 / (1.0 + state.working_set.size),
        e3 / math.sqrt(y.size),
        e4 / (1.0 + _norm(state.u)),
    )


def objective_value(
    w: np.ndarray, b: float, Aw: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> float:
    """Primal objective ||w||^2/2 + C * sum_i loss(1 - y_i f(x_i))."""
    margins = 1.0 - Aw - b * y
    return 0.5 * float(w @ w) + slide_loss_sum(margins, cfg.slide, cfg.C)


@dataclass
class TrainDiagnostics:
    """Per-sweep history plus the final iterate."""

    residual_history: list[Residuals]
    working_set_sizes: list[int]
    objective_history: list[float]
    iterations: int
    converged: bool
    final_state: AdmmState


def train(ds: Dataset, cfg: TrainConfig):
    """Run the solver from the zero hyperplane until the residuals drop below
    tol or K sweeps elapse.

    Non-convergence is reported through the model's ``converged`` flag, not an
    error; the final iterate is returned either way. The run is deterministic:
    equal inputs give bit-identical results.

    Returns (Model, TrainDiagnostics).
    """
    if ds.m == 0:
        raise ValueError("empty dataset")
    A, y = ds.signed_matrix(), ds.y
    state = AdmmState.initial(ds.m, ds.n)
    history: list[Residuals] = []
    sizes: list[int] = []
    objectives: list[float] = []
    converged = False
    # A @ w, A[T] and lambda/delta are computed once per sweep, each right
    # after its inputs change, and passed to every step that reads them
    Aw = A @ state.w
    lam_d = state.lam / cfg.delta
    for k in range(1, cfg.K + 1):
        z = compute_z(Aw, state.b, y, lam_d)
        ws = state.working_set = select_working_set(z, state.lam, cfg)
        idx = ws.indices
        a_t = A[idx]
        u_next = update_u(z, ws, cfg)
        w_next = update_w(a_t, idx, u_next, state.b, y, lam_d, cfg)
        Aw = A @ w_next
        b_next = update_b(u_next, Aw, y, lam_d)
        state.lam = update_lambda(state.lam, idx, u_next, Aw, b_next, y, cfg)
        state.u, state.w, state.b, state.k = u_next, w_next, b_next, k
        lam_d = state.lam / cfg.delta

        res = residuals(state, y, Aw, a_t, lam_d, cfg)
        history.append(res)
        sizes.append(ws.size)
        objectives.append(objective_value(state.w, state.b, Aw, y, cfg))
        if res.max() < cfg.tol:
            converged = True
            break

    diagnostics = TrainDiagnostics(
        residual_history=history,
        working_set_sizes=sizes,
        objective_history=objectives,
        iterations=state.k,
        converged=converged,
        final_state=state,
    )
    support = model_mod.extract_support_vectors(state.lam, cfg)
    trained = model_mod.Model(
        w=state.w,
        b=state.b,
        slide=cfg.slide,
        C=cfg.C,
        delta=cfg.delta,
        support=support,
        converged=converged,
        iterations=state.k,
    )
    return trained, diagnostics


def check_proximal_stationarity(
    w: np.ndarray,
    b: float,
    u: np.ndarray,
    lam: np.ndarray,
    gamma: float,
    ds: Dataset,
    C: float,
    p: SlideParams,
) -> Residuals:
    """Raw norms of the four stationarity defects at (w, b, u, lambda) for a
    given prox scale gamma: the solver's formulas at delta = 1/gamma, over
    all rows rather than a working set.

    The point certifies as stationary at tolerance tau when ``max() <= tau``.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    cfg = TrainConfig(C=C, delta=1.0 / gamma, slide=p)
    A = ds.signed_matrix()
    every_row = WorkingSet(np.arange(ds.m), _EMPTY)
    point = AdmmState(w, b, u, lam, working_set=every_row)
    return Residuals(*_defect_norms(point, ds.y, A @ w, A, lam / cfg.delta, cfg))
