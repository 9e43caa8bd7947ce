"""The paper's conditions on a solution, as test oracles.

Each function states one property the tests check a solve or a search
against: the closed-form prox as one elementwise formula, the limiting
subdifferential of the slide loss, the support rows' reconstruction of the
hyperplane and their confidence margins, the rows outside a working set,
the two w-systems each solved by a Cholesky factor and its solve, and a
plain serial k-fold cross-validation. They are built on slidesvm's public
API and scipy only, and are never called by the package.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from slidesvm.admm import train
from slidesvm.data import apply_scaling, fit_scaling, kfold_plan, subset
from slidesvm.loss import prox_thresholds
from slidesvm.model import accuracy


def where_prox(s, gamma_c: float, p) -> np.ndarray:
    """The closed-form prox as one ``np.where`` chain over every entry, ties
    at the identity value: the bit-level reference for
    ``prox_slide_vector``."""
    th = prox_thresholds(gamma_c, p)
    s = np.asarray(s, dtype=np.float64)
    if th.ramp_regime:
        inner = np.where(
            s < th.pin_upper, p.epsilon, np.where(s < th.tie_point, s - th.shift, s)
        )
    else:
        inner = np.where(s < th.pin_upper, p.epsilon, s)
    return np.where(s <= p.epsilon, s, inner)


def slide_subdifferential(t: float, p):
    """Limiting subdifferential of the loss at ``t`` as (kind, lo, hi): the
    "singleton" {lo} (0 on the flat pieces, the ramp slope inside the ramp),
    the "pair" {0, slope} at ``v``, and the "interval" [0, slope] at
    ``epsilon``."""
    slope = 1.0 / p.ramp_width
    if t == p.v:
        return "pair", 0.0, slope
    if t == p.epsilon:
        return "interval", 0.0, slope
    if p.epsilon < t < p.v:
        return "singleton", slope, slope
    return "singleton", 0.0, 0.0


def reconstruct_hyperplane(ds, support) -> np.ndarray:
    """w rebuilt from the support rows alone: -sum_i lambda_i y_i x_i."""
    return -ds.signed_matrix()[support.t_star].T @ support.lambda_values


def margin_violations(model, ds, support, tol: float) -> list:
    """Support rows off their confidence margins, as (row, margin, lo, hi).

    t1 rows must satisfy y_i f(x_i) = 1 - epsilon within tol; t2 rows must lie
    in [1 + (C/delta)/(2(v-eps)) - v, 1], widened by tol on both ends.
    """
    margins = ds.y * (ds.X @ model.w + model.b)
    target = 1.0 - model.slide.epsilon
    violations = [
        (int(i), float(margins[i]), target, target)
        for i in support.t1
        if abs(margins[i] - target) > tol
    ]
    lo = 1.0 + (model.C / model.delta) / (2.0 * model.slide.ramp_width) - model.slide.v
    violations += [
        (int(i), float(margins[i]), lo, 1.0)
        for i in support.t2
        if not lo - tol <= margins[i] <= 1.0 + tol
    ]
    return violations


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with gram @ x = rhs, from LAPACK's potrf and then potrs on the lower
    triangle; gram, exactly symmetric, is read through its transpose."""
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (gram,))
    factor, info = potrf(gram.T, lower=1, overwrite_a=1, clean=0)
    if info == 0:
        x, info = potrs(factor, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info={info})")
    return x


def solve_direct(a_t: np.ndarray, r_t: np.ndarray, delta: float) -> np.ndarray:
    """w from the n x n system (I + delta*A_T'A_T) w = -delta*A_T' r_T: the
    bit-level reference for ``solve_w_system`` when n <= |T|."""
    gram = delta * (a_t.T @ a_t)
    gram.flat[:: a_t.shape[1] + 1] += 1.0
    return _cholesky_solve(gram, -delta * (a_t.T @ r_t))


def solve_smw(a_t: np.ndarray, r_t: np.ndarray, delta: float) -> np.ndarray:
    """w = -delta*A_T' q from the |T| x |T| system (I + delta*A_T A_T') q = r_T,
    the Woodbury push-through of the same equations: the bit-level reference
    for ``solve_w_system`` when n > |T|."""
    gram = delta * (a_t @ a_t.T)
    gram.flat[:: a_t.shape[0] + 1] += 1.0
    return -delta * (a_t.T @ _cholesky_solve(gram, r_t))


def complement_mask(ws, m: int) -> np.ndarray:
    """Rows outside the working set ``ws`` of an m-row problem."""
    mask = np.ones(m, dtype=bool)
    mask[ws.indices] = False
    return mask


def cross_validate(ds, cfg, k: int, seed: int) -> np.ndarray:
    """Held-out accuracy of each fold of ``kfold_plan(ds.m, k, seed)``, one
    solve after another, with the scaling refit on each training portion."""
    folds = kfold_plan(ds.m, k, seed)
    accs = []
    for fold in range(k):
        tr = subset(ds, np.flatnonzero(folds != fold))
        smap = fit_scaling(tr)
        mdl, _ = train(apply_scaling(tr, smap), cfg)
        accs.append(accuracy(mdl, apply_scaling(subset(ds, np.flatnonzero(folds == fold)), smap)))
    return np.array(accs)


def repeat_cv(ds, cfg, k: int, n_repeats: int, seed: int) -> np.ndarray:
    """Mean cross-validated accuracy at fold seeds seed, seed+1, ..."""
    return np.array(
        [float(cross_validate(ds, cfg, k, seed + r).mean()) for r in range(n_repeats)]
    )
