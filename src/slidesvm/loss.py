"""Slide-loss mathematics.

Scalar and vector evaluation of the loss, the two-regime closed-form proximal
operator, and an independent grid oracle used to cross-check the closed form
in tests and in ``slidesvm proxcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SlideParams:
    """Shape of the slide loss: 0 up to ``epsilon``, a linear ramp on
    ``(epsilon, v]``, and a constant 1 beyond ``v``.

    ``epsilon = 0`` is allowed; together with ``v = 1`` it recovers the ramp
    loss, and with ``v < 1`` the ramp family without a dead zone.
    """

    epsilon: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon < self.v <= 1.0):
            raise ValueError(
                f"need 0 <= epsilon < v <= 1, got epsilon={self.epsilon}, v={self.v}"
            )

    @property
    def ramp_width(self) -> float:
        return self.v - self.epsilon


def slide_loss(t, p: SlideParams) -> np.ndarray:
    """Evaluate the loss at ``t``, an array with the shape of ``t`` (0-d for
    a scalar) and entries in [0, 1]."""
    scaled = (np.asarray(t, dtype=np.float64) - p.epsilon) / p.ramp_width
    # numpy gives a scalar, not a 0-d array, for 0-d arithmetic
    return np.asarray(np.clip(scaled, 0.0, 1.0))


def slide_loss_sum(u, p: SlideParams, scale: float) -> float:
    """``scale`` times the loss summed over the entries of ``u``."""
    return scale * float(np.sum(slide_loss(u, p)))


class ProxThresholds(NamedTuple):
    """Breakpoints of the closed-form prox of ``gamma_c * loss``, which
    ``prox_branches`` reads. The ramp regime is ``gamma_c < 2*(v-eps)^2``;
    otherwise only the pin branch exists and ``pin_upper == tie_point``."""

    ramp_regime: bool
    pin_upper: float
    tie_point: float
    shift: float


def prox_thresholds(gamma_c: float, p: SlideParams) -> ProxThresholds:
    if gamma_c <= 0.0:
        raise ValueError(f"gamma_c must be positive, got {gamma_c}")
    width = p.ramp_width
    shift = gamma_c / width
    if gamma_c < 2.0 * width * width:
        tie = p.v + 0.5 * shift
        # rounding at the regime boundary must not let the pin branch
        # swallow the tie point
        return ProxThresholds(True, min(p.epsilon + shift, tie), tie, shift)
    tie = math.sqrt(2.0 * gamma_c) + p.epsilon
    return ProxThresholds(False, tie, tie, shift)


def prox_branches(s: np.ndarray, th: ProxThresholds, epsilon: float, join_tie=None):
    """The prox's branch rule on a 1-D ``s``: the sorted indices of the
    entries in ``(epsilon, pin_upper)``, which it pins, and in
    ``[pin_upper, tie_point)``, which it shifts. An entry at ``tie_point`` has
    a second minimizer in the branch just below the tie, which it joins where
    ``join_tie`` (an array like ``s``) is nonzero."""
    moved = (s > epsilon) & (s < th.tie_point)
    at_tie = s == th.tie_point
    # a moved tie entry lands in the branch just below the tie: shifted in
    # the ramp regime, where pin_upper <= tie_point, and pinned otherwise.
    # Ties are rare; count_nonzero tests for one faster than any()
    if join_tie is not None and np.count_nonzero(at_tie):
        moved |= at_tie & (join_tie != 0.0)
    rows = moved.nonzero()[0]
    if th.ramp_regime:
        low = s[rows] < th.pin_upper
        return rows[low], rows[~low]
    return rows, rows[:0]


def prox_move(s: np.ndarray, pinned, shifted, th: ProxThresholds, epsilon: float) -> np.ndarray:
    """A copy of ``s`` with the branch values of a ``prox_branches`` split:
    pinned entries take ``epsilon``, shifted ones move down by ``th.shift``."""
    out = s.copy()
    out[pinned] = epsilon
    out[shifted] = s[shifted] - th.shift
    return out


def prox_slide_vector(s, gamma_c: float, p: SlideParams) -> np.ndarray:
    """Elementwise closed-form prox; ties take the identity value ``s``, and a
    scalar ``s`` gives a 0-d array."""
    th = prox_thresholds(gamma_c, p)
    s = np.asarray(s, dtype=np.float64)
    flat = s.reshape(-1)
    return prox_move(flat, *prox_branches(flat, th, p.epsilon), th, p.epsilon).reshape(s.shape)


def prox_objective(t, s: float, gamma_c: float, p: SlideParams) -> np.ndarray:
    """The prox objective ``gamma_c*loss(t) + (t-s)^2/2``, an array with the
    shape of ``t`` (0-d for a scalar)."""
    t = np.asarray(t, dtype=np.float64)
    return np.asarray(gamma_c * slide_loss(t, p) + 0.5 * (t - s) ** 2)


def oracle_grid_span(s: float, gamma_c: float, p: SlideParams, step: float):
    """Grid used by the oracle: ``lo + j*step`` for ``j = 0..count-1`` over
    ``[s - 2*gamma_c/(v-eps) - 1, s + 1]``."""
    lo = s - 2.0 * gamma_c / p.ramp_width - 1.0
    hi = s + 1.0
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise ValueError(f"step {step} gives the oracle grid over [{lo}, {hi}] no finite count")
    return lo, hi, int(math.floor(steps)) + 1


def prox_oracle(s: float, gamma_c: float, p: SlideParams, step: float = 1e-6) -> float:
    """Brute-force argmin of the prox objective over a uniform grid plus the
    analytic breakpoints ``{eps, v, s, s - gamma_c/(v-eps)}``.

    The objective is strictly convex on each of the three loss pieces, so over
    the grid points of a piece only the neighbors of the piece minimum can win;
    it therefore suffices to evaluate the grid points bracketing each piece
    vertex and each piece boundary. That keeps the scan exact and O(1) per call
    while returning the same argmin as an exhaustive sweep of the grid (the
    test suite checks this against a literal sweep). Ties resolve toward the
    candidate closest to ``s``.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and positive, got {step}")
    lo, hi, count = oracle_grid_span(s, gamma_c, p, step)
    breakpoints = [p.epsilon, p.v, s, s - gamma_c / p.ramp_width]

    anchors = breakpoints + [lo, hi]
    grid_js = set()
    for a in anchors:
        j0 = int(round((a - lo) / step))
        for j in range(j0 - 3, j0 + 4):
            if 0 <= j < count:
                grid_js.add(j)
    candidates = np.array([lo + j * step for j in sorted(grid_js)] + breakpoints)

    objective = prox_objective(candidates, s, gamma_c, p)
    winners = candidates[objective == objective.min()]
    return float(winners[np.argmin(np.abs(winners - s))])
