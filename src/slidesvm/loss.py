"""Slide-loss mathematics.

Scalar and vector evaluation of the loss, its limiting subdifferential, the
two-regime closed-form proximal operator, and an independent grid oracle used
to cross-check the closed form in tests and in ``slidesvm proxcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "SlideParams",
    "SubdiffKind",
    "SubdiffSet",
    "ProxResult",
    "ProxThresholds",
    "slide_loss",
    "slide_loss_sum",
    "slide_subdifferential",
    "prox_thresholds",
    "prox_slide",
    "prox_slide_vector",
    "prox_oracle",
]


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


def slide_loss(t, p: SlideParams):
    """Evaluate the loss at ``t`` (scalar or array). Output lies in [0, 1]."""
    scaled = (np.asarray(t, dtype=np.float64) - p.epsilon) / p.ramp_width
    out = np.clip(scaled, 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def slide_loss_sum(u, p: SlideParams, scale: float) -> float:
    """``scale`` times the loss summed over the entries of ``u``."""
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0:
        return 0.0
    return scale * float(np.sum(slide_loss(u, p)))


class SubdiffKind(Enum):
    SINGLETON = "singleton"
    PAIR = "pair"
    INTERVAL = "interval"


@dataclass(frozen=True)
class SubdiffSet:
    """Limiting subdifferential at a point: a singleton, a two-point set, or a
    closed interval. All contained values lie in [0, 1/(v - epsilon)]."""

    kind: SubdiffKind
    lo: float
    hi: float

    def contains(self, g: float, atol: float = 0.0) -> bool:
        if self.kind is SubdiffKind.INTERVAL:
            return self.lo - atol <= g <= self.hi + atol
        if self.kind is SubdiffKind.PAIR:
            return min(abs(g - self.lo), abs(g - self.hi)) <= atol
        return abs(g - self.lo) <= atol


def slide_subdifferential(t: float, p: SlideParams) -> SubdiffSet:
    """Subdifferential of the loss at ``t``: {0} on the flat pieces, the ramp
    slope in the interior, both at ``v``, and the full interval at ``epsilon``."""
    slope = 1.0 / p.ramp_width
    if t == p.v:
        return SubdiffSet(SubdiffKind.PAIR, 0.0, slope)
    if t == p.epsilon:
        return SubdiffSet(SubdiffKind.INTERVAL, 0.0, slope)
    if p.epsilon < t < p.v:
        return SubdiffSet(SubdiffKind.SINGLETON, slope, slope)
    return SubdiffSet(SubdiffKind.SINGLETON, 0.0, 0.0)


class ProxThresholds(NamedTuple):
    """Branch thresholds of the closed-form prox of ``gamma_c * loss``.

    In the ramp regime (``gamma_c < 2*(v-eps)^2``) inputs in
    ``(eps, pin_upper)`` pin to ``eps`` and inputs in ``[pin_upper, tie_point)``
    shift down by ``shift``; otherwise only the pin branch exists and
    ``pin_upper == tie_point``. An input equal to ``tie_point`` has two
    minimizers. The same thresholds drive the solver's working-set selection,
    so they are computed in exactly one place.
    """

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


@dataclass(frozen=True)
class ProxResult:
    """Minimizer of ``gamma_c*loss(t) + (t-s)^2/2``. At the single input value
    with two global minimizers, ``value`` keeps ``s`` and ``alternate`` holds
    the other one."""

    value: float
    is_tie: bool = False
    alternate: Optional[float] = None


def prox_slide(s: float, gamma_c: float, p: SlideParams) -> ProxResult:
    """Closed-form prox of ``gamma_c * loss`` at the scalar ``s``."""
    th = prox_thresholds(gamma_c, p)
    if s <= p.epsilon:
        return ProxResult(float(s))
    if s < th.pin_upper:
        return ProxResult(p.epsilon)
    if th.ramp_regime and s < th.tie_point:
        return ProxResult(float(s - th.shift))
    if s == th.tie_point:
        alt = s - th.shift if th.ramp_regime else p.epsilon
        return ProxResult(float(s), is_tie=True, alternate=float(alt))
    return ProxResult(float(s))


def prox_slide_vector(
    s, gamma_c: float, p: SlideParams, th: Optional[ProxThresholds] = None
) -> np.ndarray:
    """Elementwise closed-form prox; ties take the identity value ``s``.
    ``th`` may pass in ``prox_thresholds(gamma_c, p)`` when the caller holds it."""
    if th is None:
        th = prox_thresholds(gamma_c, p)
    s = np.asarray(s, dtype=np.float64)
    if th.ramp_regime:
        inner = np.where(
            s < th.pin_upper, p.epsilon, np.where(s < th.tie_point, s - th.shift, s)
        )
    else:
        inner = np.where(s < th.pin_upper, p.epsilon, s)
    return np.where(s <= p.epsilon, s, inner)


def prox_objective(t, s: float, gamma_c: float, p: SlideParams):
    """The prox objective ``gamma_c*loss(t) + (t-s)^2/2`` (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    out = gamma_c * slide_loss(t, p) + 0.5 * (t - s) ** 2
    if out.ndim == 0:
        return float(out)
    return out


def oracle_grid_span(s: float, gamma_c: float, p: SlideParams, step: float):
    """Grid used by the oracle: ``lo + j*step`` for ``j = 0..count-1`` over
    ``[s - 2*gamma_c/(v-eps) - 1, s + 1]``."""
    lo = s - 2.0 * gamma_c / p.ramp_width - 1.0
    hi = s + 1.0
    count = int(math.floor((hi - lo) / step)) + 1
    return lo, hi, count


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
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
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
