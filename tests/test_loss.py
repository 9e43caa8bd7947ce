import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slide_subdifferential, where_prox

from slidesvm.loss import (
    SlideParams,
    oracle_grid_span,
    prox_objective,
    prox_oracle,
    prox_slide_vector,
    prox_thresholds,
    slide_loss,
    slide_loss_sum,
)

P_WIDE = SlideParams(0.1, 1.0)  # gamma_c = 0.5 lands in the ramp regime
P_NARROW = SlideParams(0.1, 0.3)  # gamma_c = 0.5 lands in the pin regime


@st.composite
def slide_params(draw):
    v = draw(st.floats(min_value=0.1, max_value=1.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    return SlideParams(v * frac, v)


@st.composite
def prox_case(draw):
    p = draw(slide_params())
    boundary = 2.0 * p.ramp_width**2
    scale = draw(
        st.one_of(
            st.floats(min_value=0.05, max_value=0.98),
            st.floats(min_value=1.0, max_value=8.0),
        )
    )
    gamma_c = min(boundary * scale, 4.0)
    s = draw(st.floats(min_value=-4.0, max_value=8.0))
    return s, gamma_c, p


class TestSlideParams:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SlideParams(0.5, 0.5)
        with pytest.raises(ValueError):
            SlideParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            SlideParams(0.1, 1.5)

    def test_zero_epsilon_allowed(self):
        assert SlideParams(0.0, 1.0).ramp_width == 1.0


class TestSlideLoss:
    def test_zero_branch_boundary(self):
        assert slide_loss(P_WIDE.epsilon, P_WIDE) == 0.0

    def test_ramp_midpoint(self):
        mid = (P_WIDE.epsilon + P_WIDE.v) / 2.0
        assert slide_loss(mid, P_WIDE) == pytest.approx(0.5, abs=1e-15)

    def test_plateau(self):
        assert slide_loss(1.7, P_WIDE) == 1.0

    def test_a_scalar_gives_a_0d_array(self):
        # each function returns one type: an array shaped like its input
        for out in (
            slide_loss(0.5, P_WIDE),
            prox_objective(0.5, 0.3, 0.5, P_WIDE),
            prox_slide_vector(0.5, 0.5, P_WIDE),
        ):
            assert type(out) is np.ndarray and out.shape == () and out.dtype == np.float64

    def test_sum_examples(self):
        eps = P_WIDE.epsilon
        assert slide_loss_sum([eps, eps, eps], P_WIDE, scale=3.7) == 0.0
        assert slide_loss_sum([P_WIDE.v + 1, P_WIDE.v + 2], P_WIDE, scale=1.0) == 2.0
        mid = (P_WIDE.epsilon + P_WIDE.v) / 2.0
        assert slide_loss_sum([mid, P_WIDE.v + 1], P_WIDE, scale=2.0) == 3.0

    def test_empty_sum(self):
        assert slide_loss_sum([], P_WIDE, scale=5.0) == 0.0

    @pytest.mark.parametrize("p", [P_WIDE, P_NARROW, SlideParams(0.0, 1.0)])
    @pytest.mark.parametrize("scale", [1.0, 3.7, 2.0**-20])
    def test_sum_agrees_with_a_correctly_rounded_sum(self, p, scale):
        eps, v = p.epsilon, p.v
        big = np.finfo(np.float64).max
        special = [-0.0, 0.0, eps, -eps, v, math.nextafter(eps, 1.0),
                   math.nextafter(v, 0.0), 0.5, 2.0, -3.0, math.inf, -math.inf]
        # runs of signed zeros shorter and longer than numpy's 8-wide
        # pairwise block
        cases = [np.full(n, zero) for n in (1, 7, 8, 9, 40) for zero in (-0.0, 0.0)]
        cases += [
            np.array(special),
            np.array(special * 7),
            np.array(special + [math.nan]),
            np.array([-math.nan, eps, v]),
            np.array([big, -big, 5e-324, -5e-324]),
            np.array(special * 2).reshape(2, 12),
            np.asfortranarray(np.array(special * 2).reshape(4, 6)),
        ]
        # views whose memory order differs from their index order
        rng = np.random.default_rng(5)
        ramp = rng.uniform(eps, v, size=(40, 30))
        cases += [
            np.asfortranarray(ramp),
            ramp[::-1, ::-1],
            ramp.T[::2, 1::3],
            ramp.ravel()[::-3],
            rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300),
            np.empty(0),
            np.empty((0, 3)),
        ]
        cases += [np.array(t) for t in (-0.0, 0.0, eps, v, 0.5, 7.0, math.nan)]
        for u in cases:
            # entries near the float maximum overflow when scaled by the ramp
            with np.errstate(over="ignore"):
                got = slide_loss_sum(u, p, scale)
                terms = [slide_loss(t, p) for t in np.ravel(u)]
            assert type(got) is float
            if any(math.isnan(t) for t in terms):
                assert math.isnan(got), u
                continue
            assert got == pytest.approx(scale * math.fsum(terms), rel=1e-12, abs=0.0), u
        # losses lie in [0, 1], so an infinite entry adds 1 or 0
        assert slide_loss_sum([math.inf, -math.inf], p, scale) == scale

    def test_loss_keeps_the_sign_of_a_zero(self):
        assert math.copysign(1.0, slide_loss(-0.0, SlideParams(0.0, 1.0))) == -1.0

    def test_ramp_collapse_at_eps0_v1(self):
        # with epsilon=0, v=1 the loss equals min(1, max(t, 0)) pointwise
        p = SlideParams(0.0, 1.0)
        ts = np.linspace(-2.0, 3.0, 10001)
        assert np.array_equal(slide_loss(ts, p), np.minimum(1.0, np.maximum(ts, 0.0)))

    @given(slide_params(), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=300)
    def test_lipschitz_and_range(self, p, t1, t2):
        l1, l2 = slide_loss(t1, p), slide_loss(t2, p)
        assert 0.0 <= l1 <= 1.0
        assert abs(l1 - l2) <= abs(t1 - t2) / p.ramp_width + 1e-9
        if t1 <= t2:
            assert l1 <= l2


class TestSubdifferential:
    def test_ramp_interior(self):
        assert slide_subdifferential(0.5, P_WIDE) == ("singleton", 1.0 / 0.9, 1.0 / 0.9)

    def test_at_epsilon(self):
        assert slide_subdifferential(0.1, P_WIDE) == ("interval", 0.0, 1.0 / 0.9)

    def test_at_knee(self):
        assert slide_subdifferential(P_WIDE.v, P_WIDE) == ("pair", 0.0, 1.0 / 0.9)

    def test_flat_regions(self):
        for t in (-3.0, 0.05, 1.5):
            kind, lo, _ = slide_subdifferential(t, P_WIDE)
            assert kind == "singleton" and lo == 0.0

    @given(slide_params(), st.floats(-2, 3))
    @settings(max_examples=300)
    def test_singleton_matches_finite_difference(self, p, t):
        h = 1e-7
        # keep the difference stencil away from the two kinks
        if min(abs(t - p.epsilon), abs(t - p.v)) <= 1e-6:
            return
        kind, lo, _ = slide_subdifferential(t, p)
        assert kind == "singleton"
        slope = (slide_loss(t + h, p) - slide_loss(t - h, p)) / (2.0 * h)
        assert abs(slope - lo) <= 1e-5 * max(1.0, lo)


class TestProxClosedForm:
    def test_regime_split(self):
        assert prox_thresholds(0.5, P_WIDE).ramp_regime  # 0.5 < 2*0.81
        assert not prox_thresholds(0.5, P_NARROW).ramp_regime  # 0.5 >= 0.08
        # the boundary value itself belongs to the pin regime
        assert not prox_thresholds(2.0 * P_WIDE.ramp_width**2, P_WIDE).ramp_regime

    def test_rejects_nonpositive_gamma_c(self):
        with pytest.raises(ValueError):
            prox_slide_vector(0.3, 0.0, P_WIDE)
        with pytest.raises(ValueError):
            prox_slide_vector(0.3, -1.0, P_WIDE)

    def test_identity_left_of_dead_zone(self):
        out = prox_slide_vector(0.05, 0.5, P_WIDE)
        assert out.shape == () and out == 0.05

    def test_ramp_regime_frozen_values(self):
        # frozen from prox_oracle(step=1e-6)
        assert prox_slide_vector(0.3, 0.5, P_WIDE) == pytest.approx(0.1, abs=1e-12)
        assert prox_slide_vector(0.8, 0.5, P_WIDE) == pytest.approx(
            0.24444444444444446, abs=1e-12
        )

    def test_pin_regime_frozen_values(self):
        assert prox_slide_vector(0.9, 0.5, P_NARROW) == pytest.approx(0.1, abs=1e-12)
        assert prox_slide_vector(1.2, 0.5, P_NARROW) == 1.2  # past sqrt(1)+0.1

    def test_tie_points_keep_identity_value(self):
        # at the tie the thresholds name the other minimizer, and both
        # attain the same prox objective
        for gamma_c, p, tie, alt in (
            (0.5, P_WIDE, 1.0 + 0.5 / (2.0 * 0.9), 1.0 - 0.5 / (2.0 * 0.9)),
            (0.5, P_NARROW, math.sqrt(2.0 * 0.5) + 0.1, 0.1),
        ):
            th = prox_thresholds(gamma_c, p)
            assert th.tie_point == pytest.approx(tie, abs=1e-15)
            assert prox_slide_vector(th.tie_point, gamma_c, p) == th.tie_point
            other = th.tie_point - th.shift if th.ramp_regime else p.epsilon
            assert other == pytest.approx(alt, abs=1e-15)
            assert prox_objective(other, th.tie_point, gamma_c, p) == pytest.approx(
                prox_objective(th.tie_point, th.tie_point, gamma_c, p), abs=1e-15
            )

    def test_near_tie_output_is_one_of_the_two_minimizers(self):
        # inside the 1e-6 tie neighborhood the grid oracle cannot arbitrate,
        # but the closed form must still return one of the two candidates
        for gamma_c, p in ((0.5, P_WIDE), (0.5, P_NARROW)):
            th = prox_thresholds(gamma_c, p)
            for offset in (-3e-7, 0.0, 3e-7):
                s = th.tie_point + offset
                value = prox_slide_vector(s, gamma_c, p)
                alt = s - th.shift if th.ramp_regime else p.epsilon
                assert min(abs(value - s), abs(value - alt)) <= 1e-9

    def test_vector_matches_scalar(self):
        s = np.array([-0.9, 0.05, 0.3, 0.8, 1.2777, 1.5])
        out = prox_slide_vector(s, 0.5, P_WIDE)
        expected = [prox_slide_vector(float(v), 0.5, P_WIDE) for v in s]
        assert np.array_equal(out, np.array(expected))
        # bit for bit against the np.where formula, on both regimes, on the
        # regime boundary and just below it, and with a zero epsilon
        boundary = 2.0 * P_WIDE.ramp_width**2
        cases = [
            (0.5, P_WIDE, True),
            (0.5, P_NARROW, False),
            (boundary, P_WIDE, False),
            (math.nextafter(boundary, 0.0), P_WIDE, True),
            (0.2, SlideParams(0.0, 0.5), True),
        ]
        for gamma_c, p, ramp in cases:
            th = prox_thresholds(gamma_c, p)
            assert th.ramp_regime == ramp
            s = np.array(
                [
                    math.nextafter(point, toward)
                    for point in (p.epsilon, th.pin_upper, th.tie_point)
                    for toward in (-math.inf, point, math.inf)
                ]
                + [0.0, -0.0, math.inf, -math.inf, math.nan, -0.9, 0.3, 0.8, 1.5]
            )
            grid = s[:12].reshape(3, 4)
            for x in [s, grid, np.array([])] + [float(x) for x in s]:
                out = prox_slide_vector(x, gamma_c, p)
                reference = where_prox(x, gamma_c, p)
                assert out.dtype == np.float64 and out.shape == np.shape(x)
                assert out.tobytes() == reference.tobytes()

    def test_vector_identity_region_and_empty(self):
        eps = P_WIDE.epsilon
        s = np.array([eps - 1.0, eps - 1.0])
        assert np.array_equal(prox_slide_vector(s, 0.5, P_WIDE), s)
        assert prox_slide_vector(np.array([]), 0.5, P_WIDE).size == 0

    def test_vector_mixed_frozen(self):
        out = prox_slide_vector(np.array([0.05, 0.3]), 0.5, P_WIDE)
        assert out == pytest.approx([0.05, 0.1], abs=1e-12)

    @given(prox_case())
    @settings(max_examples=500)
    def test_minimizer_certificate(self, case):
        s, gamma_c, p = case
        value = float(prox_slide_vector(s, gamma_c, p))
        attained = prox_objective(value, s, gamma_c, p)
        for cand in (p.epsilon, p.v, s, s - gamma_c / p.ramp_width):
            assert attained <= prox_objective(cand, s, gamma_c, p) + 1e-12


def exhaustive_scan(s, gamma_c, p, step):
    """Literal sweep of the oracle's full grid, for cross-checking the lazy
    evaluation in prox_oracle."""
    lo, hi, count = oracle_grid_span(s, gamma_c, p, step)
    best = math.inf
    winners = []

    def feed(ts):
        nonlocal best, winners
        obj = prox_objective(ts, s, gamma_c, p)
        m = float(obj.min())
        if m < best:
            best, winners = m, list(ts[obj == m])
        elif m == best:
            winners += list(ts[obj == m])

    chunk = 1_000_000
    for a in range(0, count, chunk):
        j = np.arange(a, min(a + chunk, count), dtype=np.float64)
        feed(lo + j * step)
    feed(np.array([p.epsilon, p.v, s, s - gamma_c / p.ramp_width]))
    w = np.array(winners)
    return float(w[np.argmin(np.abs(w - s))])


class TestProxOracle:
    def test_matches_frozen_example(self):
        assert prox_oracle(0.3, 0.5, P_WIDE) == pytest.approx(0.1, abs=1e-12)

    def test_identity_fixed_points(self):
        assert prox_oracle(P_WIDE.epsilon, 0.5, P_WIDE) == P_WIDE.epsilon
        assert prox_oracle(-5.0, 0.5, P_WIDE) == -5.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            prox_oracle(0.3, 0.5, P_WIDE, step=0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf])
    def test_rejects_a_step_that_is_not_finite(self, step):
        with pytest.raises(ValueError, match=f"step must be finite and positive, got {step}"):
            prox_oracle(0.3, 0.5, P_WIDE, step=step)

    @pytest.mark.parametrize("step", [1e-310, 5e-324])
    def test_rejects_a_step_whose_grid_count_is_not_finite(self, step):
        # (hi - lo) / step overflows to inf
        with pytest.raises(ValueError, match=f"step {step} "):
            prox_oracle(0.3, 0.5, P_WIDE, step=step)

    def test_equals_exhaustive_scan_coarse(self):
        rng = np.random.default_rng(11)
        for i in range(150):
            v = rng.uniform(0.1, 1.0)
            p = SlideParams(rng.uniform(0.0, 0.9 * v), v)
            boundary = 2.0 * p.ramp_width**2
            scale = rng.uniform(0.05, 0.98) if i % 2 else rng.uniform(1.0, 8.0)
            gamma_c = boundary * scale
            s = rng.uniform(-1.5, p.v + gamma_c / p.ramp_width + 2.0)
            assert prox_oracle(s, gamma_c, p, step=1e-3) == exhaustive_scan(
                s, gamma_c, p, step=1e-3
            )

    def test_equals_exhaustive_scan_fine(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            v = rng.uniform(0.3, 1.0)
            p = SlideParams(rng.uniform(0.0, 0.5 * v), v)
            gamma_c = rng.uniform(0.05, 0.6)
            s = rng.uniform(-0.5, 2.0)
            assert prox_oracle(s, gamma_c, p, step=1e-6) == exhaustive_scan(
                s, gamma_c, p, step=1e-6
            )

    def test_closed_form_agrees_with_oracle(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for i in range(2000):
            v = rng.uniform(0.08, 1.0)
            p = SlideParams(rng.uniform(0.0, 0.9 * v), v)
            boundary = 2.0 * p.ramp_width**2
            scale = rng.uniform(0.05, 0.98) if i % 2 else rng.uniform(1.0, 8.0)
            gamma_c = boundary * scale
            s = rng.uniform(-1.5, p.v + gamma_c / p.ramp_width + 2.0)
            tie = prox_thresholds(gamma_c, p).tie_point
            if abs(s - tie) <= 1e-6:
                continue
            closed = float(prox_slide_vector(s, gamma_c, p))
            worst = max(worst, abs(closed - prox_oracle(s, gamma_c, p)))
        assert worst <= 1e-6
