import math

import pytest
from hypothesis import given, strategies as st

from adaptls.adaptive_selection import (
    choose_length,
    detect_knee,
    normalize_scores,
    sc_curve,
)
from adaptls.config import RunConfig
from adaptls.errors import EmptyInput


def selection_confidence(sorted_scores, c, alpha):
    """Oracle for one sc_curve point: -ln(mean of the top-c scores + alpha)."""
    return -math.log(sum(sorted_scores[:c]) / c + alpha)


def sc_at(scores, c, alpha=0.01):
    """The sc value sc_curve gives at c."""
    points = dict(sc_curve(scores, c, alpha))
    return points[c]


def brute_force_difference(points):
    """Independent recount of the Kneedle normalized difference curve."""
    xs = [float(c) for c, _ in points]
    ys = [y for _, y in points]
    x_hat = [(x - xs[0]) / (xs[-1] - xs[0]) for x in xs]
    lo, hi = min(ys), max(ys)
    if hi == lo:
        return [-x for x in x_hat]
    y_hat = [(y - lo) / (hi - lo) for y in ys]
    return [a - b for a, b in zip(y_hat, x_hat)]


class TestNormalizeScores:
    def test_basic(self):
        assert normalize_scores([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_constant_maps_to_ones(self):
        assert normalize_scores([3.0, 3.0]) == [1.0, 1.0]

    def test_span_past_the_float_range(self):
        # 1.7e308 - -1.7e308 overflows to inf, and inf / inf would be NaN
        assert normalize_scores([1.7e308, 0.0, -1.7e308]) == [1.0, 0.5, 0.0]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_finite_scores_stay_finite(self, scores):
        lo, hi = min(scores), max(scores)
        out = normalize_scores(scores)
        assert all(0.0 <= v <= 1.0 for v in out)
        if math.isfinite(hi - lo) and hi > lo:  # the plain formula, bytes unchanged
            assert out == [(s - lo) / (hi - lo) for s in scores]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_output_in_unit_interval(self, scores):
        out = normalize_scores(scores)
        assert all(0.0 <= v <= 1.0 for v in out)
        assert len(out) == len(scores)

    @given(
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=30),
        st.floats(0.5, 10.0),
        st.floats(-50, 50),
    )
    def test_affine_invariance(self, raw_scores, scale, shift):
        # Integer-valued scores keep the span well away from float underflow.
        scores = [float(s) for s in raw_scores]
        transformed = [s * scale + shift for s in scores]
        got = normalize_scores(transformed)
        expected = normalize_scores(scores)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-6)


class TestSelectionConfidence:
    """Hand values of the sc_curve points (the selection confidence)."""

    def test_hand_value(self):
        # top-2 mean of [1.0, 0.5] is 0.75; sc = -ln(0.76)
        got = sc_at([1.0, 0.5, 0.0], 2)
        assert got == pytest.approx(-math.log(0.76), abs=1e-12)

    def test_single_top_score(self):
        assert sc_at([1.0], 1) == pytest.approx(-math.log(1.01))

    def test_all_zero_scores_hit_alpha_floor(self):
        got = sc_at([0.0, 0.0], 2)
        assert got == pytest.approx(-math.log(0.01))

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    def test_nondecreasing_in_c_for_descending_scores(self, scores):
        values = [sc for _, sc in sc_curve(scores, len(scores), 0.01)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12


class TestScCurve:
    def test_matches_pointwise_definition(self):
        scores = [1.0, 0.8, 0.3, 0.1, 0.0]
        curve = sc_curve(scores, 5, 0.01)
        assert [c for c, _ in curve] == [1, 2, 3, 4, 5]
        for c, sc in curve:
            assert sc == pytest.approx(selection_confidence(scores, c, 0.01), abs=1e-12)

    def test_c_max_truncates(self):
        curve = sc_curve([1.0, 0.5, 0.0, 0.0], 2, 0.01)
        assert len(curve) == 2


def _curve_from_ys(ys):
    return [(i + 1, y) for i, y in enumerate(ys)]


class TestDetectKnee:
    def test_reciprocal_curve_knee_at_three(self):
        # y = 1 - 1/c for c = 1..10 bends early; the normalized difference
        # at the knee is 0.5185 to 4 decimals.
        ys = [1.0 - 1.0 / c for c in range(1, 11)]
        knee = detect_knee(_curve_from_ys(ys), 1.0)
        assert knee is not None
        assert knee.c_star == 3
        assert knee.difference == pytest.approx(0.5185, abs=5e-5)

    def test_straight_line_has_no_knee(self):
        ys = [0.1 * c for c in range(1, 11)]
        assert detect_knee(_curve_from_ys(ys), 1.0) is None

    def test_flat_curve_has_no_knee(self):
        assert detect_knee(_curve_from_ys([2.0] * 8), 1.0) is None

    def test_difference_reported_matches_oracle(self):
        ys = [1.0 - 1.0 / c for c in range(1, 16)]
        curve = _curve_from_ys(ys)
        knee = detect_knee(curve, 1.0)
        diffs = brute_force_difference(curve)
        assert knee.difference == pytest.approx(diffs[knee.c_star - 1], abs=1e-12)

    def test_concave_bend_found_on_piecewise_linear(self):
        # Steep rise for 5 steps then a shallow tail: the knee is at the bend.
        ys = [min(i, 5) * 1.0 + max(i - 5, 0) * 0.05 for i in range(12)]
        knee = detect_knee(_curve_from_ys(ys), 1.0)
        assert knee is not None
        assert knee.c_star == 6  # curve index of the bend (i=5 -> c=6)

    def test_noisy_piecewise_linear_bends_recovered(self):
        # 100 random concave elbow curves with small additive noise; the
        # detected knee must sit within one step of the planted bend.
        import random

        rng = random.Random(1234)
        hits = 0
        for _ in range(100):
            n = 30
            bend = rng.randint(5, 24)
            steep = rng.uniform(0.5, 1.0)
            shallow = rng.uniform(0.0, 0.05)
            ys = []
            level = 0.0
            for i in range(n):
                level += steep if i < bend else shallow
                ys.append(level + rng.gauss(0.0, 0.01))
            knee = detect_knee(_curve_from_ys(ys), 1.0)
            assert knee is not None
            if abs(knee.c_star - (bend + 1)) <= 1:
                hits += 1
        assert hits == 100


class TestChooseLength:
    def test_two_dominant_scores_give_length_two(self):
        scores = [0.95, 0.9, 0.1, 0.08, 0.05, 0.03, 0.01]
        l, _, knee = choose_length(scores, RunConfig())
        assert l == 2
        assert not knee.fallback_used

    def test_two_dominant_scores_longer_tails(self):
        for n in (11, 15):
            tail = [0.1 * (0.8 ** i) for i in range(n - 2)]
            l, _, knee = choose_length([0.95, 0.9] + tail, RunConfig())
            assert l == 2
            assert not knee.fallback_used

    def test_five_dominant_of_thirteen(self):
        scores = [0.99, 0.97, 0.96, 0.94, 0.92] + [0.1 - 0.01 * i for i in range(8)]
        l, _, knee = choose_length(scores, RunConfig())
        assert l == 5
        assert not knee.fallback_used

    def test_uniform_scores_fall_back(self):
        l, _, knee = choose_length([1.0] * 6, RunConfig())
        assert knee.fallback_used
        assert l == 1

    def test_fewer_than_three_items(self):
        l, curve, knee = choose_length([2.0, 1.0], RunConfig())
        assert l == 2
        assert knee.fallback_used
        assert len(curve) == 2

    def test_single_item(self):
        l, _, knee = choose_length([5.0], RunConfig())
        assert l == 1
        assert knee.fallback_used

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            choose_length([], RunConfig())

    def test_c_max_caps_curve_and_choice(self):
        scores = [0.95, 0.9, 0.1, 0.08, 0.05, 0.03, 0.01]
        l, curve, _ = choose_length(scores, RunConfig(c_max=4))
        assert len(curve) == 4
        assert 1 <= l <= 4

    def test_scale_invariance(self):
        scores = [9.5, 9.0, 1.0, 0.8, 0.5, 0.3, 0.1]
        l_raw, _, _ = choose_length(scores, RunConfig())
        l_scaled, _, _ = choose_length([s * 40.0 + 7.0 for s in scores], RunConfig())
        assert l_raw == l_scaled == 2

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    def test_length_within_bounds(self, scores):
        l, curve, _ = choose_length(scores, RunConfig())
        assert 1 <= l <= len(scores)
        # curve is built over the full list by default
        assert len(curve) == len(scores)
