"""Selection-Confidence curves and knee detection.

The timeline length is chosen where the curve of
``sc(c) = -ln(mean of the top-c normalized scores + alpha)`` bends: adding
items past that point no longer buys much confidence.  The knee is located
with the Kneedle procedure on the normalized difference curve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import DEFAULT_ALPHA, DEFAULT_SENSITIVITY
from .errors import EmptyInput, TooFewPoints


class ScoreCurve(NamedTuple):
    points: list[tuple[int, float]]  # (c, sc), c strictly increasing from 1
    alpha: float


class KneePoint(NamedTuple):
    c_star: int
    difference: float
    fallback_used: bool


def normalize_scores(scores: list[float]) -> list[float]:
    """Min-max normalize finite scores to [0, 1]; a constant input maps to all ones."""
    if not scores:
        raise EmptyInput("no scores to normalize")
    lo = min(scores)
    hi = max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    span = hi - lo
    if math.isinf(span):  # halved, the scores have a finite span
        scores, lo, span = [s / 2 for s in scores], lo / 2, hi / 2 - lo / 2
    return [(s - lo) / span for s in scores]


def sc_curve(scores: list[float], c_max: int, alpha: float) -> ScoreCurve:
    """Selection-confidence curve for c = 1..min(c_max, len(scores))."""
    if not scores:
        raise EmptyInput("no scores")
    limit = min(c_max, len(scores))
    running = 0.0
    points = []
    for c in range(1, limit + 1):
        running += scores[c - 1]
        points.append((c, -math.log(running / c + alpha)))
    return ScoreCurve(points, alpha)


def _difference_curve(curve: ScoreCurve) -> list[float]:
    """Kneedle normalized difference d_i = y_hat_i - x_hat_i."""
    xs = [float(c) for c, _ in curve.points]
    ys = [sc for _, sc in curve.points]
    x_span = xs[-1] - xs[0]
    y_lo, y_hi = min(ys), max(ys)
    y_span = y_hi - y_lo
    x_hat = [(x - xs[0]) / x_span for x in xs]
    if y_span == 0.0:
        # Flat curve: no information, difference reduces to -x_hat.
        return [-x for x in x_hat]
    y_hat = [(y - y_lo) / y_span for y in ys]
    return [yh - xh for yh, xh in zip(y_hat, x_hat)]


def detect_knee(curve: ScoreCurve, sensitivity: float) -> KneePoint | None:
    """Kneedle knee detection on the normalized difference curve.

    A local maximum of the difference curve becomes the knee once the
    difference drops below ``d_max - sensitivity * mean_x_spacing`` before a
    higher local maximum appears.  Curves built from a block of dominant
    scores start convex: there the stopping point shows up as a local
    *minimum* dipping below the diagonal, so local minima with
    ``d <= -sensitivity * spacing / 2`` count as elbow candidates
    symmetrically (declared once the difference rises back above
    ``d_min + sensitivity * spacing``).  The first extremum to qualify wins.
    Returns None when nothing qualifies (e.g. a straight line).
    """
    n = len(curve.points)
    if n < 3:
        raise TooFewPoints(f"need >= 3 points, got {n}")
    diffs = _difference_curve(curve)
    spacing = 1.0 / (n - 1)  # x is min-max normalized, so spacing is uniform
    dip_gate = -sensitivity * spacing / 2.0

    candidate: int | None = None
    candidate_is_max = True
    threshold = 0.0
    for i in range(n):
        interior = 0 < i < n - 1
        is_max = interior and diffs[i] > diffs[i - 1] and diffs[i] >= diffs[i + 1]
        is_min = (
            interior
            and diffs[i] < diffs[i - 1]
            and diffs[i] <= diffs[i + 1]
            and diffs[i] <= dip_gate
        )
        if is_max and (
            candidate is None or (candidate_is_max and diffs[i] > diffs[candidate])
        ):
            candidate = i
            candidate_is_max = True
            threshold = diffs[i] - sensitivity * spacing
            continue
        if is_min and (
            candidate is None
            or (not candidate_is_max and diffs[i] < diffs[candidate])
        ):
            candidate = i
            candidate_is_max = False
            threshold = diffs[i] + sensitivity * spacing
            continue
        if candidate is not None:
            crossed = diffs[i] < threshold if candidate_is_max else diffs[i] > threshold
            if crossed:
                c_star = curve.points[candidate][0]
                return KneePoint(c_star, diffs[candidate], fallback_used=False)
    return None


def choose_length(
    scored_items: list[tuple[object, float]],
    alpha: float = DEFAULT_ALPHA,
    sensitivity: float = DEFAULT_SENSITIVITY,
    c_max: int | None = None,
) -> tuple[int, ScoreCurve, KneePoint]:
    """Pick the timeline length for a descending-scored item list.

    Scores are min-max normalized, the SC curve is built up to c_max
    (default: all items) and the Kneedle knee gives l.  With no qualifying
    knee the global maximum of the difference curve is used instead; with
    fewer than three items l is simply the item count.  Both fallbacks are
    flagged on the returned KneePoint.
    """
    if not scored_items:
        raise EmptyInput("no scored items")
    scores = normalize_scores([score for _, score in scored_items])
    limit = c_max if c_max is not None else len(scores)
    curve = sc_curve(scores, limit, alpha)

    if len(curve.points) < 3:
        l = len(curve.points)
        return l, curve, KneePoint(l, 0.0, fallback_used=True)

    knee = detect_knee(curve, sensitivity)
    if knee is None:
        diffs = _difference_curve(curve)
        best = max(range(len(diffs)), key=lambda i: diffs[i])
        knee = KneePoint(curve.points[best][0], diffs[best], fallback_used=True)
    return knee.c_star, curve, knee
