"""Selection-Confidence curves and knee detection.

The timeline length is chosen where the curve of
``sc(c) = -ln(mean of the top-c normalized scores + alpha)`` bends: adding
items past that point no longer buys much confidence.  The knee is located
with the Kneedle procedure on the normalized difference curve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import RunConfig
from .errors import EmptyInput


class KneePoint(NamedTuple):
    c_star: int
    difference: float
    fallback_used: bool


def normalize_scores(scores: list[float]) -> list[float]:
    """Min-max normalize finite scores (at least one) to [0, 1]; a constant input maps to all ones."""
    lo = min(scores)
    hi = max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    span = hi - lo
    if math.isinf(span):  # halved, the scores have a finite span
        scores, lo, span = [s / 2 for s in scores], lo / 2, hi / 2 - lo / 2
    return [(s - lo) / span for s in scores]


def sc_curve(scores: list[float], c_max: int, alpha: float) -> list[tuple[int, float]]:
    """The (c, sc) points of the selection-confidence curve, c = 1..min(c_max, len(scores))."""
    limit = min(c_max, len(scores))
    running = 0.0
    points = []
    for c in range(1, limit + 1):
        running += scores[c - 1]
        points.append((c, -math.log(running / c + alpha)))
    return points


def _difference_curve(curve: list[tuple[int, float]]) -> list[float]:
    """Kneedle normalized difference d_i = y_hat_i - x_hat_i."""
    xs = [float(c) for c, _ in curve]
    ys = [sc for _, sc in curve]
    x_span = xs[-1] - xs[0]
    y_lo, y_hi = min(ys), max(ys)
    y_span = y_hi - y_lo
    x_hat = [(x - xs[0]) / x_span for x in xs]
    if y_span == 0.0:
        # Flat curve: no information, difference reduces to -x_hat.
        return [-x for x in x_hat]
    y_hat = [(y - y_lo) / y_span for y in ys]
    return [yh - xh for yh, xh in zip(y_hat, x_hat)]


def detect_knee(curve: list[tuple[int, float]], sensitivity: float) -> KneePoint | None:
    """Kneedle knee detection on the normalized difference curve of 3 or more (c, sc) points.

    A local maximum of the difference curve becomes the knee once the
    difference drops below ``d_max - sensitivity * mean_x_spacing`` before a
    higher local maximum appears.  Curves built from a block of dominant
    scores start convex: there the stopping point shows up as a local
    *minimum* dipping below the diagonal, so local minima with
    ``d <= -sensitivity * spacing / 2`` count as elbow candidates
    symmetrically (declared once the difference rises back above
    ``d_min + sensitivity * spacing``).  The first extremum to qualify wins.
    Both cases are one rule on ``side * d``, with side +1 at a maximum and
    -1 at a minimum.  Returns None when nothing qualifies (e.g. a straight
    line).
    """
    n = len(curve)
    diffs = _difference_curve(curve)
    spacing = 1.0 / (n - 1)  # x is min-max normalized, so spacing is uniform
    dip_gate = -sensitivity * spacing / 2.0

    candidate: int | None = None
    side = 1
    threshold = 0.0
    for i, d in enumerate(diffs):
        sign = 0
        if 0 < i < n - 1:
            if d > diffs[i - 1] and d >= diffs[i + 1]:
                sign = 1
            elif d < diffs[i - 1] and d <= diffs[i + 1] and d <= dip_gate:
                sign = -1
        if sign and (candidate is None or (sign == side and sign * d > sign * diffs[candidate])):
            candidate, side = i, sign
            threshold = sign * d - sensitivity * spacing
        elif candidate is not None and side * d < threshold:
            return KneePoint(curve[candidate][0], diffs[candidate], fallback_used=False)
    return None


def choose_length(
    scores: list[float], config: RunConfig
) -> tuple[int, list[tuple[int, float]], KneePoint]:
    """Pick the timeline length for the descending scores of the ranked items.

    Scores are min-max normalized, the SC curve is built with the config's
    alpha up to its c_max (None: every item), and the Kneedle knee at its
    sensitivity gives l.  With no qualifying knee the global maximum of the
    difference curve is used instead; with fewer than three items l is
    simply the item count.  Both fallbacks are flagged on the returned
    KneePoint.  Returns (l, the curve's (c, sc) points, knee).
    """
    if not scores:
        raise EmptyInput("no scored items")
    limit = config.c_max if config.c_max is not None else len(scores)
    curve = sc_curve(normalize_scores(scores), limit, config.alpha)

    if len(curve) < 3:
        l = len(curve)
        return l, curve, KneePoint(l, 0.0, fallback_used=True)

    knee = detect_knee(curve, config.sensitivity)
    if knee is None:
        diffs = _difference_curve(curve)
        best = max(range(len(diffs)), key=lambda i: diffs[i])
        knee = KneePoint(curve[best][0], diffs[best], fallback_used=True)
    return knee.c_star, curve, knee
