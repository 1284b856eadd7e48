"""Supervised date scoring: featurize candidate dates, ridge-regress, rank.

The target is binary (does the date appear in any reference timeline of its
topic) and the model is closed-form ridge regression with an unregularized
bias, which is all the tiny 9-feature system needs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .config import DEFAULT_LAMBDA, is_finite_number
from .corpus import Topic, read_json
from .errors import EmptyDataset, ParseError, SingularSystem
from .temporal import DateCandidate, candidate_dates

N_FEATURES = 9  # columns of feature_matrix


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def feature_matrix(topic: Topic) -> tuple[list[DateCandidate], np.ndarray]:
    """All candidates of a topic with their (n, N_FEATURES) feature rows.

    Columns: ln(1 + mentions), ln(1 + articles published on the date),
    ln(1 + sentences published on it), ln(1 + mentions within +-1, +-3 and
    +-7 days), the date's share of all mentions, and its position between
    the first and the last publication date counted from each end.
    """
    candidates = candidate_dates(topic)
    ordinals = [c.date.toordinal() for c in candidates]
    # prefix[i]: the mentions of the first i candidates, which are date-sorted
    prefix = [0, *accumulate(c.mention_count for c in candidates)]
    total = prefix[-1]
    first, last = topic.min_pub.toordinal(), topic.max_pub.toordinal()
    duration = last - first

    def window(day: int, days: int) -> int:
        """Mentions of the dates within `days` of ordinal `day`."""
        lo, hi = bisect_left(ordinals, day - days), bisect_right(ordinals, day + days)
        return prefix[hi] - prefix[lo]

    rows = []
    for cand, day in zip(candidates, ordinals):
        if duration > 0:
            pos_first = _clamp01((day - first) / duration)
            pos_last = _clamp01((last - day) / duration)
        else:
            pos_first = pos_last = 0.0
        rows.append(
            [
                math.log1p(cand.mention_count),
                math.log1p(cand.pub_article_count),
                math.log1p(cand.pub_sentence_count),
                math.log1p(window(day, 1)),
                math.log1p(window(day, 3)),
                math.log1p(window(day, 7)),
                cand.mention_count / total if total else 0.0,
                pos_first,
                pos_last,
            ]
        )
    return candidates, np.array(rows)


@dataclass(frozen=True)
class Regressor:
    weights: np.ndarray  # shape (N_FEATURES,)
    bias: float
    l2_lambda: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        """One score per feature row; inf or NaN, with no warning, where it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return features @ self.weights + self.bias

    def to_json_obj(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "lambda": float(self.l2_lambda),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj()), encoding="utf-8")

    @staticmethod
    def load(path) -> "Regressor":
        """Read a saved regressor; a malformed file raises ParseError naming it."""
        obj = read_json(path)
        for key in ("weights", "bias", "lambda"):
            if key not in obj:
                raise ParseError(f"{path}: missing key {key!r}")
        weights = obj["weights"]
        if not (isinstance(weights, list) and len(weights) == N_FEATURES):
            raise ParseError(f"{path}: 'weights' must be a list of {N_FEATURES} numbers")
        if not all(map(is_finite_number, weights + [obj["bias"], obj["lambda"]])):
            raise ParseError(f"{path}: weights, bias and lambda must be finite numbers")
        return Regressor(
            np.array(weights, dtype=float), float(obj["bias"]), float(obj["lambda"])
        )


def solve_ridge(
    X: np.ndarray, y: np.ndarray, l2_lambda: float
) -> tuple[np.ndarray, float]:
    """Closed-form ridge solution with an unregularized bias column."""
    n = X.shape[0]
    A = np.hstack([X, np.ones((n, 1))])
    penalty = np.diag([l2_lambda] * X.shape[1] + [0.0])
    gram = A.T @ A + penalty
    try:
        solution = np.linalg.solve(gram, A.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(solution)):
        raise SingularSystem("non-finite ridge solution")
    return solution[:-1], float(solution[-1])


def training_rows(topic: Topic) -> tuple[np.ndarray, np.ndarray]:
    """A topic's feature rows and binary targets.

    A date is a positive example iff it appears in any reference timeline of
    its topic.
    """
    reference_dates = {
        day for timeline in topic.reference_timelines for day in timeline.dates()
    }
    candidates, X = feature_matrix(topic)
    y = np.array([1.0 if c.date in reference_dates else 0.0 for c in candidates])
    return X, y


def train_regressor(
    blocks: list[tuple[np.ndarray, np.ndarray]], l2_lambda: float = DEFAULT_LAMBDA
) -> Regressor:
    """Fit the date regressor on the stacked `training_rows` blocks, in order."""
    if not blocks:
        raise EmptyDataset("no training topic has a reference timeline")
    X = np.vstack([X for X, _ in blocks])
    y = np.concatenate([y for _, y in blocks])
    weights, bias = solve_ridge(X, y, l2_lambda)
    return Regressor(weights, bias, l2_lambda)


def score_dates(
    regressor: Regressor, topic: Topic
) -> list[tuple[DateCandidate, float]]:
    """Score every candidate date, best first; ties go to the earlier date."""
    candidates, X = feature_matrix(topic)
    scores = regressor.predict(X)
    scored = list(zip(candidates, (float(s) for s in scores)))
    scored.sort(key=lambda item: (-item[1], item[0].date))
    return scored
