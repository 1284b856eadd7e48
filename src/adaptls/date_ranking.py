"""Supervised date scoring: featurize candidate dates, ridge-regress, rank.

The target is binary (does the date appear in any reference timeline of its
topic) and the model is closed-form ridge regression with an unregularized
bias, which is all the tiny 9-feature system needs.  It is plain Python
floats added in a fixed order, so a regressor has the same bytes on every
IEEE-754 machine; no sum here is `sum()`, which adds floats with
compensated summation from Python 3.12 on.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

from .config import is_finite_number
from .corpus import Topic, read_json
from .errors import EmptyDataset, ParseError, SingularSystem
from .temporal import DateCandidate, candidate_dates

N_FEATURES = 9  # columns of feature_matrix
_SIZE = N_FEATURES + 1  # and the bias column of the ridge system


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def feature_matrix(topic: Topic) -> tuple[list[DateCandidate], list[list[float]]]:
    """All candidates of a topic with their feature rows of N_FEATURES floats.

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
    return candidates, rows


def _dot(row, weights) -> float:
    """The products of `row` and `weights` added left to right from 0.0."""
    return reduce(add, map(mul, row, weights), 0.0)


class Regressor(NamedTuple):
    weights: list[float]  # N_FEATURES of them
    bias: float
    l2_lambda: float

    def predict(self, rows) -> list[float]:
        """One score per feature row: its products with the weights added left to
        right, plus the bias; inf or NaN, with no warning, where it overflows."""
        return [_dot(row, self.weights) + self.bias for row in rows]

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
        return Regressor([float(w) for w in weights], float(obj["bias"]), float(obj["lambda"]))


# A block's moments: the _SIZE x _SIZE matrix A^T A and the vector A^T y of
# A = [feature rows | 1] and targets y.
Moments = tuple[list[list[float]], list[float]]


def moments(rows, targets) -> Moments:
    """The moments of feature `rows` and their `targets`, each entry summed in row order."""
    columns = [*zip(*rows), [1.0] * len(rows)]
    gram = [[0.0] * _SIZE for _ in range(_SIZE)]
    for i, column in enumerate(columns):
        for j in range(i, _SIZE):
            gram[i][j] = gram[j][i] = _dot(column, columns[j])
    return gram, [_dot(column, targets) for column in columns]


def _solve(gram, rhs, l2_lambda: float) -> tuple[list[float], float]:
    """(weights, bias) solving (gram + l2_lambda on the weights' diagonal) x = rhs.

    Gaussian elimination with partial pivoting (the first row of largest
    magnitude), then back substitution.  An exact zero pivot or a non-finite
    solution raises SingularSystem.
    """
    a = [[*row, b] for row, b in zip(gram, rhs)]  # augmented, copied
    for i in range(N_FEATURES):
        a[i][i] += l2_lambda
    for p in range(_SIZE):
        best = max(range(p, _SIZE), key=lambda r: abs(a[r][p]))
        if a[best][p] == 0.0:
            raise SingularSystem(f"singular ridge system: zero pivot in column {p}")
        a[p], a[best] = a[best], a[p]
        pivot_row = a[p]
        for row in a[p + 1 :]:
            factor = row[p] / pivot_row[p]
            for c in range(p + 1, _SIZE + 1):
                row[c] -= factor * pivot_row[c]
    x = [0.0] * _SIZE
    for i in reversed(range(_SIZE)):
        x[i] = (a[i][_SIZE] - _dot(a[i][i + 1 : _SIZE], x[i + 1 :])) / a[i][i]
    if not all(map(math.isfinite, x)):
        raise SingularSystem("non-finite ridge solution")
    return x[:N_FEATURES], x[N_FEATURES]


def training_rows(topic: Topic) -> tuple[list[list[float]], list[float]]:
    """A topic's feature rows and binary targets.

    A date is a positive example iff it appears in any reference timeline of
    its topic.
    """
    reference_dates = {
        day for timeline in topic.reference_timelines for day in timeline.dates()
    }
    candidates, X = feature_matrix(topic)
    y = [1.0 if c.date in reference_dates else 0.0 for c in candidates]
    return X, y


def train_regressor(blocks: list[Moments], l2_lambda: float) -> Regressor:
    """Fit the date regressor on the `moments` of its training blocks, added in order."""
    if not blocks:
        raise EmptyDataset("no training topic has a reference timeline")
    gram = [[0.0] * _SIZE for _ in range(_SIZE)]
    rhs = [0.0] * _SIZE
    for block_gram, block_rhs in blocks:
        for total, part in zip(gram, block_gram):
            total[:] = map(add, total, part)
        rhs[:] = map(add, rhs, block_rhs)
    weights, bias = _solve(gram, rhs, l2_lambda)
    return Regressor(weights, bias, l2_lambda)


def score_dates(
    regressor: Regressor, topic: Topic
) -> list[tuple[DateCandidate, float]]:
    """Score every candidate date, best first; ties go to the earlier date."""
    candidates, X = feature_matrix(topic)
    scored = list(zip(candidates, regressor.predict(X)))
    scored.sort(key=lambda item: (-item[1], item[0].date))
    return scored
