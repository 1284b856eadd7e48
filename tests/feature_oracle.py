"""Reference date features: the per-offset window loop.

This is the earlier formulation of `adaptls.date_ranking.feature_matrix`,
which looked up each of the 3 + 7 + 15 day offsets around a candidate in a
dict of mention counts.  The tests hold the prefix-sum windows to it byte
for byte.
"""

import math
from datetime import date as Date, timedelta

import numpy as np

from adaptls.corpus import Topic
from adaptls.temporal import DateCandidate, candidate_dates


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def feature_matrix(topic: Topic) -> tuple[list[DateCandidate], np.ndarray]:
    candidates = candidate_dates(topic)
    counts = {c.date: c.mention_count for c in candidates if c.mention_count}
    total = sum(counts.values())
    min_pub, max_pub = topic.min_pub, topic.max_pub
    duration = (max_pub - min_pub).days

    def window(day: Date, days: int) -> int:
        return sum(
            counts.get(day + timedelta(days=off), 0) for off in range(-days, days + 1)
        )

    rows = []
    for cand in candidates:
        if duration > 0:
            pos_first = _clamp01((cand.date - min_pub).days / duration)
            pos_last = _clamp01((max_pub - cand.date).days / duration)
        else:
            pos_first = pos_last = 0.0
        rows.append(
            [
                math.log1p(cand.mention_count),
                math.log1p(cand.pub_article_count),
                math.log1p(cand.pub_sentence_count),
                math.log1p(window(cand.date, 1)),
                math.log1p(window(cand.date, 3)),
                math.log1p(window(cand.date, 7)),
                cand.mention_count / total if total else 0.0,
                pos_first,
                pos_last,
            ]
        )
    return candidates, np.array(rows)
