"""Extractive daily summaries: centroid-rank and greedy centroid-opt."""

from __future__ import annotations

import math
from datetime import date as Date
from typing import TYPE_CHECKING

import numpy as np

from .corpus import Timeline, Topic
from .errors import EmptyTimeline
from .tfidf import Rows, Vectorizer

if TYPE_CHECKING:
    from .event_ranking import EventCluster

REDUNDANCY_THRESHOLD = 0.8
# centroid-opt adds a row only for a gain above this bound on the rounding
# error of its cosines.  Without it, a row that is a rounded copy of a chosen
# row (unit weights 1.0 and 0.9999999999999999) could "improve" the
# objective by one ulp.
MIN_GAIN = 1e-12


def expert_k(timelines: list[Timeline]) -> int:
    """Mean daily-summary length over the timelines' entries, rounded half
    up, at least 1 (1 when there are no entries)."""
    lengths = [len(summary) for t in timelines for _, summary in t.entries]
    if not lengths:
        return 1
    return max(1, int(sum(lengths) / len(lengths) + 0.5))


def candidate_sentences(
    vec: Vectorizer, day: Date, cluster: EventCluster | None = None
) -> list[int]:
    """Rows mentioning `day`, plus the rows published on it or, for an
    event, the rows of the cluster's articles."""
    rows = set(vec.by_mention.get(day, ()))
    if cluster is None:
        rows.update(vec.by_pub_date.get(day, ()))
    else:
        for article_id in cluster.article_ids:
            rows.update(vec.by_article.get(article_id, ()))
    return sorted(rows)


def _block(rows: list[int], vec: Vectorizer) -> tuple[Rows, np.ndarray]:
    """The candidate rows and each one's cosine to their normalized mean."""
    block = vec.rows.take(rows)
    total = np.bincount(block.indices, weights=block.data, minlength=len(vec.idf))
    centroid = total * (1.0 / len(rows))
    norm = math.sqrt(centroid @ centroid)
    if norm:
        centroid *= 1.0 / norm
    return block, block.dots(centroid)


def centroid_rank(rows: list[int], vec: Vectorizer, k: int) -> list[int]:
    """Top-k of the candidate rows (at least one) by cosine to their centroid, in row order.

    Near-duplicates of an already selected row (cosine >= 0.8) are skipped;
    ties keep the incoming order.
    """
    block, to_centroid = _block(rows, vec)
    nearest = np.zeros(len(rows))  # highest cosine to any chosen row
    chosen: list[int] = []
    for i in np.argsort(-to_centroid, kind="stable"):
        if len(chosen) >= k:
            break
        if nearest[i] >= REDUNDANCY_THRESHOLD:
            continue
        chosen.append(i)
        nearest = np.maximum(nearest, block.dots(block.row(i, len(vec.idf))))
    return [rows[i] for i in sorted(chosen)]


def centroid_opt(rows: list[int], vec: Vectorizer, k: int) -> list[int]:
    """Greedy set of the candidate rows (at least one) maximizing cosine(summary, centroid).

    At each step the candidate whose addition gives the highest cosine of the
    normalized summed summary vector to the centroid is added (ties go to
    the earlier row); the build stops at k rows or as soon as no candidate
    improves the objective by more than MIN_GAIN.  Returns the chosen rows
    in row order.
    """
    block, to_centroid = _block(rows, vec)
    # |s + v|^2 = |s|^2 + 2 s.v + |v|^2, where |v|^2 is 1, or 0 for an empty
    # row.  It is summed like s.v, so a copy of a lone chosen row ties exactly.
    sq_norms = block.sums(block.data * block.data)
    summary = np.zeros(len(vec.idf))
    summary_sq = summary_dot = 0.0
    objective = -math.inf
    chosen: list[int] = []
    while len(chosen) < k:
        norm_sq = (summary_sq + sq_norms) + 2.0 * block.dots(summary)
        dot = summary_dot + to_centroid
        values = np.divide(
            dot, np.sqrt(norm_sq), out=np.zeros(len(rows)), where=norm_sq > 0.0
        )
        values[chosen] = -math.inf
        best = int(np.argmax(values))
        if not values[best] > objective + MIN_GAIN:
            break
        chosen.append(best)
        summary += block.row(best, len(summary))
        summary_sq, summary_dot, objective = norm_sq[best], dot[best], values[best]
    return [rows[i] for i in sorted(chosen)]


def build_timeline(
    topic: Topic,
    selected: list[tuple[Date, list[int]]],
    k: int,
    method: str,
    vec: Vectorizer,
) -> Timeline:
    """Summarize each selected (date, candidate rows) into an entry of at most `k` sentences.

    `method` is "rank" (centroid-rank) or "opt" (centroid-opt).  The rows
    are the date's pool from `candidate_sentences`, built once with the
    ranked item.  A date with an empty pool raises EmptyTimeline: callers
    select only items that can be summarized.
    """
    summarize = centroid_rank if method == "rank" else centroid_opt
    entries = []
    for day, rows in selected:
        if not rows:
            raise EmptyTimeline(
                f"selected date {day.isoformat()} of topic {topic.name!r} has no candidate sentences"
            )
        entries.append((day, [vec.sentences[row].raw for row in summarize(rows, vec, k)]))
    return Timeline("generated", entries)
