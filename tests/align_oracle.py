"""Reference align-based ROUGE-n, as the metric was first written.

`adaptls.evaluation` builds each entry's n-gram tables once and scores the
alignment from integer overlaps.  This module keeps the plain version: a
1-tuple `Counter` per entry and per candidate pair, a `PRF` per pair, and one
alignment per n.  `evaluate_pair` bundles it with Date F1, so the tests can
hold `adaptls.evaluation.evaluate_pair` equal to it with `==`.
"""

from collections import Counter
from datetime import date as Date

from adaptls.corpus import Timeline
from adaptls.errors import EmptyTimeline
from adaptls.evaluation import PRF, PairResult, date_f1, entry_tokens


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _rouge_counts(pred_counts: Counter, ref_counts: Counter) -> PRF:
    pred_total = sum(pred_counts.values())
    ref_total = sum(ref_counts.values())
    if pred_total == 0 or ref_total == 0:
        return PRF(0.0, 0.0, 0.0)
    small, large = sorted((pred_counts, ref_counts), key=len)
    overlap = sum(min(count, large[gram]) for gram, count in small.items() if gram in large)
    return PRF.from_pr(overlap / pred_total, overlap / ref_total)


def rouge_n(pred_tokens: list[str], ref_tokens: list[str], n: int) -> PRF:
    return _rouge_counts(_ngrams(pred_tokens, n), _ngrams(ref_tokens, n))


def _gamma(a: Date, b: Date) -> float:
    return 1.0 / (1.0 + abs((a - b).days))


def align_dates(pred_tokens, ref_tokens) -> list[tuple[Date, Date, float]]:
    """Each generated date onto the reference date of the best rouge_1 F1 * gamma;
    ties go to the nearest, then earlier, reference date."""
    if not pred_tokens or not ref_tokens:
        raise EmptyTimeline("align_dates needs two non-empty timelines")
    ref_counts = {day: _ngrams(tokens, 1) for day, tokens in ref_tokens.items()}
    alignment = []
    for p_day, p_tokens in pred_tokens.items():
        p_counts = _ngrams(p_tokens, 1)
        best = None
        for r_day, r_counts in ref_counts.items():
            score = _rouge_counts(p_counts, r_counts).f1 * _gamma(p_day, r_day)
            key = (-score, abs((p_day - r_day).days), r_day)
            if best is None or key < best[0]:
                best = (key, r_day)
        alignment.append((p_day, best[1], _gamma(p_day, best[1])))
    return alignment


def align_rouge_f1(pred: Timeline, ref: Timeline, n: int) -> PRF:
    """Align-based ROUGE-n F1 between a generated and a reference timeline.

    Precision averages the aligned pairs' rouge_n F1 * gamma over the
    generated dates; recall credits each reference date with the best of
    them aligned to it.  An empty generated timeline scores zero.
    """
    if not pred.entries:
        return PRF(0.0, 0.0, 0.0)
    pred_tokens = entry_tokens(pred)
    ref_tokens = entry_tokens(ref)
    contributions: dict[Date, float] = {}
    best_per_ref: dict[Date, float] = {}
    for p_day, r_day, gamma in align_dates(pred_tokens, ref_tokens):
        value = rouge_n(pred_tokens[p_day], ref_tokens[r_day], n).f1 * gamma
        contributions[p_day] = value
        best_per_ref[r_day] = max(best_per_ref.get(r_day, 0.0), value)
    precision = sum(contributions.values()) / len(pred.entries)
    recall = sum(best_per_ref.get(day, 0.0) for day in ref.dates()) / len(ref.entries)
    return PRF.from_pr(precision, recall)


def evaluate_pair(pred: Timeline, ref: Timeline, topic: str) -> PairResult:
    return PairResult(
        topic, ref.name, date_f1(pred, ref), align_rouge_f1(pred, ref, 1), align_rouge_f1(pred, ref, 2)
    )
