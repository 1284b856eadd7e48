"""Date F1, align-based ROUGE F1 and dataset statistics.

The align metric maps every generated date to the reference date maximizing
rouge-1 F1 weighted by temporal proximity gamma = 1/(1 + |day gap|), then
scores each aligned pair by rouge-n F1 times gamma.  Precision averages the
contributions over generated dates; recall credits each reference date with
the best contribution among the generated dates aligned to it.  An empty
generated timeline scores zero.  `tests/align_oracle.py` keeps the metric
as first written, a `Counter` and a `PRF` per date pair.
"""

from __future__ import annotations

from collections import Counter
from datetime import date as Date
from functools import reduce
from operator import add
from typing import NamedTuple

from .corpus import Timeline, Topic, tokenize
from .errors import EmptyCorpus, EmptyDataset


def _f1(precision: float, recall: float) -> float:
    """The harmonic mean of `precision` and `recall`, whose sum is not 0."""
    return 2.0 * precision * recall / (precision + recall)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_pr(precision: float, recall: float) -> "PRF":
        return PRF(precision, recall, _f1(precision, recall) if precision + recall else 0.0)


_ZERO = PRF(0.0, 0.0, 0.0)


def _total(values) -> float:
    """The floats `values` added left to right from 0.0, on every Python version
    (`sum` adds floats with compensated summation from 3.12 on)."""
    return reduce(add, values, 0.0)


def date_f1(pred: Timeline, ref: Timeline) -> PRF:
    """Exact-match F1 over the two date sets; the reference is not empty."""
    ref_dates = set(ref.dates())
    pred_dates = set(pred.dates())
    overlap = len(pred_dates & ref_dates)
    precision = overlap / len(pred_dates) if pred_dates else 0.0
    recall = overlap / len(ref_dates)
    return PRF.from_pr(precision, recall)


def _ngrams(tokens: list[str], n: int) -> Counter:
    """The n-gram table of `tokens` (n = 1 or 2); a unigram is its token."""
    return Counter(tokens if n == 1 else zip(tokens, tokens[1:]))


def _overlap(a: Counter, b: Counter) -> int:
    """Clipped n-gram overlap of two tables."""
    if len(a) > len(b):
        a, b = b, a
    return sum(min(count, b[gram]) for gram, count in a.items() if gram in b)


def _rouge_f1(overlap: int, pred_total: int, ref_total: int) -> float:
    """`PRF.from_pr(overlap / pred_total, overlap / ref_total).f1`, 0 without overlap
    (so also when a side has no n-gram)."""
    return _f1(overlap / pred_total, overlap / ref_total) if overlap else 0.0


def entry_tokens(timeline: Timeline) -> dict[Date, list[str]]:
    """Each entry's summary tokens, in date order."""
    return {day: tokenize(" ".join(summary)) for day, summary in timeline.entries}


def _gamma(gap: int) -> float:
    """Temporal proximity of two dates `gap` days apart."""
    return 1.0 / (1.0 + gap)


def align_dates(
    pred_tokens: dict[Date, list[str]], ref_tokens: dict[Date, list[str]]
) -> list[tuple[Date, Date, float, float]]:
    """m:1 alignment of generated dates onto reference dates.

    Takes both timelines, neither empty, as `entry_tokens`.  Each generated
    date picks the reference date maximizing rouge_1 F1 * gamma; ties go to
    the temporally nearest, then earlier, reference date.  Returns
    (generated date, reference date, gamma, rouge_1 F1 * gamma) per
    generated date.
    """
    refs = [(day, len(tokens), _ngrams(tokens, 1)) for day, tokens in ref_tokens.items()]
    alignment = []
    for p_day, p_tokens in pred_tokens.items():
        p_total = len(p_tokens)
        p_grams = _ngrams(p_tokens, 1)
        best = None
        for r_day, r_total, r_grams in refs:
            gap = abs((p_day - r_day).days)
            score = _rouge_f1(_overlap(p_grams, r_grams), p_total, r_total) * _gamma(gap)
            key = (-score, gap, r_day)
            if best is None or key < best:
                best = key
        negated, gap, r_day = best
        alignment.append((p_day, r_day, _gamma(gap), -negated))
    return alignment


def _precision_recall(scored: list[tuple[Date, float]], ref_days: list[Date]) -> PRF:
    """PRF of (reference date, value) pairs, one per generated date: precision
    averages the values over the generated dates; recall credits each
    reference date with the best value aligned to it."""
    best_per_ref: dict[Date, float] = {}
    for r_day, value in scored:
        best_per_ref[r_day] = max(best_per_ref.get(r_day, 0.0), value)
    precision = _total(value for _, value in scored) / len(scored)
    recall = _total(best_per_ref.get(day, 0.0) for day in ref_days) / len(ref_days)
    return PRF.from_pr(precision, recall)


def _align_rouge(pred: Timeline, ref: Timeline) -> tuple[PRF, PRF]:
    """Align-based ROUGE-1 and ROUGE-2 F1, from one alignment.

    ROUGE-1 takes the scores the alignment picked its reference dates by;
    only the aligned pairs' bigrams are scored again.  An empty generated
    timeline scores zero.
    """
    if not pred.entries:
        return _ZERO, _ZERO
    pred_tokens = entry_tokens(pred)
    ref_tokens = entry_tokens(ref)
    alignment = align_dates(pred_tokens, ref_tokens)
    ref_bigrams = {r_day: _ngrams(ref_tokens[r_day], 2) for _, r_day, _, _ in alignment}
    bigram_scores = []
    for p_day, r_day, gamma, _ in alignment:
        p_tokens, r_tokens = pred_tokens[p_day], ref_tokens[r_day]
        overlap = _overlap(_ngrams(p_tokens, 2), ref_bigrams[r_day])
        bigram_scores.append((r_day, _rouge_f1(overlap, len(p_tokens) - 1, len(r_tokens) - 1) * gamma))
    ref_days = ref.dates()
    ar1 = _precision_recall([(r_day, score) for _, r_day, _, score in alignment], ref_days)
    return ar1, _precision_recall(bigram_scores, ref_days)


# ---------------------------------------------------------------------------
# reports


class PairResult(NamedTuple):
    topic: str
    reference: str
    date_f1: PRF
    ar1: PRF
    ar2: PRF


def evaluate_pair(pred: Timeline, ref: Timeline, topic: str) -> PairResult:
    return PairResult(topic, ref.name, date_f1(pred, ref), *_align_rouge(pred, ref))


def report(pairs: list[PairResult]) -> dict:
    """`eval`'s report: {"pairs": each pair's fields, "macro": the mean F1s}.

    With no pairs every mean is 0.0.
    """
    n = max(len(pairs), 1)
    return {
        "pairs": [
            {name: value._asdict() if isinstance(value, PRF) else value for name, value in pair._asdict().items()}
            for pair in pairs
        ],
        "macro": {
            "AR1-F": _total(p.ar1.f1 for p in pairs) / n,
            "AR2-F": _total(p.ar2.f1 for p in pairs) / n,
            "DATE-F1": _total(p.date_f1.f1 for p in pairs) / n,
        },
    }


def report_table(macro: dict[str, float], label: str) -> str:
    """`report`'s macro averages as text: a header line and one row named `label`."""
    header = " ".join([f"{'Method':<20}", *(f"{name:>8}" for name in macro)])
    row = " ".join([f"{label:<20}", *(f"{value:>8.3f}" for value in macro.values())])
    return header + "\n" + row


# ---------------------------------------------------------------------------
# dataset statistics


STAT_NAMES = (
    "AvgSentNum",
    "AvgDocsNum",
    "AvgL",
    "AvgK",
    "AvgDuration",
    "AvgDurComp",
    "AvgSentComp",
    "AvgDateComp",
    "AvgDateCov",
)


def dataset_stats(dataset: list[Topic]) -> dict[str, int | float]:
    """{"Topics", "TLs", then each of STAT_NAMES}: counts and per-timeline averages.

    Every average is taken over (topic, reference timeline) pairs; corpus
    quantities (sentence counts, durations, candidate dates) come from the
    pair's topic, computed once per topic.  Requires mentions to be
    annotated; a topic without sentences raises EmptyCorpus.
    """
    from .temporal import candidate_dates  # its date patterns are not needed by `eval`

    rows = []  # one per (topic, reference timeline), a value per STAT_NAMES
    for topic in dataset:
        if not topic.reference_timelines:
            continue
        total_sentences = len(topic.sentences())
        if not total_sentences:
            raise EmptyCorpus(f"topic {topic.name!r} has no sentences")
        corpus_dates = {c.date for c in candidate_dates(topic)}
        duration = topic.duration_days
        for timeline in topic.reference_timelines:
            length = timeline.length
            covered = sum(1 for day in timeline.dates() if day in corpus_dates)
            rows.append(
                (
                    total_sentences,
                    len(topic.articles),
                    length,
                    timeline.total_sentences / length,
                    duration,
                    length / max(duration, 1),
                    timeline.total_sentences / total_sentences,
                    length / len(corpus_dates),
                    covered / length,
                )
            )
    if not rows:
        raise EmptyDataset("no topic has a reference timeline")
    averages = {name: _total(column) / len(rows) for name, column in zip(STAT_NAMES, zip(*rows))}
    return {"Topics": len(dataset), "TLs": len(rows), **averages}


def stats_table(stats: dict[str, int | float]) -> str:
    """`dataset_stats` as text: one name per line, counts as integers, averages to 4 places."""
    width = max(map(len, stats))
    return "\n".join(
        f"{name:<{width}}  {value}" if isinstance(value, int) else f"{name:<{width}}  {value:.4f}"
        for name, value in stats.items()
    )
