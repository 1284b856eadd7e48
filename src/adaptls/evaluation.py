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

from .corpus import Timeline, Topic, _Record, tokenize
from .errors import EmptyCorpus, EmptyDataset


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_pr(precision: float, recall: float) -> "PRF":
        if precision + recall == 0.0:
            return PRF(precision, recall, 0.0)
        f1 = 2.0 * precision * recall / (precision + recall)
        return PRF(precision, recall, f1)


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


def _tables(tokens_by_day: dict[Date, list[str]], n: int) -> dict[Date, Counter]:
    return {day: _ngrams(tokens, n) for day, tokens in tokens_by_day.items()}


def _overlap(a: Counter, b: Counter) -> int:
    """Clipped n-gram overlap of two tables."""
    if len(a) > len(b):
        a, b = b, a
    return sum(min(count, b[gram]) for gram, count in a.items() if gram in b)


def _f1(overlap: int, pred_total: int, ref_total: int) -> float:
    """`PRF.from_pr(overlap / pred_total, overlap / ref_total).f1`, 0 without overlap."""
    if not overlap:
        return 0.0
    precision = overlap / pred_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def entry_tokens(timeline: Timeline) -> dict[Date, list[str]]:
    """Each entry's summary tokens, in date order."""
    return {
        day: tokenize(" ".join(summary)) for day, summary in timeline.entries
    }


def _gamma(gap: int) -> float:
    """Temporal proximity of two dates `gap` days apart."""
    return 1.0 / (1.0 + gap)


def align_dates(
    pred_tokens: dict[Date, list[str]],
    ref_tokens: dict[Date, list[str]],
    unigrams: tuple[dict[Date, Counter], dict[Date, Counter]] | None = None,
) -> list[tuple[Date, Date, float]]:
    """m:1 alignment of generated dates onto reference dates.

    Takes both timelines, neither empty, as `entry_tokens`, and optionally
    their unigram tables (`_tables(tokens, 1)` of each), else builds them.
    Each generated date picks the reference date maximizing rouge_1 F1 *
    gamma; ties go to the temporally nearest, then earlier, reference date.
    """
    pred_grams, ref_grams = unigrams or (_tables(pred_tokens, 1), _tables(ref_tokens, 1))
    refs = [(day, len(tokens), ref_grams[day]) for day, tokens in ref_tokens.items()]
    alignment = []
    for p_day, p_tokens in pred_tokens.items():
        p_total = len(p_tokens)
        p_grams = pred_grams[p_day]
        best = None
        for r_day, r_total, r_grams in refs:
            gap = abs((p_day - r_day).days)
            score = _f1(_overlap(p_grams, r_grams), p_total, r_total) * _gamma(gap)
            key = (-score, gap, r_day)
            if best is None or key < best:
                best = key
        _, gap, r_day = best
        alignment.append((p_day, r_day, _gamma(gap)))
    return alignment


def _align_rouge(pred: Timeline, ref: Timeline) -> tuple[PRF, PRF]:
    """Align-based ROUGE-1 and ROUGE-2 F1, from one alignment.

    Each entry's unigram and bigram tables are built once; an empty
    generated timeline scores zero.
    """
    if not pred.entries:
        return _ZERO, _ZERO
    pred_tokens = entry_tokens(pred)
    ref_tokens = entry_tokens(ref)
    unigrams = (_tables(pred_tokens, 1), _tables(ref_tokens, 1))
    alignment = align_dates(pred_tokens, ref_tokens, unigrams)
    aligned_refs = {r_day: ref_tokens[r_day] for _, r_day, _ in alignment}
    bigrams = (_tables(pred_tokens, 2), _tables(aligned_refs, 2))
    scores = []
    for n, (pred_grams, ref_grams) in ((1, unigrams), (2, bigrams)):
        contributions: dict[Date, float] = {}
        best_per_ref: dict[Date, float] = {}
        for p_day, r_day, gamma in alignment:
            overlap = _overlap(pred_grams[p_day], ref_grams[r_day])
            f1 = _f1(overlap, len(pred_tokens[p_day]) - n + 1, len(ref_tokens[r_day]) - n + 1)
            value = f1 * gamma
            contributions[p_day] = value
            best_per_ref[r_day] = max(best_per_ref.get(r_day, 0.0), value)
        precision = _total(contributions.values()) / len(pred.entries)
        recall = _total(best_per_ref.get(day, 0.0) for day in ref.dates()) / len(ref.entries)
        scores.append(PRF.from_pr(precision, recall))
    return scores[0], scores[1]


# ---------------------------------------------------------------------------
# reports


class PairResult(NamedTuple):
    topic: str
    reference: str
    date_f1: PRF
    ar1: PRF
    ar2: PRF


class EvalReport(_Record):
    _fields = __slots__ = ("pairs",)

    def __init__(self, pairs: list[PairResult] | None = None):
        self.pairs = [] if pairs is None else pairs

    def macro(self) -> dict[str, float]:
        if not self.pairs:
            return {"AR1-F": 0.0, "AR2-F": 0.0, "DATE-F1": 0.0}
        n = len(self.pairs)
        return {
            "AR1-F": _total(p.ar1.f1 for p in self.pairs) / n,
            "AR2-F": _total(p.ar2.f1 for p in self.pairs) / n,
            "DATE-F1": _total(p.date_f1.f1 for p in self.pairs) / n,
        }

    def to_json_obj(self) -> dict:
        def prf(v: PRF) -> dict:
            return {"precision": v.precision, "recall": v.recall, "f1": v.f1}

        return {
            "pairs": [
                {
                    "topic": p.topic,
                    "reference": p.reference,
                    "date_f1": prf(p.date_f1),
                    "ar1": prf(p.ar1),
                    "ar2": prf(p.ar2),
                }
                for p in self.pairs
            ],
            "macro": self.macro(),
        }

    def to_text_table(self, label: str = "dataset") -> str:
        macro = self.macro()
        header = f"{'Method':<20} {'AR1-F':>8} {'AR2-F':>8} {'DATE-F1':>8}"
        row = (
            f"{label:<20} {macro['AR1-F']:>8.3f} "
            f"{macro['AR2-F']:>8.3f} {macro['DATE-F1']:>8.3f}"
        )
        return "\n".join([header, row])


def evaluate_pair(pred: Timeline, ref: Timeline, topic: str) -> PairResult:
    ar1, ar2 = _align_rouge(pred, ref)
    return PairResult(
        topic=topic,
        reference=ref.name,
        date_f1=date_f1(pred, ref),
        ar1=ar1,
        ar2=ar2,
    )


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
