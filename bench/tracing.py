"""Spans and counts around the public functions of each adaptls module.

`Tracer` replaces each function in `PATCHES` under the name its caller looks
it up by (for example `adaptls.cli.load_dataset`, which `cli` imported by
name, or `adaptls.date_ranking.train_regressor`, which `cli` reads off the
module) with a wrapper that records a span (name, start, end, parent) and
updates the layer's counters.  A layer's self time is the time inside its
spans that no child span covers.  Spans inside `adaptls` itself are not
recorded: the program runs unchanged between the patched entry points.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


def _count(name, amount=lambda args, result: 1):
    def update(counts, args, result):
        counts[name] += amount(args, result)

    update.counter = name
    return update


def _summary_counts(counts, args, result):
    counts["summarizer.selected"] += len(args[1])
    counts["summarizer.written"] += len(result.entries)


# (module, attribute, span name or None for a count only, counter update)
PATCHES = [
    ("adaptls.cli", "load_dataset", "corpus.load", None),
    ("adaptls.corpus", "load_dataset", "corpus.load", None),
    ("adaptls.cli", "build_vectorizer", "corpus.vectorizer", _count("corpus.vectorizer_calls")),
    ("adaptls.event_ranking", "build_vectorizer", "corpus.vectorizer", _count("corpus.vectorizer_calls")),
    ("adaptls.cli", "annotate_topic", "temporal.annotate", None),
    ("adaptls.temporal", "annotate_topic", "temporal.annotate", None),
    ("adaptls.date_ranking", "candidate_dates", "temporal.candidates", None),
    ("adaptls.date_ranking", "train_regressor", "date_ranking.train", None),
    ("adaptls.date_ranking", "feature_matrix", None, _count("date_ranking.feature_builds")),
    ("adaptls.date_ranking", "score_dates", "date_ranking.score", None),
    (
        "adaptls.event_ranking", "build_similarity_graph", "event_ranking.graph",
        _count("event_ranking.graph_pairs", lambda args, g: g.n * (g.n - 1) // 2),
    ),
    (
        "adaptls.event_ranking", "markov_cluster", "event_ranking.mcl",
        _count("event_ranking.mcl_iterations", lambda args, r: r.iterations),
    ),
    ("adaptls.event_ranking", "make_event_clusters", "event_ranking.dating", None),
    (
        "adaptls.adaptive_selection", "choose_length", "adaptive_selection.knee",
        _count("adaptive_selection.fallbacks", lambda args, r: int(r[2].fallback_used)),
    ),
    ("adaptls.cli", "build_timeline", "summarizer.build", _summary_counts),
    (
        "adaptls.summarizer", "centroid_rank", "summarizer.select",
        _count("summarizer.candidates", lambda args, r: len(args[0])),
    ),
    (
        "adaptls.summarizer", "centroid_opt", "summarizer.select",
        _count("summarizer.candidates", lambda args, r: len(args[0])),
    ),
    ("adaptls.evaluation", "evaluate_pair", "evaluation.pair", None),
    ("adaptls.evaluation", "align_dates", None, _count("evaluation.align_calls")),
]

SPAN_NAMES = sorted({span for _, _, span, _ in PATCHES if span})
COUNT_NAMES = sorted({getattr(update, "counter", None) for *_, update in PATCHES} - {None})


class Tracer:
    """Patches `PATCHES` while entered; spans are kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, update):
        def traced(*args, **kwargs):
            index = -1
            if name:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, perf_counter(), None, parent])
                self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name:
                    self._stack.pop()
                    self.spans[index][2] = perf_counter()
            if update:
                update(self.counts, args, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attribute, name, update in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, update))
        return self

    def __exit__(self, *exc):
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer self times and counts; `cli.other_s` is the uncovered rest of `wall`."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_time):
            self_time[name] += end - start - children
            if parent < 0:
                covered += end - start
        out = {f"{name}_s": value for name, value in self_time.items()}
        out.update({name: float(self.counts[name]) for name in COUNT_NAMES})
        selected = self.counts["summarizer.selected"]
        out["summarizer.written_ratio"] = (
            self.counts["summarizer.written"] / selected if selected else 0.0
        )
        out["cli.other_s"] = wall - covered
        return out
