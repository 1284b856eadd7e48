"""Reference align-based ROUGE-n: one alignment per n.

`adaptls.evaluation.evaluate_pair` scores ROUGE-1 and ROUGE-2 from a single
alignment.  `align_rouge_f1` aligns again for each n and scores straight from
the definition in the `adaptls.evaluation` docstring, so the tests can hold
the two equal.
"""

from datetime import date as Date

from adaptls.corpus import Timeline
from adaptls.evaluation import PRF, align_dates, entry_tokens, rouge_n


def align_rouge_f1(pred: Timeline, ref: Timeline, n: int) -> PRF:
    """Align-based ROUGE-n F1 between a generated and a reference timeline."""
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
