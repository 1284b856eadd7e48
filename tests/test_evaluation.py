import math
import pickle
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from adaptls.corpus import Timeline, tokenize
from adaptls.errors import EmptyDataset, EmptyReference, EmptyTimeline
from adaptls.evaluation import (
    EvalReport,
    PRF,
    align_dates,
    dataset_stats,
    date_f1,
    entry_tokens,
    evaluate_pair,
)

import align_oracle
from align_oracle import align_rouge_f1


def _tl(entries, name="tl"):
    return Timeline(name, entries)


def _align(pred, ref):
    return align_dates(entry_tokens(pred), entry_tokens(ref))


def _rouge(pred_tokens, ref_tokens, n):
    """The program's ROUGE-n of two token lists: AR-n of two one-entry
    timelines on one date, where gamma is 1, so its F1 is their ROUGE-n F1."""
    day = date(2021, 1, 1)
    pred, ref = (_tl([(day, [" ".join(tokens)])]) for tokens in (pred_tokens, ref_tokens))
    result = evaluate_pair(pred, ref, "t")
    return result.ar1 if n == 1 else result.ar2


class TestDateF1:
    def test_identical_sets(self):
        tl = _tl([(date(2020, 1, 1), ["A."]), (date(2020, 1, 5), ["B."])])
        got = date_f1(tl, tl)
        assert (got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        pred = _tl([(date(2020, 1, 1), ["A."])])
        ref = _tl([(date(2020, 2, 2), ["B."])])
        assert date_f1(pred, ref).f1 == 0.0

    def test_hand_counts(self):
        pred = _tl([(date(2020, 1, d), ["x."]) for d in (1, 2, 3)])
        ref = _tl([(date(2020, 1, d), ["x."]) for d in (2, 3, 4, 5)])
        got = date_f1(pred, ref)
        assert got.precision == pytest.approx(2 / 3)
        assert got.recall == pytest.approx(2 / 4)
        assert got.f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_empty_reference_raises(self):
        pred = _tl([(date(2020, 1, 1), ["A."])])
        with pytest.raises(EmptyReference):
            date_f1(pred, Timeline("ref", []))

    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
    )
    def test_matches_set_oracle(self, pred_days, ref_days):
        base = date(2021, 1, 1)
        pred = _tl([(base + timedelta(days=d), ["x."]) for d in sorted(pred_days)])
        ref = _tl([(base + timedelta(days=d), ["x."]) for d in sorted(ref_days)])
        got = date_f1(pred, ref)
        overlap = len(pred_days & ref_days)
        p = overlap / len(pred_days)
        r = overlap / len(ref_days)
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert got == PRF(p, r, pytest.approx(f))


class TestRougeN:
    """ROUGE-n through `evaluate_pair`; precision and recall through
    `align_oracle.rouge_n`, which the alignment oracle scores pairs with."""

    def test_identical_unigrams(self):
        toks = tokenize("the storm hit the coast")
        assert _rouge(toks, toks, 1).f1 == pytest.approx(1.0)
        assert align_oracle.rouge_n(toks, toks, 1).f1 == pytest.approx(1.0)

    def test_no_overlap(self):
        assert _rouge(["a", "b"], ["c", "d"], 1) == PRF(0.0, 0.0, 0.0)
        assert align_oracle.rouge_n(["a", "b"], ["c", "d"], 1) == PRF(0.0, 0.0, 0.0)

    def test_hand_counted_bigrams(self):
        pred = ["a", "b", "c"]
        ref = ["a", "b", "d"]
        # bigrams: pred {ab, bc}, ref {ab, bd}; overlap 1
        assert _rouge(pred, ref, 2).f1 == pytest.approx(0.5)
        got = align_oracle.rouge_n(pred, ref, 2)
        assert got.precision == pytest.approx(0.5)
        assert got.recall == pytest.approx(0.5)
        assert got.f1 == pytest.approx(0.5)

    def test_clipping_of_repeats(self):
        assert _rouge(["a", "a", "a"], ["a"], 1).f1 == pytest.approx(0.5)
        got = align_oracle.rouge_n(["a", "a", "a"], ["a"], 1)
        assert got.precision == pytest.approx(1 / 3)
        assert got.recall == pytest.approx(1.0)

    def test_empty_side_is_zero(self):
        assert _rouge([], ["a"], 1) == PRF(0.0, 0.0, 0.0)
        assert _rouge(["a"], [], 2) == PRF(0.0, 0.0, 0.0)
        assert align_oracle.rouge_n([], ["a"], 1) == PRF(0.0, 0.0, 0.0)
        assert align_oracle.rouge_n(["a"], [], 2) == PRF(0.0, 0.0, 0.0)

    @given(
        st.lists(st.sampled_from("abcde"), min_size=0, max_size=12),
        st.lists(st.sampled_from("abcde"), min_size=0, max_size=12),
        st.sampled_from([1, 2]),
    )
    def test_matches_counter_oracle(self, pred, ref, n):
        got = _rouge(pred, ref, n)
        oracle = align_oracle.rouge_n(pred, ref, n)
        pred_grams = Counter(tuple(pred[i : i + n]) for i in range(len(pred) - n + 1))
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        if not pred_grams or not ref_grams:
            assert got == oracle == PRF(0.0, 0.0, 0.0)
            return
        overlap = sum(min(c, ref_grams[g]) for g, c in pred_grams.items())
        p = overlap / sum(pred_grams.values())
        r = overlap / sum(ref_grams.values())
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert got.f1 == pytest.approx(f, rel=0, abs=1e-12)
        assert oracle.precision == pytest.approx(p)
        assert oracle.recall == pytest.approx(r)

    def test_symmetry_of_f1(self):
        a = tokenize("rain fell across the north")
        b = tokenize("heavy rain fell across town")
        assert _rouge(a, b, 1).f1 == pytest.approx(_rouge(b, a, 1).f1)
        assert align_oracle.rouge_n(a, b, 1).f1 == pytest.approx(align_oracle.rouge_n(b, a, 1).f1)


class TestAlignDates:
    def test_identity_alignment(self):
        tl = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma."]),
                (date(2020, 1, 9), ["Delta epsilon zeta."]),
            ]
        )
        got = _align(tl, tl)
        assert got == [
            (date(2020, 1, 1), date(2020, 1, 1), 1.0),
            (date(2020, 1, 9), date(2020, 1, 9), 1.0),
        ]

    def test_one_day_shift_gamma_half(self):
        pred = _tl([(date(2020, 1, 2), ["Alpha beta gamma."])])
        ref = _tl([(date(2020, 1, 1), ["Alpha beta gamma."])])
        got = _align(pred, ref)
        assert got == [(date(2020, 1, 2), date(2020, 1, 1), 0.5)]

    def test_many_to_one(self):
        pred = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta."]),
                (date(2020, 1, 2), ["Alpha beta."]),
            ]
        )
        ref = _tl([(date(2020, 1, 1), ["Alpha beta."])])
        got = _align(pred, ref)
        assert [r for _, r, _ in got] == [date(2020, 1, 1)] * 2

    def test_tie_prefers_temporally_nearest(self):
        # both refs share the text; the nearer one wins despite equal rouge
        pred = _tl([(date(2020, 1, 4), ["Same words here."])])
        ref = _tl(
            [
                (date(2020, 1, 1), ["Same words here."]),
                (date(2020, 1, 5), ["Same words here."]),
            ]
        )
        got = _align(pred, ref)
        assert got[0][1] == date(2020, 1, 5)

    def test_equidistant_tie_prefers_earlier(self):
        pred = _tl([(date(2020, 1, 3), ["Same words here."])])
        ref = _tl(
            [
                (date(2020, 1, 2), ["Same words here."]),
                (date(2020, 1, 4), ["Same words here."]),
            ]
        )
        got = _align(pred, ref)
        assert got[0][1] == date(2020, 1, 2)

    def test_content_beats_proximity(self):
        pred = _tl([(date(2020, 1, 2), ["Unique treaty clause signed."])])
        ref = _tl(
            [
                (date(2020, 1, 2), ["Unrelated sports recap today."]),
                (date(2020, 1, 6), ["Unique treaty clause signed."]),
            ]
        )
        got = _align(pred, ref)
        # perfect rouge at gamma 1/5 = 0.2 beats zero rouge at gamma 1
        assert got[0][1] == date(2020, 1, 6)

    def test_empty_raises(self):
        tl = _tl([(date(2020, 1, 1), ["A."])])
        with pytest.raises(EmptyTimeline):
            _align(tl, Timeline("ref", []))

    def test_counts_each_entry_once(self, monkeypatch):
        import adaptls.evaluation as evaluation

        calls = Counter()
        ngrams = evaluation._ngrams

        def counting(tokens, n):
            calls[n] += 1
            return ngrams(tokens, n)

        monkeypatch.setattr(evaluation, "_ngrams", counting)
        pred = {date(2020, 1, d): ["a", "b"] for d in (1, 2)}
        ref = {date(2020, 1, d): ["b", "c"] for d in (1, 3, 5)}
        align_dates(pred, ref)
        assert calls == {1: 5}

    @given(
        st.dictionaries(
            st.dates(date(2020, 1, 1), date(2020, 1, 20)),
            st.lists(st.sampled_from("abcd"), max_size=6),
            min_size=1,
            max_size=5,
        ),
        st.dictionaries(
            st.dates(date(2020, 1, 1), date(2020, 1, 20)),
            st.lists(st.sampled_from("abcd"), max_size=6),
            min_size=1,
            max_size=5,
        ),
    )
    def test_matches_pairwise_rouge_oracle(self, pred, ref):
        # The pairwise loop: two Counters and their intersection per pair.
        def f1(p_tokens, r_tokens):
            if not p_tokens or not r_tokens:
                return 0.0
            overlap = sum((Counter(p_tokens) & Counter(r_tokens)).values())
            return PRF.from_pr(overlap / len(p_tokens), overlap / len(r_tokens)).f1

        expected = []
        for p_day, p_tokens in pred.items():
            best = min(
                ref,
                key=lambda r_day: (
                    -f1(p_tokens, ref[r_day]) * (1.0 / (1 + abs((p_day - r_day).days))),
                    abs((p_day - r_day).days),
                    r_day,
                ),
            )
            expected.append((p_day, best, 1 / (1 + abs((p_day - best).days))))
        assert align_dates(pred, ref) == expected


def _shipped_ar(pred, ref, n):
    """The AR-n that `evaluate_pair` (and so `adaptls eval`) reports."""
    pair = evaluate_pair(pred, ref, "t")
    return {1: pair.ar1, 2: pair.ar2}[n]


# Each known answer below pins the shipped metric and the reference alike.
AR_METRICS = (_shipped_ar, align_rouge_f1)


class TestAlignRougeF1:
    def test_self_evaluation_is_one(self):
        tl = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma delta."]),
                (date(2020, 1, 9), ["Epsilon zeta eta theta."]),
            ]
        )
        for ar in AR_METRICS:
            assert ar(tl, tl, 1).f1 == pytest.approx(1.0)
            assert ar(tl, tl, 2).f1 == pytest.approx(1.0)

    def test_one_day_shift_halves_score(self):
        ref = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma delta."]),
                (date(2020, 1, 9), ["Epsilon zeta eta theta."]),
            ]
        )
        pred = _tl([(d + timedelta(days=1), s) for d, s in ref.entries])
        for ar in AR_METRICS:
            got = ar(pred, ref, 1)
            assert got.precision == pytest.approx(0.5)
            assert got.recall == pytest.approx(0.5)
            assert got.f1 == pytest.approx(0.5)

    def test_covering_one_of_two_refs(self):
        ref = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma."]),
                (date(2020, 1, 9), ["Delta epsilon zeta."]),
            ]
        )
        pred = _tl([(date(2020, 1, 1), ["Alpha beta gamma."])])
        for ar in AR_METRICS:
            got = ar(pred, ref, 1)
            assert got.precision == pytest.approx(1.0)
            assert got.recall == pytest.approx(0.5)
            assert got.f1 == pytest.approx(2 / 3)

    def test_translation_invariance(self):
        ref = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma."]),
                (date(2020, 1, 4), ["Delta epsilon zeta."]),
            ]
        )
        pred = _tl(
            [
                (date(2020, 1, 2), ["Alpha beta gamma."]),
                (date(2020, 1, 4), ["Delta epsilon."]),
            ]
        )
        shift = timedelta(days=365)
        ref2 = _tl([(d + shift, s) for d, s in ref.entries])
        pred2 = _tl([(d + shift, s) for d, s in pred.entries])
        for ar in AR_METRICS:
            for n in (1, 2):
                assert ar(pred, ref, n) == ar(pred2, ref2, n)

    def test_zero_overlap_content(self):
        pred = _tl([(date(2020, 1, 1), ["Aaa bbb."])])
        ref = _tl([(date(2020, 1, 1), ["Ccc ddd."])])
        for ar in AR_METRICS:
            assert ar(pred, ref, 1).f1 == 0.0

    def test_evaluate_pair_bundles_metrics(self):
        tl = _tl([(date(2020, 1, 1), ["Alpha beta."])], name="ref0")
        pair = evaluate_pair(tl, tl, "topicA")
        assert pair.topic == "topicA"
        assert pair.reference == "ref0"
        assert pair.date_f1.f1 == 1.0
        assert pair.ar1.f1 == pytest.approx(1.0)

    def test_evaluate_pair_aligns_and_tokenizes_once(self, monkeypatch):
        import adaptls.evaluation as evaluation

        calls = Counter()

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(evaluation, "align_dates", counting("align", evaluation.align_dates))
        monkeypatch.setattr(evaluation, "tokenize", counting("tokenize", evaluation.tokenize))
        pred = _tl(
            [
                (date(2020, 1, 1), ["Alpha beta gamma."]),
                (date(2020, 1, 3), ["Beta gamma delta.", "Delta alpha."]),
            ]
        )
        ref = _tl(
            [
                (date(2020, 1, 2), ["Alpha beta gamma delta."]),
                (date(2020, 1, 3), ["Gamma delta."]),
                (date(2020, 1, 7), ["Epsilon."]),
            ]
        )
        pair = evaluate_pair(pred, ref, "t")
        assert calls == {"align": 1, "tokenize": 5}
        assert pair.ar1 == align_rouge_f1(pred, ref, 1)
        assert pair.ar2 == align_rouge_f1(pred, ref, 2)


# Summaries of few, often repeated words; a sentence of punctuation only has
# no tokens, and one word alone has no bigram.
SENTENCE = st.lists(st.sampled_from(["Aa", "bb", "aa", "cc", "dd", "--", "!"]), min_size=1, max_size=6).map(" ".join)
ENTRIES = st.dictionaries(
    st.dates(date(2020, 1, 1), date(2020, 1, 12)),
    st.lists(SENTENCE, min_size=1, max_size=3),
    max_size=6,
)


@settings(max_examples=400)
@given(ENTRIES, ENTRIES.filter(bool))
def test_evaluate_pair_equals_align_oracle(pred_entries, ref_entries):
    # Equal with ==: the same floats, not approximately.  Nearby dates and
    # shared words give ties; the prediction may be empty.
    pred = Timeline("generated", list(pred_entries.items()))
    ref = Timeline("ref", list(ref_entries.items()))
    assert evaluate_pair(pred, ref, "t") == align_oracle.evaluate_pair(pred, ref, "t")
    if pred.entries:
        assert align_dates(entry_tokens(pred), entry_tokens(ref)) == align_oracle.align_dates(
            entry_tokens(pred), entry_tokens(ref)
        )


class TestEvalReport:
    def test_macro_averages(self):
        a = evaluate_pair(
            _tl([(date(2020, 1, 1), ["Aa bb."])]),
            _tl([(date(2020, 1, 1), ["Aa bb."])]),
            "t1",
        )
        b = evaluate_pair(
            _tl([(date(2020, 1, 1), ["Aa bb."])]),
            _tl([(date(2020, 2, 1), ["Cc dd."])]),
            "t2",
        )
        report = EvalReport([a, b])
        macro = report.macro()
        assert macro["DATE-F1"] == pytest.approx((1.0 + 0.0) / 2)
        assert macro["AR1-F"] == pytest.approx(a.ar1.f1 / 2)

    def test_empty_prediction_scores_zero(self):
        ref = _tl([(date(2020, 1, 1), ["Aa bb."])], name="ref")
        pair = evaluate_pair(Timeline("generated", []), ref, "t")
        assert pair == ("t", "ref", PRF(0.0, 0.0, 0.0), PRF(0.0, 0.0, 0.0), PRF(0.0, 0.0, 0.0))

    def test_equality_repr_and_pickling(self):
        pair = evaluate_pair(
            _tl([(date(2020, 1, 1), ["Aa bb."])]), _tl([(date(2020, 1, 2), ["Aa cc."])]), "t1"
        )
        report = EvalReport([pair])
        assert EvalReport().pairs == [] and EvalReport().pairs is not EvalReport().pairs
        assert report == EvalReport([pair]) and report != EvalReport()
        assert repr(report) == f"EvalReport(pairs=[{pair!r}])"
        assert repr(pair).startswith("PairResult(topic='t1', reference='tl', date_f1=PRF(precision=0.0")
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report and copy.to_json_obj() == report.to_json_obj()
        with pytest.raises(TypeError):
            hash(report)

    def test_json_and_table_render(self):
        pair = evaluate_pair(
            _tl([(date(2020, 1, 1), ["Aa bb."])]),
            _tl([(date(2020, 1, 1), ["Aa bb."])]),
            "t1",
        )
        report = EvalReport([pair])
        obj = report.to_json_obj()
        assert obj["macro"]["DATE-F1"] == 1.0
        table = report.to_text_table("run")
        assert "DATE-F1" in table and "run" in table


class TestDatasetStats:
    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            dataset_stats([])

    def test_hand_computed_single_topic(self):
        from adaptls.corpus import Article, Sentence, Topic
        from adaptls.temporal import annotate_topic

        def article(aid, pub, raws):
            return Article(
                aid, pub, aid, [Sentence(r, tokenize(r)) for r in raws]
            )

        topic = annotate_topic(
            Topic(
                "t",
                [
                    article("a0", date(2020, 1, 1), ["One.", "Two."]),
                    article("a1", date(2020, 1, 5), ["Three."]),
                ],
                [],
                [
                    Timeline(
                        "ref",
                        [
                            (date(2020, 1, 1), ["One."]),
                            (date(2020, 1, 5), ["Three.", "Extra."]),
                        ],
                    )
                ],
            )
        )
        stats = dataset_stats([topic])
        assert stats.topics == 1
        assert stats.timelines == 1
        assert stats.avg_sent_num == 3
        assert stats.avg_docs_num == 2
        assert stats.avg_l == 2
        assert stats.avg_k == pytest.approx(1.5)
        assert stats.avg_duration == 4
        assert stats.avg_dur_comp == pytest.approx(2 / 4)
        assert stats.avg_sent_comp == pytest.approx(3 / 3)
        # candidate dates: the two publish dates only
        assert stats.avg_date_comp == pytest.approx(2 / 2)
        assert stats.avg_date_cov == pytest.approx(1.0)

    def test_single_day_topic_duration_floor(self):
        from adaptls.corpus import Article, Sentence, Topic
        from adaptls.temporal import annotate_topic

        aid = "a0"
        topic = annotate_topic(
            Topic(
                "t",
                [Article(aid, date(2020, 1, 1), aid, [Sentence("One.", ["one"])])],
                [],
                [Timeline("ref", [(date(2020, 1, 1), ["One."])])],
            )
        )
        stats = dataset_stats([topic])
        assert stats.avg_duration == 0
        assert stats.avg_dur_comp == 1.0  # length / max(duration, 1)

    def test_frozen_mini_dataset_values(self, mini_dataset):
        stats = dataset_stats(mini_dataset)
        assert stats.topics == 3
        assert stats.timelines == 4
        assert stats.avg_sent_num == pytest.approx(4.75)
        assert stats.avg_docs_num == pytest.approx(2.25)
        assert stats.avg_l == pytest.approx(1.75)
        assert stats.avg_k == pytest.approx(1.125)
        assert stats.avg_duration == pytest.approx(4.75)
        assert stats.avg_dur_comp == pytest.approx(6 / 11)
        assert stats.avg_sent_comp == pytest.approx(0.4125)
        assert stats.avg_date_comp == pytest.approx(17 / 24)
        assert stats.avg_date_cov == pytest.approx(1.0)

    def test_json_and_table_render(self, mini_dataset):
        stats = dataset_stats(mini_dataset)
        obj = stats.to_json_obj()
        assert obj["Topics"] == 3 and obj["TLs"] == 4
        table = stats.to_text_table()
        assert "AvgDateCov" in table
