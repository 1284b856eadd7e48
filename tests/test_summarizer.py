import itertools
from datetime import date

import pytest

from adaptls.corpus import Article, Sentence, Timeline, Topic, tokenize
from adaptls.errors import EmptyTimeline
from adaptls.event_ranking import EventCluster
from adaptls.summarizer import (
    build_timeline,
    candidate_sentences,
    centroid_opt,
    centroid_rank,
    expert_k,
)
from adaptls.temporal import annotate_topic
from adaptls.tfidf import build_vectorizer
import tfidf_oracle


def _topic(article_specs, timelines=()):
    articles = []
    for i, (pub, raws) in enumerate(article_specs):
        aid = f"a{i}"
        sentences = [Sentence(raw, tokenize(raw)) for raw in raws]
        articles.append(Article(aid, pub, f"title {i}", sentences))
    return annotate_topic(Topic("t", articles, [], list(timelines)))


class TestKPolicy:
    """The expert k policy: `expert_k` of the topic's reference timelines."""

    def test_expert_rounds_mean_daily_length(self):
        timeline = Timeline(
            "ref",
            [
                (date(2020, 1, 1), ["One.", "Two."]),
                (date(2020, 1, 2), ["One.", "Two.", "Three."]),
            ],
        )
        topic = _topic([(date(2020, 1, 1), ["A."])], [timeline])
        # mean daily length (2 + 3) / 2 = 2.5 rounds up to 3
        assert expert_k(topic.reference_timelines) == 3

    def test_expert_without_references_defaults_to_one(self):
        assert expert_k(_topic([(date(2020, 1, 1), ["A."])]).reference_timelines) == 1

    def test_expert_k_per_timeline_and_pooled(self):
        def timeline(sizes):
            return Timeline(
                "ref", [(date(2020, 1, 1 + i), ["S."] * n) for i, n in enumerate(sizes)]
            )

        short, long = timeline([2, 2, 2, 3]), timeline([3, 3, 2, 3])
        assert expert_k([short]) == 2  # 2.25
        assert expert_k([long]) == 3  # 2.75
        assert expert_k([short, long]) == 3  # 2.5 rounds half up
        assert expert_k([]) == 1

    def test_expert_never_below_one(self):
        timeline = Timeline("ref", [(date(2020, 1, 1), ["Only."])])
        topic = _topic([(date(2020, 1, 1), ["A."])], [timeline])
        assert expert_k(topic.reference_timelines) == 1


def _candidate_raws(topic, day):
    vec = build_vectorizer(topic)
    return [vec.sentences[row].raw for row in candidate_sentences(vec, day)]


class TestCandidateSentences:
    def test_pub_date_match(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["First day news.", "More first day."]),
                (date(2020, 1, 2), ["Second day news."]),
            ]
        )
        assert _candidate_raws(topic, date(2020, 1, 1)) == [
            "First day news.",
            "More first day.",
        ]

    def test_mention_match_from_other_day(self):
        topic = _topic(
            [
                (date(2020, 1, 5), ["Recalling events of 2020-01-01 today."]),
                (date(2020, 1, 1), ["Original report."]),
            ]
        )
        assert set(_candidate_raws(topic, date(2020, 1, 1))) == {
            "Recalling events of 2020-01-01 today.",
            "Original report.",
        }

    def test_no_duplicates_when_both_match(self):
        topic = _topic([(date(2020, 1, 1), ["Happened on 2020-01-01 here."])])
        assert len(_candidate_raws(topic, date(2020, 1, 1))) == 1

    def test_unrelated_day_empty(self):
        topic = _topic([(date(2020, 1, 1), ["Nothing special."])])
        assert _candidate_raws(topic, date(2021, 6, 6)) == []


def _cosine_to_centroid(cands, vec):
    vectors = [tfidf_oracle.vectorize(vec, s.tokens) for s in cands]
    return vectors, tfidf_oracle.centroid(vectors)


def _one_article(raws):
    """A one-article topic, its representation and the article's rows."""
    topic = _topic([(date(2020, 1, 1), raws)])
    vec = build_vectorizer(topic)
    return topic, vec, vec.by_article["a0"]


class TestCentroidRank:
    def test_selects_highest_cosine_oracle(self):
        _, vec, rows = _one_article(
            [
                "Storm damage reported in the port city.",
                "Storm damage closed the port area roads.",
                "A chess club met quietly indoors.",
                "Storm reports kept arriving from the port.",
            ]
        )
        cands = [vec.sentences[r] for r in rows]
        vectors, centroid = _cosine_to_centroid(cands, vec)
        best = max(range(len(cands)), key=lambda i: vectors[i].cosine(centroid))
        assert centroid_rank(rows, vec, 1) == [rows[best]]

    def test_redundancy_filter_skips_duplicates(self):
        _, vec, rows = _one_article(
            [
                "Flood waters rose fast in town.",
                "Flood waters rose fast in town.",
                "Rescue crews arrived by boat.",
            ]
        )
        picked = centroid_rank(rows, vec, 2)
        raws = [vec.sentences[r].raw for r in picked]
        assert len(picked) == 2
        assert "Rescue crews arrived by boat." in raws
        assert raws.count("Flood waters rose fast in town.") == 1

    def test_k_larger_than_pool(self):
        _, vec, rows = _one_article(["One thing.", "Other matter."])
        assert len(centroid_rank(rows, vec, 10)) == 2

    def test_output_preserves_document_order(self):
        _, vec, rows = _one_article(
            [
                "Alpha beta gamma delta.",
                "Beta gamma delta epsilon.",
                "Gamma delta epsilon zeta.",
            ]
        )
        picked = centroid_rank(rows, vec, 2)
        assert picked == sorted(picked)


class TestCentroidOpt:
    def test_first_pick_matches_exhaustive_oracle(self):
        _, vec, rows = _one_article(
            [
                "Trade talks opened in the capital.",
                "Trade talks continued for hours.",
                "A ferry schedule changed slightly.",
                "Officials praised the trade talks.",
            ]
        )
        cands = [vec.sentences[r] for r in rows]
        vectors, centroid = _cosine_to_centroid(cands, vec)
        best = max(
            range(len(cands)),
            key=lambda i: vectors[i].normalized().cosine(centroid),
        )
        assert centroid_opt(rows, vec, 1) == [rows[best]]

    def test_greedy_trace_matches_step_oracle(self):
        _, vec, rows = _one_article(
            [
                "Harvest season started early this year.",
                "Farmers reported a strong harvest outlook.",
                "Rail traffic paused for repairs.",
                "The harvest festival drew large crowds.",
                "Repairs on the rail line continued.",
            ]
        )
        cands = [vec.sentences[r] for r in rows]
        vectors, _ = _cosine_to_centroid(cands, vec)
        chosen = tfidf_oracle.opt(vectors, 3)
        assert centroid_opt(rows, vec, 3) == [rows[i] for i in chosen]

    def test_stops_when_no_improvement(self):
        # identical sentences: adding a second copy cannot raise the cosine
        _, vec, rows = _one_article(["Same words here.", "Same words here."])
        assert len(centroid_opt(rows, vec, 2)) == 1


def _pools(vec, *days, cluster=None):
    """(date, candidate rows) selections, as `run` hands them to build_timeline."""
    return [(day, candidate_sentences(vec, day, cluster)) for day in days]


class TestBuildTimeline:
    def test_date_selection_rank(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["Day one story.", "Day one extra."]),
                (date(2020, 1, 2), ["Day two story."]),
            ]
        )
        vec = build_vectorizer(topic)
        selected = _pools(vec, date(2020, 1, 1), date(2020, 1, 2))
        timeline = build_timeline(topic, selected, 1, "rank", vec)
        assert [d for d, _ in timeline.entries] == [date(2020, 1, 1), date(2020, 1, 2)]
        assert all(len(summary) == 1 for _, summary in timeline.entries)

    def test_unsummarizable_date_raises(self):
        topic = _topic([(date(2020, 1, 1), ["Only day."])])
        vec = build_vectorizer(topic)
        selected = _pools(vec, date(2020, 1, 1), date(2021, 5, 5))
        with pytest.raises(EmptyTimeline, match="2021-05-05"):
            build_timeline(topic, selected, 1, "rank", vec)

    def test_all_empty_raises(self):
        topic = _topic([(date(2020, 1, 1), ["Only day."])])
        vec = build_vectorizer(topic)
        with pytest.raises(EmptyTimeline):
            build_timeline(topic, _pools(vec, date(2021, 5, 5)), 1, "rank", vec)

    def test_event_cluster_restricts_pool(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["Cluster story one."]),
                (date(2020, 1, 1), ["Unrelated same-day note."]),
            ]
        )
        vec = build_vectorizer(topic)
        cluster = EventCluster(frozenset({"a0"}), date(2020, 1, 1), 0)
        timeline = build_timeline(topic, _pools(vec, date(2020, 1, 1), cluster=cluster), 5, "rank", vec)
        assert timeline.entries[0][1] == ["Cluster story one."]

    def test_event_cluster_outside_mentions_included_by_default(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["Cluster story one."]),
                (date(2020, 1, 9), ["Looking back at 2020-01-01 events."]),
            ]
        )
        vec = build_vectorizer(topic)
        cluster = EventCluster(frozenset({"a0"}), date(2020, 1, 1), 0)
        timeline = build_timeline(topic, _pools(vec, date(2020, 1, 1), cluster=cluster), 5, "rank", vec)
        assert set(timeline.entries[0][1]) == {
            "Cluster story one.",
            "Looking back at 2020-01-01 events.",
        }

    def test_total_sentences_bounded_by_l_times_k(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["A one.", "A two.", "A three."]),
                (date(2020, 1, 2), ["B one.", "B two."]),
                (date(2020, 1, 3), ["C one."]),
            ]
        )
        vec = build_vectorizer(topic)
        selected = _pools(vec, *(date(2020, 1, d) for d in (1, 2, 3)))
        timeline = build_timeline(topic, selected, 2, "opt", vec)
        assert timeline.length <= 3
        assert timeline.total_sentences <= 3 * 2

    def test_deterministic(self):
        topic = _topic(
            [
                (date(2020, 1, 1), ["Winds rose.", "Rain fell.", "Roads closed."]),
                (date(2020, 1, 2), ["Cleanup began.", "Power returned."]),
            ]
        )
        vec = build_vectorizer(topic)
        selected = _pools(vec, date(2020, 1, 1), date(2020, 1, 2))
        first = build_timeline(topic, selected, 2, "rank", vec)
        second = build_timeline(topic, selected, 2, "rank", vec)
        assert first == second
