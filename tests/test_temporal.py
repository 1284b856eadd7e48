from datetime import date, timedelta

import pytest

from adaptls.corpus import Article, Sentence, Topic, tokenize
from adaptls.errors import EmptyCorpus
from adaptls.temporal import (
    LOOKBACK_DAYS,
    annotate_topic,
    candidate_dates,
    extract_date_mentions,
)


class TestExtractDateMentions:
    def test_iso_date(self):
        mentions = extract_date_mentions(
            "Is inducted into the Hall of Fame on 1996-01-17.", date(1996, 1, 18)
        )
        assert len(mentions) == 1
        assert mentions[0].resolved == date(1996, 1, 17)
        assert mentions[0].kind == "explicit"

    def test_yesterday_resolves_against_anchor(self):
        mentions = extract_date_mentions("He resigned yesterday.", date(1994, 12, 23))
        assert [m.resolved for m in mentions] == [date(1994, 12, 22)]
        assert mentions[0].kind == "relative"

    def test_invalid_calendar_date_skipped(self):
        assert extract_date_mentions("February 30, 2020 was cited.", date(2020, 3, 1)) == []

    def test_month_day_year(self):
        mentions = extract_date_mentions("Voting starts on March 20, 2021.", date(2021, 3, 1))
        assert [m.resolved for m in mentions] == [date(2021, 3, 20)]

    def test_day_month_year(self):
        mentions = extract_date_mentions("He arrived 5 July 1998 by train.", date(1998, 7, 1))
        assert [m.resolved for m in mentions] == [date(1998, 7, 5)]

    def test_cjk_date(self):
        mentions = extract_date_mentions("地震发生于2011年3月11日。", date(2011, 3, 12))
        assert [m.resolved for m in mentions] == [date(2011, 3, 11)]

    def test_cjk_relative(self):
        mentions = extract_date_mentions("他昨天离开了。", date(2020, 5, 2))
        assert [m.resolved for m in mentions] == [date(2020, 5, 1)]

    def test_partial_takes_anchor_year(self):
        mentions = extract_date_mentions("Talks resume May 5 in Cairo.", date(2019, 5, 1))
        assert [m.resolved for m in mentions] == [date(2019, 5, 5)]
        assert mentions[0].kind == "partial"

    def test_partial_far_future_borrows_previous_year(self):
        # Anchor in January; "December 25" is >183 days ahead, so it is read
        # as last December.
        mentions = extract_date_mentions("Crowds filled squares on December 25.", date(2020, 1, 10))
        assert [m.resolved for m in mentions] == [date(2019, 12, 25)]

    def test_longest_match_wins_over_partial(self):
        mentions = extract_date_mentions("Due March 20, 2021, they say.", date(2021, 1, 1))
        assert len(mentions) == 1
        assert mentions[0].resolved == date(2021, 3, 20)
        assert mentions[0].kind == "explicit"

    def test_spans_within_bounds_and_ordered(self):
        raw = "From 2020-01-01 until tomorrow and then May 5."
        mentions = extract_date_mentions(raw, date(2020, 5, 1))
        assert len(mentions) == 3
        spans = [m.span for m in mentions]
        assert spans == sorted(spans)
        for start, end in spans:
            assert 0 <= start < end <= len(raw)

    def test_unicode_case_folds_resolve(self):
        # IGNORECASE matches "ſ" to "s" and "İ", "ı" to "i"; str.lower keeps
        # them, so the month and relative-word lookups must not.
        anchor = date(2021, 9, 10)
        assert [m.resolved for m in extract_date_mentions("Since \u017fept. 5, 2021.", anchor)] == [
            date(2021, 9, 5)
        ]
        assert [m.resolved for m in extract_date_mentions("Due Apr\u0130l 3 or apr\u0131l 4.", anchor)] == [
            date(2021, 4, 3),
            date(2021, 4, 4),
        ]
        assert [m.resolved for m in extract_date_mentions("Ye\u017fterday it rained.", anchor)] == [
            date(2021, 9, 9)
        ]

    def test_deterministic(self):
        raw = "On 2020-02-02 and again yesterday, twice on 2020-02-02."
        anchor = date(2020, 2, 3)
        assert extract_date_mentions(raw, anchor) == extract_date_mentions(raw, anchor)


def _make_topic(article_specs):
    """article_specs: list of (publish_date, [sentence raw, ...])."""
    articles = []
    for i, (pub, raws) in enumerate(article_specs):
        aid = f"a{i}"
        sentences = [Sentence(aid, j, raw, tokenize(raw)) for j, raw in enumerate(raws)]
        articles.append(Article(aid, pub, f"title {i}", sentences))
    return annotate_topic(Topic("t", articles))


class TestCandidateDates:
    def test_single_article_no_mentions(self):
        topic = _make_topic([(date(2020, 1, 1), ["Nothing dated here."])])
        cands = candidate_dates(topic)
        assert len(cands) == 1
        assert cands[0].date == date(2020, 1, 1)
        assert cands[0].pub_article_count == 1
        assert cands[0].mention_count == 0

    def test_hand_counted_example(self):
        topic = _make_topic(
            [
                (date(2020, 1, 1), ["Plain text."]),
                (
                    date(2020, 1, 1),
                    ["It happened 2019-12-31.", "Recalling 2019-12-31 again."],
                ),
            ]
        )
        cands = {c.date: c for c in candidate_dates(topic)}
        assert set(cands) == {date(2020, 1, 1), date(2019, 12, 31)}
        assert cands[date(2020, 1, 1)].pub_article_count == 2
        assert cands[date(2020, 1, 1)].pub_sentence_count == 3
        assert cands[date(2019, 12, 31)].mention_count == 2
        assert cands[date(2019, 12, 31)].pub_article_count == 0

    def test_ancient_mention_outside_window(self):
        topic = _make_topic([(date(2020, 1, 1), ["Chronicles cite 0099-01-01 often."])])
        assert [c.date for c in candidate_dates(topic)] == [date(2020, 1, 1)]

    def test_window_boundary_inclusive(self):
        pub = date(2020, 1, 1)
        edge = pub - timedelta(days=LOOKBACK_DAYS)
        topic = _make_topic([(pub, [f"Long ago on {edge.isoformat()}."])])
        assert {c.date for c in candidate_dates(topic)} == {pub, edge}

    def test_future_mention_beyond_max_pub_excluded(self):
        topic = _make_topic([(date(2020, 1, 1), ["Planned for 2020-06-01."])])
        assert [c.date for c in candidate_dates(topic)] == [date(2020, 1, 1)]

    def test_empty_topic_raises(self):
        with pytest.raises(EmptyCorpus):
            candidate_dates(Topic("t", []))

    def test_sorted_ascending(self, mini_dataset):
        for topic in mini_dataset:
            cands = candidate_dates(topic)
            assert [c.date for c in cands] == sorted(c.date for c in cands)

    def test_counts_match_brute_force_recount(self, mini_dataset):
        for topic in mini_dataset:
            lo = topic.min_pub - timedelta(days=LOOKBACK_DAYS)
            hi = topic.max_pub
            for cand in candidate_dates(topic):
                pub_articles = [
                    a for a in topic.articles if a.publish_date == cand.date
                ]
                mention_total = sum(
                    1
                    for s in topic.sentences()
                    for m in s.mentions
                    if m.resolved == cand.date and lo <= m.resolved <= hi
                )
                assert cand.pub_article_count == len(pub_articles)
                assert cand.pub_sentence_count == sum(
                    len(a.sentences) for a in pub_articles
                )
                assert cand.mention_count == mention_total
