import json
import math
import pickle
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adaptls import corpus
from adaptls.cli import main
from adaptls.config import RunConfig
from adaptls.corpus import (
    EARLIEST_PUBLISH_DATE,
    LATEST_PUBLISH_DATE,
    LOOKBACK_DAYS,
    Article,
    Sentence,
    Timeline,
    Topic,
    filter_by_queries,
    load_dataset,
    load_references,
    load_topic,
    sentence_split,
    tokenize,
)
from adaptls.date_ranking import feature_matrix
from adaptls.errors import EmptyCorpus, NotFound, ParseError
from adaptls.event_ranking import detect_events
from adaptls.temporal import annotate_topic
from adaptls.tfidf import build_vectorizer
from synthdata import planted_topics, save_topic
import tfidf_oracle


class TestSentenceSplit:
    def test_two_sentences(self):
        assert sentence_split("A fox. A dog.") == ["A fox.", "A dog."]

    def test_empty(self):
        assert sentence_split("") == []

    def test_dated_sentence_pair(self):
        text = "He left on 2016-12-06. Bowie receives four posthumous awards."
        assert len(sentence_split(text)) == 2

    def test_abbreviation_not_split(self):
        assert sentence_split("The U.S. government acted. Then rested.") == [
            "The U.S. government acted.",
            "Then rested.",
        ]

    def test_question_and_exclamation(self):
        assert sentence_split("Really? yes! done") == ["Really?", "yes!", "done"]

    def test_trailing_fragment(self):
        assert sentence_split("One! two words") == ["One!", "two words"]

    def test_period_before_lowercase_does_not_split(self):
        assert sentence_split("One. two words") == ["One. two words"]


class TestTokenize:
    def test_lowercases_ascii(self):
        assert tokenize("Rock and Roll Hall") == ["rock", "and", "roll", "hall"]

    def test_splits_punctuation_keeps_digit_runs(self):
        assert tokenize("1996-01-17") == ["1996", "01", "17"]

    def test_paper_title_fragment(self):
        assert tokenize("AC Milan football club") == [
            "ac",
            "milan",
            "football",
            "club",
        ]

    def test_cjk_per_codepoint_fallback(self):
        assert tokenize("地震发生") == ["地", "震", "发", "生"]

    def test_pretokenized_cjk_survives_whitespace_split(self):
        assert tokenize("地震 发生 在 2011年") == ["地", "震", "发", "生", "在", "2011", "年"]

    def test_no_alnum_gives_no_tokens(self):
        assert tokenize("... !!! ---") == []


def _topic_from_texts(texts, name="t"):
    from datetime import date

    from adaptls.corpus import Article

    articles = []
    for i, text in enumerate(texts):
        aid = f"a{i}"
        sentences = [Sentence(raw, tokenize(raw)) for raw in sentence_split(text)]
        articles.append(Article(aid, date(2020, 1, 1 + i), f"title {i}", sentences))
    return Topic(name, articles)


class TestVectorizer:
    def test_single_sentence_uniform_idf(self):
        topic = _topic_from_texts(["a b."])
        vec = build_vectorizer(topic)
        assert len(vec.vocabulary) == 2
        assert vec.idf[0] == vec.idf[1]

    def test_idf_monotonicity(self):
        topic = _topic_from_texts(["common rare.", "common here.", "common there."])
        vec = build_vectorizer(topic)
        assert vec.idf[vec.vocabulary["common"]] < vec.idf[vec.vocabulary["rare"]]

    def test_idf_matches_direct_formula(self):
        texts = [f"w{i % 3} shared." for i in range(10)]
        topic = _topic_from_texts(texts)
        vec = build_vectorizer(topic)
        sentences = topic.sentences()
        n = len(sentences)
        assert n == 10
        for token, col in vec.vocabulary.items():
            df = sum(1 for s in sentences if token in s.tokens)
            assert vec.idf[col] == pytest.approx(
                math.log(1 + n / (1 + df)), abs=1e-12
            )

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vectorizer(Topic("empty", []))

    def test_oov_tokens_give_zero_vector(self):
        topic = _topic_from_texts(["a b."])
        vec = build_vectorizer(topic)
        rows = vec.transform([["zzz", "qqq"]])
        assert len(rows) == 1 and rows.indptr.tolist() == [0, 0]
        assert rows.dots(np.ones(len(vec.idf))).tolist() == [0.0]

    def test_identical_token_lists_cosine_one(self):
        topic = _topic_from_texts(["a b c."])
        vec = build_vectorizer(topic)
        rows = vec.transform([["a", "b"], ["b", "a"]])
        assert rows.data[:2].tolist() == rows.data[2:].tolist()
        assert rows.dots(rows.row(0, len(vec.idf))).tolist() == pytest.approx(
            [1.0, 1.0], abs=1e-12
        )

    def test_weights_match_hand_tfidf(self):
        topic = _topic_from_texts(["a b.", "a c."])
        vec = build_vectorizer(topic)
        idf_a = vec.idf[vec.vocabulary["a"]]
        idf_b = vec.idf[vec.vocabulary["b"]]
        raw = {vec.vocabulary["a"]: 2 * idf_a, vec.vocabulary["b"]: 1 * idf_b}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        got = vec.transform([["a", "a", "b"]])
        expected = {i: w / norm for i, w in raw.items()}
        assert dict(zip(got.indices.tolist(), got.data.tolist())) == pytest.approx(expected)

    def test_sentence_rows_match_reference_vectors(self, mini_dataset):
        for topic in mini_dataset:
            vec = build_vectorizer(topic)
            expected = [s for a in sorted(topic.articles, key=lambda a: a.id) for s in a.sentences]
            assert list(map(id, vec.sentences)) == list(map(id, expected))
            for r, sentence in enumerate(vec.sentences):
                expected = tfidf_oracle.vectorize(vec, sentence.tokens)
                span = slice(vec.rows.indptr[r], vec.rows.indptr[r + 1])
                assert tuple(vec.rows.indices[span].tolist()) == expected.indices
                assert tuple(vec.rows.data[span].tolist()) == expected.weights

    def test_rows_listed_by_date_and_article(self, mini_dataset):
        for topic in mini_dataset:
            vec = build_vectorizer(topic)
            for day, rows in vec.by_pub_date.items():
                assert rows == sorted(rows)
                assert {vec.sentences[r].raw for r in rows} == {
                    s.raw for a in topic.articles if a.publish_date == day for s in a.sentences
                }
            for day, rows in vec.by_mention.items():
                assert rows == [
                    r for r, s in enumerate(vec.sentences)
                    if any(m.resolved == day for m in s.mentions)
                ]
            for article in topic.articles:
                assert [vec.sentences[r] for r in vec.by_article[article.id]] == article.sentences

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
            min_size=2,
            max_size=6,
        )
    )
    def test_cosine_bounded(self, token_lists):
        topic = _topic_from_texts([" ".join(t) + "." for t in token_lists])
        vec = build_vectorizer(topic)
        rows = vec.transform(token_lists)
        for i in range(len(rows)):
            for cos in rows.dots(rows.row(i, len(vec.idf))):
                assert -1e-12 <= cos <= 1.0 + 1e-12


class TestLoadTopic:
    def test_smallest_valid_input(self, tmp_path):
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        (topic_dir / "articles.jsonl").write_text(
            json.dumps(
                {
                    "id": "a1",
                    "publish_date": "2020-01-01",
                    "title": "t",
                    "text": "A. B.",
                }
            )
            + "\n"
        )
        (topic_dir / "timelines.jsonl").write_text("")
        topic = load_topic(topic_dir)
        assert len(topic.articles) == 1
        assert [s.raw for s in topic.articles[0].sentences] == ["A.", "B."]

    def test_missing_publish_date_is_parse_error(self, tmp_path):
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        lines = [
            json.dumps(
                {"id": "a1", "publish_date": "2020-01-01", "title": "t", "text": "A."}
            ),
            json.dumps({"id": "a2", "title": "t", "text": "B."}),
        ]
        (topic_dir / "articles.jsonl").write_text("\n".join(lines) + "\n")
        (topic_dir / "timelines.jsonl").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_topic(topic_dir)
        assert str(excinfo.value) == f"{topic_dir / 'articles.jsonl'}:2: missing key 'publish_date'"

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(NotFound):
            load_topic(tmp_path / "nope")

    @pytest.mark.parametrize("edge, beyond", [(EARLIEST_PUBLISH_DATE, -1), (LATEST_PUBLISH_DATE, 1)])
    def test_publish_dates_leave_room_for_date_arithmetic(self, tmp_path, edge, beyond):
        # At either limit the mention window, the relative words and the
        # +-7-day date features stay inside the calendar; a day beyond fails.
        first = edge - timedelta(days=LOOKBACK_DAYS)
        text = f"It hit on {first.isoformat()}. It rained yesterday. It rains tomorrow."
        article = {"id": "a1", "publish_date": edge.isoformat(), "title": "t", "text": text}
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        (topic_dir / "timelines.jsonl").write_text("")
        (topic_dir / "articles.jsonl").write_text(json.dumps(article) + "\n")
        topic = annotate_topic(load_topic(topic_dir))
        candidates, features = feature_matrix(topic)
        assert candidates[0].date == first and candidates[-1].date == edge
        assert np.isfinite(features).all()
        [(event, _)] = detect_events(topic, RunConfig(), build_vectorizer(topic))[0]
        assert event.event_date in {c.date for c in candidates}

        article["publish_date"] = (edge + timedelta(days=beyond)).isoformat()
        (topic_dir / "articles.jsonl").write_text(json.dumps(article) + "\n")
        with pytest.raises(ParseError) as excinfo:
            load_topic(topic_dir)
        assert str(excinfo.value).startswith(f"{topic_dir / 'articles.jsonl'}:1: publish_date ")

    def test_mini_dataset(self, mini_dataset):
        assert len(mini_dataset) == 3
        assert [t.name for t in mini_dataset] == ["alpha", "beta", "gamma"]
        # AvgL of the generator's four reference timelines: (2+2+2+1)/4
        lengths = [
            tl.length for t in mini_dataset for tl in t.reference_timelines
        ]
        assert sum(lengths) / len(lengths) == 1.75

    def test_pretokenized_articles(self, tmp_path):
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        (topic_dir / "articles.jsonl").write_text(
            json.dumps(
                {
                    "id": "a1",
                    "publish_date": "2020-01-01",
                    "title": "t",
                    "text": "地震发生。 余震继续。",
                    "pretokenized": [["地震", "发生"], ["余震", "继续"]],
                }
            )
            + "\n"
        )
        (topic_dir / "timelines.jsonl").write_text("")
        topic = load_topic(topic_dir)
        assert topic.articles[0].sentences[0].tokens == ["地震", "发生"]

    def test_pretokenized_fallback_makes_no_blank_sentence(self, tmp_path):
        """Token lists that do not line up with the text's sentences become
        the raws, but none whose raw would be blank."""
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        pretokenized = [["storm", "hits"], [], [""], [" ", "　"], ["rain"]]
        article = {"id": "a1", "publish_date": "2020-01-01", "title": "t", "text": "One sentence.",
                   "pretokenized": pretokenized}
        (topic_dir / "articles.jsonl").write_text(json.dumps(article) + "\n")
        (topic_dir / "timelines.jsonl").write_text("")
        sentences = load_topic(topic_dir).articles[0].sentences
        assert [(s.raw, s.tokens) for s in sentences] == [("storm hits", ["storm", "hits"]), ("rain", ["rain"])]

    def test_tokens_read_or_not_are_the_same_sentence(self):
        for supplied in (None, ["地震", "发生"]):
            read, unread = (Sentence("地震发生。", supplied) for _ in range(2))
            assert read.tokens == (supplied or ["地", "震", "发", "生"])
            assert pickle.dumps(read) == pickle.dumps(unread)
            assert repr(read) == repr(unread) and read == unread
            copy = pickle.loads(pickle.dumps(read))
            assert copy == read and repr(copy) == repr(read)
        assert Sentence("地震发生。") != Sentence("地震发生。", ["地震", "发生"])

    def test_train_and_stats_never_tokenize(self, mini_dir, tmp_path, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(corpus, "tokenize", counting)
        assert main(["train", str(mini_dir), "--out", str(tmp_path / "reg")]) == 0
        assert main(["stats", str(mini_dir)]) == 0
        assert calls == []
        run = ["run", "--dataset-dir", str(mini_dir), "--output-dir", str(tmp_path / "out")]
        assert main(run + ["--method", "adprm-e"]) == 0
        # `run` tokenizes each sentence once
        assert sorted(calls) == sorted(s.raw for t in load_dataset(mini_dir) for s in t.sentences())

    def test_round_trip(self, mini_dataset, tmp_path):
        for topic in mini_dataset:
            out = tmp_path / topic.name
            save_topic(topic, out)
            reloaded = annotate_topic(load_topic(out))
            assert reloaded.name == topic.name
            assert reloaded.queries == topic.queries
            assert reloaded.reference_timelines == topic.reference_timelines
            assert len(reloaded.articles) == len(topic.articles)
            for a, b in zip(reloaded.articles, topic.articles):
                assert (a.id, a.publish_date, a.title) == (
                    b.id,
                    b.publish_date,
                    b.title,
                )
                assert [(s.raw, s.tokens) for s in a.sentences] == [
                    (s.raw, s.tokens) for s in b.sentences
                ]

    def test_sentence_count_consistency(self, mini_dataset):
        for topic in mini_dataset:
            assert len(topic.sentences()) == sum(
                len(a.sentences) for a in topic.articles
            )


class TestDataModel:
    def test_timeline_sorts_and_checks_entries(self):
        d1, d2 = date(2020, 1, 1), date(2020, 1, 2)
        timeline = Timeline("t", [(d2, ["B."]), (d1, ["A."])])
        assert timeline.entries == [(d1, ["A."]), (d2, ["B."])]
        assert (timeline.length, timeline.total_sentences, timeline.dates()) == (2, 2, [d1, d2])
        with pytest.raises(ValueError, match="duplicate timeline date 2020-01-01"):
            Timeline("t", [(d1, ["A."]), (d1, ["B."])])
        with pytest.raises(ValueError, match="empty summary for 2020-01-02"):
            Timeline("t", [(d2, [])])

    def test_timeline_equality_repr_and_pickling(self):
        timeline = Timeline("t", [(date(2020, 1, 1), ["A."])])
        assert timeline == Timeline("t", [(date(2020, 1, 1), ["A."])])
        assert timeline != Timeline("u", timeline.entries)
        assert timeline != ("t", timeline.entries)
        assert repr(timeline) == "Timeline(name='t', entries=[(datetime.date(2020, 1, 1), ['A.'])])"
        assert pickle.loads(pickle.dumps(timeline)) == timeline
        with pytest.raises(TypeError):
            hash(timeline)

    def test_topic_defaults_equality_and_pickling(self, mini_dataset):
        assert Topic("t", []).queries == [] and Topic("t", []).queries is not Topic("t", []).queries
        assert Topic("t", []) == Topic("t", [], [], []) != Topic("u", [])
        assert repr(Topic("t", [])) == "Topic(name='t', articles=[], queries=[], reference_timelines=[])"
        for topic in mini_dataset:
            copy = pickle.loads(pickle.dumps(topic))
            assert copy == topic and repr(copy) == repr(topic)
        with pytest.raises(TypeError):
            hash(Topic("t", []))

    def test_article_fields_and_immutability(self):
        article = Article("a", date(2020, 1, 1), "T", [])
        assert (article.id, article.publish_date, article.title, article.sentences) == (
            "a", date(2020, 1, 1), "T", []
        )
        with pytest.raises(AttributeError):
            article.title = "U"
        assert pickle.loads(pickle.dumps(article)) == article


class TestLoadReferences:
    def test_matches_load_dataset(self, mini_dir):
        assert load_references(mini_dir) == [
            (topic.name, topic.reference_timelines) for topic in load_dataset(mini_dir)
        ]

    def test_reads_no_articles(self, tmp_path):
        topic_dir = tmp_path / "t"
        topic_dir.mkdir()
        (topic_dir / "articles.jsonl").write_text("not json\n")
        (topic_dir / "timelines.jsonl").write_text(
            json.dumps({"name": "r", "entries": [{"date": "2020-01-01", "summary": ["A."]}]})
            + "\n"
        )
        with pytest.raises(ParseError):
            load_dataset(tmp_path)
        [(name, [timeline])] = load_references(tmp_path)
        assert (name, timeline.name, timeline.length) == ("t", "r", 1)

    def test_topic_discovery(self, tmp_path):
        with pytest.raises(NotFound, match="dataset directory not found"):
            load_references(tmp_path / "nope")
        (tmp_path / "no-articles").mkdir()
        (tmp_path / "no-articles" / "timelines.jsonl").write_text("")
        with pytest.raises(NotFound, match="no topic directories"):
            load_references(tmp_path)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "articles.jsonl").write_text("")
        with pytest.raises(NotFound, match="missing file"):
            load_references(tmp_path)
        (tmp_path / "b" / "timelines.jsonl").write_text("")
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "articles.jsonl").write_text("")
        (tmp_path / "a" / "timelines.jsonl").write_text("")
        assert load_references(tmp_path) == [("a", []), ("b", [])]


def _distinct_token_objects(topic: Topic) -> int:
    return len({id(tok) for s in topic.sentences() for tok in s.tokens})


def _pretokenized_planted_topic(root) -> Topic:
    """A planted topic written pretokenized and loaded back; its first
    article's text is blank, so its token lists take the fallback."""
    save_topic(planted_topics()[0], root)
    path = root / "articles.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["text"] = ""
    path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", encoding="utf-8")
    return annotate_topic(load_topic(root))


class TestSharedTokens:
    """Each distinct token of a topic is one string object, however it came in."""

    def test_raw_text(self, mini_dataset):
        for topic in mini_dataset:
            vocabulary = build_vectorizer(topic).vocabulary
            assert _distinct_token_objects(topic) == len(vocabulary)

    def test_pretokenized(self, tmp_path):
        topic = _pretokenized_planted_topic(tmp_path / "t")
        assert topic.articles[0].sentences[0].raw == " ".join(topic.articles[0].sentences[0].tokens)
        vocabulary = build_vectorizer(topic).vocabulary
        assert _distinct_token_objects(topic) == len(vocabulary)

    def test_a_pickled_topic_keeps_them_shared(self, tmp_path):
        """A pickled topic writes each distinct token once and unpickles with them shared."""
        topic = _pretokenized_planted_topic(tmp_path / "t")
        copy = pickle.loads(pickle.dumps(topic))
        assert copy == topic
        assert _distinct_token_objects(copy) == len(build_vectorizer(copy).vocabulary)
        # The same topic with one string per token occurrence, as `json.loads` makes them.
        unshared = Topic(
            topic.name,
            [
                Article(a.id, a.publish_date, a.title, [
                    Sentence(s.raw, json.loads(json.dumps(s.tokens)), s.mentions) for s in a.sentences
                ])
                for a in topic.articles
            ],
            topic.queries,
            topic.reference_timelines,
        )
        assert unshared == topic
        assert len(pickle.dumps(topic)) < len(pickle.dumps(unshared))


class TestQueryFilter:
    def test_disabled_without_queries(self, mini_dataset):
        beta = mini_dataset[1]
        assert filter_by_queries(beta) is beta

    def test_keeps_matching_sentences_only(self, mini_dataset):
        alpha = mini_dataset[0]  # queries: ["flood"]
        filtered = filter_by_queries(alpha)
        kept = [s.raw for s in filtered.sentences()]
        assert kept == ["A flood hit the valley."]

    def test_keeps_mentions_of_annotation(self):
        from datetime import date

        from adaptls.corpus import Article

        raws = ["Rain fell on 2021-03-01.", "A flood hit yesterday.", "Crews said flood waters rose March 2."]
        article = Article("a", date(2021, 3, 5), "t", [Sentence(r, tokenize(r)) for r in raws])
        topic = annotate_topic(Topic("t", [article], queries=["flood"]))
        filtered = filter_by_queries(topic)
        kept = filtered.sentences()
        assert [s.raw for s in kept] == raws[1:]
        assert [s.mentions for s in kept] == [s.mentions for s in topic.sentences()[1:]]
        assert [s.mentions for s in kept] == [s.mentions for s in annotate_topic(filtered).sentences()]
        assert all(s.mentions for s in kept)
