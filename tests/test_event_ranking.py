import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptls.corpus import LOOKBACK_DAYS, Article, Sentence, Topic, tokenize
from adaptls.errors import EmptyCorpus
from adaptls.event_ranking import (
    EventCluster,
    SimilarityGraph,
    build_similarity_graph,
    detect_events,
    make_event_clusters,
    markov_cluster,
    score_events,
)
from adaptls.temporal import DateMention, annotate_topic, candidate_dates
from adaptls.tfidf import build_vectorizer
import tfidf_oracle
from synthdata import planted_topics


def reference_mcl(adjacency, expansion=2, inflation=2.0, max_iter=100, eps=1e-6, prune=1e-5):
    """Straightforward MCL oracle, kept independent of the implementation.

    Also asserts the column-stochastic invariant after every iteration.
    """
    M = np.array(adjacency, dtype=float)
    sums = M.sum(axis=0)
    M = M / sums
    for _ in range(max_iter):
        prev = M.copy()
        M = np.linalg.matrix_power(M, expansion)
        M = M ** inflation
        M[M < prune] = 0.0
        col = M.sum(axis=0)
        for j in range(M.shape[1]):
            if col[j] == 0.0:
                M[j, j] = 1.0
        M = M / M.sum(axis=0)
        assert np.abs(M.sum(axis=0) - 1.0).max() < 1e-9
        assert (M >= 0.0).all()
        if np.abs(M - prev).max() < eps:
            break
    n = M.shape[0]
    clusters = []
    for i in range(n):
        if M[i, i] > 0.0:
            clusters.append(set(np.where(M[i, :] > 0.0)[0]) | {i})
    merged = []
    for claim in clusters:
        hit = [g for g in merged if g & claim]
        for g in hit:
            merged.remove(g)
            claim |= g
        merged.append(claim)
    covered = set().union(*merged) if merged else set()
    for node in range(n):
        if node not in covered:
            merged.append({node})
    return sorted((frozenset(g) for g in merged), key=min)


def reference_event_date(nodes, topic):
    """(event date, mention count) of a cluster by a direct scan, kept independent
    of the implementation.

    Counts each article's publication date and each mention inside the
    topic's window [min_pub - LOOKBACK_DAYS, max_pub], takes the most
    counted date (ties to the earlier one), then counts every mention of
    that date in the cluster's sentences.
    """
    lo = topic.min_pub - timedelta(days=LOOKBACK_DAYS)
    hi = topic.max_pub
    counts = {}
    for node in nodes:
        article = topic.articles[node]
        counts[article.publish_date] = counts.get(article.publish_date, 0) + 1
        for sentence in article.sentences:
            for mention in sentence.mentions:
                if lo <= mention.resolved <= hi:
                    counts[mention.resolved] = counts.get(mention.resolved, 0) + 1
    day = min(counts, key=lambda d: (-counts[d], d))
    mentions = sum(
        1
        for node in nodes
        for sentence in topic.articles[node].sentences
        for m in sentence.mentions
        if m.resolved == day
    )
    return day, mentions


def _graph(adjacency):
    weights = np.array(adjacency, dtype=float)
    return SimilarityGraph(weights.shape[0], weights)


def _block(n, weight=1.0):
    block = np.full((n, n), weight)
    np.fill_diagonal(block, 1.0)
    return block


class TestMarkovCluster:
    def test_two_disconnected_triangles(self):
        adjacency = np.zeros((6, 6))
        adjacency[:3, :3] = _block(3, 0.9)
        adjacency[3:, 3:] = _block(3, 0.9)
        result = markov_cluster(_graph(adjacency))
        assert result.converged
        assert result.clusters == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_complete_graph_single_cluster(self):
        result = markov_cluster(_graph(_block(4, 0.8)))
        assert result.clusters == [frozenset({0, 1, 2, 3})]

    def test_barbell_matches_reference_oracle(self):
        adjacency = np.zeros((8, 8))
        adjacency[:4, :4] = _block(4, 0.9)
        adjacency[4:, 4:] = _block(4, 0.9)
        adjacency[3, 4] = adjacency[4, 3] = 0.05
        result = markov_cluster(_graph(adjacency), expansion=2, inflation=2.0)
        expected = reference_mcl(adjacency, expansion=2, inflation=2.0)
        assert result.clusters == expected
        assert result.clusters == [frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})]

    def test_random_graphs_match_reference_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            adjacency = np.zeros((n, n))
            for i in range(n):
                adjacency[i, i] = 1.0
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        w = float(rng.uniform(0.1, 1.0))
                        adjacency[i, j] = adjacency[j, i] = w
            result = markov_cluster(_graph(adjacency))
            assert result.clusters == reference_mcl(adjacency)

    def test_clusters_partition_nodes(self):
        rng = np.random.default_rng(5)
        n = 10
        adjacency = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    adjacency[i, j] = adjacency[j, i] = float(rng.uniform(0.2, 1.0))
        result = markov_cluster(_graph(adjacency))
        all_nodes = [node for cluster in result.clusters for node in cluster]
        assert sorted(all_nodes) == list(range(n))

    def test_parameter_validation(self):
        graph = _graph(_block(3, 0.5))
        with pytest.raises(ValueError):
            markov_cluster(graph, expansion=1)
        with pytest.raises(ValueError):
            markov_cluster(graph, inflation=1.0)

    def test_nonconvergence_flagged(self):
        result = markov_cluster(_graph(_block(4, 0.7)), max_iter=1)
        assert not result.converged
        assert result.clusters  # clusters still returned


def _topic(article_specs):
    articles = []
    for i, (pub, title, raws) in enumerate(article_specs):
        aid = f"a{i}"
        sentences = [Sentence(raw, tokenize(raw)) for raw in raws]
        articles.append(Article(aid, pub, title, sentences))
    return annotate_topic(Topic("t", articles))


class TestSimilarityGraph:
    def test_identical_articles_edge_weight_one(self):
        topic = _topic(
            [
                (date(2020, 1, 1), "Same title", ["Same body text here."]),
                (date(2020, 1, 2), "Same title", ["Same body text here."]),
            ]
        )
        graph = build_similarity_graph(topic, threshold=0.5)
        assert graph.weights[0, 1] == pytest.approx(1.0)
        assert graph.weights[0, 0] == 1.0

    def test_disjoint_vocabulary_no_edge(self):
        topic = _topic(
            [
                (date(2020, 1, 1), "alpha beta", ["Gamma delta epsilon."]),
                (date(2020, 1, 2), "one two", ["Three four five."]),
            ]
        )
        graph = build_similarity_graph(topic, threshold=0.0)
        assert graph.weights[0, 1] == 0.0

    def test_adjacency_matches_all_pairs_cosine_oracle(self):
        topic = _topic(
            [
                (date(2020, 1, 1), "storm at sea", ["The storm formed.", "Winds grew."]),
                (date(2020, 1, 2), "storm lands", ["The storm hit land.", "Power failed."]),
                (date(2020, 1, 3), "cleanup", ["Crews cleared roads."]),
                (date(2020, 1, 4), "storm recap", ["The storm season recap."]),
                (date(2020, 1, 5), "election", ["Voters chose a new council."]),
            ]
        )
        threshold = 0.2
        graph = build_similarity_graph(topic, threshold=threshold)
        vec = build_vectorizer(topic)
        vectors = [tfidf_oracle.article_vector(a, vec) for a in topic.articles]
        for i in range(len(vectors)):
            for j in range(len(vectors)):
                if i == j:
                    continue
                cos = vectors[i].cosine(vectors[j])
                expected = cos if cos >= threshold else 0.0
                assert graph.weights[i, j] == pytest.approx(expected, abs=1e-12)

    def test_empty_topic_raises(self):
        with pytest.raises(EmptyCorpus):
            build_similarity_graph(Topic("t", []), 0.1)


class TestEventDating:
    def test_single_article_uses_publish_date(self):
        topic = _topic([(date(2020, 1, 1), "t", ["Nothing dated."])])
        assert make_event_clusters([frozenset({0})], topic)[0].event_date == date(2020, 1, 1)

    def test_repeated_mention_beats_publish_dates(self):
        specs = [
            (date(2011, 3, 12), "quake", ["Quake struck on 2011-03-11.", "Again 2011-03-11 cited."]),
            (date(2011, 3, 13), "quake later", ["Reports recall 2011-03-11.", "And 2011-03-11, and 2011-03-11."]),
            (date(2011, 3, 14), "aftermath", ["Cleanup continues."]),
        ]
        topic = _topic(specs)
        assert make_event_clusters([frozenset({0, 1, 2})], topic)[0].event_date == date(2011, 3, 11)

    def test_tie_breaks_to_earlier_date(self):
        specs = [
            (date(2020, 1, 5), "a", ["Plain."]),
            (date(2020, 1, 2), "b", ["Plain."]),
        ]
        topic = _topic(specs)
        # both dates occur once; earlier wins
        assert make_event_clusters([frozenset({0, 1})], topic)[0].event_date == date(2020, 1, 2)

    @pytest.mark.parametrize("mentioned", ["2020-06-01", "2009-12-01"])
    def test_mentions_outside_the_date_window_are_not_counted(self, mentioned):
        # Most mentions name a day after the last publication date, or more
        # than LOOKBACK_DAYS before the first one: no candidate date.
        specs = [
            (date(2020, 1, 1), "plan", [f"Opening set for {mentioned}.", f"Again {mentioned}."]),
            (date(2020, 1, 2), "plan", [f"Tickets for {mentioned} sold."]),
        ]
        topic = _topic(specs)
        day = make_event_clusters([frozenset({0, 1})], topic)[0].event_date
        assert day == date(2020, 1, 1)
        assert day in {c.date for c in candidate_dates(topic)}


DATING_START = date(2020, 1, 10)


@st.composite
def dated_topics(draw):
    """A topic with mentions set directly, and a non-empty set of its nodes.

    Publication dates span a few days, so counts often tie.  Mentions name
    days inside the window, on its edges, just before it and after the last
    publication date; a sentence may repeat a mention, and an article may
    have no sentences.
    """
    pubs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    min_pub = DATING_START + timedelta(days=min(pubs))
    max_pub = DATING_START + timedelta(days=max(pubs))
    lo = min_pub - timedelta(days=LOOKBACK_DAYS)
    days = [lo - timedelta(days=1), lo, lo + timedelta(days=1), min_pub - timedelta(days=1)]
    days += [DATING_START + timedelta(days=offset) for offset in range(5)]
    days += [max_pub, max_pub + timedelta(days=1), max_pub + timedelta(days=30)]
    articles = []
    for i, offset in enumerate(pubs):
        aid = f"a{i}"
        mention_days = draw(
            st.lists(st.lists(st.sampled_from(days), max_size=3), max_size=3)
        )
        sentences = [
            Sentence("s", ["s"], [DateMention(d, (0, 1), "explicit") for d in ds])
            for ds in mention_days
        ]
        articles.append(Article(aid, DATING_START + timedelta(days=offset), "t", sentences))
    topic = Topic("t", articles)
    nodes = draw(st.sets(st.integers(0, len(articles) - 1), min_size=1))
    return topic, frozenset(nodes)


@settings(max_examples=300, deadline=None)
@given(dated_topics())
def test_event_dating_matches_reference_scan(case):
    topic, nodes = case
    cluster = make_event_clusters([nodes], topic)[0]
    assert (cluster.event_date, cluster.mention_count) == reference_event_date(nodes, topic)


class TestScoreEvents:
    def test_pub_only_event_scores_zero(self):
        topic = _topic([(date(2020, 1, 1), "t", ["Nothing dated."])])
        clusters = make_event_clusters([frozenset({0})], topic)
        scored = score_events(clusters)
        assert scored[0][1] == 0.0

    def test_mention_count_is_score(self):
        specs = [
            (date(2011, 3, 12), "quake", ["Quake on 2011-03-11.", "Again 2011-03-11."]),
            (date(2011, 3, 13), "more", ["Still 2011-03-11 and 2011-03-11."]),
        ]
        topic = _topic(specs)
        clusters = make_event_clusters([frozenset({0, 1})], topic)
        scored = score_events(clusters)
        assert scored[0][0].event_date == date(2011, 3, 11)
        assert scored[0][1] == 4.0

    def test_pure_function_identical_scores(self):
        topic = _topic([(date(2020, 1, 1), "t", ["Seen 2020-01-01 here."])])
        clusters = make_event_clusters([frozenset({0})], topic)
        first = score_events(clusters)
        second = score_events(clusters)
        assert first == second


class TestPermutationInvariance:
    def test_article_order_does_not_change_clusters(self):
        specs = [
            (date(2020, 1, 1), "storm at sea", ["The storm formed at sea.", "Winds grew."]),
            (date(2020, 1, 2), "storm lands", ["The storm made landfall.", "Winds grew."]),
            (date(2020, 2, 1), "vote opens", ["Voters lined up early."]),
            (date(2020, 2, 2), "vote counted", ["Voters waited for results."]),
        ]
        topic = _topic(specs)
        scored, _ = detect_events(topic, threshold=0.1)
        id_clusters = {frozenset(c.article_ids) for c, _ in scored}

        permuted = annotate_topic(
            Topic("t", [topic.articles[i] for i in (2, 0, 3, 1)])
        )
        scored_p, _ = detect_events(permuted, threshold=0.1)
        id_clusters_p = {frozenset(c.article_ids) for c, _ in scored_p}
        assert id_clusters == id_clusters_p


def test_one_event_per_planted_date():
    """Where each planted date draws from words of its own, there is one
    cluster per planted date, dated with it."""
    for topic in planted_topics(disjoint=True):
        scored, _ = detect_events(topic)
        assert len(scored) == 5
        assert sorted(cluster.event_date for cluster, _ in scored) == topic.reference_timelines[0].dates()
