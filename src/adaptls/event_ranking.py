"""Event detection by Markov clustering and event scoring by date mentions.

Articles become nodes of a cosine-similarity graph (title plus lead
sentences, TF-IDF).  MCL alternates random-walk expansion with inflation on
the column-stochastic matrix until the flow stabilizes; the attractor
structure yields the event clusters.  Each cluster is dated with its top
candidate date, counted over its own articles, and scored by how often that
date is mentioned inside the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .config import RunConfig
from .corpus import Topic, tokenize
from .temporal import candidate_dates
from .tfidf import Vectorizer, build_vectorizer

LEAD_SENTENCES = 5


@dataclass(frozen=True)
class SimilarityGraph:
    n: int
    weights: np.ndarray  # dense symmetric (n, n), self-loops = 1


@dataclass(frozen=True)
class EventCluster:
    article_ids: frozenset[str]
    event_date: Date
    mention_count: int  # mentions of event_date within the cluster's articles


@dataclass(frozen=True)
class MclResult:
    clusters: list[frozenset[int]]
    converged: bool
    iterations: int


def build_similarity_graph(
    topic: Topic, config: RunConfig, vec: Vectorizer | None = None
) -> SimilarityGraph:
    """Cosine graph over articles; edges below the config's graph_threshold are dropped.

    An article's row is the TF-IDF of its title plus its first
    LEAD_SENTENCES sentences, in `vec` (by default the topic's own
    vectorizer, which refuses a topic without sentences).
    """
    if vec is None:
        vec = build_vectorizer(topic)
    rows = vec.transform(
        tokenize(a.title) + [t for s in a.sentences[:LEAD_SENTENCES] for t in s.tokens]
        for a in topic.articles
    )
    n = len(topic.articles)
    weights = np.eye(n)
    for i in range(n - 1):
        cos = rows.dots(rows.row(i, len(vec.idf)))[i + 1 :]
        cos = np.where((cos >= config.graph_threshold) & (cos > 0.0), np.minimum(cos, 1.0), 0.0)
        weights[i, i + 1 :] = weights[i + 1 :, i] = cos
    return SimilarityGraph(n, weights)


def _normalize_columns(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=0)
    # A fully pruned column would break stochasticity; pin it to its diagonal.
    dead = sums == 0.0
    if dead.any():
        matrix = matrix.copy()
        idx = np.where(dead)[0]
        matrix[idx, idx] = 1.0
        sums = matrix.sum(axis=0)
    return matrix / sums


def markov_cluster(graph: SimilarityGraph, config: RunConfig) -> MclResult:
    """Run MCL on the graph and read clusters off the attractor structure.

    The config's mcl_* fields set the expansion power, inflation, iteration
    cap, convergence eps and pruning floor.  Each row with a positive
    diagonal (an attractor) joins the cluster of every column it supports;
    a node no attractor supports stays a singleton, so the result always
    partitions the node set.  Clusters are listed by their smallest node.
    """
    M = _normalize_columns(graph.weights.astype(float))
    converged = False
    iterations = 0
    for iterations in range(1, config.mcl_max_iter + 1):
        previous = M
        M = np.linalg.matrix_power(M, config.mcl_expansion)
        M = np.power(M, config.mcl_inflation)
        M[M < config.mcl_prune] = 0.0
        M = _normalize_columns(M)
        if np.abs(M - previous).max() < config.mcl_eps:
            converged = True
            break

    parent = list(range(graph.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(graph.n):
        if M[i, i] > 0.0:
            for j in np.where(M[i, :] > 0.0)[0].tolist():
                parent[find(j)] = find(i)  # union of j's cluster and i's

    groups: dict[int, set[int]] = {}
    for node in range(graph.n):  # ascending, so groups come in order of their smallest node
        groups.setdefault(find(node), set()).add(node)
    clusters = [frozenset(g) for g in groups.values()]
    return MclResult(clusters, converged, iterations)


def make_event_clusters(
    node_sets: list[frozenset[int]], topic: Topic
) -> list[EventCluster]:
    """Date each cluster with the candidate date its articles count most often.

    The count is `candidate_dates` over the cluster's articles: articles
    published on the day plus mentions inside the topic's window.  Ties go
    to the earlier date.  The day's mentions are the cluster's mention count.
    """
    clusters = []
    for nodes in node_sets:
        best = min(
            candidate_dates(topic, [topic.articles[n] for n in nodes]),
            key=lambda c: (-(c.pub_article_count + c.mention_count), c.date),
        )
        clusters.append(
            EventCluster(
                article_ids=frozenset(topic.articles[n].id for n in nodes),
                event_date=best.date,
                mention_count=best.mention_count,
            )
        )
    return clusters


def score_events(clusters: list[EventCluster]) -> list[tuple[EventCluster, float]]:
    """Score each event by mentions of its date inside its own articles.

    Sorted best first; ties go to the earlier event date, then the larger
    cluster.
    """
    scored = [(cluster, float(cluster.mention_count)) for cluster in clusters]
    scored.sort(
        key=lambda item: (-item[1], item[0].event_date, -len(item[0].article_ids))
    )
    return scored


def detect_events(
    topic: Topic, config: RunConfig, vec: Vectorizer
) -> tuple[list[tuple[EventCluster, float]], MclResult]:
    """Full event pipeline: graph, MCL, dating, scoring."""
    graph = build_similarity_graph(topic, config, vec)
    result = markov_cluster(graph, config)
    clusters = make_event_clusters(result.clusters, topic)
    return score_events(clusters), result
