"""Reference TF-IDF loops: one pure-Python sparse vector per sentence.

This is the original, deliberately naive formulation of the summarizer and
of the article graph.  Every function recomputes what it needs from the
topic's tokens, so the tests can hold the shared CSR representation of
`adaptls.tfidf.Vectorizer` to it.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from adaptls.corpus import tokenize

REDUNDANCY_THRESHOLD = 0.8
LEAD_SENTENCES = 5

# Two values this close count as a tie.  Mathematically equal values, such
# as the cosines of mutually orthogonal unit rows to their centroid, come
# out of different float evaluation orders a few ulps apart.
TIE = 1e-9


def _left_to_right(values) -> float:
    """The floats `values` added in order from 0.0 (`sum` compensates from Python 3.12 on)."""
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector as parallel (index, weight) tuples."""

    indices: tuple[int, ...]
    weights: tuple[float, ...]

    @staticmethod
    def from_dict(entries: dict[int, float]) -> "SparseVector":
        items = sorted((i, w) for i, w in entries.items() if w != 0.0)
        return SparseVector(tuple(i for i, _ in items), tuple(w for _, w in items))

    def is_zero(self) -> bool:
        return not self.indices

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.indices, self.weights))

    def norm(self) -> float:
        return math.sqrt(_left_to_right(w * w for w in self.weights))

    def dot(self, other: "SparseVector") -> float:
        if len(self.indices) > len(other.indices):
            return other.dot(self)
        lookup = other.as_dict()
        return _left_to_right(w * lookup[i] for i, w in zip(self.indices, self.weights) if i in lookup)

    def cosine(self, other: "SparseVector") -> float:
        denom = self.norm() * other.norm()
        if denom == 0.0:
            return 0.0
        return self.dot(other) / denom

    def scaled(self, factor: float) -> "SparseVector":
        return SparseVector(self.indices, tuple(w * factor for w in self.weights))

    def __add__(self, other: "SparseVector") -> "SparseVector":
        entries = self.as_dict()
        for i, w in zip(other.indices, other.weights):
            entries[i] = entries.get(i, 0.0) + w
        return SparseVector.from_dict(entries)

    def normalized(self) -> "SparseVector":
        n = self.norm()
        if n == 0.0:
            return self
        return self.scaled(1.0 / n)


ZERO = SparseVector((), ())


def counter_vocabulary(token_lists) -> tuple[dict[str, int], list[float]]:
    """Sorted vocabulary and idf ln(1 + n/(1 + df)) of n token lists, by a df Counter."""
    df = Counter(tok for tokens in token_lists for tok in set(tokens))
    terms = sorted(df)
    idf = [math.log(1.0 + len(token_lists) / (1.0 + df[tok])) for tok in terms]
    return {tok: i for i, tok in enumerate(terms)}, idf


def counter_rows(vocabulary: dict[str, int], idf: list[float], token_lists):
    """(indptr, indices, data) of L2-normalized tf * idf rows, one Counter per row.

    The arithmetic the CSR builder must match to the bit: weights tf * idf,
    the norm of a row's squared weights summed left to right, and each weight
    scaled by 1 / norm.
    """
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        tf = Counter(vocabulary[tok] for tok in tokens if tok in vocabulary)
        cols = sorted(tf)
        weights = [tf[col] * idf[col] for col in cols]
        norm = math.sqrt(_left_to_right(w * w for w in weights))
        indices.extend(cols)
        data.extend(w * (1.0 / norm) for w in weights)
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.intp), np.array(data, dtype=float)


def vectorize(vec, tokens: list[str]) -> SparseVector:
    """TF-IDF vector for a token list, L2-normalized when non-zero."""
    tf: dict[int, int] = {}
    for tok in tokens:
        col = vec.vocabulary.get(tok)
        if col is not None:
            tf[col] = tf.get(col, 0) + 1
    return SparseVector.from_dict(
        {col: count * float(vec.idf[col]) for col, count in tf.items()}
    ).normalized()


def centroid(vectors: list[SparseVector]) -> SparseVector:
    total = ZERO
    for v in vectors:
        total = total + v
    return total.scaled(1.0 / len(vectors)).normalized()


def _order(values: dict[int, float], vectors, prefer) -> list[list[int]]:
    """Positions by descending value, in groups of values within TIE.

    Inside a group, copies of one vector keep position order.  The copies
    of a vector holding a position in `prefer` go first, then the others by
    their earliest position.
    """
    groups: list[list[int]] = []
    for i in sorted(values, key=lambda i: (-values[i], i)):
        if groups and values[groups[-1][-1]] - values[i] <= TIE:
            groups[-1].append(i)
        else:
            groups.append([i])
    ordered = []
    for group in groups:
        copies: dict[SparseVector, list[int]] = {}
        for i in sorted(group):
            copies.setdefault(vectors[i], []).append(i)
        ranked = sorted(copies.values(), key=lambda m: (not set(prefer) & set(m), m[0]))
        ordered.append([i for members in ranked for i in members])
    return ordered


def rank(vectors: list[SparseVector], k: int, prefer=()) -> list[int]:
    """Positions centroid-rank picks, in position order.

    Candidates are taken by descending cosine to the centroid; a tie keeps
    the incoming order.  A near tie between different vectors may go to
    `prefer` (see `_order`), and a candidate within TIE of the redundancy
    threshold is kept only when preferred.
    """
    if not vectors:
        return []
    c = centroid(vectors)
    groups = _order({i: v.cosine(c) for i, v in enumerate(vectors)}, vectors, prefer)
    chosen: list[int] = []
    for i in (i for group in groups for i in group):
        if len(chosen) >= k:
            break
        nearest = max((vectors[i].cosine(vectors[j]) for j in chosen), default=0.0)
        if nearest >= REDUNDANCY_THRESHOLD + TIE or (
            nearest >= REDUNDANCY_THRESHOLD - TIE and i not in prefer
        ):
            continue
        chosen.append(i)
    return sorted(chosen)


def opt(vectors: list[SparseVector], k: int, prefer=()) -> list[int]:
    """Positions greedy centroid-opt picks, in position order.

    Each step adds the candidate giving the highest cosine of the summed
    summary to the centroid, the earliest on a tie, and the build stops when
    nothing improves on the objective.  A near tie between different
    vectors may go to `prefer` (see `_order`), and a best value within TIE
    of the objective, but not equal to it, continues only when a preferred
    position is among the best.
    """
    if not vectors:
        return []
    c = centroid(vectors)
    chosen: list[int] = []
    summary = ZERO
    objective = float("-inf")
    while len(chosen) < k:
        values = {
            i: (summary + v).normalized().cosine(c)
            for i, v in enumerate(vectors)
            if i not in chosen
        }
        if not values:
            break
        best = max(values.values())
        top = _order(values, vectors, prefer)[0]
        steered = best != objective and set(prefer) & set(top)
        if best <= objective + TIE and not steered:
            break
        chosen.append(top[0])
        summary = summary + vectors[top[0]]
        objective = values[top[0]]
    return sorted(chosen)


def article_vector(article, vec) -> SparseVector:
    tokens = tokenize(article.title)
    for sentence in article.sentences[:LEAD_SENTENCES]:
        tokens.extend(sentence.tokens)
    return vectorize(vec, tokens)


def graph_weights(topic, vec, threshold: float) -> list[list[float]]:
    """All-pairs article cosine graph; self-loops 1, weak edges 0."""
    vectors = [article_vector(a, vec) for a in topic.articles]
    n = len(vectors)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        weights[i][i] = 1.0
        for j in range(i + 1, n):
            cos = vectors[i].cosine(vectors[j])
            if cos >= threshold and cos > 0.0:
                weights[i][j] = weights[j][i] = min(cos, 1.0)
    return weights


def _sentences_by_id(topic):
    for article in sorted(topic.articles, key=lambda a: a.id):
        for sentence in article.sentences:
            yield article, sentence


def candidate_sentences(topic, day):
    """Rescan: sentences published on `day` or mentioning it."""
    return [
        s
        for a, s in _sentences_by_id(topic)
        if a.publish_date == day or any(m.resolved == day for m in s.mentions)
    ]


def cluster_candidates(topic, day, article_ids):
    """Rescan: the cluster's sentences plus sentences mentioning `day`."""
    return [
        s
        for a, s in _sentences_by_id(topic)
        if a.id in article_ids or any(m.resolved == day for m in s.mentions)
    ]
