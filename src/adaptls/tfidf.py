"""A topic's one text representation: sentence-level TF-IDF in CSR arrays.

`build_vectorizer` runs once per topic.  The summarizer reads its candidate
rows from it, and the article graph of event ranking vectorizes titles and
lead sentences with the same vocabulary and idf.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .corpus import Sentence, Topic
from .errors import EmptyCorpus


@dataclass(frozen=True, eq=False)
class Rows:
    """L2-normalized TF-IDF rows in CSR form; a row without known tokens is empty."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return Rows(indptr, self.indices[flat], self.data[flat])

    def row(self, i: int, width: int) -> np.ndarray:
        """Row i as a dense vector of `width` columns."""
        out = np.zeros(width)
        span = slice(self.indptr[i], self.indptr[i + 1])
        out[self.indices[span]] = self.data[span]
        return out

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row sums of one value per stored entry, in entry order."""
        owner = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return np.bincount(owner, weights=values, minlength=len(self))

    def dots(self, x: np.ndarray) -> np.ndarray:
        """Every row's dot product with the dense vector x."""
        return self.sums(self.data * x[self.indices])


def _tfidf_rows(
    vocabulary: dict[str, int], idf: list[float], token_lists
) -> Rows:
    """One row per token list: tf * idf over known tokens, L2-normalized."""
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        tf = Counter(vocabulary[tok] for tok in tokens if tok in vocabulary)
        cols = sorted(tf)
        weights = [tf[col] * idf[col] for col in cols]
        norm = math.sqrt(sum(w * w for w in weights))
        indices.extend(cols)
        data.extend(w * (1.0 / norm) for w in weights)
        indptr.append(len(indices))
    return Rows(
        np.array(indptr), np.array(indices, dtype=np.intp), np.array(data, dtype=float)
    )


@dataclass(frozen=True, eq=False)
class Vectorizer:
    """A topic's one text representation, built once by `build_vectorizer`.

    Sentence-level TF-IDF with idf(t) = ln(1 + n/(1 + df)) over the topic's
    n sentences.  Row r of `rows` is `sentences[r]`; rows run in (article
    id, sentence index) order and are listed by their article's publish
    date, by every date they mention and by article id.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    rows: Rows
    sentences: list[Sentence]
    by_pub_date: dict[Date, list[int]]
    by_mention: dict[Date, list[int]]
    by_article: dict[str, list[int]]

    def transform(self, token_lists) -> Rows:
        """TF-IDF rows of other token lists; unknown tokens are dropped."""
        return _tfidf_rows(self.vocabulary, self.idf.tolist(), token_lists)


def build_vectorizer(topic: Topic) -> Vectorizer:
    """The topic's TF-IDF representation; requires annotate_topic to have run."""
    articles = sorted(topic.articles, key=lambda a: a.id)
    pairs = [(a, s) for a in articles for s in a.sentences]
    if not pairs:
        raise EmptyCorpus(f"topic {topic.name!r} has no sentences")
    df = Counter(tok for _, s in pairs for tok in set(s.tokens))
    terms = sorted(df)
    vocabulary = {tok: i for i, tok in enumerate(terms)}
    idf = [math.log(1.0 + len(pairs) / (1.0 + df[tok])) for tok in terms]
    by_pub_date: dict[Date, list[int]] = {}
    by_mention: dict[Date, list[int]] = {}
    by_article: dict[str, list[int]] = {}
    for row, (article, sentence) in enumerate(pairs):
        by_pub_date.setdefault(article.publish_date, []).append(row)
        by_article.setdefault(article.id, []).append(row)
        for day in {m.resolved for m in sentence.mentions}:
            by_mention.setdefault(day, []).append(row)
    return Vectorizer(
        vocabulary,
        np.array(idf),
        _tfidf_rows(vocabulary, idf, [s.tokens for _, s in pairs]),
        [s for _, s in pairs],
        by_pub_date,
        by_mention,
        by_article,
    )
