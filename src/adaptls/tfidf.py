"""A topic's one text representation: sentence-level TF-IDF in CSR arrays.

`build_vectorizer` runs once per topic.  The summarizer reads its candidate
rows from it, and the article graph of event ranking vectorizes titles and
lead sentences with the same vocabulary and idf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from itertools import chain, repeat

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


def _term_counts(vocabulary: dict[str, int], token_lists: list) -> tuple[np.ndarray, ...]:
    """(row, column, tf) of the known tokens of each list, row by row, columns ascending."""
    lengths = [len(tokens) for tokens in token_lists]
    width = max(len(vocabulary), 1)
    # key = row * width + column, negative for an unknown token.  Sorted,
    # its distinct values are the entries in order and their run lengths the tf.
    key = np.fromiter(
        map(vocabulary.get, chain.from_iterable(token_lists), repeat(-len(lengths) * width)),
        dtype=np.intp,
        count=sum(lengths),
    )
    key += np.repeat(np.arange(len(lengths)) * width, lengths)
    key = key[key >= 0]
    key.sort(kind="stable")
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    row, col = np.divmod(key[starts], width)
    return row, col, np.diff(starts, append=len(key))


def _tfidf_rows(
    vocabulary: dict[str, int], token_lists, idf: np.ndarray | None = None
) -> tuple[Rows, np.ndarray]:
    """One row per token list: tf * idf over known tokens, L2-normalized; and the idf.

    Without `idf`, it is ln(1 + n/(1 + df)) over these n token lists.  The
    arithmetic is that of a per-row loop, so the bytes equal it: a weight
    is tf * idf, the squared norm sums a row's w * w left to right, and
    each weight is scaled by 1 / norm.
    """
    token_lists = list(token_lists)
    n = len(token_lists)
    row, col, tf = _term_counts(vocabulary, token_lists)
    if idf is None:
        df = np.bincount(col, minlength=len(vocabulary)).tolist()
        idf = np.array([math.log(1.0 + n / (1.0 + d)) for d in df])
    weights = idf[col]
    weights *= tf
    squares = np.bincount(row, weights=weights * weights, minlength=n).tolist()
    # math.sqrt per row: np.sqrt gives the same values, but its first call
    # maps in more of numpy's code, which showed in `run`'s peak RSS.
    scale = np.array([1.0 / math.sqrt(x) if x else 0.0 for x in squares])
    weights *= scale[row]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    return Rows(indptr, col, weights), idf


@dataclass(frozen=True, eq=False)
class Vectorizer:
    """A topic's one text representation, built once by `build_vectorizer`.

    Sentence-level TF-IDF with idf(t) = ln(1 + n/(1 + df)) over the topic's
    n sentences.  Row r of `rows` is `sentences[r]`; rows run by article
    id, then by sentence position in the article, and are listed by their
    article's publish date, by every date they mention and by article id.
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
        return _tfidf_rows(self.vocabulary, token_lists, self.idf)[0]


def build_vectorizer(topic: Topic) -> Vectorizer:
    """The topic's TF-IDF representation; requires annotate_topic to have run."""
    sentences = topic.sentences()
    if not sentences:
        raise EmptyCorpus(f"topic {topic.name!r} has no sentences")
    token_lists = [s.tokens for s in sentences]
    terms = sorted(set(chain.from_iterable(token_lists)))
    vocabulary = {tok: i for i, tok in enumerate(terms)}
    rows, idf = _tfidf_rows(vocabulary, token_lists)
    by_pub_date: dict[Date, list[int]] = {}
    by_mention: dict[Date, list[int]] = {}
    by_article: dict[str, list[int]] = {}
    start = 0  # an article's rows are the run that starts here
    for article in topic.articles:
        if article.sentences:
            end = start + len(article.sentences)
            by_pub_date.setdefault(article.publish_date, []).extend(range(start, end))
            by_article.setdefault(article.id, []).extend(range(start, end))
            start = end
    for row, sentence in enumerate(sentences):
        for day in {m.resolved for m in sentence.mentions}:
            by_mention.setdefault(day, []).append(row)
    return Vectorizer(vocabulary, idf, rows, sentences, by_pub_date, by_mention, by_article)
