"""The shared CSR representation against the reference sparse-vector loops.

Random small topics include sentences without tokens (empty rows) and exact
duplicate sentences (tied rows), so the zero-row and tie paths of the
summarizers and of the article graph are exercised.  The rows themselves
must equal the per-row Counter loop to the bit.
"""

from datetime import date, timedelta

import numpy as np
from hypothesis import example, given, settings, strategies as st

from adaptls.config import RunConfig
from adaptls.corpus import Article, Sentence, Topic
from adaptls.event_ranking import EventCluster, build_similarity_graph
from adaptls.summarizer import (
    candidate_sentences,
    centroid_opt,
    centroid_rank,
)
from adaptls.temporal import annotate_topic
from adaptls.tfidf import build_vectorizer
import tfidf_oracle

START = date(2021, 5, 1)
TOKENS = st.lists(st.sampled_from("abcdefgh"), max_size=5)


@st.composite
def topics(draw):
    # Sentences come from a small pool, so exact duplicates are common.
    pool = draw(st.lists(TOKENS, min_size=1, max_size=6))
    n_articles = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(n_articles)))
    articles = []
    for i in range(n_articles):
        aid = f"a{ids[i]}"
        day = START + timedelta(days=draw(st.integers(0, 2)))
        sentences = []
        for _ in range(draw(st.integers(1, 7))):
            tokens = list(draw(st.sampled_from(pool)))
            mention = draw(st.none() | st.integers(0, 2))
            raw = " ".join(tokens)
            if mention is not None:
                raw += f" on {(START + timedelta(days=mention)).isoformat()}"
            sentences.append(Sentence(raw, tokens))
        articles.append(Article(aid, day, draw(st.sampled_from(["", "a b", "h"])), sentences))
    return annotate_topic(Topic("t", articles))


def _keys(sentences):
    """Identity keys: the vectorizer's rows hold the topic's own sentence objects."""
    return [id(s) for s in sentences]


def _check_summarizers(rows, vec):
    if not rows:  # a ranked item is kept only with a pool to summarize
        return
    vectors = [tfidf_oracle.vectorize(vec, vec.sentences[r].tokens) for r in rows]
    for k in (1, 2, 3):
        for summarize, reference in (
            (centroid_rank, tfidf_oracle.rank),
            (centroid_opt, tfidf_oracle.opt),
        ):
            picked = [rows.index(r) for r in summarize(rows, vec, k)]
            assert picked == reference(vectors, k, prefer=picked)


@settings(max_examples=200, deadline=None)
@given(topics())
@example(  # unit rows 1.0 and 0.9999999999999999: adding the second gains one ulp
    annotate_topic(
        Topic("t", [Article("a0", START, "", [Sentence("a", ["a"]), Sentence("a a a", ["a"] * 3)])])
    )
)
def test_candidates_and_summaries_match_reference(topic):
    vec = build_vectorizer(topic)
    for offset in range(3):
        day = START + timedelta(days=offset)
        rows = candidate_sentences(vec, day)
        expected = tfidf_oracle.candidate_sentences(topic, day)
        assert _keys(vec.sentences[r] for r in rows) == _keys(expected)
        _check_summarizers(rows, vec)

        members = frozenset(a.id for a in topic.articles[:2])
        rows = candidate_sentences(vec, day, EventCluster(members, day, 0))
        expected = tfidf_oracle.cluster_candidates(topic, day, members)
        assert _keys(vec.sentences[r] for r in rows) == _keys(expected)
        _check_summarizers(rows, vec)


@settings(max_examples=200, deadline=None)
@given(topics(), st.sampled_from([0.0, 0.1, 0.5]))
def test_graph_weights_match_reference(topic, threshold):
    vec = build_vectorizer(topic)
    graph = build_similarity_graph(topic, RunConfig(graph_threshold=threshold), vec)
    cosines = np.array(tfidf_oracle.graph_weights(topic, vec, 0.0))
    expected = np.where(cosines >= threshold, cosines, 0.0)
    assert graph.weights.shape == expected.shape
    close = np.abs(graph.weights - expected) <= 1e-12
    # a cosine within TIE of the threshold may fall on either side
    at_threshold = (np.abs(cosines - threshold) <= tfidf_oracle.TIE) & (
        (graph.weights == 0.0) | (np.abs(graph.weights - cosines) <= 1e-12)
    )
    assert (close | at_threshold).all()


WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "flood", "crews", "Ä", "水"])
SENTENCES = st.lists(st.lists(WORDS, max_size=25), min_size=1, max_size=12)
# Token lists for transform; "x", "y" and "z" are never in the vocabulary.
OTHERS = st.lists(st.lists(WORDS | st.sampled_from("xyz"), max_size=25), max_size=6)


def _assert_bytes_equal(rows, expected):
    for got, want in zip((rows.indptr, rows.indices, rows.data), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(SENTENCES, OTHERS)
@example([[], []], [["a"], [], ["x", "y"]])  # a topic without tokens
@example([["a", "b", "a"], []], [[], ["z"], ["x", "a", "x", "a"]])  # empty and all-unknown rows
def test_rows_equal_counter_loop_exactly(token_lists, others):
    sentences = [Sentence(" ".join(tokens), tokens) for tokens in token_lists]
    vec = build_vectorizer(Topic("t", [Article("a", START, "", sentences)]))
    vocabulary, idf = tfidf_oracle.counter_vocabulary(token_lists)
    assert vec.vocabulary == vocabulary
    assert vec.idf.dtype == np.float64 and np.array_equal(vec.idf, np.array(idf))
    _assert_bytes_equal(vec.rows, tfidf_oracle.counter_rows(vocabulary, idf, token_lists))
    _assert_bytes_equal(vec.transform(others), tfidf_oracle.counter_rows(vocabulary, idf, others))
    _assert_bytes_equal(vec.transform(iter(others)), tfidf_oracle.counter_rows(vocabulary, idf, others))


# `adaptls train` and `run` on a dataset; prints whether numpy.ma was loaded.
RUN_LOADS_MA = """
import contextlib, io, sys
from adaptls.cli import main
mini, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["train", mini, "--out", out + "/reg"]) == 0
    for method in ("adprm-d", "adprm-e"):
        run = ["run", "--dataset-dir", mini, "--output-dir", f"{out}/{method}", "--method", method]
        assert main(run + (["--regressors", out + "/reg"] if method == "adprm-d" else [])) == 0
print("numpy.ma" in sys.modules)
"""


def test_run_loads_no_masked_arrays(fresh_python, mini_dir, tmp_path):
    # np.unique and friends import numpy.ma, about 1.8 MB of peak RSS.
    assert fresh_python("-c", RUN_LOADS_MA, str(mini_dir), str(tmp_path)).strip() == "False"
