import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feature_oracle
import ridge_oracle
from synthdata import planted_topics, save_topic
from adaptls.corpus import Article, Sentence, Timeline, Topic, load_dataset, tokenize
from adaptls.date_ranking import (
    N_FEATURES,
    Regressor,
    feature_matrix,
    moments,
    score_dates,
    solve_ridge,
    train_regressor,
    training_rows,
)
from adaptls.errors import EmptyDataset, SingularSystem
from adaptls.temporal import DateCandidate, DateMention, annotate_topic, candidate_dates


def _topic(article_specs, timelines=()):
    articles = []
    for i, (pub, raws) in enumerate(article_specs):
        aid = f"a{i}"
        sentences = [Sentence(raw, tokenize(raw)) for raw in raws]
        articles.append(Article(aid, pub, f"title {i}", sentences))
    return annotate_topic(Topic("t", articles, [], list(timelines)))


# feature_matrix columns
(
    MENTION_COUNT,
    PUB_ARTICLE_COUNT,
    PUB_SENTENCE_COUNT,
    MENTIONS_1D,
    MENTIONS_3D,
    MENTIONS_7D,
    MENTION_SHARE,
    POS_FIRST,
    POS_LAST,
) = range(9)


class TestDateFeatures:
    def test_single_plain_article(self):
        topic = _topic([(date(2020, 1, 1), ["Nothing dated."])])
        _, X = feature_matrix(topic)
        assert np.array(X).shape == (1, 9)
        assert X[0][MENTION_COUNT] == 0.0
        assert X[0][PUB_ARTICLE_COUNT] == pytest.approx(math.log(2))
        assert X[0][MENTION_SHARE] == 0.0

    def test_single_date_topic_has_zero_positions(self):
        topic = _topic([(date(2020, 1, 1), ["Nothing dated."])])
        _, X = feature_matrix(topic)
        assert X[0][POS_FIRST] == 0.0
        assert X[0][POS_LAST] == 0.0

    def test_matches_brute_force_recount(self, mini_dataset):
        for topic in mini_dataset:
            cands = candidate_dates(topic)
            mention_counts = {}
            for s in topic.sentences():
                for m in s.mentions:
                    if topic.min_pub - timedelta(days=3650) <= m.resolved <= topic.max_pub:
                        mention_counts[m.resolved] = mention_counts.get(m.resolved, 0) + 1
            total = sum(mention_counts.values())
            duration = topic.duration_days
            got_cands, X = feature_matrix(topic)
            assert got_cands == cands
            for cand, feats in zip(cands, X):
                assert feats[MENTION_COUNT] == pytest.approx(
                    math.log1p(cand.mention_count)
                )
                assert feats[PUB_SENTENCE_COUNT] == pytest.approx(
                    math.log1p(cand.pub_sentence_count)
                )
                for days, got in (
                    (1, feats[MENTIONS_1D]),
                    (3, feats[MENTIONS_3D]),
                    (7, feats[MENTIONS_7D]),
                ):
                    expected = sum(
                        count
                        for day, count in mention_counts.items()
                        if abs((day - cand.date).days) <= days
                    )
                    assert got == pytest.approx(math.log1p(expected))
                share = cand.mention_count / total if total else 0.0
                assert feats[MENTION_SHARE] == pytest.approx(share)
                if duration > 0:
                    assert feats[POS_FIRST] == pytest.approx(
                        min(1.0, max(0.0, (cand.date - topic.min_pub).days / duration))
                    )
                    assert feats[POS_LAST] == pytest.approx(
                        min(1.0, max(0.0, (topic.max_pub - cand.date).days / duration))
                    )


# Day offsets: dense runs a day or two apart, and offsets whose gaps exceed
# the widest window (7 days).
_DAYS = st.one_of(st.integers(0, 10), st.integers(2, 6).map(lambda k: 9 * k))


@st.composite
def _layouts(draw):
    """A topic of up to 6 articles whose sentences mention drawn dates.

    Some topics publish on one day only, some mention no date at all, and
    mentions may fall before the first or after the last publication.
    """
    start = date(2020, 3, 1)
    one_day = draw(st.booleans())
    pub_only = draw(st.booleans())
    articles = []
    for i in range(draw(st.integers(1, 6))):
        aid = f"a{i}"
        pub = start if one_day else start + timedelta(days=draw(_DAYS))
        sentences = []
        for _ in range(draw(st.integers(0, 3))):
            days = [] if pub_only else draw(st.lists(_DAYS | st.integers(-12, -1), max_size=4))
            mentions = [DateMention(start + timedelta(days=d), (0, 1), "explicit") for d in days]
            sentences.append(Sentence("s", ["s"], mentions))
        articles.append(Article(aid, pub, aid, sentences))
    return Topic("t", articles)


@settings(max_examples=300, deadline=None)
@given(_layouts())
def test_feature_windows_equal_offset_loop(topic):
    candidates, X = feature_matrix(topic)
    expected_candidates, expected = feature_oracle.feature_matrix(topic)
    assert candidates == expected_candidates
    assert np.array(X).shape == expected.shape == (len(candidates), N_FEATURES)
    assert np.array(X).tobytes() == expected.tobytes()


class TestRidge:
    def test_interpolates_two_points_at_tiny_lambda(self):
        X = np.array([[1.0] + [0.0] * 8, [0.0] * 8 + [1.0]])
        y = np.array([0.0, 1.0])
        weights, bias = solve_ridge(X, y, 1e-12)
        preds = X @ weights + bias
        assert preds == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_huge_lambda_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 9))
        y = rng.normal(size=20)
        weights, bias = solve_ridge(X, y, 1e9)
        assert np.abs(weights).max() < 1e-6
        assert bias == pytest.approx(float(y.mean()), rel=1e-4)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            X = rng.normal(size=(20, 9))
            y = rng.normal(size=20)
            lam = float(rng.uniform(0.01, 10.0))
            weights, bias = solve_ridge(X, y, lam)
            # independent oracle: explicit inverse of the regularized system
            A = np.hstack([X, np.ones((20, 1))])
            penalty = np.eye(10) * lam
            penalty[9, 9] = 0.0
            expected = np.linalg.inv(A.T @ A + penalty) @ (A.T @ y)
            assert np.abs(weights - expected[:9]).max() < 1e-8
            assert abs(bias - expected[9]) < 1e-8

    def test_zero_feature_without_lambda_is_singular(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 9))
        X[:, 3] = 0.0
        with pytest.raises(SingularSystem):
            solve_ridge(X, rng.normal(size=20), 0.0)

    def test_overflowing_features_are_singular(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 9)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularSystem, match="non-finite"):
            solve_ridge(X, rng.normal(size=20), 1.0)


def _training_topics():
    topics = []
    for t in range(2):
        start = date(2020, 1, 1) + timedelta(days=40 * t)
        specs = []
        key_days = [start + timedelta(days=d) for d in (2, 10)]
        for day in key_days:
            specs.append((day, [f"Big news on {day.isoformat()}.", "More detail here."]))
            specs.append((day, [f"Recap of {day.isoformat()}."]))
        specs.append((start + timedelta(days=20), ["Quiet day."]))
        timeline = Timeline("ref", [(day, ["Something happened."]) for day in key_days])
        topic = _topic(specs, [timeline])
        topic.name = f"train{t}"
        topics.append(topic)
    return topics


def _blocks(topics):
    return [moments(*training_rows(topic)) for topic in topics]


class TestTrainAndScore:
    def test_saved_regressor_loads_back(self, tmp_path):
        regressor = train_regressor(_blocks(_training_topics()))
        assert np.array(regressor.weights).shape == (N_FEATURES,)
        regressor.save(tmp_path / "r.json")
        loaded = Regressor.load(tmp_path / "r.json")
        assert loaded.to_json_obj() == regressor.to_json_obj()

    def test_requires_reference_timelines(self):
        # `adaptls train` builds no block for a topic without references
        with pytest.raises(EmptyDataset):
            train_regressor([], 1.0)

    def test_targets_mark_reference_dates(self):
        topic = _training_topics()[0]
        X, y = training_rows(topic)
        cands, expected_X = feature_matrix(topic)
        assert np.array(X).tobytes() == np.array(expected_X).tobytes()
        ref_dates = set(topic.reference_timelines[0].dates())
        assert y == [1.0 if c.date in ref_dates else 0.0 for c in cands]

    def test_trained_model_ranks_key_dates_first(self):
        topics = _training_topics()
        regressor = train_regressor(_blocks(topics), 1.0)
        scored = score_dates(regressor, topics[0])
        top_dates = {cand.date for cand, _ in scored[:2]}
        assert top_dates == set(topics[0].reference_timelines[0].dates())

    def test_weights_reproduce_closed_form(self):
        topics = _training_topics()
        regressor = train_regressor(_blocks(topics), 0.5)
        rows = []
        targets = []
        for topic in topics:
            ref_dates = {d for tl in topic.reference_timelines for d in tl.dates()}
            cands, X = feature_matrix(topic)
            rows.append(X)
            targets.extend(1.0 if c.date in ref_dates else 0.0 for c in cands)
        X = np.vstack(rows)
        y = np.array(targets)
        weights, bias = solve_ridge(X, y, 0.5)
        assert np.abs(np.array(regressor.weights) - weights).max() < 1e-8
        assert abs(regressor.bias - bias) < 1e-8

    def test_zero_weight_regressor_gives_chronological_order(self):
        topic = _training_topics()[0]
        regressor = Regressor([0.0] * 9, 0.5, 1.0)
        scored = score_dates(regressor, topic)
        dates = [cand.date for cand, _ in scored]
        assert dates == sorted(dates)
        assert all(score == 0.5 for _, score in scored)

    def test_mention_weight_orders_by_mention_count(self):
        topic = _training_topics()[0]
        weights = [0.0] * 9
        weights[0] = 1.0  # ln(1 + mention_count)
        scored = score_dates(Regressor(weights, 0.0, 1.0), topic)
        counts = [cand.mention_count for cand, _ in scored]
        assert counts == sorted(counts, reverse=True)

    def test_scores_are_dot_products(self):
        topic = _training_topics()[0]
        rng = np.random.default_rng(3)
        regressor = Regressor(rng.normal(size=9).tolist(), 0.25, 1.0)
        cands, X = feature_matrix(topic)
        expected = {c.date: float(np.array(x) @ regressor.weights + 0.25) for c, x in zip(cands, X)}
        for cand, score in score_dates(regressor, topic):
            assert score == pytest.approx(expected[cand.date], abs=1e-12)

    def test_constant_shift_preserves_order(self):
        topic = _training_topics()[0]
        rng = np.random.default_rng(4)
        weights = rng.normal(size=9).tolist()
        base = score_dates(Regressor(weights, 0.0, 1.0), topic)
        shifted = score_dates(Regressor(weights, 123.0, 1.0), topic)
        assert [c.date for c, _ in base] == [c.date for c, _ in shifted]

    def test_save_load_round_trip(self, tmp_path):
        regressor = train_regressor(_blocks(_training_topics()), 1.0)
        path = tmp_path / "reg.json"
        regressor.save(path)
        loaded = Regressor.load(path)
        assert np.array(loaded.weights).tobytes() == np.array(regressor.weights).tobytes()
        assert loaded.bias == regressor.bias
        assert loaded.l2_lambda == regressor.l2_lambda


def test_predict_adds_left_to_right():
    # Python 3.12's compensated sum() would give 1.0
    row = [1e16, 1.0, -1e16] + [0.0] * 6
    assert Regressor([1.0] * 9, 0.0, 1.0).predict([row]) == [0.0]


def _annotated(root):
    topics = load_dataset(root)
    for topic in topics:
        annotate_topic(topic)
    return topics


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("dataset", ["mini", "planted"])
def test_train_and_score_equal_loop_oracle(dataset, mini_dir, tmp_path):
    """Leave-one-topic-out, as `adaptls train` and `run` do, held bit for bit to the loops."""
    if dataset == "planted":
        for topic in planted_topics():
            save_topic(topic, tmp_path / topic.name)
    topics = _annotated(mini_dir if dataset == "mini" else tmp_path)
    rows = {topic.name: training_rows(topic) for topic in topics if topic.reference_timelines}
    for held_out in topics:
        blocks = [block for name, block in rows.items() if name != held_out.name]
        regressor = train_regressor([moments(*block) for block in blocks], 1.0)
        weights, bias = ridge_oracle.train([ridge_oracle.moments(*block) for block in blocks], 1.0)
        assert _hex(regressor.weights + [regressor.bias]) == _hex(weights + [bias])

        candidates, X = feature_matrix(held_out)
        expected = dict(zip([c.date for c in candidates], _hex(ridge_oracle.predict(weights, bias, X))))
        scored = score_dates(regressor, held_out)
        assert dict(zip([c.date for c, _ in scored], _hex(s for _, s in scored))) == expected
