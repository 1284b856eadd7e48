"""Deterministic synthetic corpora with planted bursty dates.

Each planted date gets several articles published on the day whose sentences
repeatedly mention it, so a trained date regressor scores it far above the
thin single-article noise dates.  The reference timeline lists exactly the
planted dates, which makes the expected outcome of an end-to-end run known
by construction.  By default every sentence draws from one vocabulary, so
the event methods see one event per topic; with `disjoint=True` each planted
date's sentences draw from a 4-word slice of their own, so each planted date
is an event of its own.  `save_topic` writes a topic out as a dataset
directory.
"""

import json
import random
from datetime import date as Date, timedelta
from pathlib import Path

from adaptls.corpus import Article, Sentence, Timeline, Topic, tokenize
from adaptls.temporal import annotate_topic

_WORDS = (
    "quake flood rescue minister port river summit treaty strike rally "
    "harvest outage bridge convoy clinic census rocket tunnel reactor market"
).split()

ARTICLES_PER_PLANTED = 4
SENTENCES_PER_PLANTED_ARTICLE = 5  # 4 * 5 = 20 on-date sentences per planted date


def _sentence(rng: random.Random, mention: Date | None, vocabulary=_WORDS) -> str:
    words = [rng.choice(vocabulary) for _ in range(6)]
    text = " ".join(words).capitalize()
    if mention is not None:
        text += f" on {mention.isoformat()}"
    return text + "."


def make_planted_topic(
    name: str,
    seed: int,
    start: Date,
    planted_offsets: list[int],
    noise_offsets: list[int],
    disjoint: bool = False,
) -> Topic:
    """Planted date i draws from `_WORDS[4i:4i + 4]` if `disjoint`, else from
    all of `_WORDS`; noise articles always draw from all of it."""
    rng = random.Random(seed)
    articles = []
    timeline_entries = []
    counter = 0
    for i, offset in enumerate(planted_offsets):
        day = start + timedelta(days=offset)
        vocabulary = _WORDS[4 * i : 4 * i + 4] if disjoint else _WORDS
        for a in range(ARTICLES_PER_PLANTED):
            raws = []
            for s in range(SENTENCES_PER_PLANTED_ARTICLE):
                # Two sentences per article mention the date explicitly.
                mention = day if s < 2 else None
                raws.append(_sentence(rng, mention, vocabulary))
            counter += 1
            article_id = f"{name}-p{counter:03d}"
            articles.append(
                Article(
                    article_id,
                    day,
                    f"Major development {counter}",
                    [Sentence(raw, tokenize(raw)) for raw in raws],
                )
            )
        timeline_entries.append((day, [articles[-1].sentences[0].raw]))
    for offset in noise_offsets:
        day = start + timedelta(days=offset)
        counter += 1
        article_id = f"{name}-n{counter:03d}"
        raws = [_sentence(rng, None) for _ in range(2)]
        articles.append(
            Article(
                article_id,
                day,
                f"Minor note {counter}",
                [Sentence(raw, tokenize(raw)) for raw in raws],
            )
        )
    articles.sort(key=lambda a: (a.publish_date, a.id))
    topic = Topic(
        name,
        articles,
        queries=[],
        reference_timelines=[Timeline("planted", timeline_entries)],
    )
    return annotate_topic(topic)


def planted_topics(n_topics: int = 3, seed: int = 7, disjoint: bool = False) -> list[Topic]:
    """A small dataset of planted-burst topics for leave-one-out training."""
    rng = random.Random(seed)
    topics = []
    for t in range(n_topics):
        offsets = rng.sample(range(60), 13)
        planted = sorted(offsets[:5])
        noise = sorted(offsets[5:])
        topics.append(
            make_planted_topic(
                f"synth{t}",
                seed=seed + 100 * t,
                start=Date(2022, 1, 1) + timedelta(days=90 * t),
                planted_offsets=planted,
                noise_offsets=noise,
                disjoint=disjoint,
            )
        )
    return topics


def save_topic(topic: Topic, dir_path) -> None:
    """Write a topic back out in the dataset directory layout."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    with (dir_path / "articles.jsonl").open("w", encoding="utf-8") as handle:
        for article in topic.articles:
            obj = {
                "id": article.id,
                "publish_date": article.publish_date.isoformat(),
                "title": article.title,
                "text": " ".join(s.raw for s in article.sentences),
                "pretokenized": [list(s.tokens) for s in article.sentences],
            }
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    with (dir_path / "timelines.jsonl").open("w", encoding="utf-8") as handle:
        for timeline in topic.reference_timelines:
            handle.write(
                json.dumps(timeline.to_json_obj(), ensure_ascii=False) + "\n"
            )
    if topic.queries:
        (dir_path / "keywords.json").write_text(
            json.dumps({"queries": topic.queries}, ensure_ascii=False),
            encoding="utf-8",
        )
