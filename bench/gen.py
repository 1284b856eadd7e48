"""Seeded generator of timeline-summarization datasets with planted events.

Every topic has a fixed number of planted events.  An event owns a date, a
small vocabulary of its own and a burst of articles published on that date
and the days after it, whose sentences mention the date in every format the
program recognizes (ISO, "March 5, 2021", "5 March 2021", "March 5",
today/yesterday/tomorrow).  Background articles use the topic's general
vocabulary and mention scattered noise dates.  Reference timelines list most
event dates, favouring the large events, with summaries written in the
event's vocabulary rather than copied from articles.

Besides the dataset directory the generator writes `truth.json`: every
sentence with the dates it mentions, every article with its event, and every
event with its articles.  The program under test never sees it.

Sizes are fixed per workload, only the content depends on the seed, so the
work per run is comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date as Date, timedelta
from pathlib import Path

from checks import tokens

MONTHS = (
    "January February March April May June July August September October "
    "November December"
).split()

# Words the program's date recognizer reacts to; generated filler avoids them.
_RESERVED = {m.lower() for m in MONTHS} | {m.lower()[:3] for m in MONTHS} | {
    "sept", "today", "yesterday", "tomorrow", "on",
}

_ONSETS = "b c d f g h k l m n p r s t v w z br dr fl gr kr pl pr sk st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "x", "nd", "st"]


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's dataset; every count is per topic."""

    topics: int
    articles: int
    sentences: int  # per article
    major_events: int
    minor_events: int
    major_articles: int  # articles per major event
    minor_articles: int
    days: int  # span of publication dates
    noise_mention_rate: float  # share of other sentences mentioning a noise date
    references: int
    reference_minor: int  # minor events each reference adds to the major ones
    reference_quiet: int  # dates with no burst each reference adds
    reference_k: tuple[int, int]  # sentences per reference entry, inclusive range
    pretokenized: bool


SPECS = {
    "dates-raw": Spec(
        topics=20, articles=36, sentences=12, major_events=4, minor_events=4,
        major_articles=4, minor_articles=1, days=90, noise_mention_rate=0.1,
        references=1, reference_minor=2, reference_quiet=1,
        reference_k=(1, 1), pretokenized=False,
    ),
    "events-clustered": Spec(
        topics=6, articles=130, sentences=10, major_events=6, minor_events=8,
        major_articles=17, minor_articles=2, days=120, noise_mention_rate=0.08,
        references=1, reference_minor=4, reference_quiet=1,
        reference_k=(1, 1), pretokenized=True,
    ),
    "datewise-opt": Spec(
        topics=4, articles=80, sentences=12, major_events=8, minor_events=10,
        major_articles=4, minor_articles=2, days=150, noise_mention_rate=0.2,
        references=3, reference_minor=6, reference_quiet=2,
        reference_k=(2, 3), pretokenized=False,
    ),
}

COMMON_WORDS = 300
TOPIC_WORDS = 400
EVENT_WORDS = 10
EVENT_MENTION_RATE = 0.5  # share of an event article's sentences naming its date
PARTIAL_FORWARD_DAYS = 183  # news convention for a month-day without a year


def _vocabulary(rng: random.Random, size: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(2, 3))
        ) + rng.choice(_CODAS)
        if word not in taken and word not in _RESERVED:
            taken.add(word)
            words.append(word)
    return words


def _partial(day: Date, anchor: Date) -> Date | None:
    try:
        resolved = Date(anchor.year, day.month, day.day)
    except ValueError:
        return None
    if (resolved - anchor).days > PARTIAL_FORWARD_DAYS:
        try:
            resolved = Date(anchor.year - 1, day.month, day.day)
        except ValueError:
            return None
    return resolved


def _date_phrase(rng: random.Random, day: Date, anchor: Date) -> str:
    """A phrase naming `day` that reads back as `day` from an article of `anchor`."""
    offset = (day - anchor).days
    forms = ["iso", "mdy", "dmy"]
    if _partial(day, anchor) == day:
        forms.append("md")
    if offset in (-1, 0, 1):
        forms.append("relative")
    form = rng.choice(forms)
    month = MONTHS[day.month - 1]
    if form == "iso":
        return f"on {day.isoformat()}"
    if form == "mdy":
        return f"on {month} {day.day}, {day.year}"
    if form == "dmy":
        return f"on {day.day} {month} {day.year}"
    if form == "md":
        return f"on {month} {day.day}"
    return {-1: "yesterday", 0: "today", 1: "tomorrow"}[offset]


def _words(rng: random.Random, pools: list[tuple[list[str], float]], n: int) -> list[str]:
    lists = [pool for pool, _ in pools]
    weights = [weight for _, weight in pools]
    return [rng.choice(rng.choices(lists, weights)[0]) for _ in range(n)]


def _sentence(rng, pools, mention: Date | None, anchor: Date) -> str:
    words = _words(rng, pools, rng.randint(10, 12))
    if mention is not None:
        words.insert(rng.randint(2, len(words)), _date_phrase(rng, mention, anchor))
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _topic(rng: random.Random, spec: Spec, name: str, common: list[str], taken: set[str]):
    start = Date(2015, 1, 1) + timedelta(days=rng.randrange(6 * 365))
    topic_words = _vocabulary(rng, TOPIC_WORDS, taken)
    n_events = spec.major_events + spec.minor_events
    # Event dates keep three quiet days between them so bursts stay apart.
    slots = rng.sample(range(2, spec.days // 4 - 1), n_events)
    events = []
    for rank, slot in enumerate(slots):
        major = rank < spec.major_events
        events.append(
            {
                "date": start + timedelta(days=4 * slot),
                "major": major,
                "size": spec.major_articles if major else spec.minor_articles,
                "words": _vocabulary(rng, EVENT_WORDS, taken),
            }
        )
    event_dates = [event["date"] for event in events]

    drafts = []  # (publish date, event index or None)
    for index, event in enumerate(events):
        for a in range(event["size"]):
            lag = 0 if a < (event["size"] + 1) // 2 else rng.randint(1, 3)
            drafts.append((event["date"] + timedelta(days=lag), index))
    background = spec.articles - len(drafts)
    if background < 0:
        raise ValueError(f"{name}: events need more than {spec.articles} articles")
    for _ in range(background):
        drafts.append((start + timedelta(days=rng.randrange(spec.days + 1)), None))
    drafts.sort(key=lambda d: (d[0], -1 if d[1] is None else d[1]))

    articles = []
    for number, (published, event_index) in enumerate(drafts):
        if event_index is None:
            pools = [(topic_words, 0.45), (common, 0.55)]
            title = " ".join(_words(rng, pools, 5)).title()
        else:
            own = events[event_index]["words"]
            pools = [(own, 0.45), (topic_words, 0.25), (common, 0.3)]
            title = " ".join(_words(rng, [(own, 1.0)], 4)).title()
        # An event article mentions its date in a fixed number of sentences,
        # so events of one tier score alike and the knee does not hinge on
        # sampling luck.
        on_event = set()
        if event_index is not None:
            count = round(EVENT_MENTION_RATE * spec.sentences)
            on_event = set(rng.sample(range(spec.sentences), count))
        sentences = []
        for position in range(spec.sentences):
            mention = None
            if position in on_event:
                mention = events[event_index]["date"]
            elif rng.random() < spec.noise_mention_rate:
                # Noise: mostly inside the span, sometimes another event's
                # date, sometimes a historical aside before the span.
                roll = rng.random()
                if roll < 0.2:
                    mention = rng.choice(event_dates)
                elif roll < 0.3:
                    mention = start - timedelta(days=rng.randint(200, 2000))
                else:
                    mention = start + timedelta(days=rng.randrange(spec.days + 1))
            text = _sentence(rng, pools, mention, published)
            sentences.append(
                {"text": text, "mentions": [mention.isoformat()] if mention else []}
            )
        articles.append(
            {
                "id": f"{name}-{number:04d}",
                "publish_date": published.isoformat(),
                "title": title,
                "event": event_index,
                "sentences": sentences,
            }
        )

    references = []
    majors = [e for e in events if e["major"]]
    minors = [e for e in events if not e["major"]]
    busy = set(event_dates)
    for r in range(spec.references):
        chosen = majors + rng.sample(minors, spec.reference_minor)
        quiet = []
        while len(quiet) < spec.reference_quiet:
            day = start + timedelta(days=rng.randrange(spec.days + 1))
            if all(abs((day - b).days) > 3 for b in busy) and day not in quiet:
                quiet.append(day)
        entries = []
        for event in chosen:
            k = rng.randint(*spec.reference_k)
            summary = [
                _sentence(rng, [(event["words"], 1.0)], None, event["date"])
                for _ in range(k)
            ]
            entries.append({"date": event["date"].isoformat(), "summary": summary})
        for day in quiet:
            k = rng.randint(*spec.reference_k)
            summary = [_sentence(rng, [(topic_words, 1.0)], None, day) for _ in range(k)]
            entries.append({"date": day.isoformat(), "summary": summary})
        entries.sort(key=lambda e: e["date"])
        references.append({"name": f"expert{r + 1}", "entries": entries})

    truth_events = [
        {
            "date": event["date"].isoformat(),
            "major": event["major"],
            "articles": [a["id"] for a in articles if a["event"] == index],
        }
        for index, event in enumerate(events)
    ]
    return articles, references, truth_events


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write `out_dir/dataset/<topic>/...` and `out_dir/truth.json`; return the truth."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir = Path(out_dir)
    dataset = out_dir / "dataset"
    taken: set[str] = set()
    common = _vocabulary(rng, COMMON_WORDS, taken)
    truth = {"workload": workload, "seed": seed, "topics": {}}
    for t in range(spec.topics):
        name = f"topic-{t:02d}"
        articles, references, events = _topic(rng, spec, name, common, taken)
        topic_dir = dataset / name
        topic_dir.mkdir(parents=True)
        with (topic_dir / "articles.jsonl").open("w", encoding="utf-8") as handle:
            for article in articles:
                texts = [s["text"] for s in article["sentences"]]
                obj = {
                    "id": article["id"],
                    "publish_date": article["publish_date"],
                    "title": article["title"],
                    "text": " ".join(texts),
                }
                if spec.pretokenized:
                    obj["pretokenized"] = [tokens(text) for text in texts]
                handle.write(json.dumps(obj) + "\n")
        with (topic_dir / "timelines.jsonl").open("w", encoding="utf-8") as handle:
            for reference in references:
                handle.write(json.dumps(reference) + "\n")
        truth["topics"][name] = {"articles": articles, "events": events}
    (out_dir / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth

