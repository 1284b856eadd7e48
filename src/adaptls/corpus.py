"""Data model, dataset ingestion, sentence splitting and tokenization.

A dataset is a directory with one sub-directory per topic; each topic
directory holds ``articles.jsonl``, ``timelines.jsonl`` and an optional
``keywords.json`` (see the README for the exact schema).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DateError, EmptyReference, NotFound, ParseError

if TYPE_CHECKING:
    from .temporal import DateMention


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Sentence:
    article_id: str
    index: int
    raw: str
    tokens: list[str]
    mentions: list["DateMention"] = field(default_factory=list)


@dataclass
class Article:
    id: str
    publish_date: Date
    title: str
    sentences: list[Sentence]


@dataclass
class Timeline:
    """An ordered list of (date, summary sentences) entries.

    Entries are sorted ascending on construction; duplicate dates or empty
    daily summaries are rejected.
    """

    name: str
    entries: list[tuple[Date, list[str]]]

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: e[0])
        seen = set()
        for day, summary in self.entries:
            if day in seen:
                raise ValueError(f"duplicate timeline date {day.isoformat()}")
            seen.add(day)
            if not summary:
                raise ValueError(f"empty summary for {day.isoformat()}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def total_sentences(self) -> int:
        return sum(len(summary) for _, summary in self.entries)

    def dates(self) -> list[Date]:
        return [day for day, _ in self.entries]

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "entries": [
                {"date": day.isoformat(), "summary": list(summary)}
                for day, summary in self.entries
            ],
        }


@dataclass
class Topic:
    name: str
    articles: list[Article]
    queries: list[str] = field(default_factory=list)
    reference_timelines: list[Timeline] = field(default_factory=list)

    def sentences(self) -> list[Sentence]:
        return [s for a in self.articles for s in a.sentences]

    @property
    def min_pub(self) -> Date:
        return min(a.publish_date for a in self.articles)

    @property
    def max_pub(self) -> Date:
        return max(a.publish_date for a in self.articles)

    @property
    def duration_days(self) -> int:
        return (self.max_pub - self.min_pub).days


# ---------------------------------------------------------------------------
# text processing

# A terminator followed by whitespace or the end of the text; group 2 is the
# next non-space character ("" when only whitespace follows, None at the end).
_TERMINATOR_RE = re.compile(r"([.!?。！？])(?=\s+(\S?)|\Z)")

# A run of word characters other than "_" and CJK ideographs (CJK Unified
# Ideographs plus extension A; enough for news text), or one such ideograph.
# The lookahead skips code points of the range that the Unicode tables of
# the running Python leave unassigned, as the character loop did.
_TOKEN_RE = re.compile(r"[^\W_一-鿿㐀-䶿]+|(?=\w)[一-鿿㐀-䶿]")

_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)


def sentence_split(text: str) -> list[str]:
    """Split text into sentences, keeping the terminating punctuation.

    A terminator ends a sentence only when followed by whitespace or the end
    of the text.  An ASCII period additionally requires the next non-space
    character to be uppercase, so abbreviations like "U.S. government" do not
    split.  A trailing fragment without a terminator becomes its own sentence.
    """
    sentences = []
    start = 0
    for match in _TERMINATOR_RE.finditer(text):
        terminator, following = match.groups()
        if terminator == "." and following and not following.isupper():
            continue
        piece = text[start : match.end()].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Split into lowercase tokens on whitespace/punctuation boundaries.

    Digit runs stay intact ("1996-01-17" -> ["1996", "01", "17"]); only ASCII
    letters are lowercased.  CJK text should arrive pre-tokenized; otherwise
    each CJK codepoint falls back to being its own token.
    """
    # On ASCII text str.lower is the same mapping, and much faster.
    lowered = sentence.lower() if sentence.isascii() else sentence.translate(_ASCII_LOWER)
    return _TOKEN_RE.findall(lowered)


# ---------------------------------------------------------------------------
# loading / saving


def _parse_date(value, where: str) -> Date:
    if not isinstance(value, str):
        raise DateError(f"{where}: date must be a string")
    try:
        return Date.fromisoformat(value)
    except ValueError as exc:
        raise DateError(f"{where}: {exc}") from exc


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _read_jsonl(path: Path):
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ParseError(
                    f"{path.name}:{line_number}: invalid JSON: {exc}",
                    line_number=line_number,
                ) from exc
            if not isinstance(obj, dict):
                raise ParseError(
                    f"{path.name}:{line_number}: expected a JSON object",
                    line_number=line_number,
                )
            yield line_number, obj


def _article_from_obj(obj: dict, line_number) -> Article:
    where = f"articles.jsonl:{line_number}"
    for key in ("id", "publish_date", "title", "text"):
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}", line_number=line_number)
    for key in ("title", "text"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{where}: {key!r} must be a string", line_number=line_number)
    publish_date = _parse_date(obj["publish_date"], where)
    article_id = str(obj["id"])
    sentences = []
    pretokenized = obj.get("pretokenized")
    if pretokenized is not None:
        if not (isinstance(pretokenized, list) and all(map(_is_str_list, pretokenized))):
            raise ParseError(
                f"{where}: 'pretokenized' must be a list of lists of strings",
                line_number=line_number,
            )
        raws = sentence_split(obj["text"])
        if len(raws) != len(pretokenized):
            # The raw text does not line up with the supplied token lists;
            # fall back to reconstructing raws from the tokens.
            raws = [" ".join(toks) for toks in pretokenized]
        for index, toks in enumerate(pretokenized):
            sentences.append(Sentence(article_id, index, raws[index], toks))
    else:
        for index, raw in enumerate(sentence_split(obj["text"])):
            sentences.append(Sentence(article_id, index, raw, tokenize(raw)))
    return Article(article_id, publish_date, obj["title"], sentences)


def timeline_from_obj(
    obj, where: str, line_number: int | None = None, default_name: str | None = None
) -> Timeline:
    """Parse one timeline object, ``{"name", "entries": [{"date", "summary"}]}``.

    `where` prefixes every error message.  Without `default_name` the object
    must carry a name.  Raises ParseError (or DateError) on malformed input.
    """

    def fail(message: str) -> ParseError:
        return ParseError(f"{where}: {message}", line_number=line_number)

    if not isinstance(obj, dict):
        raise fail("expected a JSON object")
    if default_name is None and "name" not in obj:
        raise fail("missing key 'name'")
    if "entries" not in obj:
        raise fail("missing key 'entries'")
    if not isinstance(obj["entries"], list):
        raise fail("'entries' must be a list")
    entries = []
    for entry in obj["entries"]:
        if not isinstance(entry, dict) or "date" not in entry or "summary" not in entry:
            raise fail("entry needs date and summary")
        if not _is_str_list(entry["summary"]):
            raise fail("summary must be a list of strings")
        entries.append((_parse_date(entry["date"], where), entry["summary"]))
    try:
        return Timeline(str(obj.get("name", default_name)), entries)
    except ValueError as exc:
        raise fail(str(exc)) from exc


def _read_references(path: Path) -> list[Timeline]:
    """The reference timelines of a ``timelines.jsonl``; none may be empty."""
    timelines = []
    for line_number, obj in _read_jsonl(path):
        timeline = timeline_from_obj(obj, f"timelines.jsonl:{line_number}", line_number)
        if not timeline.entries:
            raise EmptyReference(
                f"timelines.jsonl:{line_number}: reference timeline {timeline.name!r} is empty"
            )
        timelines.append(timeline)
    return timelines


def load_topic(dir_path) -> Topic:
    """Load one topic directory into a Topic."""
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise NotFound(f"topic directory not found: {dir_path}")
    articles_path = dir_path / "articles.jsonl"
    timelines_path = dir_path / "timelines.jsonl"
    for path in (articles_path, timelines_path):
        if not path.is_file():
            raise NotFound(f"missing file: {path}")

    articles = []
    seen_ids = set()
    for line_number, obj in _read_jsonl(articles_path):
        article = _article_from_obj(obj, line_number)
        if article.id in seen_ids:
            raise ParseError(
                f"articles.jsonl:{line_number}: duplicate article id {article.id!r}",
                line_number=line_number,
            )
        seen_ids.add(article.id)
        articles.append(article)

    timelines = _read_references(timelines_path)

    queries: list[str] = []
    keywords_path = dir_path / "keywords.json"
    if keywords_path.is_file():
        try:
            obj = json.loads(keywords_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"keywords.json: invalid JSON: {exc}") from exc
        if not (isinstance(obj, dict) and _is_str_list(obj.get("queries", []))):
            raise ParseError('keywords.json: expected {"queries": [strings]}')
        queries = obj.get("queries", [])

    return Topic(dir_path.name, articles, queries, timelines)


def _topic_dirs(root) -> list[Path]:
    """The topic directories under `root`: those holding ``articles.jsonl``, sorted."""
    root = Path(root)
    if not root.is_dir():
        raise NotFound(f"dataset directory not found: {root}")
    dirs = [
        child
        for child in sorted(root.iterdir())
        if child.is_dir() and (child / "articles.jsonl").is_file()
    ]
    if not dirs:
        raise NotFound(f"no topic directories under {root}")
    return dirs


def load_dataset(root) -> list[Topic]:
    """Load every topic directory under `root`, sorted by name."""
    return [load_topic(child) for child in _topic_dirs(root)]


def load_references(root) -> list[tuple[str, list[Timeline]]]:
    """(topic name, reference timelines) of every topic under `root`, sorted by name.

    Reads only each topic's ``timelines.jsonl``, with the checks of
    `load_topic`; the articles are neither read nor checked.
    """
    references = []
    for child in _topic_dirs(root):
        path = child / "timelines.jsonl"
        if not path.is_file():
            raise NotFound(f"missing file: {path}")
        references.append((child.name, _read_references(path)))
    return references


def filter_by_queries(topic: Topic) -> Topic:
    """Keep only sentences containing at least one query token.

    Off by default in the pipeline; how queries constrain the collection is
    deliberately left configurable.  Articles left without sentences are
    dropped.  With no queries the topic is returned unchanged.  Kept
    sentences keep their date mentions, which depend only on the raw text
    and the publication date.
    """
    if not topic.queries:
        return topic
    query_tokens = {tok for q in topic.queries for tok in tokenize(q)}
    articles = []
    for article in topic.articles:
        kept = [
            Sentence(s.article_id, new_index, s.raw, list(s.tokens), list(s.mentions))
            for new_index, s in enumerate(
                s for s in article.sentences if query_tokens.intersection(s.tokens)
            )
        ]
        if kept:
            articles.append(
                Article(article.id, article.publish_date, article.title, kept)
            )
    return Topic(topic.name, articles, topic.queries, topic.reference_timelines)
