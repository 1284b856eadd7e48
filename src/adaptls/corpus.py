"""Data model, dataset ingestion, sentence splitting and tokenization.

A dataset is a directory with one sub-directory per topic; each topic
directory holds ``articles.jsonl``, ``timelines.jsonl`` and an optional
``keywords.json`` (see the README for the exact schema).  `read_json` and
`read_jsonl` read every JSON input of the package, config, regressor and
prediction files included.
"""

from __future__ import annotations

import json
import re
from datetime import date as Date, timedelta
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DateError, EmptyReference, NotFound, ParseError

if TYPE_CHECKING:
    from .temporal import DateMention


# Mentions further back than this from the earliest publication date are
# treated as garbage (OCR noise, historical asides) and dropped.
LOOKBACK_DAYS = 3650

# The most days that date arithmetic steps past a date of a topic's mention
# window: a relative word ("tomorrow") steps one day, and the date features
# count mentions up to seven days around a candidate date.
STEP_DAYS = 7

# Publication dates leave room in the calendar for that arithmetic.
EARLIEST_PUBLISH_DATE = Date.min + timedelta(days=LOOKBACK_DAYS + STEP_DAYS)
LATEST_PUBLISH_DATE = Date.max - timedelta(days=STEP_DAYS)


# ---------------------------------------------------------------------------
# domain types


class _Record:
    """Equality, repr and pickles over a subclass's `_fields`, as a dataclass has them.

    A pickle rebuilds the record by calling its class with `_args()`, which
    are the fields' values unless the subclass says otherwise.
    """

    __slots__ = ()
    __hash__ = None  # mutable, as a dataclass with eq
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _args(self) -> tuple:
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({pairs})"

    def __reduce__(self):
        return type(self), self._args()


class Sentence(_Record):
    """One sentence of an article: raw text, tokens and date mentions.

    `tokens` are the ones given (pretokenized input) or else `tokenize(raw)`,
    computed on first read and kept.  Equality and repr see the tokens'
    value, never whether they were computed yet; a pickle holds only given
    tokens.
    """

    __slots__ = ("raw", "mentions", "_given", "_tokens")
    _fields = ("raw", "tokens", "mentions")

    def __init__(
        self,
        raw: str,
        tokens: list[str] | None = None,
        mentions: list["DateMention"] | None = None,
    ):
        self.raw = raw
        self.mentions = [] if mentions is None else mentions
        self._given = self._tokens = tokens

    @property
    def tokens(self) -> list[str]:
        if self._tokens is None:
            self._tokens = tokenize(self.raw)
        return self._tokens

    def _args(self) -> tuple:
        return self.raw, self._given, self.mentions


class Article(NamedTuple):
    id: str
    publish_date: Date
    title: str
    sentences: list[Sentence]


class Timeline(_Record):
    """An ordered list of (date, summary sentences) entries.

    Entries are sorted ascending on construction; duplicate dates or empty
    daily summaries are rejected.
    """

    _fields = __slots__ = ("name", "entries")

    def __init__(self, name: str, entries: list[tuple[Date, list[str]]]):
        self.name = name
        self.entries = sorted(entries, key=lambda e: e[0])
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


class Topic(_Record):
    _fields = __slots__ = ("name", "articles", "queries", "reference_timelines")

    def __init__(
        self,
        name: str,
        articles: list[Article],
        queries: list[str] | None = None,
        reference_timelines: list[Timeline] | None = None,
    ):
        self.name = name
        self.articles = articles
        self.queries = [] if queries is None else queries
        self.reference_timelines = [] if reference_timelines is None else reference_timelines

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
# the running Python leave unassigned, as the character loop did.  Only
# non-ASCII sentences need it, so `re` compiles it on first use.
_TOKEN_PATTERN = r"[^\W_一-鿿㐀-䶿]+|(?=\w)[一-鿿㐀-䶿]"

_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)

# On ASCII the token characters are the letters and digits: lowercase the
# letters and turn every other character into a space.
_ASCII_TOKENS = {
    code: chr(code).lower() if chr(code).isalnum() else " " for code in range(128)
}


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
    if sentence.isascii():
        return sentence.translate(_ASCII_TOKENS).split()
    return re.findall(_TOKEN_PATTERN, sentence.translate(_ASCII_LOWER))


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
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


# The escape of a UTF-16 surrogate.  Only text holding one can decode to a
# lone surrogate, which UTF-8 cannot encode, so other text skips that check.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _decode(text: str, where: str) -> dict:
    """The JSON object in `text`, decoded with surrogateescape; else ParseError naming `where`."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # an escaped byte that is not UTF-8
            byte = ord(text[exc.start]) - 0xDC00
            raise ParseError(f"{where}: not UTF-8: byte 0x{byte:02x}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also too many digits
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if _SURROGATE_ESCAPE_RE.search(text):
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{where}: lone surrogate escape in a string") from exc
    return obj


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file.

    Bytes that are not UTF-8, invalid JSON (nesting too deep or an integer
    too long included), a value other than an object, or a string that
    UTF-8 cannot encode raise ParseError naming the file.
    """
    path = Path(path)
    return _decode(path.read_text(encoding="utf-8", errors="surrogateescape"), str(path))


def read_jsonl(path):
    """Yield ``(where, object)`` for each non-blank line of a UTF-8 JSON-lines file.

    `where` is ``"{path}:{line}"``; each line is checked as by `read_json`.
    """
    path = Path(path)
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.strip():
                where = f"{path}:{line_number}"
                yield where, _decode(line, where)


def _article_from_obj(obj: dict, where: str) -> Article:
    for key in ("id", "publish_date", "title", "text"):
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}")
    for key in ("title", "text"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{where}: {key!r} must be a string")
    publish_date = _parse_date(obj["publish_date"], where)
    if not EARLIEST_PUBLISH_DATE <= publish_date <= LATEST_PUBLISH_DATE:
        raise ParseError(
            f"{where}: publish_date {publish_date.isoformat()} is outside "
            f"{EARLIEST_PUBLISH_DATE.isoformat()}..{LATEST_PUBLISH_DATE.isoformat()}"
        )
    pretokenized = obj.get("pretokenized")
    if pretokenized is not None:
        if not (isinstance(pretokenized, list) and all(map(_is_str_list, pretokenized))):
            raise ParseError(f"{where}: 'pretokenized' must be a list of lists of strings")
        raws = sentence_split(obj["text"])
        if len(raws) != len(pretokenized):
            # The raw text does not line up with the supplied token lists;
            # fall back to reconstructing raws from the tokens, and drop
            # each token list whose raw would be blank.
            pretokenized = [toks for toks in pretokenized if " ".join(toks).strip()]
            raws = [" ".join(toks) for toks in pretokenized]
        sentences = list(map(Sentence, raws, pretokenized))
    else:
        sentences = list(map(Sentence, sentence_split(obj["text"])))
    return Article(str(obj["id"]), publish_date, obj["title"], sentences)


def timeline_from_obj(obj: dict, where: str, default_name: str | None = None) -> Timeline:
    """Parse one timeline object, ``{"name", "entries": [{"date", "summary"}]}``.

    `where` prefixes every error message.  Without `default_name` the object
    must carry a name.  Raises ParseError (or DateError) on malformed input.
    """

    def fail(message: str) -> ParseError:
        return ParseError(f"{where}: {message}")

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
    for where, obj in read_jsonl(path):
        timeline = timeline_from_obj(obj, where)
        if not timeline.entries:
            raise EmptyReference(f"{where}: reference timeline {timeline.name!r} is empty")
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
    for where, obj in read_jsonl(articles_path):
        article = _article_from_obj(obj, where)
        if article.id in seen_ids:
            raise ParseError(f"{where}: duplicate article id {article.id!r}")
        seen_ids.add(article.id)
        articles.append(article)

    timelines = _read_references(timelines_path)

    queries: list[str] = []
    keywords_path = dir_path / "keywords.json"
    if keywords_path.is_file():
        queries = read_json(keywords_path).get("queries", [])
        if not _is_str_list(queries):
            raise ParseError(f'{keywords_path}: expected {{"queries": [strings]}}')

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
    dropped.  With no queries the topic is returned unchanged.  The kept
    sentences are the topic's own, with their date mentions, which depend
    only on the raw text and the publication date.
    """
    if not topic.queries:
        return topic
    query_tokens = {tok for q in topic.queries for tok in tokenize(q)}
    articles = []
    for article in topic.articles:
        kept = [s for s in article.sentences if query_tokens.intersection(s.tokens)]
        if kept:
            articles.append(
                Article(article.id, article.publish_date, article.title, kept)
            )
    return Topic(topic.name, articles, topic.queries, topic.reference_timelines)
