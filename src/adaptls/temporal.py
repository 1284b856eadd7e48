"""Rule-based date-mention extraction and candidate-date enumeration.

The recognizer covers a deliberately small, deterministic set of formats:
ISO dates, English month-name dates, CJK numeric dates and a handful of
relative words.  Anything it cannot parse is skipped, never guessed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date as Date, timedelta

from .corpus import LOOKBACK_DAYS, Article, Topic
from .errors import EmptyCorpus

# A month-day mention that lands more than half a year after the anchor is
# assumed to refer to the previous year (news convention).
PARTIAL_FORWARD_DAYS = 183


@dataclass(frozen=True)
class DateMention:
    resolved: Date
    span: tuple[int, int]  # character offsets into the sentence raw text
    kind: str  # "explicit" | "relative" | "partial"


@dataclass(frozen=True)
class DateCandidate:
    date: Date
    mention_count: int
    pub_article_count: int
    pub_sentence_count: int


_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7,
    "aug": 8, "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}

_MONTH_ALT = "|".join(sorted(_MONTHS, key=len, reverse=True))

_MDY = rf"\b({_MONTH_ALT})\.?\s+(\d{{1,2}})\s*,\s*(\d{{4}})\b"
_DMY = rf"\b(\d{{1,2}})\s+({_MONTH_ALT})\.?\s+(\d{{4}})\b"
_MD = rf"\b({_MONTH_ALT})\.?\s+(\d{{1,2}})\b"
_REL_WORDS = r"\b(today|yesterday|tomorrow)\b"

_ISO_RE = re.compile(r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)")
_MDY_RE = re.compile(_MDY, re.IGNORECASE)
_DMY_RE = re.compile(_DMY, re.IGNORECASE)
_CJK_RE = re.compile(r"(\d{4})年(\d{1,2})月(\d{1,2})日")
_REL_RE = re.compile(rf"{_REL_WORDS}|(今天|昨天|明天)", re.IGNORECASE)
_MD_RE = re.compile(_MD, re.IGNORECASE)
_DIGIT_RE = re.compile(r"\d")

# Case-sensitive copies for lowercased ASCII text.  On ASCII text an
# IGNORECASE match is a case-sensitive match of the lowercased text: the
# patterns' letters are all lowercase, lowercasing keeps every offset, and
# \b, \d, \s and \w class each ASCII character as they class its lowercase.
_LOWER_REL_RE = re.compile(_REL_WORDS)
_LOWER_MDY_RE = re.compile(_MDY)
_LOWER_DMY_RE = re.compile(_DMY)
_LOWER_MD_RE = re.compile(_MD)
# Every month name and abbreviation starts with one of these stems.
_MONTH_STEM_RE = re.compile("|".join(sorted({name[:3] for name in _MONTHS})))

_REL_OFFSETS = {
    "today": 0, "yesterday": -1, "tomorrow": 1,
    "今天": 0, "昨天": -1, "明天": 1,
}


def _lookup(table: dict, word: str):
    """`table` entry of a word an IGNORECASE pattern matched.

    That case folding also matches "ſ" to "s" and "İ", "ı" to "i", which
    str.lower does not undo, so such a word is matched against each key.
    """
    value = table.get(word.lower())
    if value is None:
        value = next(v for key, v in table.items() if re.fullmatch(key, word, re.IGNORECASE))
    return value


def _safe_date(year: int, month: int, day: int) -> Date | None:
    try:
        return Date(year, month, day)
    except ValueError:
        return None


def _resolve_partial(month: int, day: int, anchor: Date) -> Date | None:
    resolved = _safe_date(anchor.year, month, day)
    if resolved is None:
        return None
    if (resolved - anchor).days > PARTIAL_FORWARD_DAYS:
        return _safe_date(anchor.year - 1, month, day)
    return resolved


def _scan(sentence_raw: str, anchor: Date):
    """Yield (span, resolved, kind, priority) for every raw pattern match.

    An ASCII sentence is scanned lowercased, with the case-sensitive copies,
    and the CJK forms are skipped.  A pattern is skipped when the text lacks
    a literal that each of its matches holds: a digit for all but the
    relative words, "-" for ISO dates and, in lowercased ASCII text, a
    relative word or a month stem.  Month-day-year dates are searched only
    where a month-day date matched, since each of them starts with one.  No
    two patterns can match the same span, so the order of the scan does not
    change the ranking of the matches.
    """
    is_ascii = sentence_raw.isascii()
    if is_ascii:
        text = sentence_raw.lower()
        rel_re, mdy_re, dmy_re, md_re = _LOWER_REL_RE, _LOWER_MDY_RE, _LOWER_DMY_RE, _LOWER_MD_RE
    else:
        text = sentence_raw
        rel_re, mdy_re, dmy_re, md_re = _REL_RE, _MDY_RE, _DMY_RE, _MD_RE
    if not is_ascii or "today" in text or "yesterday" in text or "tomorrow" in text:
        for m in rel_re.finditer(text):
            offset = _lookup(_REL_OFFSETS, m.group())
            yield m.span(), anchor + timedelta(days=offset), "relative", 2
    if not _DIGIT_RE.search(text):
        return
    if "-" in text:
        for m in _ISO_RE.finditer(text):
            resolved = _safe_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
            if resolved:
                yield m.span(), resolved, "explicit", 0
    if not is_ascii:
        for m in _CJK_RE.finditer(text):
            resolved = _safe_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
            if resolved:
                yield m.span(), resolved, "explicit", 1
    elif not _MONTH_STEM_RE.search(text):
        return
    month_days = list(md_re.finditer(text))
    if month_days:
        for m in mdy_re.finditer(text):
            month = _lookup(_MONTHS, m.group(1))
            resolved = _safe_date(int(m.group(3)), month, int(m.group(2)))
            if resolved:
                yield m.span(), resolved, "explicit", 1
    for m in dmy_re.finditer(text):
        month = _lookup(_MONTHS, m.group(2))
        resolved = _safe_date(int(m.group(3)), month, int(m.group(1)))
        if resolved:
            yield m.span(), resolved, "explicit", 1
    for m in month_days:
        month = _lookup(_MONTHS, m.group(1))
        resolved = _resolve_partial(month, int(m.group(2)), anchor)
        if resolved:
            yield m.span(), resolved, "partial", 3


def extract_date_mentions(sentence_raw: str, anchor: Date) -> list[DateMention]:
    """Extract date mentions from one sentence, resolved against `anchor`.

    Overlapping matches are resolved longest-match-first, so "March 20, 2021"
    wins over the partial "March 20" inside it.  A single match needs no
    ranking.
    """
    matches = list(_scan(sentence_raw, anchor))
    if len(matches) > 1:
        matches.sort(key=lambda item: (-(item[0][1] - item[0][0]), item[3], item[0][0]))
        taken = []
        for match in matches:
            span = match[0]
            if not any(span[0] < t_end and t_start < span[1] for (t_start, t_end), *_ in taken):
                taken.append(match)
        matches = sorted(taken, key=lambda item: item[0])
    return [DateMention(resolved, span, kind) for span, resolved, kind, _ in matches]


def annotate_topic(topic: Topic) -> Topic:
    """Fill sentence.mentions for every sentence of the topic, in place."""
    for article in topic.articles:
        for sentence in article.sentences:
            sentence.mentions = extract_date_mentions(
                sentence.raw, article.publish_date
            )
    return topic


def candidate_dates(
    topic: Topic, articles: list[Article] | None = None
) -> list[DateCandidate]:
    """Enumerate candidate dates from publication dates and date mentions.

    Counts run over `articles`, all of the topic's by default.  A mention
    counts only inside the whole topic's window [min_pub - LOOKBACK_DAYS,
    max_pub], where every publication date lies, so a subset's candidates
    are candidates of the topic.  Requires annotate_topic to have run.
    """
    if not topic.articles:
        raise EmptyCorpus(f"topic {topic.name!r} has no articles")
    lo = topic.min_pub - timedelta(days=LOOKBACK_DAYS)
    hi = topic.max_pub

    pub_articles: dict[Date, int] = {}
    pub_sentences: dict[Date, int] = {}
    mention_counts: dict[Date, int] = {}
    for article in topic.articles if articles is None else articles:
        day = article.publish_date
        pub_articles[day] = pub_articles.get(day, 0) + 1
        pub_sentences[day] = pub_sentences.get(day, 0) + len(article.sentences)
        for sentence in article.sentences:
            for mention in sentence.mentions:
                if lo <= mention.resolved <= hi:
                    mention_counts[mention.resolved] = (
                        mention_counts.get(mention.resolved, 0) + 1
                    )

    dates = sorted(set(pub_articles) | set(mention_counts))
    return [
        DateCandidate(
            date=day,
            mention_count=mention_counts.get(day, 0),
            pub_article_count=pub_articles.get(day, 0),
            pub_sentence_count=pub_sentences.get(day, 0),
        )
        for day in dates
    ]
