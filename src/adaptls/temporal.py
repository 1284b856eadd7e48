"""Rule-based date-mention extraction and candidate-date enumeration.

The recognizer covers a deliberately small, deterministic set of formats:
ISO dates, English month-name dates, CJK numeric dates and a handful of
relative words.  Anything it cannot parse is skipped, never guessed.
"""

from __future__ import annotations

import re
from datetime import date as Date, timedelta
from typing import NamedTuple

from .corpus import LOOKBACK_DAYS, Article, Topic
from .errors import EmptyCorpus

# A month-day mention that lands more than half a year after the anchor is
# assumed to refer to the previous year (news convention).
PARTIAL_FORWARD_DAYS = 183


class DateMention(NamedTuple):
    resolved: Date
    span: tuple[int, int]  # character offsets into the sentence raw text
    kind: str  # "explicit" | "relative" | "partial"


class DateCandidate(NamedTuple):
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

_ISO_RE = re.compile(r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)")
_MDY_RE = re.compile(
    rf"\b({_MONTH_ALT})\.?\s+(\d{{1,2}})\s*,\s*(\d{{4}})\b", re.IGNORECASE
)
_DMY_RE = re.compile(rf"\b(\d{{1,2}})\s+({_MONTH_ALT})\.?\s+(\d{{4}})\b", re.IGNORECASE)
_CJK_RE = re.compile(r"(\d{4})年(\d{1,2})月(\d{1,2})日")
# A month and day without a year, "3月5日"; no digit may precede the month.
_CJK_MD_RE = re.compile(r"(?<!\d)(\d{1,2})月(\d{1,2})日")
_REL_RE = re.compile(r"\b(today|yesterday|tomorrow)\b|(今天|昨天|明天)", re.IGNORECASE)
_MD_RE = re.compile(rf"\b({_MONTH_ALT})\.?\s+(\d{{1,2}})\b", re.IGNORECASE)
_DIGIT_RE = re.compile(r"\d")
# A maximal digit run.  Not r"\d+": a pattern that starts with a character
# class lets the regex engine skip ahead to the next digit.
_DIGITS_RE = re.compile(r"\d\d*")
_LONGEST_MONTH = max(map(len, _MONTHS))

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


def _month_start(text: str, day_start: int) -> int:
    """Where the month name of a "March 5" whose day starts at `day_start` must start.

    Steps back over the whitespace before the day, an optional "." and at
    most as many letters (`str.isalpha`) as the longest month name; the
    match at the returned position decides whether a month name is there.
    Every character that IGNORECASE matches to a letter of a month name is
    a letter, so the step-back cannot stop inside one.
    """
    end = day_start - 1
    while end and text[end - 1].isspace():
        end -= 1
    if end and text[end - 1] == ".":
        end -= 1
    start = end
    while start and end - start < _LONGEST_MONTH and text[start - 1].isalpha():
        start -= 1
    return start


def _matches(raw: str, anchor: Date) -> list:
    """(span, resolved, kind, priority) of every pattern match in `raw`.

    The relative words are searched only if the sentence holds one of them:
    "ſ" is the one character that IGNORECASE matches to one of their letters
    and that does not lower to it, and it can stand only for the "s" of
    "yesterday", outside "terday".  Every other form holds a maximal digit
    run at a fixed place, so each run is tried in place (`match` at one
    position, never a scan of the sentence):

    - a 4-digit run followed by "-" is the year of an ISO date;
    - the last 4 digits of a run followed by "年" are the year of a
      `2011年3月11日`, the one form whose match may start inside a run;
    - a 1-2-digit run followed by "月" is the month of a `3月5日`;
    - a 1-2-digit run with no word character (`isalnum` or "_") before it
      and whitespace after it is the day of a "5 March 2021";
    - a 1-2-digit run with whitespace before it and no word character after
      it is the day of a "March 5" or "March 5, 2021", whose month name is
      the word before that whitespace and an optional ".".

    No match of a pattern starts inside another match of it, so these are
    exactly the matches a scan of the whole sentence with `finditer` finds.
    """
    matches = []
    low = raw.lower()
    if "today" in low or "terday" in low or "tomorrow" in low or "天" in raw:
        for m in _REL_RE.finditer(raw):
            offset = _lookup(_REL_OFFSETS, m.group())
            matches.append((m.span(), anchor + timedelta(days=offset), "relative", 2))
    first = _DIGIT_RE.search(raw)
    if first is None:
        return matches
    for run in _DIGITS_RE.finditer(raw, first.start()):
        start, end = run.span()
        after = raw[end : end + 1]
        if end - start > 2:
            if after == "-" and end - start == 4:
                m, priority = _ISO_RE.match(raw, start), 0
            elif after == "年" and end - start >= 4:
                m, priority = _CJK_RE.match(raw, end - 4), 1
            else:
                continue
            if m:
                resolved = _safe_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
                if resolved:
                    matches.append((m.span(), resolved, "explicit", priority))
            continue
        if after == "月":
            m = _CJK_MD_RE.match(raw, start)
            if m:
                resolved = _resolve_partial(int(m.group(1)), int(m.group(2)), anchor)
                if resolved:
                    matches.append((m.span(), resolved, "partial", 3))
            continue
        before = raw[start - 1 : start]
        if not (before.isalnum() or before == "_") and after.isspace():
            m = _DMY_RE.match(raw, start)
            if m:
                month = _lookup(_MONTHS, m.group(2))
                resolved = _safe_date(int(m.group(3)), month, int(m.group(1)))
                if resolved:
                    matches.append((m.span(), resolved, "explicit", 1))
        if not before.isspace() or after.isalnum() or after == "_":
            continue
        month_start = _month_start(raw, start)
        m = _MD_RE.match(raw, month_start)
        if m is None:
            continue
        month = _lookup(_MONTHS, m.group(1))
        resolved = _resolve_partial(month, int(m.group(2)), anchor)
        if resolved:
            matches.append((m.span(), resolved, "partial", 3))
        m = _MDY_RE.match(raw, month_start)
        if m:
            resolved = _safe_date(int(m.group(3)), month, int(m.group(2)))
            if resolved:
                matches.append((m.span(), resolved, "explicit", 1))
    return matches


def _rank(match) -> tuple:
    """Longest first, then by priority, then leftmost."""
    (start, end), _, _, priority = match
    return start - end, priority, start


def _mentions(matches: list) -> list[DateMention]:
    """The mentions of a sentence's matches, longest match first on overlaps.

    So "March 20, 2021" wins over the partial "March 20" inside it.  No two
    patterns can match the same span, so the order of the matches does not
    change the ranking, and a single match needs none.
    """
    if len(matches) == 1:
        span, resolved, kind, _ = matches[0]
        return [DateMention(resolved, span, kind)]
    matches.sort(key=_rank)
    taken = []
    for match in matches:
        start, end = match[0]
        for other in taken:
            if start < other[0][1] and other[0][0] < end:
                break
        else:
            taken.append(match)
    taken.sort()
    return [DateMention(resolved, span, kind) for span, resolved, kind, _ in taken]


def extract_date_mentions(sentence_raw: str, anchor: Date) -> list[DateMention]:
    """Extract date mentions from one sentence, resolved against `anchor`."""
    matches = _matches(sentence_raw, anchor)
    return _mentions(matches) if matches else []


def annotate_topic(topic: Topic) -> Topic:
    """Fill sentence.mentions for every sentence of the topic, in place."""
    for article in topic.articles:
        anchor = article.publish_date
        for sentence in article.sentences:
            sentence.mentions = extract_date_mentions(sentence.raw, anchor)
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
