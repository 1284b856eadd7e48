"""Reference text loops: the character-by-character splitter and tokenizer
and the date scan that runs every pattern on every sentence.

This is the original, deliberately naive formulation of
`adaptls.corpus.sentence_split`, `adaptls.corpus.tokenize` and
`adaptls.temporal.extract_date_mentions`, so the tests can hold the
regex passes and the digit gate to it.  Month names and relative words are
looked up with `adaptls.temporal._lookup`, which the tests check on its own.
"""

import re
from datetime import timedelta

from adaptls.corpus import _ASCII_LOWER
from adaptls.temporal import (
    DateMention,
    _CJK_RE,
    _DMY_RE,
    _ISO_RE,
    _MD_RE,
    _MDY_RE,
    _MONTHS,
    _REL_OFFSETS,
    _REL_RE,
    _lookup,
    _resolve_partial,
    _safe_date,
)

_TERMINATORS = ".!?。！？"

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _is_cjk(ch: str) -> bool:
    return "一" <= ch <= "鿿" or "㐀" <= ch <= "䶿"


def sentence_split(text: str) -> list[str]:
    if not text:
        return []
    sentences = []
    start = 0
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS:
            continue
        rest = text[i + 1 :]
        stripped = rest.lstrip()
        if rest and not rest[0].isspace():
            continue
        if ch == "." and stripped and not stripped[0].isupper():
            continue
        piece = text[start : i + 1].strip()
        if piece:
            sentences.append(piece)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    tokens: list[str] = []
    for match in _WORD_RE.finditer(sentence):
        run = match.group()
        buf = []
        for ch in run:
            if _is_cjk(ch):
                if buf:
                    tokens.append("".join(buf).translate(_ASCII_LOWER))
                    buf = []
                tokens.append(ch)
            else:
                buf.append(ch)
        if buf:
            tokens.append("".join(buf).translate(_ASCII_LOWER))
    return tokens


def _scan(sentence_raw, anchor):
    for m in _ISO_RE.finditer(sentence_raw):
        resolved = _safe_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        if resolved:
            yield m.span(), resolved, "explicit", 0
    for m in _MDY_RE.finditer(sentence_raw):
        month = _lookup(_MONTHS, m.group(1))
        resolved = _safe_date(int(m.group(3)), month, int(m.group(2)))
        if resolved:
            yield m.span(), resolved, "explicit", 1
    for m in _DMY_RE.finditer(sentence_raw):
        month = _lookup(_MONTHS, m.group(2))
        resolved = _safe_date(int(m.group(3)), month, int(m.group(1)))
        if resolved:
            yield m.span(), resolved, "explicit", 1
    for m in _CJK_RE.finditer(sentence_raw):
        resolved = _safe_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        if resolved:
            yield m.span(), resolved, "explicit", 1
    for m in _REL_RE.finditer(sentence_raw):
        offset = _lookup(_REL_OFFSETS, m.group())
        yield m.span(), anchor + timedelta(days=offset), "relative", 2
    for m in _MD_RE.finditer(sentence_raw):
        month = _lookup(_MONTHS, m.group(1))
        resolved = _resolve_partial(month, int(m.group(2)), anchor)
        if resolved:
            yield m.span(), resolved, "partial", 3


def extract_date_mentions(sentence_raw, anchor) -> list[DateMention]:
    matches = sorted(
        _scan(sentence_raw, anchor),
        key=lambda item: (-(item[0][1] - item[0][0]), item[3], item[0][0]),
    )
    taken = []
    for span, resolved, kind, _ in matches:
        if any(span[0] < t_end and t_start < span[1] for (t_start, t_end), _, _ in taken):
            continue
        taken.append((span, resolved, kind))
    taken.sort(key=lambda item: item[0])
    return [DateMention(resolved, span, kind) for span, resolved, kind in taken]
