"""The regex splitter and tokenizer and the digit-gated date scan agree with
the character loops and the ungated scan of `text_oracle`."""

import re
from datetime import date, timedelta

from hypothesis import given, settings, strategies as st

from adaptls.corpus import sentence_split, tokenize
from adaptls.temporal import extract_date_mentions
import text_oracle

CHARS = [
    # terminators, ASCII and CJK
    ".", "!", "?", "。", "！", "？",
    # whitespace: ASCII, NBSP, ideographic space, an ASCII separator that counts as space
    " ", "\t", "\n", "\u00a0", "\u3000", "\u001f",
    # ASCII and non-ASCII upper and lower case
    "a", "Z", "q", "É", "é", "Σ", "σ", "İ", "ı",
    # case folds of IGNORECASE: long s and the Kelvin sign
    "\u017f", "\u212a",
    # not a word-token character, although \w matches it
    "_",
    # ASCII and non-ASCII digits
    "0", "1", "2", "5", "9", "٣", "９",
    # CJK range endpoints and their neighbours on both sides
    "一", "鿿", "㐀", "䶿", "䷿", "ꀀ", "㏿", "䷀", "年", "月", "日",
    # punctuation inside words and dates
    "-", ",", "'",
]

WORDS = [
    "U.S.", "e.g.", "Mr.", "a.m.", "No.", "St. Louis",
    "today", "Yesterday", "TOMORROW", "ye\u017fterday", "今天", "昨天", "明天",
    "March", "sept", "Dec.", "may", "June", "5", "20", "31", "2021",
    "2021-03-05", "1999-12-31", "2020-02-30", "2011年3月11日",
    "March 5, 2021", "5 March 2021", "Feb. 29", "dec 25",
    # dates in non-ASCII decimal digits, which \d matches too
    "March ٣", "٢٠٢١-٠٣-٠٥", "٥ May ٢٠٢٠", "２０２１年３月５日",
]

TEXT = st.lists(st.one_of(st.sampled_from(CHARS), st.sampled_from(WORDS)), max_size=30).map(
    "".join
)
ANCHORS = st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31))


@settings(max_examples=400)
@given(TEXT)
def test_sentence_split_matches_character_loop(text):
    assert sentence_split(text) == text_oracle.sentence_split(text)


@settings(max_examples=400)
@given(TEXT)
def test_tokenize_matches_character_loop(text):
    assert tokenize(text) == text_oracle.tokenize(text)


@settings(max_examples=400)
@given(TEXT, ANCHORS)
def test_date_mentions_match_ungated_scan(text, anchor):
    assert extract_date_mentions(text, anchor) == text_oracle.extract_date_mentions(text, anchor)


def test_whitespace_class_matches_isspace():
    # The splitter's regex tests whitespace with \s, the loop with isspace().
    space = re.compile(r"\s")
    assert all(
        bool(space.match(ch)) == ch.isspace() for ch in map(chr, range(0x110000))
    )


def test_cjk_range_endpoints_are_single_tokens():
    assert tokenize("a一b鿿c㐀d䶿e") == ["a", "一", "b", "鿿", "c", "㐀", "d", "䶿", "e"]
    assert tokenize("xꀀy") == ["xꀀy"]  # just past the range: a letter run


def test_non_ascii_digits_pass_the_gate():
    anchor = date(2021, 3, 10)
    got = extract_date_mentions("Since March ٣, on ٢٠٢١-٠٣-٠٥ and ２０２１年３月５日.", anchor)
    assert [(m.resolved, m.kind) for m in got] == [
        (date(2021, 3, 3), "partial"),
        (date(2021, 3, 5), "explicit"),
        (date(2021, 3, 5), "explicit"),
    ]


def test_digit_free_sentence_keeps_relative_mentions():
    anchor = date(2020, 5, 2)
    mentions = extract_date_mentions("Talks resume tomorrow, not March.", anchor)
    assert [m.resolved for m in mentions] == [anchor + timedelta(days=1)]
