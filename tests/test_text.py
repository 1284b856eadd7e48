"""The regex splitter and tokenizer and the anchored date scan agree with the
character loops and the ungated scan of `text_oracle`."""

import re
import string
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from adaptls import temporal
from adaptls.corpus import _ASCII_LOWER, sentence_split, tokenize
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
    "2021-03-05", "1999-12-31", "2020-02-30", "2011年3月11日", "3月5日", "12月31日", "13月5日",
    "March 5, 2021", "5 March 2021", "Feb. 29", "dec 25",
    # dates in non-ASCII decimal digits, which \d matches too
    "March ٣", "٢٠٢١-٠٣-٠٥", "٥ May ٢٠٢٠", "２０２１年３月５日",
]

TEXT = st.lists(st.one_of(st.sampled_from(CHARS), st.sampled_from(WORDS)), max_size=30).map(
    "".join
)
ANCHORS = st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31))

# ASCII-only text: month names and relative words in any case, digit runs of
# every width and the ASCII characters that sit around a date.
ASCII_WORDS = [
    "March", "SEPT.", "Sept", "sep.", "mAy", "Dec", "dec.", "JUNE", "jun.", "Feb.", "NoV",
    "ToDaY", "YESTERDAY", "Tomorrow", "today's", "tomorrowland", "to", "day",
    "marching", "mayor", "decade", "Junebug", "octopus", "augur", "Septic", "janitor",
    "0", "1", "5", "9", "12", "20", "31", "2021", "1999", "2021-03-05", "2020-02-30",
    "March 5, 2021", "5 SEPT. 2021", "Dec 31,1999", "30 feb 2020", "mAy 7", "12,",
    "-", ",", ".", " ", "  ", "\t", "\n", "x", "Q", "_",
]


def _mixed_case(word: str):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda up: "".join(c.upper() if u else c for c, u in zip(word, up)))


# Every ASCII whitespace character (\s), in runs as long as a sentence may hold.
ASCII_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f", min_size=1, max_size=12)

ASCII_TOKEN = st.one_of(
    st.sampled_from(ASCII_WORDS),
    # every month name and abbreviation, the longest included
    st.sampled_from(sorted(temporal._MONTHS)),
    # digit runs of every width around the 1-2-digit days and 4-digit years
    st.text(alphabet="0123456789", min_size=1, max_size=5),
).flatmap(lambda word: st.one_of(st.just(word), _mixed_case(word)))

# What follows a token: a whitespace run, or a character that glues it to
# the next token, so that digit runs meet "-", "_", "." and letters.
ASCII_GLUE = st.one_of(ASCII_SPACE, st.sampled_from(["", "-", "_", ".", ",", ". ", " , "]))

ASCII_TEXT = st.lists(st.tuples(ASCII_TOKEN, ASCII_GLUE), max_size=25).map(
    lambda parts: "".join(token + glue for token, glue in parts)
)

# The same tokens glued by non-ASCII characters too: case folds that reach an
# ASCII letter, non-ASCII whitespace, the CJK date characters, non-ASCII
# digits and a CJK date whose year ends a longer digit run.
MIXED_GLUE = st.lists(
    st.one_of(
        ASCII_GLUE,
        st.sampled_from(
            [
                "\u017f", "\u0130", "\u0131", "\u212a", "é", "\u00a0", "\u3000",
                "年", "月", "日", "٣", "９", "天", "今天", "12021年3月5日",
            ]
        ),
    ),
    min_size=1,
    max_size=2,
).map("".join)

MIXED_TEXT = st.lists(st.tuples(ASCII_TOKEN, MIXED_GLUE), max_size=25).map(
    lambda parts: "".join(token + glue for token, glue in parts)
)


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


@settings(max_examples=600)
@given(ASCII_TEXT, ANCHORS)
def test_ascii_date_mentions_match_ungated_scan(text, anchor):
    assert text.isascii()
    assert extract_date_mentions(text, anchor) == text_oracle.extract_date_mentions(text, anchor)


@settings(max_examples=600)
@given(MIXED_TEXT, ANCHORS)
def test_mixed_alphabet_date_mentions_match_ungated_scan(text, anchor):
    assert extract_date_mentions(text, anchor) == text_oracle.extract_date_mentions(text, anchor)


def test_ascii_lowercase_keeps_length_and_classes():
    # `corpus.tokenize` lowercases an ASCII sentence with str.lower in place
    # of the ASCII-only table, and splits the result with a regex, so on
    # ASCII str.lower must be that table and keep each character's \w, \d
    # and \s class.  IGNORECASE matches an ASCII character to a letter only
    # when it lowers to that letter.
    classes = [re.compile(r"\w"), re.compile(r"\d"), re.compile(r"\s")]
    for ch in map(chr, range(128)):
        low = ch.lower()
        assert len(low) == 1 and low.isascii() and low == ch.translate(_ASCII_LOWER)
        assert [bool(c.match(ch)) for c in classes] == [bool(c.match(low)) for c in classes]
        for letter in "abcdefghijklmnopqrstuvwxyz":
            assert bool(re.match(letter, ch, re.IGNORECASE)) == (low == letter)


def test_ignorecase_letters_keep_both_gates():
    # Every code point that IGNORECASE matches to an ASCII letter, and the
    # letters it matches.
    any_letter = re.compile("[a-z]", re.IGNORECASE)
    folds = {
        ch: [letter for letter in string.ascii_lowercase if re.match(letter, ch, re.IGNORECASE)]
        for ch in map(chr, range(0x110000))
        if any_letter.match(ch)
    }
    # The relative-word gate looks for "today", "terday" and "tomorrow" in
    # the lowered sentence: each character that matches one of their letters
    # lowers to it, but for the long s, which stands for the "s" of
    # "yesterday", outside "terday".
    relative = set("".join(filter(str.isascii, temporal._REL_OFFSETS)))
    for ch, letters in folds.items():
        for letter in relative.intersection(letters):
            assert ch.lower() == letter or (ch, letter) == ("\u017f", "s"), ch
    # The month step-back walks over letters only, so it must not stop
    # inside a month name.
    month_letters = set("".join(temporal._MONTHS))
    assert all(ch.isalpha() for ch, letters in folds.items() if month_letters.intersection(letters))


def test_prefilters_pass_every_word():
    for word in filter(str.isascii, temporal._REL_OFFSETS):
        [mention] = extract_date_mentions(f"It was {word.upper()}.", date(2021, 1, 1))
        assert mention.kind == "relative"
    # Each month name is found from the digit run of its day, whatever its
    # length and case and however much whitespace lies between them.
    anchor = date(2021, 9, 10)
    for word in temporal._MONTHS:
        for name in (word, word.upper(), word.title()):
            for text, kind in [
                (f"x\t{name} \t\n  12, 2021", "explicit"),
                (f"({name}.      5)", "partial"),
                (f"On 5\t{name}\x1f2021.", "explicit"),
            ]:
                mentions = extract_date_mentions(text, anchor)
                assert [m.kind for m in mentions] == [kind], text
                assert mentions == text_oracle.extract_date_mentions(text, anchor)


def test_month_day_year_with_spaced_comma():
    # The month-day-year scan runs only where a month-day date matched; here
    # that is "March 5", which the longer explicit date then covers.
    text, anchor = "March 5 , 2021", date(2021, 9, 10)
    mentions = extract_date_mentions(text, anchor)
    assert mentions == text_oracle.extract_date_mentions(text, anchor)
    assert [(m.resolved, m.span, m.kind) for m in mentions] == [(date(2021, 3, 5), (0, 14), "explicit")]


@pytest.mark.parametrize(
    "text, expected",
    [
        # an ISO date at the start of the sentence
        ("2021-03-05, may 5", [((0, 10), date(2021, 3, 5), "explicit"), ((12, 17), date(2021, 5, 5), "partial")]),
        # the day-month-year date is longer than the ISO date it overlaps
        ("2021-03-05 march 2021", [((8, 21), date(2021, 3, 5), "explicit")]),
        # the month-day-year date is longer than the ISO date it overlaps
        ("May 5, 2021-06-07", [((0, 11), date(2021, 5, 5), "explicit")]),
        # the day-month-year date is longer than the month-day date it overlaps
        ("may 5 june 2021", [((4, 15), date(2021, 6, 5), "explicit")]),
        # the month name is 9 letters back from a whitespace run of 6
        ("September      5", [((0, 16), date(2021, 9, 5), "partial")]),
        ("x\tSEPTEMBER \t\n  12, 2021", [((2, 24), date(2021, 9, 12), "explicit")]),
        # a digit run glued to a word, "_", "." or another digit run is no day
        ("May5 may_5 may 5x may 123 5may 2021 may 5_", []),
        ("may 05.2021", [((0, 6), date(2021, 5, 5), "partial")]),
    ],
)
def test_overlapping_and_anchored_dates(text, expected):
    anchor = date(2021, 9, 10)
    mentions = extract_date_mentions(text, anchor)
    assert mentions == text_oracle.extract_date_mentions(text, anchor)
    assert [(m.span, m.resolved, m.kind) for m in mentions] == expected


def test_non_ascii_sentences_take_the_same_anchored_scan():
    # The scan matches the sentence as it is: "İ".lower() is two characters,
    # which would shift every later offset.
    anchor = date(2021, 9, 10)
    cases = {
        "By \u017fept. 5, it was over.": [((3, 10), date(2021, 9, 5), "partial")],
        "Due Apr\u0130l 3, 2021 or ye\u017fterday.": [
            ((4, 17), date(2021, 4, 3), "explicit"),
            ((21, 30), date(2021, 9, 9), "relative"),
        ],
        "Aprİl 3 and 昨天": [
            ((0, 7), date(2021, 4, 3), "partial"),
            ((12, 14), date(2021, 9, 9), "relative"),
        ],
        # the CJK year is the last 4 digits of a longer run
        "12021年3月5日": [((1, 10), date(2021, 3, 5), "explicit")],
        "Sept.\u00a05,\u30002021": [((0, 13), date(2021, 9, 5), "explicit")],
        "5\u3000May\u00a02021": [((0, 10), date(2021, 5, 5), "explicit")],
        "ye\u017fterday": [((0, 9), date(2021, 9, 9), "relative")],
    }
    for text, expected in cases.items():
        assert not text.isascii()
        got = extract_date_mentions(text, anchor)
        assert [(m.span, m.resolved, m.kind) for m in got] == expected
        assert got == text_oracle.extract_date_mentions(text, anchor)


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
