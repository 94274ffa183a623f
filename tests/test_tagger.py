"""Tagger grammar: tokenization, span extraction, question scope parsing."""

import numpy as np
import pytest

from tsqa.corpus import SyntheticConfig, generate_synthetic_annotated
from tsqa.intervals import MAX_MONTH, MIN_MONTH, month_index
from tsqa.tagger import (
    DECADE,
    MONTH_POINT,
    OPEN_SINCE,
    OPEN_UNTIL,
    SIGNAL,
    YEAR_POINT,
    YEAR_RANGE,
    parse_question_time,
    tag,
    tokenize,
)


def spans_of(text):
    return tag(tokenize(text))


def only(text):
    spans = [s for s in spans_of(text) if s.kind != SIGNAL]
    assert len(spans) == 1, f"expected one interval span in {text!r}, got {spans}"
    return spans[0]


def test_tokenize_offsets_reconstruct():
    text = 'He played (from 1984-1991), then "retired."'
    for tok in tokenize(text):
        assert text[tok.char_start:tok.char_end] == tok.text


def test_tokenize_splits_dash_ranges():
    texts = [t.text for t in tokenize("1984-1991 and 1984–1991")]
    assert texts == ["1984", "-", "1991", "and", "1984", "–", "1991"]


@pytest.mark.parametrize(
    "text, want",
    [
        (
            '("Hello," she said.)',
            [("(", 0, 1), ('"', 1, 2), ("Hello", 2, 7), (",", 7, 8), ('"', 8, 9), ("she", 10, 13),
             ("said", 14, 18), (".", 18, 19), (")", 19, 20)],
        ),
        (
            "1984–1991, 1949-66",
            [("1984", 0, 4), ("–", 4, 5), ("1991", 5, 9), (",", 9, 10),
             ("1949", 11, 15), ("-", 15, 16), ("66", 16, 18)],
        ),
        (
            "wait ...!? ok",
            [("wait", 0, 4), (".", 5, 6), (".", 6, 7), (".", 7, 8), ("!", 8, 9), ("?", 9, 10),
             ("ok", 11, 13)],
        ),
        (
            "in ١٩٨٤ and ١٩٨٤-١٩٩١",
            [("in", 0, 2), ("١٩٨٤", 3, 7), ("and", 8, 11),
             ("١٩٨٤", 12, 16), ("-", 16, 17), ("١٩٩١", 17, 21)],
        ),
        ("high-66 1984-1", [("high-66", 0, 7), ("1984-1", 8, 14)]),
    ],
    ids=["edge_punctuation", "year_ranges", "all_punctuation", "non_ascii_digits", "dash_not_a_range"],
)
def test_tokenize_edge_chunks(text, want):
    tokens = tokenize(text)
    assert [(t.text, t.char_start, t.char_end) for t in tokens] == want
    for tok in tokens:
        assert text[tok.char_start:tok.char_end] == tok.text


@pytest.mark.parametrize(
    "text, kinds",
    [
        ("moved from", []),
        ("from 1990", [YEAR_POINT]),
        ("from 1990 to", [YEAR_POINT]),
        ("between", []),
        ("Jul", []),
        ("Jul ,", []),
        ("since", [SIGNAL]),
        ("1990 -", [YEAR_POINT]),
    ],
)
def test_tag_lookahead_stops_at_the_end_of_the_text(text, kinds):
    assert [s.kind for s in spans_of(text)] == kinds


def test_bare_year_point():
    # 1987 -> months [23844, 23855]
    span = only("He joined the club in 1987.")
    assert span.kind == YEAR_POINT
    assert (span.interval.start, span.interval.end) == (23844, 23855)


def test_from_to_range():
    # 1966..1972 -> [23592, 23675]
    span = only("From 1966 to 1972 she led the lab.")
    assert span.kind == YEAR_RANGE
    assert (span.interval.start, span.interval.end) == (23592, 23675)


def test_month_point_with_comma():
    # Jul 1996 is a single month: index 1996*12+6 = 23958
    span = only("He signed in Jul, 1996 for a season.")
    assert span.kind == MONTH_POINT
    assert (span.interval.start, span.interval.end) == (23958, 23958)


def test_dash_range_en_dash():
    span = only("Her tenure (1984–1991) was successful.")
    assert span.kind == YEAR_RANGE
    assert (span.interval.start, span.interval.end) == (23808, 23903)


def test_dash_range_two_digit_tail():
    span = only("Warnock's spell 1949-66 at the club.")
    assert span.kind == YEAR_RANGE
    assert span.interval.start == month_index(1949, 1)
    assert span.interval.end == month_index(1966, 12)


def test_between_and_range():
    span = only("Between 1955 and 1960 the mill expanded.")
    assert span.kind == YEAR_RANGE
    assert span.interval.start == month_index(1955, 1)
    assert span.interval.end == month_index(1960, 12)


def test_since_until_open_ends():
    s = only("Since 2001 the festival has grown.")
    assert s.kind == OPEN_SINCE
    assert s.interval.start == month_index(2001, 1)
    assert s.interval.end == MAX_MONTH
    u = only("Until 1945 the route stayed closed.")
    assert u.kind == OPEN_UNTIL
    assert u.interval.start == MIN_MONTH
    assert u.interval.end == month_index(1945, 12)


def test_decade():
    span = only("During the 1980s attendance doubled.")
    assert span.kind == DECADE
    assert span.interval.start == month_index(1980, 1)
    assert span.interval.end == month_index(1989, 12)


def test_range_outranks_point_inside_from_to():
    # the grammar must consume "From 1966 to 1972" as one range, not two
    # bare years
    spans = [s for s in spans_of("From 1966 to 1972.") if s.kind != SIGNAL]
    assert [s.kind for s in spans] == [YEAR_RANGE]


def test_spans_non_overlapping_sorted():
    text = "From 1950 to 1953, then 1960, later 1971-1974 and since 1990."
    spans = spans_of(text)
    for a, b in zip(spans, spans[1:]):
        assert a.tok_end <= b.tok_start


def test_signal_words_tagged():
    spans = spans_of("What team did he play for before that?")
    assert any(s.kind == SIGNAL for s in spans)


def test_non_years_ignored():
    assert spans_of("Car number 0042 drove 12 laps.") == []
    assert spans_of("In 999 the annals say little.") == []


def question_spec(text):
    toks = tokenize(text)
    return parse_question_time(toks, tag(toks))


def test_question_point():
    spec = question_spec("Which team did Neil Warnock play for in 1987?")
    assert spec.kind == "point"
    assert (spec.interval.start, spec.interval.end) == (23844, 23855)


def test_question_range():
    spec = question_spec("Where did Bernard Miller work from 1966 to 1972?")
    assert spec.kind == "range"
    assert (spec.interval.start, spec.interval.end) == (23592, 23675)


def test_question_before_anchor_year():
    spec = question_spec("Which club did he captain before 1990?")
    assert spec.kind == "before"
    assert spec.interval.start == month_index(1990, 1)


def test_question_after_event():
    spec = question_spec("Where did she study after the Second Great Fire?")
    assert spec.kind == "after"
    assert spec.interval is None
    assert spec.event_name == "Second Great Fire"


def test_question_during_event():
    spec = question_spec("Which employer did he serve during the Harbour Strike?")
    assert spec.kind == "during_event"
    assert spec.event_name == "Harbour Strike"


def test_question_first_last():
    assert question_spec("What was the first team he played for?").kind == "first"
    assert question_spec("What was the last position she held?").kind == "last"


def test_question_none():
    spec = question_spec("What team did Obama support?")
    assert spec.kind == "none"
    assert spec.interval is None


def test_generator_annotations_round_trip():
    """Tagger output must reproduce the generator's own span annotations."""
    cfg = SyntheticConfig(n_entities=12, n_relations=2, seed=3)
    train, dev, test, _, annotations = generate_synthetic_annotated(cfg)
    records = train + dev + test
    assert len(records) >= 20
    for record in records:
        expected = {
            (a.char_start, a.char_end, a.start, a.end)
            for a in annotations[record.id]
        }
        toks = tokenize(record.context)
        got = set()
        for span in tag(toks):
            if span.interval is None:
                continue
            got.add((
                toks[span.tok_start].char_start,
                toks[span.tok_end - 1].char_end,
                span.interval.start,
                span.interval.end,
            ))
        assert got == expected, record.context
