"""Rule-based temporal expression tagging.

A small deterministic grammar over whitespace tokens replaces the usual
NER dependency: explicit years, month-year points, year ranges, decades,
open-ended since/until phrases, and bare signal words (before, after,
during, first, last, ...).  Tagged spans drive both the temporal masks
and the question time-scope parser.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .intervals import (
    MAX_MONTH,
    MAX_YEAR,
    MIN_MONTH,
    MIN_YEAR,
    MonthInterval,
    month_index,
    year_span,
)

# Span kinds.
YEAR_POINT = "year_point"
MONTH_POINT = "month_point"
YEAR_RANGE = "year_range"
DECADE = "decade"
OPEN_SINCE = "open_since"
OPEN_UNTIL = "open_until"
SIGNAL = "signal"

SPAN_KINDS = frozenset(
    {YEAR_POINT, MONTH_POINT, YEAR_RANGE, DECADE, OPEN_SINCE, OPEN_UNTIL, SIGNAL}
)

SIGNAL_WORDS = frozenset(
    {"before", "after", "during", "first", "last", "until", "since", "simultaneous"}
)

_PUNCT = set(string.punctuation) | {"–", "—", "‘", "’", "“", "”", "…"}
_DASHES = {"-", "–", "—"}
_CHUNK = re.compile(r"\S+")
_RANGE_CORE = re.compile(r"^(\d{4})([-–—])(\d{2}|\d{4})$")
_FOUR_DIGITS = re.compile(r"\d{4}")
_TWO_DIGITS = re.compile(r"\d{2}")
_DECADE = re.compile(r"(\d{3}0)s")

_MONTH_NAMES = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}


class Token(NamedTuple):
    """One token and its character offsets; a named tuple because the
    tokenizer builds one per word, and a tuple is the cheapest immutable
    record to construct."""

    text: str
    char_start: int
    char_end: int


@dataclass(frozen=True)
class TemporalSpan:
    """Token span [tok_start, tok_end) with a kind and, unless it is a bare
    signal word, a concrete month interval."""

    tok_start: int
    tok_end: int
    kind: str
    interval: Optional[MonthInterval]

    def __post_init__(self) -> None:
        if self.kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {self.kind!r}")
        if self.tok_start >= self.tok_end:
            raise ValueError("empty token span")
        if self.kind == SIGNAL:
            if self.interval is not None:
                raise ValueError("signal spans carry no interval")
        else:
            if self.interval is None:
                raise ValueError(f"{self.kind} span requires an interval")


def tokenize(text: str) -> list[Token]:
    """Whitespace tokenization with leading/trailing punctuation split off.

    Year-range glyphs are the one internal split: "1984-1991" (any dash)
    becomes three tokens so the range grammar can see both years.  Each
    token satisfies text[char_start:char_end] == token.text.
    """
    tokens: list[Token] = []
    for m in _CHUNK.finditer(text):
        chunk, (base, stop) = m.group(), m.span()
        # Most chunks are one plain word: no edge punctuation, and too
        # short, too long or dashless for a year range.
        if (
            chunk[0] not in _PUNCT
            and chunk[-1] not in _PUNCT
            and not (len(chunk) in (7, 9) and chunk[4] in _DASHES)
        ):
            tokens.append(Token(chunk, base, stop))
            continue
        i, j = 0, len(chunk)
        lead: list[tuple[str, int]] = []
        trail: list[tuple[str, int]] = []
        while i < j and chunk[i] in _PUNCT:
            lead.append((chunk[i], base + i))
            i += 1
        while j > i and chunk[j - 1] in _PUNCT:
            trail.append((chunk[j - 1], base + j - 1))
            j -= 1
        for piece, pos in lead:
            tokens.append(Token(piece, pos, pos + 1))
        core = chunk[i:j]
        if core:
            rng = _RANGE_CORE.match(core)
            if rng:
                a, dash, b = rng.group(1), rng.group(2), rng.group(3)
                tokens.append(Token(a, base + i, base + i + len(a)))
                dpos = base + i + len(a)
                tokens.append(Token(dash, dpos, dpos + 1))
                tokens.append(Token(b, dpos + 1, dpos + 1 + len(b)))
            else:
                tokens.append(Token(core, base + i, base + j))
        for piece, pos in reversed(trail):
            tokens.append(Token(piece, pos, pos + 1))
    return tokens


def _year(text: str) -> Optional[int]:
    """The year a four-digit token names, if it lies in the supported range."""
    if _FOUR_DIGITS.fullmatch(text):
        y = int(text)
        if MIN_YEAR <= y <= MAX_YEAR:
            return y
    return None


def _range_tail(head: int, text: str) -> Optional[int]:
    """Second year of a dash range; two-digit tails take the head's century."""
    if _FOUR_DIGITS.fullmatch(text):
        y = int(text)
        return y if MIN_YEAR <= y <= MAX_YEAR else None
    if _TWO_DIGITS.fullmatch(text):
        return (head // 100) * 100 + int(text)
    return None


# Lookahead of the grammar: "from Y to Y" reads three tokens past its first.
_LOOKAHEAD = 3


def tag(tokens: Sequence[Token]) -> list[TemporalSpan]:
    """Longest-match left-to-right pass producing non-overlapping spans."""
    spans: list[TemporalSpan] = []
    n = len(tokens)
    texts = [t.text for t in tokens]
    # Lower-cased text and year of every token, padded past the end with
    # what an absent token reads as.  Only four-character tokens can be years.
    low = [t.lower() for t in texts] + [""] * _LOOKAHEAD
    year = [_year(t) if len(t) == 4 else None for t in texts] + [None] * _LOOKAHEAD
    i = 0
    while i < n:
        word = low[i]
        # from Y to Y / between Y and Y: span covers the two years and
        # whatever sits between them.
        if word in ("from", "between"):
            joiner = "to" if word == "from" else "and"
            y1, y2 = year[i + 1], year[i + 3]
            if y1 is not None and y2 is not None and low[i + 2] == joiner and y1 <= y2:
                spans.append(TemporalSpan(i + 1, i + 4, YEAR_RANGE, year_span(y1, y2)))
                i += 4
                continue
        # Y <dash> Y, with two-digit tail support ("1949-66").
        y1 = year[i]
        if y1 is not None and i + 2 < n and texts[i + 1] in _DASHES:
            y2 = _range_tail(y1, texts[i + 2])
            if y2 is not None and y1 <= y2:
                spans.append(TemporalSpan(i, i + 3, YEAR_RANGE, year_span(y1, y2)))
                i += 3
                continue
        # Month-name points: "Jul 1996", "Jul, 1996", "July. 1996".
        mo = _MONTH_NAMES.get(word)
        if mo is not None:
            if year[i + 1] is not None:
                idx = month_index(year[i + 1], mo)
                spans.append(TemporalSpan(i, i + 2, MONTH_POINT, MonthInterval(idx, idx)))
                i += 2
                continue
            if low[i + 1] in (",", ".") and year[i + 2] is not None:
                idx = month_index(year[i + 2], mo)
                spans.append(TemporalSpan(i, i + 3, MONTH_POINT, MonthInterval(idx, idx)))
                i += 3
                continue
        # since Y / until Y open ranges; bare since/until fall through to
        # the signal rule.
        if word == "since" and year[i + 1] is not None:
            iv = MonthInterval(month_index(year[i + 1], 1), MAX_MONTH)
            spans.append(TemporalSpan(i, i + 2, OPEN_SINCE, iv))
            i += 2
            continue
        if word == "until" and year[i + 1] is not None:
            iv = MonthInterval(MIN_MONTH, month_index(year[i + 1], 12))
            spans.append(TemporalSpan(i, i + 2, OPEN_UNTIL, iv))
            i += 2
            continue
        # Decades: "1980s".
        dm = _DECADE.fullmatch(texts[i]) if len(texts[i]) == 5 else None
        if dm and MIN_YEAR <= int(dm.group(1)) <= MAX_YEAR - 9:
            d0 = int(dm.group(1))
            spans.append(TemporalSpan(i, i + 1, DECADE, year_span(d0, d0 + 9)))
            i += 1
            continue
        # Bare year.
        if y1 is not None:
            spans.append(TemporalSpan(i, i + 1, YEAR_POINT, year_span(y1, y1)))
            i += 1
            continue
        if word in SIGNAL_WORDS:
            spans.append(TemporalSpan(i, i + 1, SIGNAL, None))
            i += 1
            continue
        i += 1
    return spans


# ---------------------------------------------------------------------------
# Question time-scope parsing.

_PHRASE_STOP = {"?", ".", ",", ";", "!", ":"}
_PHRASE_SKIP = {"the", "a", "an", "with"}


def _event_phrase(tokens: Sequence[Token], start: int, limit: int = 8) -> Optional[str]:
    """Name-like phrase following a signal token, e.g. the X of "during the X"."""
    words: list[str] = []
    for k in range(start, min(len(tokens), start + limit + 2)):
        t = tokens[k].text
        if t in _PHRASE_STOP or all(c in _PUNCT for c in t):
            break
        lowered = t.lower()
        if not words and lowered in _PHRASE_SKIP:
            continue
        if lowered in SIGNAL_WORDS or _year(t) is not None:
            break
        words.append(t)
    return " ".join(words) if words else None


def parse_question_time(tokens: Sequence[Token], spans: Sequence[TemporalSpan]):
    """Derive a question's time scope from its tagged spans.

    before/after signals claim the interval span (or event phrase) that
    follows them, so "before 1990" is an anchored before-question rather
    than a bare point; among plain spans an explicit range outranks an
    explicit point.  Returns a corpus.QuestionTimeSpec.
    """
    from .corpus import QuestionTimeSpec  # local import, avoids a cycle

    interval_spans = [s for s in spans if s.interval is not None]
    signal_at = [(s.tok_start, tokens[s.tok_start].text.lower())
                 for s in spans if s.kind == SIGNAL]

    for pos, word in signal_at:
        if word in ("before", "after"):
            anchor = next((s for s in interval_spans if s.tok_start > pos), None)
            if anchor is not None:
                return QuestionTimeSpec(kind=word, interval=anchor.interval)
            phrase = _event_phrase(tokens, pos + 1)
            if phrase:
                return QuestionTimeSpec(kind=word, event_name=phrase)

    for s in interval_spans:
        if s.kind in (YEAR_RANGE, OPEN_SINCE, OPEN_UNTIL):
            return QuestionTimeSpec(kind="range", interval=s.interval)
    for s in interval_spans:
        if s.kind in (YEAR_POINT, MONTH_POINT, DECADE):
            return QuestionTimeSpec(kind="point", interval=s.interval)

    for pos, word in signal_at:
        if word in ("during", "simultaneous"):
            phrase = _event_phrase(tokens, pos + 1)
            if phrase:
                return QuestionTimeSpec(kind="during_event", event_name=phrase)
    for pos, word in signal_at:
        if word in ("first", "last"):
            return QuestionTimeSpec(kind=word)
    return QuestionTimeSpec(kind="none")
