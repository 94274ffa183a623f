"""Rule-based temporal expression tagging.

A small deterministic grammar over tokens replaces the usual NER
dependency: explicit years, month-year points, year ranges, decades,
open-ended since/until phrases, and bare signal words (before, after,
during, first, last, ...).  Tagged spans drive both the temporal masks
and the question time-scope parser.

One regex, `_TOKEN`, is the tokenizer: `tokenize` gives its matches as
`Token`s with character offsets, and `words` gives the same token texts as
plain strings, which is all that tagging, masking and encoding read.
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
_FOUR_DIGITS = re.compile(r"\d{4}")
_TWO_DIGITS = re.compile(r"\d{2}")
_DECADE = re.compile(r"(\d{3}0)s")

# The tokenizer.  A token is one punctuation character, or a run of other
# non-space characters from the first to the last that is not punctuation,
# so edge punctuation splits off one character at a time.  The one split
# inside a word is a year range ("1984-1991", "1949-66", any dash) that is
# all of its whitespace chunk but edge punctuation: the first year is a
# token of its own, and the dash and the second year follow as usual.
_P = "".join(re.escape(c) for c in sorted(_PUNCT))
_TOKEN = re.compile(
    rf"\d{{4}}(?=[-–—](?:\d{{2}}|\d{{4}})[{_P}]*(?:\s|\Z))"  # a range's first year
    rf"|[{_P}]"  # one punctuation character
    rf"|[^\s{_P}](?:\S*[^\s{_P}])?"  # a word, inner punctuation kept
)

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
    """The tokens of `text` with their character offsets: whitespace
    chunks with edge punctuation split off one character at a time, and a
    year range ("1984-1991", any dash) split into year, dash and year so
    the range grammar sees both years.  Each token satisfies
    text[char_start:char_end] == token.text.  `words` gives the same
    texts without offsets."""
    return [Token(m.group(), *m.span()) for m in _TOKEN.finditer(text)]


# The token texts of `tokenize`, as plain strings.
words = _TOKEN.findall


def _year(text: str) -> Optional[int]:
    """The year a four-digit token names, if it lies in the supported range."""
    if len(text) == 4 and _FOUR_DIGITS.fullmatch(text):
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


# Lower-cased words that can start a span besides years and decades: month
# names, the range heads, and the signal words (since and until among them).
_TRIGGERS = frozenset(_MONTH_NAMES) | {"from", "between"} | SIGNAL_WORDS


def tag(tokens: Sequence[Token | str], low: Optional[Sequence[str]] = None) -> list[TemporalSpan]:
    """Longest-match left-to-right pass producing non-overlapping spans.

    `tokens` are all `Token`s or all token texts; `low`, if given, holds
    their lower-cased texts.  Only a trigger token can start a span: a
    year, a decade, a month name, from/between/since/until or a signal
    word.  So the pass jumps from one trigger to the next, skipping those
    that an earlier span covers.
    """
    texts = [t.text for t in tokens] if tokens and not isinstance(tokens[0], str) else tokens
    if low is None:
        low = [t.lower() for t in texts]
    n = len(texts)

    def year_at(j: int) -> Optional[int]:
        return _year(texts[j]) if j < n else None

    spans: list[TemporalSpan] = []
    end = 0  # tokens before `end` lie inside a span
    # A year's or decade's first character is a digit, also lower-cased.
    for i in [i for i, w in enumerate(low) if w in _TRIGGERS or w[:1].isdecimal()]:
        if i < end:
            continue
        word, text = low[i], texts[i]
        # from Y to Y / between Y and Y: span covers the two years and
        # whatever sits between them.
        if word in ("from", "between") and i + 3 < n:
            y1, y2 = year_at(i + 1), year_at(i + 3)
            joiner = "to" if word == "from" else "and"
            if y1 is not None and y2 is not None and low[i + 2] == joiner and y1 <= y2:
                spans.append(TemporalSpan(i + 1, i + 4, YEAR_RANGE, year_span(y1, y2)))
                end = i + 4
                continue
        # Y <dash> Y, with two-digit tail support ("1949-66").
        y1 = _year(text)
        if y1 is not None and i + 2 < n and texts[i + 1] in _DASHES:
            y2 = _range_tail(y1, texts[i + 2])
            if y2 is not None and y1 <= y2:
                spans.append(TemporalSpan(i, i + 3, YEAR_RANGE, year_span(y1, y2)))
                end = i + 3
                continue
        # Month-name points: "Jul 1996", "Jul, 1996", "July. 1996".
        mo = _MONTH_NAMES.get(word)
        if mo is not None:
            y = year_at(i + 1)
            if y is not None:
                idx = month_index(y, mo)
                spans.append(TemporalSpan(i, i + 2, MONTH_POINT, MonthInterval(idx, idx)))
                end = i + 2
                continue
            y = year_at(i + 2)
            if y is not None and low[i + 1] in (",", "."):
                idx = month_index(y, mo)
                spans.append(TemporalSpan(i, i + 3, MONTH_POINT, MonthInterval(idx, idx)))
                end = i + 3
                continue
        # since Y / until Y open ranges; bare since/until fall through to
        # the signal rule.
        if word in ("since", "until"):
            y = year_at(i + 1)
            if y is not None:
                if word == "since":
                    kind, iv = OPEN_SINCE, MonthInterval(month_index(y, 1), MAX_MONTH)
                else:
                    kind, iv = OPEN_UNTIL, MonthInterval(MIN_MONTH, month_index(y, 12))
                spans.append(TemporalSpan(i, i + 2, kind, iv))
                end = i + 2
                continue
        # Decades: "1980s".
        dm = _DECADE.fullmatch(text) if len(text) == 5 else None
        if dm and MIN_YEAR <= int(dm.group(1)) <= MAX_YEAR - 9:
            d0 = int(dm.group(1))
            spans.append(TemporalSpan(i, i + 1, DECADE, year_span(d0, d0 + 9)))
            continue
        # Bare year.
        if y1 is not None:
            spans.append(TemporalSpan(i, i + 1, YEAR_POINT, year_span(y1, y1)))
            continue
        if word in SIGNAL_WORDS:
            spans.append(TemporalSpan(i, i + 1, SIGNAL, None))
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
