"""Interval-keyed fact storage, question resolution, and negative mining.

Facts are (subject, relation, object) triples with a month interval.  The
index answers the facts of a (subject, relation) pair, of a subject and of
an object, and which subjects a token text mentions.  Negative answers for
the contrastive reward come in two granularities: remote (same pair,
disjoint period) and proximal (different pair, overlapping period).  Both
miners read the facts sorted by interval, which the index builds on first
read; only the PPO stage's train records need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .intervals import MAX_MONTH, MIN_MONTH, MonthInterval, format_year_month
from .tagger import Token, words

# Relation name reserved for era/event definitions used by during-event
# questions.
EVENT_RELATION = "event"


class ResolutionError(ValueError):
    """Raised when a question's time scope cannot be grounded."""


@dataclass(frozen=True)
class TimeFact:
    subject: str
    relation: str
    object: str
    start: Optional[int]  # month index, None = open
    end: Optional[int]

    def __post_init__(self) -> None:
        for name in ("subject", "relation", "object"):
            if not getattr(self, name):
                raise ValueError(f"fact field {name!r} must be a non-empty string")
        for bound, month in (("start", self.start), ("end", self.end)):
            if month is not None and not MIN_MONTH <= month <= MAX_MONTH:
                raise ValueError(
                    f"fact ({self.subject}, {self.relation}, {self.object}): "
                    f"{bound} month index {month} outside [{MIN_MONTH}, {MAX_MONTH}]"
                )
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError(
                f"fact ({self.subject}, {self.relation}, {self.object}): "
                f"start {format_year_month(self.start)} after end {format_year_month(self.end)}"
            )

    @cached_property
    def interval(self) -> MonthInterval:
        return MonthInterval(self.start, self.end)

    def to_json_dict(self) -> dict:
        return {
            "s": self.subject,
            "r": self.relation,
            "o": self.object,
            "start": None if self.start is None else format_year_month(self.start),
            "end": None if self.end is None else format_year_month(self.end),
        }


class FactIndex:
    """Deduplicated fact store with pair, subject and object maps.

    What only pair inference and the miners read is built on first read:
    the subject names of each case mode, the relation list, and the facts
    in the miners' order.  An index that only finds candidates and event
    periods, as the one per record of an `index=None` compile does, never
    builds them."""

    def __init__(self, facts: Sequence[TimeFact], names: Optional[dict[str, list[str]]] = None) -> None:
        """`names` memoizes the token texts (`words`) of subject and object names;
        indexes built one per record pass one dict, so a recurring name is split once."""
        self._names = {} if names is None else names
        seen: set[tuple] = set()
        kept: list[TimeFact] = []
        for f in facts:
            key = (f.subject, f.relation, f.object, f.start, f.end)
            if key not in seen:
                seen.add(key)
                kept.append(f)
        self.facts: list[TimeFact] = kept
        self.by_pair: dict[tuple[str, str], list[int]] = {}
        self.by_subject: dict[str, list[int]] = {}
        self.by_object: dict[str, list[int]] = {}
        for i, f in enumerate(kept):
            self.by_pair.setdefault((f.subject, f.relation), []).append(i)
            self.by_subject.setdefault(f.subject, []).append(i)
            self.by_object.setdefault(f.object, []).append(i)
        self._object_tokens: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self.facts)

    @cached_property
    def subjects(self) -> list[str]:
        return sorted(self.by_subject)

    @cached_property
    def relations(self) -> list[str]:
        return sorted({f.relation for f in self.facts if f.relation != EVENT_RELATION})

    @cached_property
    def _miner_order(self) -> tuple[list[TimeFact], np.ndarray, np.ndarray, dict[tuple[str, str], list[int]]]:
        """The facts sorted by (lo, hi, subject, relation, object), ties in
        store order; their lo and hi as arrays, with an event fact's hi at -1
        so that no query overlaps it; and each pair's positions in that order."""
        ordered = sorted(
            self.facts, key=lambda f: (f.interval.lo, f.interval.hi, f.subject, f.relation, f.object)
        )
        lo = np.array([f.interval.lo for f in ordered], dtype=np.int64)
        hi = np.array([-1 if f.relation == EVENT_RELATION else f.interval.hi for f in ordered], dtype=np.int64)
        positions: dict[tuple[str, str], list[int]] = {}
        for p, f in enumerate(ordered):
            positions.setdefault((f.subject, f.relation), []).append(p)
        return ordered, lo, hi, positions

    def pair(self, subject: str, relation: str) -> list[TimeFact]:
        return [self.facts[i] for i in self.by_pair.get((subject, relation), [])]

    def _name_tokens(self, name: str) -> list[str]:
        toks = self._names.get(name)
        if toks is None:
            toks = self._names[name] = words(name)
        return toks

    def object_tokens(self, obj: str) -> list[str]:
        """Lower-cased token texts of a fact object, cached."""
        toks = self._object_tokens.get(obj)
        if toks is None:
            toks = self._object_tokens[obj] = [t.lower() for t in self._name_tokens(obj)]
        return toks

    def _subject_names(self, lower: bool) -> tuple[dict[tuple[str, ...], list[str]], dict[str, set[int]]]:
        """The subjects by their token tuple, and the name lengths under
        each first token; a subject with no tokens is never mentioned."""
        by_name: dict[tuple[str, ...], list[str]] = {}
        lengths: dict[str, set[int]] = {}
        for s in self.subjects:
            toks = tuple(t.lower() for t in self._name_tokens(s)) if lower else tuple(self._name_tokens(s))
            if toks:
                by_name.setdefault(toks, []).append(s)
                lengths.setdefault(toks[0], set()).add(len(toks))
        return by_name, lengths

    @cached_property
    def _cased_names(self) -> tuple[dict[tuple[str, ...], list[str]], dict[str, set[int]]]:
        return self._subject_names(lower=False)

    @cached_property
    def _lower_names(self) -> tuple[dict[tuple[str, ...], list[str]], dict[str, set[int]]]:
        return self._subject_names(lower=True)

    def mentioned_subjects(self, tokens: Sequence[str], lower: bool) -> list[str]:
        """Sorted subjects whose tokens occur as a consecutive run in
        `tokens`; with `lower`, both sides are compared lower-cased and
        `tokens` must already be.  Each position is looked up by name, for
        the name lengths its token starts."""
        by_name, lengths = self._lower_names if lower else self._cased_names
        found: set[str] = set()
        for i, tok in enumerate(tokens):
            if tok in lengths:
                for m in lengths[tok]:
                    found.update(by_name.get(tuple(tokens[i : i + m]), ()))
        return sorted(found)

    def event_interval(self, event_name: str) -> MonthInterval:
        for f in self.pair(event_name, EVENT_RELATION):
            return f.interval
        raise ResolutionError(f"unknown event {event_name!r}")


def bulk_load(facts: Sequence[TimeFact]) -> FactIndex:
    """`FactIndex(facts)`; kept as a name the benchmark's tracer lists."""
    return FactIndex(facts)


def _unique_max(facts: list[TimeFact], key) -> TimeFact:
    return max(facts, key=lambda f: (key(f), f.interval.lo, f.object))


def _unique_min(facts: list[TimeFact], key) -> TimeFact:
    return min(facts, key=lambda f: (key(f), f.interval.lo, f.object))


def resolve_question(spec, subject: str, relation: str, index: FactIndex) -> str:
    """Ground a question time scope against the (subject, relation) facts.

    Returns the unique qualifying object, or "" when nothing qualifies.
    Ties inside point/range scopes go to maximal overlap, then earliest
    start.  Unknown event names raise ResolutionError.
    """
    pair_facts = index.pair(subject, relation)
    kind = spec.kind
    interval = spec.interval
    if kind in ("during_event", "before", "after") and interval is None:
        if not spec.event_name:
            return ""
        interval = index.event_interval(spec.event_name)
    if kind == "during_event":
        kind = "range"

    if kind in ("point", "range"):
        hits = [f for f in pair_facts if f.interval.intersects(interval)]
        if not hits:
            return ""
        best = max(
            hits,
            key=lambda f: (f.interval.overlap_months(interval), -f.interval.lo, f.object),
        )
        return best.object
    if kind == "first":
        return _unique_min(pair_facts, lambda f: f.interval.lo).object if pair_facts else ""
    if kind == "last":
        return _unique_max(pair_facts, lambda f: f.interval.lo).object if pair_facts else ""
    if kind == "before":
        hits = [f for f in pair_facts if f.interval.hi <= interval.lo]
        return _unique_max(hits, lambda f: f.interval.hi).object if hits else ""
    if kind == "after":
        hits = [f for f in pair_facts if f.interval.lo >= interval.hi]
        return _unique_min(hits, lambda f: f.interval.lo).object if hits else ""
    return ""


def _dedupe_ordered(objects: Sequence[str], gold: str) -> list[str]:
    out = dict.fromkeys(objects)
    out.pop(gold, None)
    return list(out)


def mine_remote(
    subject: str, relation: str, gold: str, q_interval: MonthInterval, index: FactIndex
) -> list[str]:
    """Same-pair answers from periods disjoint with the question interval,
    in the index's miner order."""
    ordered, _, _, positions = index._miner_order
    pool = (ordered[p] for p in positions.get((subject, relation), ()))
    return _dedupe_ordered([f.object for f in pool if not f.interval.intersects(q_interval)], gold)


def mine_proximal(
    subject: str, relation: str, gold: str, q_interval: MonthInterval, index: FactIndex
) -> list[str]:
    """Other-pair answers whose periods overlap the question interval, in
    the index's miner order.  Only the prefix of facts that start by the
    question's end is scanned."""
    ordered, lo, hi, positions = index._miner_order
    n = int(np.searchsorted(lo, q_interval.hi, side="right"))
    hit = hi[:n] >= q_interval.lo
    hit[[p for p in positions.get((subject, relation), ()) if p < n]] = False
    return _dedupe_ordered([ordered[p].object for p in np.flatnonzero(hit).tolist()], gold)


def sample_negatives(
    remote: Sequence,
    proximal: Sequence,
    k_per_side: int,
    rng: np.random.Generator,
) -> tuple[list, list]:
    """Draw up to k_per_side from each granularity without replacement;
    returns the (remote, proximal) draws.

    The two sides stay balanced: a short side truncates the other, so the
    result always holds equally many remote and proximal items (possibly
    zero of each).  Only the sides' lengths decide which indices are drawn,
    so any two sequences of those lengths consume the RNG alike.  A
    negative k_per_side raises ValueError.
    """
    if k_per_side < 0:
        raise ValueError(f"k_per_side must be >= 0, got {k_per_side}")
    n = min(int(k_per_side), len(remote), len(proximal))
    if n == 0:
        return [], []
    r_idx = rng.choice(len(remote), size=n, replace=False)
    p_idx = rng.choice(len(proximal), size=n, replace=False)
    return [remote[i] for i in r_idx], [proximal[i] for i in p_idx]


def infer_question_pair(
    question_tokens: Sequence[Token], index: FactIndex
) -> tuple[Optional[str], Optional[str]]:
    """Best-effort (subject, relation) extraction from the tokenized question.

    Subjects are matched as token subsequences (longest first); relations
    by their name appearing as a question word.  Returns (None, None)
    parts when nothing matches.
    """
    q_tokens = [t.text for t in question_tokens]
    q_lower = {t.lower() for t in q_tokens}

    # The longest mentioned subject wins, ties to the alphabetically first.
    mentioned = index.mentioned_subjects(q_tokens, lower=False)
    subject = min(mentioned, key=lambda s: (-len(s), s)) if mentioned else None

    relation = next((rel for rel in index.relations if rel.lower() in q_lower), None)
    return subject, relation


def _subseq_at(haystack: list[str], needle: Sequence[str]) -> Optional[int]:
    """First index where `needle` occurs as a consecutive run, else None."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return None
    first, rest = needle[0], list(needle[1:])
    i = -1
    try:
        while True:  # jump from one hit of the first token to the next
            i = haystack.index(first, i + 1, n - m + 1)
            if haystack[i + 1 : i + m] == rest:
                return i
    except ValueError:  # no further hit
        return None
