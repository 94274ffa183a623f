"""Interval-keyed fact storage, question resolution, and negative mining.

Facts are (subject, relation, object) triples with a month interval.  The
index answers two query shapes: all facts of a (subject, relation) pair,
and all facts whose interval intersects a query interval.  Negative
answers for the contrastive reward come in two granularities: remote
(same pair, disjoint period) and proximal (different pair, overlapping
period).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .intervals import MonthInterval, format_year_month, parse_year_month
from .tagger import Token, tokenize

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
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError(
                f"fact ({self.subject}, {self.relation}, {self.object}): "
                f"start {self.start} after end {self.end}"
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

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TimeFact":
        def end_of(key: str) -> Optional[int]:
            raw = payload.get(key)
            return None if raw is None else parse_year_month(str(raw))

        return cls(
            subject=str(payload.get("s", "")),
            relation=str(payload.get("r", "")),
            object=str(payload.get("o", "")),
            start=end_of("start"),
            end=end_of("end"),
        )


class FactIndex:
    """Deduplicated fact store with a pair map and vectorized interval scan."""

    def __init__(self, facts: Sequence[TimeFact]) -> None:
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
        self._lo = np.array([f.interval.lo for f in kept], dtype=np.int64)
        self._hi = np.array([f.interval.hi for f in kept], dtype=np.int64)
        pair_ids: dict[tuple[str, str], int] = {}
        self._pair_code = np.array(
            [pair_ids.setdefault((f.subject, f.relation), len(pair_ids)) for f in kept],
            dtype=np.int64,
        )
        self._pair_ids = pair_ids
        self._event = np.array([f.relation == EVENT_RELATION for f in kept], dtype=bool)
        self.subjects: list[str] = sorted({f.subject for f in kept})
        self.relations: list[str] = sorted(
            {f.relation for f in kept if f.relation != EVENT_RELATION}
        )

        # Subjects tokenized once.  A text mentions a subject only if it
        # holds the subject's first token, so candidates are looked up by
        # that token: cased for questions, lower-cased for contexts.
        self._subject_tokens: dict[str, list[str]] = {}
        self._subject_tokens_lower: dict[str, list[str]] = {}
        self._by_first: dict[str, list[str]] = {}
        self._by_first_lower: dict[str, list[str]] = {}
        for s in self.subjects:
            toks = [t.text for t in tokenize(s)]
            low = [t.lower() for t in toks]
            self._subject_tokens[s] = toks
            self._subject_tokens_lower[s] = low
            if toks:
                self._by_first.setdefault(toks[0], []).append(s)
                self._by_first_lower.setdefault(low[0], []).append(s)
        self._object_tokens: dict[str, list[str]] = {}
        # Rank of each fact in the proximal miner's order.
        order = sorted(
            range(len(kept)),
            key=lambda i: (
                kept[i].interval.lo,
                kept[i].interval.hi,
                kept[i].subject,
                kept[i].relation,
                kept[i].object,
            ),
        )
        self._proximal_rank = np.empty(len(kept), dtype=np.int64)
        self._proximal_rank[order] = np.arange(len(kept))

    def __len__(self) -> int:
        return len(self.facts)

    def pair(self, subject: str, relation: str) -> list[TimeFact]:
        return [self.facts[i] for i in self.by_pair.get((subject, relation), [])]

    def overlapping(self, interval: MonthInterval) -> np.ndarray:
        """Indices of facts whose interval intersects `interval`."""
        hit = (self._lo <= interval.hi) & (self._hi >= interval.lo)
        return np.nonzero(hit)[0]

    def object_tokens(self, obj: str) -> list[str]:
        """Lower-cased token texts of a fact object, cached."""
        toks = self._object_tokens.get(obj)
        if toks is None:
            toks = self._object_tokens[obj] = [t.text.lower() for t in tokenize(obj)]
        return toks

    def mentioned_subjects(self, tokens: Sequence[str], lower: bool) -> list[str]:
        """Sorted subjects whose tokens occur as a consecutive run in
        `tokens`; with `lower`, both sides are compared lower-cased and
        `tokens` must already be."""
        if lower:
            by_first, subject_tokens = self._by_first_lower, self._subject_tokens_lower
        else:
            by_first, subject_tokens = self._by_first, self._subject_tokens
        return sorted(
            s
            for first in set(tokens)
            for s in by_first.get(first, ())
            if _subseq_at(tokens, subject_tokens[s]) is not None
        )

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
    out: list[str] = []
    seen: set[str] = set()
    for o in objects:
        if o != gold and o not in seen:
            seen.add(o)
            out.append(o)
    return out


def mine_remote(
    subject: str, relation: str, gold: str, q_interval: MonthInterval, index: FactIndex
) -> list[str]:
    """Same-pair answers from periods disjoint with the question interval."""
    pool = [
        f
        for f in index.pair(subject, relation)
        if not f.interval.intersects(q_interval)
    ]
    pool.sort(key=lambda f: (f.interval.lo, f.interval.hi, f.object))
    return _dedupe_ordered([f.object for f in pool], gold)


def mine_proximal(
    subject: str, relation: str, gold: str, q_interval: MonthInterval, index: FactIndex
) -> list[str]:
    """Other-pair answers whose periods overlap the question interval."""
    idxs = index.overlapping(q_interval)
    pair = index._pair_ids.get((subject, relation), -1)
    idxs = idxs[(index._pair_code[idxs] != pair) & ~index._event[idxs]]
    # Ranks are distinct and follow the (lo, hi, subject, relation, object)
    # order, ties broken by store position, as a stable sort would.
    idxs = idxs[np.argsort(index._proximal_rank[idxs])]
    return _dedupe_ordered([index.facts[i].object for i in idxs], gold)


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
    zero of each).  The sides may be answer lists or, as in the reward,
    the rows of those answers in an embedding table.
    """
    n = min(int(k_per_side), len(remote), len(proximal))
    if n <= 0:
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


def _subseq_at(haystack: Sequence[str], needle: Sequence[str]) -> Optional[int]:
    """First index where `needle` occurs as a consecutive run, else None."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return None
    first = needle[0]
    for i in range(n - m + 1):
        if haystack[i] == first and list(haystack[i:i + m]) == list(needle):
            return i
    return None
