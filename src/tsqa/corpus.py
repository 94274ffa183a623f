"""Dataset schema, JSONL parsing, and the synthetic corpus generator.

Records pair a natural-language question with a context that renders
dated facts as templated sentences.  The generator builds a closed world
of entities with non-overlapping career facts per (entity, relation)
pair, then asks point, range, before/after, first/last, and era-scoped
questions whose gold answers follow from the facts alone.

Each subject's facts and dated sentences are rendered once, as one
contiguous run that every record about the subject slices.  A sentence is
a (text, phrase) tuple: phrase is the (start, end, interval) of the
sentence's one "Y1 to Y2" span, or None for an undated sentence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import REQUIRED, build_at, field_error, json_object, non_empty, one_of
from .facts import EVENT_RELATION, TimeFact
from .fileio import write_atomic
from .intervals import MonthInterval, format_year_month, parse_year_month, year_span


class ParseError(ValueError):
    """Malformed JSON on a dataset line."""


class ValidationError(ValueError):
    """Structurally valid JSON that violates the record schema."""


class QuestionType(str, Enum):
    L2_POINT = "L2"
    L3_EVENT = "L3"
    EASY_EXPLICIT = "EASY"
    HARD_IMPLICIT = "HARD"


_SPEC_KINDS = ("point", "range", "before", "after", "during_event", "first", "last", "none")


@dataclass(frozen=True)
class QuestionTimeSpec:
    """A question's resolved time scope."""

    kind: str
    interval: Optional[MonthInterval] = None
    event_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _SPEC_KINDS:
            raise ValueError(f"unknown time spec kind {self.kind!r}")
        if self.kind in ("point", "range") and self.interval is None:
            raise ValueError(f"{self.kind} spec requires an interval")
        if self.kind == "during_event" and not self.event_name:
            raise ValueError("during_event spec requires an event name")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": None if self.interval is None else format_year_month(self.interval.lo),
            "end": None if self.interval is None else format_year_month(self.interval.hi),
            "event": self.event_name,
        }


@dataclass
class QARecord:
    id: str
    question: str
    context: str
    gold_answers: list[str]
    question_type: QuestionType
    facts: list[TimeFact] = field(default_factory=list)
    time_spec: Optional[QuestionTimeSpec] = None


@dataclass(frozen=True)
class SpanAnnotation:
    """Generator-emitted ground truth for one temporal phrase in a context."""

    char_start: int
    char_end: int
    kind: str
    start: int  # month index
    end: int


# ---------------------------------------------------------------------------
# JSONL parsing / serialization.


# JSON key -> (a sample of its JSON type, its default); see config.json_object.
_FACT = {"s": ("", REQUIRED), "r": ("", REQUIRED), "o": ("", REQUIRED), "start": ("", None), "end": ("", None)}
_TIME_SPEC = {"kind": ("", "none"), "start": ("", None), "end": ("", None), "event": ("", None)}
_RECORD = {"id": ("", None), "type": ("", "EASY"), "question": ("", REQUIRED), "context": ("", REQUIRED),
           "answers": ([""], REQUIRED), "facts": ([], []), "time_spec": ({}, None)}


def _bounds(obj: dict, where: tuple) -> list[Optional[int]]:
    """Month indices of the "YYYY-MM" strings at start and end; None for null."""
    return [None if obj[k] is None else build_at((*where, k), parse_year_month, obj[k]) for k in ("start", "end")]


def _time_fact(payload, where: tuple) -> TimeFact:
    fact = json_object(payload, _FACT, where)
    non_empty(fact, ("s", "r", "o"), where)
    start, end = _bounds(fact, where)
    return build_at(where, TimeFact, fact["s"], fact["r"], fact["o"], start, end)


def _time_spec(payload, where: tuple) -> QuestionTimeSpec:
    spec = json_object(payload, _TIME_SPEC, where)
    one_of(spec["kind"], _SPEC_KINDS, (*where, "kind"))
    start, end = _bounds(spec, where)
    if (start is None) != (end is None):  # a time spec has both bounds or neither
        unset = "start" if start is None else "end"
        raise field_error((*where, unset), "expected a string like the other bound, got null")
    interval = None if start is None else build_at(where, MonthInterval, start, end)
    return build_at(where, QuestionTimeSpec, spec["kind"], interval, spec["event"])


def _record(payload, lineno: Optional[int]) -> QARecord:
    rec = json_object(payload, _RECORD)
    non_empty(rec, ("question", "context", "answers"), ())
    rec_id = rec["id"]
    if rec_id is None:
        rec_id = f"line-{lineno}" if lineno is not None else "r0"
    return QARecord(
        id=rec_id,
        question=rec["question"],
        context=rec["context"],
        gold_answers=rec["answers"],
        question_type=QuestionType(one_of(rec["type"], [t.value for t in QuestionType], ("type",))),
        facts=[_time_fact(f, ("facts", k)) for k, f in enumerate(rec["facts"])],
        time_spec=None if rec["time_spec"] is None else _time_spec(rec["time_spec"], ("time_spec",)),
    )


def _parse_line(line: str, lineno: Optional[int], read, where: str = ""):
    """`read(payload, lineno)` of a JSONL line; ParseError for bad JSON, ValidationError for a bad shape."""
    where += "" if lineno is None else f"line {lineno}: "
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON ({exc.msg})") from exc
    try:
        return read(payload, lineno)
    except ValueError as exc:
        raise ValidationError(f"{where}{exc}") from exc


def parse_record(line: str, lineno: Optional[int] = None) -> QARecord:
    """Parse one JSONL line; unknown keys are ignored."""
    return _parse_line(line, lineno, _record)


def serialize_record(record: QARecord) -> str:
    payload: dict = {
        "id": record.id,
        "type": record.question_type.value,
        "question": record.question,
        "context": record.context,
        "answers": list(record.gold_answers),
        "facts": [f.to_json_dict() for f in record.facts],
    }
    if record.time_spec is not None:
        payload["time_spec"] = record.time_spec.to_json_dict()
    return json.dumps(payload, ensure_ascii=False)


def _read_jsonl(path: str | Path, read) -> list:
    """`_parse_line` of each non-blank line; errors name the file and line."""
    where = f"{path}: "
    with open(path, encoding="utf-8") as fh:
        return [_parse_line(line, n, read, where) for n, line in enumerate(fh, start=1) if line.strip()]


def load_dataset(path: str | Path) -> list[QARecord]:
    """Read a JSONL dataset, aborting with the offending line number."""
    return _read_jsonl(path, _record)


def save_dataset(records: Sequence[QARecord], path: str | Path) -> None:
    write_atomic(path, "".join(serialize_record(r) + "\n" for r in records))


def load_facts(path: str | Path) -> list[TimeFact]:
    return _read_jsonl(path, lambda payload, _: _time_fact(payload, ""))


def save_facts(facts: Sequence[TimeFact], path: str | Path) -> None:
    write_atomic(
        path, "".join(json.dumps(f.to_json_dict(), ensure_ascii=False) + "\n" for f in facts)
    )


# ---------------------------------------------------------------------------
# Synthetic generation.

_DEFAULT_MIX = {"L2": 1.0, "L3": 1.0, "EASY": 1.0, "HARD": 1.0}


# (relation, question stem, dated sentence template, undated sentence
# template, object shapes)
_REL_DEFS = [
    (
        "employer",
        "Which employer did {s} work for",
        "From {y1} to {y2}, {s} worked for {o}.",
        "At one point, {s} worked for {o}.",
        ["{c} Institute", "{c} College", "{c} University", "{c} Laboratories"],
    ),
    (
        "team",
        "Which team did {s} play for",
        "From {y1} to {y2}, {s} played for {o}.",
        "At one point, {s} played for {o}.",
        ["{c} United", "{c} City", "{c} Rovers", "{c} Wanderers"],
    ),
    (
        "position",
        "Which position did {s} hold",
        "From {y1} to {y2}, {s} held the position of {o}.",
        "At one point, {s} held the position of {o}.",
        ["Director of {c}", "Warden of {c}", "Chair of {c}", "Curator of {c}"],
    ),
]
_UNDATED = {rel: undated for rel, _, _, undated, _ in _REL_DEFS}


@dataclass
class SyntheticConfig:
    n_entities: int = 24
    n_relations: int = 3
    facts_per_pair: int = 4
    distractor_sentences_per_context: int = 3
    # When False, distractor facts are rendered without their period, so
    # only the temporal mask separates dated from undated statements.
    distractors_dated: bool = True
    year_range: tuple[int, int] = (1950, 2005)
    unanswerable_fraction: float = 0.1
    question_type_mix: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_MIX))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_entities < 2:
            raise ValidationError("n_entities must be >= 2 (distractors need neighbors)")
        if not 1 <= self.n_relations <= len(_REL_DEFS):
            raise ValidationError(f"n_relations must be in [1, {len(_REL_DEFS)}]")
        if self.facts_per_pair < 2:
            raise ValidationError("facts_per_pair must be >= 2")
        if self.distractor_sentences_per_context < 0:
            raise ValidationError("distractor_sentences_per_context must be >= 0")
        if len(self.year_range) != 2 or not 1000 <= self.year_range[0] < self.year_range[1] <= 2999:
            raise ValidationError("year_range must be an increasing pair within [1000, 2999]")
        if not 0.0 <= self.unanswerable_fraction <= 1.0:
            raise ValidationError("unanswerable_fraction must be in [0, 1]")
        bad = set(self.question_type_mix) - {"L2", "L3", "EASY", "HARD"}
        if bad:
            raise ValidationError(f"unknown question type weights: {sorted(bad)}")
        if any(w < 0 for w in self.question_type_mix.values()):
            raise ValidationError("question type weights must be non-negative")
        if sum(self.question_type_mix.values()) <= 0:
            raise ValidationError("question type weights must not all be zero")


_FIRST_NAMES = [
    "Adele", "Bram", "Clio", "Doran", "Edda", "Felix", "Greta", "Hollis",
    "Imre", "Juna", "Kasper", "Lena", "Marek", "Nadia", "Oskar", "Petra",
    "Quill", "Rosa", "Stellan", "Tova", "Ulric", "Vera", "Wilmer", "Yola",
]

_HEADS = [
    "Bar", "Cor", "Dal", "Fen", "Gar", "Hol", "Jas", "Kel", "Lor", "Mar",
    "Nor", "Pel", "Quin", "Ros", "Sal", "Tam", "Vor", "Wes", "Yar", "Zel",
    "Ash", "Bel", "Cal", "Dor",
]
_MIDS = ["", "an", "en", "in", "on", "ar", "er", "or", "is", "ul", "ay", "ow"]
_TAILS = [
    "ton", "field", "more", "wick", "land", "ford", "by", "ham", "stead",
    "worth", "ley", "dale", "mont", "shaw", "thorne", "gate", "crest", "holm",
    "mere", "stone",
]


class _NameFactory:
    """Deterministic supply of distinct capitalized name cores."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._used: set[str] = set()

    def core(self) -> str:
        while True:
            head = _HEADS[int(self._rng.integers(len(_HEADS)))]
            mid = _MIDS[int(self._rng.integers(len(_MIDS)))]
            tail = _TAILS[int(self._rng.integers(len(_TAILS)))]
            name = head + mid + tail
            if name not in self._used:
                self._used.add(name)
                return name


def _dated(text: str, y1: int, y2: int, iv: MonthInterval) -> tuple:
    """The (text, phrase) sentence of a text that prints "{y1} to {y2}" once."""
    phrase = f"{y1} to {y2}"
    start = text.index(phrase)  # no template's text before {y1} holds a digit
    return text, (start, start + len(phrase), iv)


@dataclass
class _Pair:
    stem: str  # the question stem, subject filled in
    objects: list[str]
    years: list[tuple[int, int]]  # inclusive year spans, chronological


@dataclass
class _Built:
    question: str
    gold: str
    focus: MonthInterval  # period the question is really about
    anchor_year: Optional[int]  # implicit-question year that must stay non-verbatim
    event: Optional[tuple[str, int, int]]  # (era name, y1, y2)


def generate_synthetic(config: SyntheticConfig):
    """Deterministically build (train, dev, test, facts) for a config."""
    train, dev, test, facts, _ = generate_synthetic_annotated(config)
    return train, dev, test, facts


def generate_synthetic_annotated(config: SyntheticConfig):
    """Like generate_synthetic, plus per-record gold temporal span
    annotations for the rendered contexts (used to audit the tagger)."""
    rng = np.random.default_rng(config.seed)
    names = _NameFactory(rng)
    y_lo, y_hi = config.year_range
    n_facts = config.facts_per_pair
    per_subject = config.n_relations * n_facts

    # Career structure: per (entity, relation), non-overlapping chronological
    # spans of 3-6 years separated by 2-3 year gaps, so implicit questions
    # always have anchor years that never appear verbatim in any sentence.
    # Pairs are listed subject by subject, so each subject's facts and their
    # dated sentences are one contiguous run of per_subject entries, rendered
    # once here and sliced by every record about that subject.
    entities = [
        f"{_FIRST_NAMES[int(rng.integers(len(_FIRST_NAMES)))]} {names.core()}"
        for _ in range(config.n_entities)
    ]
    pairs: list[_Pair] = []
    career_facts: list[TimeFact] = []
    career_sentences: list[tuple] = []
    for subject in entities:
        for rel, stem, template, _, shapes in _REL_DEFS[: config.n_relations]:
            durations = rng.integers(3, 7, size=n_facts)
            gaps = rng.integers(2, 4, size=n_facts - 1)
            latest = y_hi - int(durations.sum() + gaps.sum()) + 1
            if latest < y_lo:
                raise ValidationError(f"year_range too narrow for {n_facts} facts per pair")
            cursor = int(rng.integers(y_lo, latest + 1))
            years = []
            for i in range(n_facts):
                y1, y2 = cursor, cursor + int(durations[i]) - 1
                years.append((y1, y2))
                cursor = y2 + 1 + (int(gaps[i]) if i < n_facts - 1 else 0)
            objects = [shapes[int(rng.integers(len(shapes)))].format(c=names.core()) for _ in range(n_facts)]
            pairs.append(_Pair(stem.format(s=subject), objects, years))
            for o, (y1, y2) in zip(objects, years):
                iv = year_span(y1, y2)
                career_facts.append(TimeFact(subject, rel, o, iv.lo, iv.hi))
                career_sentences.append(_dated(template.format(y1=y1, y2=y2, s=subject, o=o), y1, y2, iv))

    fact_lo = np.array([f.interval.lo for f in career_facts], dtype=np.int64)
    fact_hi = np.array([f.interval.hi for f in career_facts], dtype=np.int64)
    fact_y1, fact_y2 = fact_lo // 12, fact_hi // 12
    fact_subject = np.arange(len(career_facts)) // per_subject
    # Every endpoint year a subject's own sentences will print, across all
    # relations; implicit anchors must avoid these to stay non-verbatim.
    printed_years = [
        frozenset(ys.tolist()) for ys in np.stack([fact_y1, fact_y2], axis=1).reshape(config.n_entities, -1)
    ]

    mix_keys = ["L2", "L3", "EASY", "HARD"]
    weights = np.array([config.question_type_mix.get(k, 0.0) for k in mix_keys], dtype=np.float64)
    weights = weights / weights.sum()
    k = config.distractor_sentences_per_context

    records: list[QARecord] = []
    annotations: dict[str, list[SpanAnnotation]] = {}
    event_facts: list[TimeFact] = []

    for pair_idx, pair in enumerate(pairs):
        subject = pair_idx // config.n_relations
        own = slice(subject * per_subject, (subject + 1) * per_subject)
        for slot in range(n_facts):
            qtype = QuestionType(mix_keys[int(rng.choice(4, p=weights))])
            unanswerable = bool(rng.random() < config.unanswerable_fraction)
            built = _build_question(pair, slot, qtype, unanswerable, rng, names, printed_years[subject])

            # Sentences: every fact of the record's subject, the era
            # definition if one exists, then distractor facts of other
            # subjects active in the question's period.
            sentences = career_sentences[own]
            rec_facts = career_facts[own]
            event_fact = None
            if built.event is not None:
                ev_name, ev_y1, ev_y2 = built.event
                iv = year_span(ev_y1, ev_y2)
                event_fact = TimeFact(ev_name, EVENT_RELATION, ev_name, iv.lo, iv.hi)
                event_facts.append(event_fact)
                text = f"The period from {ev_y1} to {ev_y2} is known as the {ev_name}."
                sentences.append(_dated(text, ev_y1, ev_y2, iv))

            if k:
                other = fact_subject != subject
                if built.anchor_year is not None:
                    # Implicit questions promise that their anchor year is not
                    # verbatim in the context; drop distractors that would leak it.
                    other &= (fact_y1 != built.anchor_year) & (fact_y2 != built.anchor_year)
                cand = other & (fact_lo <= built.focus.hi) & (fact_hi >= built.focus.lo)
                pool = np.flatnonzero(cand)
                if len(pool) >= k:
                    chosen = rng.choice(pool, size=k, replace=False)
                else:  # fill up from other subjects' facts outside the period
                    rest = np.flatnonzero(other & ~cand)
                    extra = min(k - len(pool), len(rest))
                    chosen = np.concatenate([pool, rng.choice(rest, size=extra, replace=False) if extra else rest[:0]])
                for i in chosen.tolist():
                    f = career_facts[i]
                    if config.distractors_dated:
                        sentences.append(career_sentences[i])
                    else:
                        sentences.append((_UNDATED[f.relation].format(s=f.subject, o=f.object), None))
                    rec_facts.append(f)

            order = rng.permutation(len(sentences)).tolist()
            spans: list[SpanAnnotation] = []
            offset = 0
            for j in order:
                text, phrase = sentences[j]
                if phrase is not None:
                    start, end, iv = phrase
                    spans.append(SpanAnnotation(offset + start, offset + end, "year_range", iv.lo, iv.hi))
                offset += len(text) + 1  # the joining space

            rec_id = f"q{len(records):06d}"
            if event_fact is not None:
                rec_facts.append(event_fact)
            records.append(
                QARecord(
                    id=rec_id,
                    question=built.question,
                    context=" ".join(sentences[j][0] for j in order),
                    gold_answers=[built.gold],
                    question_type=qtype,
                    facts=rec_facts,
                )
            )
            annotations[rec_id] = spans

    all_facts = career_facts + event_facts
    n = len(records)
    perm = rng.permutation(n)
    cut1, cut2 = int(n * 0.70), int(n * 0.85)
    train = [records[int(i)] for i in perm[:cut1]]
    dev = [records[int(i)] for i in perm[cut1:cut2]]
    test = [records[int(i)] for i in perm[cut2:]]
    return train, dev, test, all_facts, annotations


def _build_question(
    pair: _Pair,
    slot: int,
    qtype: QuestionType,
    unanswerable: bool,
    rng: np.random.Generator,
    names: _NameFactory,
    forbidden_years: frozenset[int] = frozenset(),
) -> _Built:
    """Compose one question plus its gold answer and focus period."""
    n = len(pair.years)
    years, objects, stem = pair.years, pair.objects, pair.stem

    def gap_year(i: int) -> int:
        # A year strictly between fact i and fact i+1; gaps are >= 2 years.
        lo, hi = years[i][1] + 1, years[i + 1][0] - 1
        return int(rng.integers(lo, hi + 1))

    def pick_anchor(lo: int, hi: int) -> Optional[int]:
        # Implicit anchors must not collide with any endpoint year the
        # subject's sentences print, whatever the relation.
        cands = [y for y in range(lo, hi + 1) if y not in forbidden_years]
        if not cands:
            return None
        return int(cands[int(rng.integers(len(cands)))])

    def span_of(i: int) -> MonthInterval:
        return year_span(*years[i])

    if qtype in (QuestionType.L2_POINT, QuestionType.EASY_EXPLICIT):
        if unanswerable:
            y = gap_year(int(rng.integers(n - 1)))
            return _Built(f"{stem} in {y}?", "", year_span(y, y), None, None)
        y1, y2 = years[slot]
        if qtype is QuestionType.EASY_EXPLICIT and rng.random() < 0.5:
            return _Built(f"{stem} from {y1} to {y2}?", objects[slot], span_of(slot), None, None)
        if qtype is QuestionType.EASY_EXPLICIT:
            y = y1 if rng.random() < 0.5 else y2  # boundary year, verbatim in context
        else:
            y = int(rng.integers(y1, y2 + 1))
        return _Built(f"{stem} in {y}?", objects[slot], year_span(y, y), None, None)

    if qtype is QuestionType.HARD_IMPLICIT:
        variants = ["before", "after"] if unanswerable else ["before", "after", "first", "last"]
        word = variants[int(rng.integers(len(variants)))]
        # "before" leans on the earliest fact and "after" on the latest; that
        # fact's first/last question is their fallback when no anchor is free.
        edge = {"before": "first", "after": "last"}.get(word, word)
        i = 0 if edge == "first" else n - 1
        first_last = _Built(f"{stem} {edge}?", objects[i], span_of(i), None, None)
        if word == edge:
            return first_last
        if unanswerable:
            # An interior year of the earliest fact has nothing before it, one
            # of the latest fact nothing after it; the drawn side is tried first.
            sides = [("before", 0), ("after", n - 1)]
            for side, i in sides if word == "before" else sides[::-1]:
                y = pick_anchor(years[i][0] + 1, years[i][1] - 1)
                if y is not None:
                    return _Built(f"{stem} {side} {y}?", "", year_span(y, y), y, None)
            return first_last
        # A year in the gap after fact g: fact g answers "before" it, fact g+1 "after" it.
        before = word == "before"
        for g in [min(slot, n - 2) if before else max(0, min(slot - 1, n - 2)), *range(n - 1)]:
            y = pick_anchor(years[g][1] + 1, years[g + 1][0] - 1)
            if y is not None:
                return _Built(f"{stem} {word} {y}?", objects[g if before else g + 1], year_span(y, y), y, None)
        return first_last

    # L3: era-scoped questions; the era is defined in the context and the
    # question itself carries no year at all.
    if unanswerable:
        variant = "before_event" if rng.random() < 0.5 else "after_event"
    else:
        variant = ["during", "before_event", "after_event"][int(rng.integers(3))]
    if variant == "during":
        i, gold = slot, objects[slot]
    elif variant == "before_event":
        i = 0 if unanswerable else max(slot, 1)
        gold = "" if unanswerable else objects[i - 1]
    else:
        i = n - 1 if unanswerable else min(slot, n - 2)
        gold = "" if unanswerable else objects[i + 1]
    ev_name = f"{names.core()} era"
    word = {"during": "during", "before_event": "before", "after_event": "after"}[variant]
    return _Built(f"{stem} {word} the {ev_name}?", gold, span_of(i), None, (ev_name, *years[i]))
