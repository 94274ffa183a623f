"""Dataset schema, JSONL round-trips, and synthetic generator properties."""

import json
import re

import numpy as np
import pytest

from tsqa.corpus import (
    ParseError,
    QARecord,
    QuestionTimeSpec,
    QuestionType,
    SyntheticConfig,
    ValidationError,
    generate_synthetic,
    generate_synthetic_annotated,
    load_dataset,
    load_facts,
    parse_record,
    save_dataset,
    save_facts,
    serialize_record,
)
from tsqa.facts import EVENT_RELATION, FactIndex, resolve_question
from tsqa.intervals import year_span
from tsqa.tagger import parse_question_time, tag, tokenize


def test_parse_record_minimal():
    rec = parse_record('{"question": "Q?", "context": "C.", "answers": ["x"]}')
    assert rec.question == "Q?"
    assert rec.gold_answers == ["x"]
    assert rec.question_type is QuestionType.EASY_EXPLICIT
    assert rec.facts == [] and rec.time_spec is None


def test_parse_record_errors():
    with pytest.raises(ParseError):
        parse_record("{not json", lineno=3)
    with pytest.raises(ValidationError):
        parse_record('["list"]')
    with pytest.raises(ValidationError):
        parse_record('{"question": "Q?", "context": "C."}')
    with pytest.raises(ValidationError):
        parse_record('{"question": "", "context": "C.", "answers": ["x"]}')
    with pytest.raises(ValidationError):
        parse_record('{"question": "Q?", "context": "C.", "answers": []}')
    with pytest.raises(ValidationError):
        parse_record('{"question": "Q?", "context": "C.", "answers": ["x"], "type": "L9"}')


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 7"):
        parse_record("{", lineno=7)
    with pytest.raises(ValidationError, match="line 7"):
        parse_record('{"question": "Q?"}', lineno=7)


def test_record_round_trip_with_spec_and_facts():
    spec = QuestionTimeSpec(kind="range", interval=year_span(1966, 1972))
    rec = QARecord(
        id="r1",
        question="Where from 1966 to 1972?",
        context="From 1966 to 1972, X worked for Y.",
        gold_answers=["Y"],
        question_type=QuestionType.L2_POINT,
        facts=[],
        time_spec=spec,
    )
    clone = parse_record(serialize_record(rec))
    assert clone.id == "r1"
    assert clone.question_type is QuestionType.L2_POINT
    assert clone.time_spec.kind == "range"
    assert clone.time_spec.interval == spec.interval


def test_question_time_spec_validation():
    with pytest.raises(ValueError):
        QuestionTimeSpec(kind="sometime")
    with pytest.raises(ValueError):
        QuestionTimeSpec(kind="point")  # interval required
    with pytest.raises(ValueError):
        QuestionTimeSpec(kind="during_event")  # event name required
    spec = QuestionTimeSpec(kind="first")
    assert spec.interval is None


def test_dataset_file_round_trip(tmp_path, small_corpus):
    train = small_corpus[0]
    path = tmp_path / "train.jsonl"
    save_dataset(train, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(train)
    for a, b in zip(train, loaded):
        assert serialize_record(a) == serialize_record(b)


def test_facts_file_round_trip(tmp_path, small_corpus):
    facts = small_corpus[3]
    path = tmp_path / "facts.jsonl"
    save_facts(facts, path)
    loaded = load_facts(path)
    assert loaded == facts
    (tmp_path / "bad.jsonl").write_text('{"subject": 1}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1: s: expected a string, got nothing"):
        load_facts(tmp_path / "bad.jsonl")
    (tmp_path / "bad.jsonl").write_text("{\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1: invalid JSON"):
        load_facts(tmp_path / "bad.jsonl")


def test_an_empty_interval_is_reported_in_year_months(tmp_path):
    """Bounds in range print as the file wrote them, not as month indices."""
    base = {"question": "Q?", "context": "C.", "answers": ["x"]}
    backwards = {"start": "1999-01", "end": "1990-01"}
    path = tmp_path / "bad.jsonl"
    for extra, message in (
        ({"time_spec": {"kind": "range", **backwards}}, "line 1: time_spec: empty interval: start 1999-01 > end 1990-01"),
        ({"facts": [{"s": "A", "r": "b", "o": "c", **backwards}]}, "line 1: facts[0]: fact (A, b, c): start 1999-01 after end 1990-01"),
    ):
        path.write_text(json.dumps({**base, **extra}) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_dataset(path)


def test_synthetic_config_validation():
    with pytest.raises(ValidationError):
        SyntheticConfig(n_entities=1)
    with pytest.raises(ValidationError):
        SyntheticConfig(n_relations=0)
    with pytest.raises(ValidationError):
        SyntheticConfig(facts_per_pair=1)
    with pytest.raises(ValidationError):
        SyntheticConfig(year_range=(1990, 1980))
    with pytest.raises(ValidationError):
        SyntheticConfig(unanswerable_fraction=1.5)
    with pytest.raises(ValidationError):
        SyntheticConfig(question_type_mix={"L5": 1.0})
    with pytest.raises(ValidationError):
        SyntheticConfig(question_type_mix={"L2": 0.0})


def test_generator_deterministic():
    cfg = SyntheticConfig(n_entities=8, seed=21)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    for split_a, split_b in zip(a[:3], b[:3]):
        assert [serialize_record(r) for r in split_a] == [
            serialize_record(r) for r in split_b
        ]
    assert a[3] == b[3]
    c = generate_synthetic(SyntheticConfig(n_entities=8, seed=22))
    assert [r.id for r in a[0]] != [r.id for r in c[0]] or [
        r.question for r in a[0]
    ] != [r.question for r in c[0]]


def test_generator_split_sizes_and_unique_ids():
    cfg = SyntheticConfig(n_entities=20, seed=9)
    train, dev, test, _ = generate_synthetic(cfg)
    total = len(train) + len(dev) + len(test)
    ids = {r.id for r in train} | {r.id for r in dev} | {r.id for r in test}
    assert len(ids) == total
    assert len(train) == int(total * 0.70)
    assert len(train) + len(dev) == int(total * 0.85)


def test_gold_answers_follow_from_facts(small_corpus, small_index):
    """Re-derive every gold answer through the tagger + resolver path."""
    train, dev, test, _ = small_corpus
    checked = 0
    for rec in train + dev + test:
        toks = tokenize(rec.question)
        spec = parse_question_time(toks, tag(toks))
        # own facts precede distractors, so the first fact names the subject;
        # the asked relation is the stem word present in the question
        subject = rec.facts[0].subject
        relation = next(
            rel for rel in ("employer", "team", "position") if rel in rec.question
        )
        gold = resolve_question(spec, subject, relation, small_index)
        assert gold == rec.gold_answers[0], (rec.question, rec.gold_answers)
        checked += 1
    assert checked > 50


def test_unanswerable_convention(small_corpus):
    train, dev, test, _ = small_corpus
    records = train + dev + test
    empties = [r for r in records if r.gold_answers == [""]]
    # the configured fraction is a probability, so just require presence
    assert empties
    for rec in empties:
        assert rec.gold_answers == [""]


def test_record_facts_contain_gold(small_corpus):
    train, dev, test, _ = small_corpus
    for rec in train + dev + test:
        gold = rec.gold_answers[0]
        if not gold:
            continue
        assert any(f.object == gold for f in rec.facts), rec.id


def test_hard_anchor_years_not_verbatim():
    cfg = SyntheticConfig(
        n_entities=16,
        question_type_mix={"HARD": 1.0},
        unanswerable_fraction=0.2,
        seed=13,
    )
    train, dev, test, _ = generate_synthetic(cfg)
    implicit = 0
    for rec in train + dev + test:
        m = re.search(r"(before|after) (\d{4})\?", rec.question)
        if not m:
            continue
        implicit += 1
        assert m.group(2) not in rec.context, rec.question
    assert implicit >= 30


def test_l3_questions_reference_named_eras():
    cfg = SyntheticConfig(
        n_entities=10, question_type_mix={"L3": 1.0}, unanswerable_fraction=0.0, seed=2
    )
    train, dev, test, facts = generate_synthetic(cfg)
    events = [f for f in facts if f.relation == EVENT_RELATION]
    assert events
    for rec in train + dev + test:
        assert "era" in rec.question
        assert "era" in rec.context
        toks = tokenize(rec.question)
        spec = parse_question_time(toks, tag(toks))
        assert spec.kind in ("during_event", "before", "after")
        assert spec.event_name


def test_year_range_respected():
    cfg = SyntheticConfig(n_entities=10, year_range=(1900, 1960), seed=8)
    _, _, _, facts = generate_synthetic(cfg)
    for f in facts:
        assert 1900 * 12 <= f.interval.lo and f.interval.hi <= 1960 * 12 + 11


def test_careers_chronological_non_overlapping(small_index):
    by_pair = {}
    for f in small_index.facts:
        if f.relation == EVENT_RELATION:
            continue
        by_pair.setdefault((f.subject, f.relation), []).append(f)
    for facts in by_pair.values():
        for a, b in zip(facts, facts[1:]):
            assert a.interval.hi < b.interval.lo


def test_annotations_mark_every_dated_phrase():
    cfg = SyntheticConfig(n_entities=8, n_relations=1, seed=31)
    train, dev, test, _, annotations = generate_synthetic_annotated(cfg)
    for rec in train + dev + test:
        spans = annotations[rec.id]
        # offsets must slice real "Y to Y" phrases out of the context
        for a in spans:
            phrase = rec.context[a.char_start:a.char_end]
            assert re.fullmatch(r"\d{4} to \d{4}", phrase), phrase
        # every dated template occurrence is annotated
        assert len(spans) == rec.context.count(" to 1") + rec.context.count(" to 2")


def test_undated_distractors_have_no_years():
    cfg = SyntheticConfig(
        n_entities=12,
        n_relations=1,
        distractor_sentences_per_context=3,
        distractors_dated=False,
        unanswerable_fraction=0.0,
        question_type_mix={"L2": 1.0},
        seed=17,
    )
    train, dev, test, _ = generate_synthetic(cfg)
    saw_undated = 0
    for rec in train + dev + test:
        for sentence in rec.context.split(". "):
            if sentence.startswith("At one point"):
                saw_undated += 1
                assert not re.search(r"\d{4}", sentence), sentence
    assert saw_undated > 20
