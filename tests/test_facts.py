"""Fact store, question resolution, negative mining."""

import numpy as np
import pytest

from tsqa.corpus import QuestionTimeSpec
from tsqa.facts import (
    EVENT_RELATION,
    FactIndex,
    ResolutionError,
    TimeFact,
    mine_proximal,
    mine_remote,
    resolve_question,
    sample_negatives,
)
from tsqa.intervals import MonthInterval, year_span


def fact(s, r, o, y1, y2):
    iv = year_span(y1, y2)
    return TimeFact(s, r, o, iv.start, iv.end)


CAREER = [
    fact("Ada", "employer", "Mill A", 1950, 1955),
    fact("Ada", "employer", "Mill B", 1957, 1960),
    fact("Ada", "employer", "Mill C", 1963, 1969),
    fact("Ben", "employer", "Mill B", 1952, 1958),
    fact("Ben", "employer", "Yard D", 1959, 1964),
    fact("Ada", "team", "Rovers", 1951, 1954),
    TimeFact("Harbour Strike", EVENT_RELATION, "Harbour Strike",
             year_span(1958, 1959).start, year_span(1958, 1959).end),
]


def test_index_dedup_and_pair():
    idx = FactIndex(CAREER + CAREER)
    assert len(idx) == len(CAREER)
    assert [f.object for f in idx.pair("Ada", "employer")] == ["Mill A", "Mill B", "Mill C"]
    assert idx.pair("Ada", "position") == []


def test_overlapping_matches_brute_force():
    rng = np.random.default_rng(3)
    facts = []
    for i in range(200):
        y1 = int(rng.integers(1900, 1995))
        y2 = y1 + int(rng.integers(0, 10))
        facts.append(fact(f"s{i % 17}", f"r{i % 3}", f"o{i}", y1, y2))
    idx = FactIndex(facts)
    for _ in range(100):
        y1 = int(rng.integers(1900, 2000))
        y2 = y1 + int(rng.integers(0, 6))
        probe = year_span(y1, y2)
        got = set(idx.overlapping(probe).tolist())
        want = {i for i, f in enumerate(idx.facts) if f.interval.intersects(probe)}
        assert got == want


def test_event_interval_lookup():
    idx = FactIndex(CAREER)
    iv = idx.event_interval("Harbour Strike")
    assert iv == year_span(1958, 1959)
    with pytest.raises(ResolutionError):
        idx.event_interval("Unknown Event")


def brute_resolve(spec, subject, relation, idx):
    """Reference resolver written as plain scans over the pair's facts."""
    facts = idx.pair(subject, relation)
    interval = spec.interval
    kind = spec.kind
    if kind in ("during_event", "before", "after") and interval is None:
        if not spec.event_name:
            return ""
        interval = idx.event_interval(spec.event_name)
    if kind == "during_event":
        kind = "range"
    if kind in ("point", "range"):
        best, best_key = "", None
        for f in facts:
            ov = f.interval.overlap_months(interval)
            if ov <= 0:
                continue
            key = (ov, -f.interval.lo, f.object)
            if best_key is None or key > best_key:
                best, best_key = f.object, key
        return best
    if kind == "first":
        return min(facts, key=lambda f: (f.interval.lo, f.interval.lo, f.object)).object if facts else ""
    if kind == "last":
        return max(facts, key=lambda f: (f.interval.lo, f.interval.lo, f.object)).object if facts else ""
    if kind == "before":
        hits = [f for f in facts if f.interval.hi <= interval.lo]
        return max(hits, key=lambda f: (f.interval.hi, f.interval.lo, f.object)).object if hits else ""
    if kind == "after":
        hits = [f for f in facts if f.interval.lo >= interval.hi]
        return min(hits, key=lambda f: (f.interval.lo, f.interval.lo, f.object)).object if hits else ""
    return ""


def test_resolve_point_and_range():
    idx = FactIndex(CAREER)
    point = QuestionTimeSpec(kind="point", interval=year_span(1958, 1958))
    assert resolve_question(point, "Ada", "employer", idx) == "Mill B"
    # 1954-1958 overlaps Mill A and Mill B for 24 months each; the tie
    # breaks toward the earlier start
    rng_spec = QuestionTimeSpec(kind="range", interval=year_span(1954, 1958))
    assert resolve_question(rng_spec, "Ada", "employer", idx) == "Mill A"
    late = QuestionTimeSpec(kind="range", interval=year_span(1956, 1958))
    assert resolve_question(late, "Ada", "employer", idx) == "Mill B"


def test_resolve_gap_year_is_unanswerable():
    idx = FactIndex(CAREER)
    spec = QuestionTimeSpec(kind="point", interval=year_span(1956, 1956))
    assert resolve_question(spec, "Ada", "employer", idx) == ""


def test_resolve_first_last_before_after():
    idx = FactIndex(CAREER)
    assert resolve_question(QuestionTimeSpec(kind="first"), "Ada", "employer", idx) == "Mill A"
    assert resolve_question(QuestionTimeSpec(kind="last"), "Ada", "employer", idx) == "Mill C"
    before = QuestionTimeSpec(kind="before", interval=year_span(1957, 1957))
    assert resolve_question(before, "Ada", "employer", idx) == "Mill A"
    after = QuestionTimeSpec(kind="after", interval=year_span(1956, 1956))
    assert resolve_question(after, "Ada", "employer", idx) == "Mill B"
    # nothing strictly before the earliest span
    early = QuestionTimeSpec(kind="before", interval=year_span(1950, 1950))
    assert resolve_question(early, "Ada", "employer", idx) == ""


def test_resolve_during_event():
    idx = FactIndex(CAREER)
    spec = QuestionTimeSpec(kind="during_event", event_name="Harbour Strike")
    assert resolve_question(spec, "Ada", "employer", idx) == "Mill B"
    bad = QuestionTimeSpec(kind="during_event", event_name="No Such Thing")
    with pytest.raises(ResolutionError):
        resolve_question(bad, "Ada", "employer", idx)


def test_resolve_matches_brute_force_random():
    rng = np.random.default_rng(11)
    facts = []
    for i in range(300):
        y1 = int(rng.integers(1900, 1990))
        facts.append(fact(f"s{i % 23}", f"r{i % 2}", f"o{i}", y1, y1 + int(rng.integers(0, 8))))
    idx = FactIndex(facts)
    kinds = ["point", "range", "first", "last", "before", "after"]
    for _ in range(500):
        subject = f"s{int(rng.integers(0, 23))}"
        relation = f"r{int(rng.integers(0, 2))}"
        kind = kinds[int(rng.integers(0, len(kinds)))]
        y1 = int(rng.integers(1900, 2000))
        iv = year_span(y1, y1 + int(rng.integers(0, 5)))
        spec = (
            QuestionTimeSpec(kind=kind)
            if kind in ("first", "last")
            else QuestionTimeSpec(kind=kind, interval=iv)
        )
        assert resolve_question(spec, subject, relation, idx) == brute_resolve(
            spec, subject, relation, idx
        )


def test_mine_remote_disjoint_same_pair():
    idx = FactIndex(CAREER)
    q = year_span(1958, 1958)
    remote = mine_remote("Ada", "employer", "Mill B", q, idx)
    assert remote == ["Mill A", "Mill C"]
    for obj in remote:
        for f in idx.pair("Ada", "employer"):
            if f.object == obj:
                assert not f.interval.intersects(q)


def test_mine_proximal_overlapping_other_pairs():
    idx = FactIndex(CAREER)
    q = year_span(1959, 1959)
    proximal = mine_proximal("Ada", "employer", "Mill B", q, idx)
    # Yard D (Ben, 1959-64) overlaps the probe year; the event fact and
    # Ada's own facts never mine as proximal.
    assert proximal == ["Yard D"]
    # the gold surface form is filtered even when another pair carries it
    q2 = year_span(1957, 1957)
    assert "Mill B" not in mine_proximal("Ada", "employer", "Mill B", q2, idx)


def test_mining_invariants_random():
    rng = np.random.default_rng(19)
    facts = []
    for i in range(400):
        y1 = int(rng.integers(1900, 1990))
        facts.append(fact(f"s{i % 29}", f"r{i % 3}", f"o{i % 113}", y1, y1 + int(rng.integers(0, 9))))
    idx = FactIndex(facts)
    for _ in range(300):
        subject = f"s{int(rng.integers(0, 29))}"
        relation = f"r{int(rng.integers(0, 3))}"
        y1 = int(rng.integers(1900, 1995))
        q = year_span(y1, y1 + int(rng.integers(0, 4)))
        gold = resolve_question(
            QuestionTimeSpec(kind="point", interval=q), subject, relation, idx
        )
        remote = mine_remote(subject, relation, gold, q, idx)
        proximal = mine_proximal(subject, relation, gold, q, idx)
        assert gold not in remote and gold not in proximal
        assert len(set(remote)) == len(remote)
        assert len(set(proximal)) == len(proximal)
        own = {f.object for f in idx.pair(subject, relation)}
        for obj in remote:
            assert obj in own
        pair_objs = {
            (f.subject, f.relation, f.object) for f in idx.facts
        }
        for obj in proximal:
            hit = [
                f
                for f in idx.facts
                if f.object == obj
                and (f.subject, f.relation) != (subject, relation)
                and f.interval.intersects(q)
            ]
            assert hit, (obj, subject, relation)


def test_sample_negatives_balanced_truncation():
    rng = np.random.default_rng(0)
    remote = [f"r{i}" for i in range(5)]
    proximal = [f"p{i}" for i in range(2)]
    got_remote, got_proximal = sample_negatives(remote, proximal, 3, rng)
    assert len(got_remote) == len(got_proximal) == 2
    assert set(got_remote) <= set(remote)
    assert set(got_proximal) <= set(proximal)
    assert sample_negatives(remote, [], 3, rng) == ([], [])


def test_sample_negatives_no_replacement():
    rng = np.random.default_rng(1)
    for _ in range(50):
        got_remote, got_proximal = sample_negatives(
            [f"r{i}" for i in range(4)], [f"p{i}" for i in range(4)], 4, rng
        )
        assert len(set(got_remote)) == 4
        assert len(set(got_proximal)) == 4
