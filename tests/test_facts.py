"""Fact store, question resolution, negative mining."""

import re

import numpy as np
import pytest

from tsqa.corpus import QuestionTimeSpec, SyntheticConfig, generate_synthetic
from tsqa.facts import (
    EVENT_RELATION,
    FactIndex,
    ResolutionError,
    TimeFact,
    _subseq_at,
    mine_proximal,
    mine_remote,
    resolve_question,
    sample_negatives,
)
from tsqa.intervals import MAX_MONTH, MIN_MONTH, MonthInterval, year_span
from tsqa.tagger import words


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


@pytest.mark.parametrize(
    "start, end, message",
    [
        (5, 10, "fact (A, b, c): start month index 5 outside"),
        (99999, 10, "fact (A, b, c): start month index 99999 outside"),
        (23400, 99999, "fact (A, b, c): end month index 99999 outside"),
        (None, -1, "fact (A, b, c): end month index -1 outside"),
    ],
    ids=["start-below", "start-above", "end-above", "end-negative"],
)
def test_a_fact_bound_that_is_not_a_month_names_the_fact(start, end, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TimeFact("A", "b", "c", start, end)


def test_index_dedup_and_pair():
    idx = FactIndex(CAREER + CAREER)
    assert len(idx) == len(CAREER)
    assert [f.object for f in idx.pair("Ada", "employer")] == ["Mill A", "Mill B", "Mill C"]
    assert idx.pair("Ada", "position") == []


def brute_proximal(subject, relation, gold, q, idx):
    """Reference proximal miner: every other pair's non-event fact that
    overlaps `q`, stably sorted by (lo, hi, subject, relation, object),
    objects deduplicated in that order, the gold left out."""
    hits = [
        f
        for f in idx.facts
        if f.interval.intersects(q) and (f.subject, f.relation) != (subject, relation) and f.relation != EVENT_RELATION
    ]
    hits.sort(key=lambda f: (f.interval.lo, f.interval.hi, f.subject, f.relation, f.object))
    return list(dict.fromkeys(f.object for f in hits if f.object != gold))


def brute_remote(subject, relation, gold, q, idx):
    """Reference remote miner: the pair's facts disjoint with `q`, stably
    sorted by (lo, hi, object) from store order."""
    pool = [f for f in idx.pair(subject, relation) if not f.interval.intersects(q)]
    pool.sort(key=lambda f: (f.interval.lo, f.interval.hi, f.object))
    return list(dict.fromkeys(f.object for f in pool if f.object != gold))


def test_mine_proximal_matches_brute_force():
    rng = np.random.default_rng(3)
    facts = []
    for i in range(200):
        y1 = int(rng.integers(1900, 1995))
        y2 = y1 + int(rng.integers(0, 10))
        facts.append(fact(f"s{i % 17}", f"r{i % 3}", f"o{i}", y1, y2))
    idx = FactIndex(facts)
    for k in range(100):
        y1 = int(rng.integers(1900, 2000))
        y2 = y1 + int(rng.integers(0, 6))
        probe = year_span(y1, y2)
        subject, relation, gold = f"s{k % 17}", f"r{k % 3}", f"o{2 * k}"
        want = brute_proximal(subject, relation, gold, probe, idx)
        assert mine_proximal(subject, relation, gold, probe, idx) == want, probe


def edge_store(rng):
    """Facts with open ends, shared (lo, hi) intervals, duplicates, an
    object carried by several pairs, and event facts."""
    bounds = [MIN_MONTH, MIN_MONTH + 1, 23400, 23411, 23412, 23423, 23430, MAX_MONTH - 1, MAX_MONTH]
    facts = []
    for i in range(120):
        a, b = sorted(int(x) for x in rng.choice(bounds, size=2))
        start = None if a == MIN_MONTH and rng.random() < 0.5 else a
        end = None if b == MAX_MONTH and rng.random() < 0.5 else b
        relation = EVENT_RELATION if i % 11 == 0 else f"r{i % 2}"
        facts.append(TimeFact(f"s{int(rng.integers(5))}", relation, f"o{int(rng.integers(15))}", start, end))
    return facts + facts[::7]  # duplicates, dropped by the index


def test_sorted_miners_match_the_reference_on_edge_stores():
    rng = np.random.default_rng(5)
    edges = [MIN_MONTH, MIN_MONTH + 1, 23399, 23400, 23411, 23412, 23413, 23423, 23424, MAX_MONTH - 1, MAX_MONTH]
    for _ in range(20):
        idx = FactIndex(edge_store(rng))
        for _ in range(40):
            # Question bounds sit on, just inside and just outside the facts' bounds.
            lo, hi = sorted(int(x) for x in rng.choice(edges, size=2))
            q = MonthInterval(None if lo == MIN_MONTH else lo, None if hi == MAX_MONTH else hi)
            subject, relation = f"s{int(rng.integers(5))}", str(rng.choice(["r0", "r1", EVENT_RELATION, "r9"]))
            gold = f"o{int(rng.integers(16))}"
            assert mine_proximal(subject, relation, gold, q, idx) == brute_proximal(subject, relation, gold, q, idx)
            assert mine_remote(subject, relation, gold, q, idx) == brute_remote(subject, relation, gold, q, idx)


def test_sorted_miners_on_ties_bounds_and_gold():
    tied = [
        TimeFact("Cy", "employer", "Zed Works", 23400, 23411),
        TimeFact("Bo", "team", "Alder", 23400, 23411),
        TimeFact("Bo", "employer", "Yew Mill", 23400, 23411),
        TimeFact("Bo", "employer", "Ash Mill", 23400, 23411),
        TimeFact("Al", "employer", "Gold Co", 23412, 23423),  # starts the month after the question ends
        TimeFact("Al", "employer", "Gold Co", None, 23399),  # ends the month before it starts
        TimeFact("Di", "employer", "Gold Co", 23411, None),  # starts on its last month
        TimeFact("Di", "employer", "Elm Yard", None, 23400),  # ends on its first month
        TimeFact("Di", "employer", "Elm Yard", None, 23400),
        TimeFact("Fair", EVENT_RELATION, "Fair", 23400, 23411),
    ]
    idx = FactIndex(tied)
    q = MonthInterval(23400, 23411)
    # Open starts sort first; equal (lo, hi) go by subject, relation, object.
    assert mine_proximal("Al", "employer", "", q, idx) == ["Elm Yard", "Ash Mill", "Yew Mill", "Alder", "Zed Works", "Gold Co"]
    assert mine_proximal("Al", "employer", "Gold Co", q, idx) == ["Elm Yard", "Ash Mill", "Yew Mill", "Alder", "Zed Works"]
    assert mine_proximal("Bo", "employer", "Alder", q, idx) == ["Elm Yard", "Zed Works", "Gold Co"]
    assert mine_remote("Al", "employer", "", q, idx) == ["Gold Co"]
    assert mine_remote("Al", "employer", "Gold Co", q, idx) == []
    assert mine_remote("Di", "employer", "", MonthInterval(23401, 23410), idx) == ["Elm Yard", "Gold Co"]
    assert mine_remote("Fair", EVENT_RELATION, "", MonthInterval(23412, 23412), idx) == ["Fair"]
    assert mine_remote("Nobody", "employer", "", q, idx) == []


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


def test_sample_negatives_rejects_a_negative_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="k_per_side must be >= 0, got -2"):
        sample_negatives(["r0", "r1"], ["p0", "p1"], -2, rng)
    assert sample_negatives(["r0"], ["p0"], 0, rng) == ([], [])


def test_sample_negatives_no_replacement():
    rng = np.random.default_rng(1)
    for _ in range(50):
        got_remote, got_proximal = sample_negatives(
            [f"r{i}" for i in range(4)], [f"p{i}" for i in range(4)], 4, rng
        )
        assert len(set(got_remote)) == 4
        assert len(set(got_proximal)) == 4


def test_subseq_at_finds_the_first_run_like_a_scan():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        haystack = [str(t) for t in rng.integers(0, 3, size=int(rng.integers(0, 12)))]
        needle = [str(t) for t in rng.integers(0, 3, size=int(rng.integers(0, 4)))]
        m = len(needle)
        want = next((i for i in range(len(haystack) - m + 1) if m and haystack[i : i + m] == needle), None)
        assert _subseq_at(haystack, needle) == want, (haystack, needle)


def test_indexes_sharing_a_name_memo_tokenize_each_name_once(monkeypatch):
    import tsqa.facts

    calls = []
    split = tsqa.facts.words
    monkeypatch.setattr(tsqa.facts, "words", lambda text: calls.append(text) or split(text))
    names: dict = {}
    shared = [FactIndex(CAREER, names) for _ in range(3)]
    for idx in shared:
        assert [idx.object_tokens(f.object) for f in CAREER] == [idx.object_tokens(f.object) for f in CAREER]
        # Subject names are tokenized when the first lookup builds the name map.
        assert idx.mentioned_subjects(["ada", "met", "ben"], lower=True) == ["Ada", "Ben"]
    distinct = {f.subject for f in CAREER} | {f.object for f in CAREER}
    assert sorted(calls) == sorted(distinct)
    # The memo changes no answer: a fresh index reads the same tokens and subjects.
    fresh = FactIndex(CAREER)
    for idx in shared:
        assert idx.mentioned_subjects(["ada", "met", "ben"], lower=True) == fresh.mentioned_subjects(
            ["ada", "met", "ben"], lower=True
        )
        assert [idx.object_tokens(f.object) for f in CAREER] == [fresh.object_tokens(f.object) for f in CAREER]


def first_token_scan(idx, lower):
    """The subject lookup that `mentioned_subjects` replaced, kept as its
    oracle: subjects bucketed by their first token, and each subject of a
    bucket whose first token the text holds checked with `_subseq_at`."""
    by_first = {}
    for s in idx.subjects:
        toks = [t.lower() if lower else t for t in words(s)]
        if toks:
            by_first.setdefault(toks[0], []).append((s, toks))
    return lambda tokens: sorted(
        s for first in set(tokens) for s, toks in by_first.get(first, ()) if _subseq_at(tokens, toks) is not None
    )


# Names that share a first token, nest ("Vera Zel" inside "Vera Zel Orley")
# and differ only in case.
NESTED = ["Vera", "Vera Zel", "Vera Zel Orley", "Vera Orley", "vera zel", "VERA ZEL", "Zel Orley", "Orley"]


@pytest.mark.parametrize("seed", [2, 9])
def test_subject_lookup_by_name_matches_the_first_token_scan(seed):
    train, dev, test, facts = generate_synthetic(SyntheticConfig(n_entities=60, seed=seed))
    facts += [fact(name, "employer", f"Works {k}", 1950, 1951) for k, name in enumerate(NESTED)]
    idx = FactIndex(facts)
    texts = [t for r in train + dev + test for t in (r.question, r.context)]
    vocab = sorted({w for name in idx.subjects for w in words(name)}) + ["worked", "for", ",", "."]
    rng = np.random.default_rng(seed)
    texts += [" ".join(rng.choice(vocab, size=int(rng.integers(0, 30)))) for _ in range(300)]
    found = 0
    for lower in (False, True):
        scan = first_token_scan(idx, lower)
        for text in texts:
            tokens = [w.lower() for w in words(text)] if lower else words(text)
            want = scan(tokens)
            assert idx.mentioned_subjects(tokens, lower=lower) == want, (text, lower)
            found += len(want) > 1
    assert found > 100  # many texts mention several subjects, nested ones among them
    assert idx.mentioned_subjects(["vera", "zel", "orley"], lower=True) == [
        "Orley", "VERA ZEL", "Vera", "Vera Zel", "Vera Zel Orley", "Zel Orley", "vera zel"
    ]
    assert idx.mentioned_subjects(["Vera", "Zel", "Orley"], lower=False) == [
        "Orley", "Vera", "Vera Zel", "Vera Zel Orley", "Zel Orley"
    ]
