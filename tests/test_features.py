"""Masks, dilation, embedding fusion, vocabulary."""

import json

import numpy as np
import pytest

from tsqa.features import (
    TemporalMask,
    Vocabulary,
    build_mask,
    concat_masks,
    dilate,
    embed_temporal,
    fuse,
    mark_spans,
)
from tsqa.tagger import TemporalSpan, tag, tokenize, words


def brute_dilate(bits, window):
    """Independent double-loop reference for the sliding-window widening."""
    n = len(bits)
    out = [0] * n
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if bits[j]:
                out[i] = 1
                break
    return out


def test_build_mask_from_tagged_spans():
    toks = tokenize("He played from 1966 to 1972 there.")
    spans = tag(toks)
    mask = build_mask(len(toks), spans)
    # "1966 to 1972" occupies token positions 3..5
    assert mask.bits.tolist() == [0, 0, 0, 1, 1, 1, 0, 0]


def test_build_mask_rejects_out_of_range_span():
    span = TemporalSpan(2, 5, "signal", None)
    with pytest.raises(ValueError):
        build_mask(3, [span])


def test_dilate_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(0, 40))
        window = int(rng.integers(0, 12))
        bits = rng.integers(0, 2, size=n)
        got = dilate(TemporalMask(bits), window).bits.tolist()
        assert got == brute_dilate(bits.tolist(), window)


def test_mark_spans_is_the_dilated_mask_in_place():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        window = int(rng.integers(0, 12))
        # Non-overlapping spans, as the tagger makes them.
        cuts = np.sort(rng.choice(n + 1, size=2 * int(rng.integers(0, n // 2 + 1)), replace=False))
        spans = [TemporalSpan(int(a), int(b), "signal", None) for a, b in cuts.reshape(-1, 2) if a < b]
        # A view inside a longer array: nothing outside it may be set.
        padded = np.zeros(n + 6, dtype=np.int8)
        mark_spans(padded[3 : 3 + n], spans, window)
        want = dilate(build_mask(n, spans), window).bits
        assert padded[3 : 3 + n].tolist() == want.tolist()
        assert not padded[:3].any() and not padded[3 + n :].any()
    with pytest.raises(ValueError, match="window must be >= 0"):
        mark_spans(np.zeros(3, dtype=np.int8), [], -1)


def test_dilate_window_wider_than_sequence():
    # a single hit must light up the whole sequence when 2w+1 > n
    bits = np.array([0, 0, 1, 0])
    assert dilate(TemporalMask(bits), 10).bits.tolist() == [1, 1, 1, 1]


def test_dilate_zero_window_is_identity():
    bits = np.array([0, 1, 0, 0, 1])
    out = dilate(TemporalMask(bits), 0)
    assert out.bits.tolist() == bits.tolist()


def test_dilate_rejects_negative_window():
    with pytest.raises(ValueError):
        dilate(TemporalMask(np.array([0, 1])), -1)


def test_concat_masks_orders_question_first():
    q = TemporalMask(np.array([1, 0]))
    c = TemporalMask(np.array([0, 0, 1]))
    assert concat_masks(q, c).bits.tolist() == [1, 0, 0, 0, 1]


def test_embed_temporal_selects_rows():
    time_table = np.array([[0.0, 0.0], [1.0, 2.0]])
    rows = embed_temporal(np.array([0, 1, 1], dtype=np.int8), time_table)
    assert rows.tolist() == [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]]


def test_fuse_add_and_concat():
    rng = np.random.default_rng(0)
    d, v, n = 3, 5, 4
    time_table = rng.normal(size=(2, d))
    text_table = rng.normal(size=(v, d))
    ids = [0, 2, 4, 1]
    bits = TemporalMask(np.array([0, 1, 0, 1])).bits
    added = fuse(ids, bits, text_table, time_table, mode="add")
    assert added.shape == (n, d)
    stacked = fuse(ids, bits, text_table, time_table, mode="concat")
    assert stacked.shape == (n, 2 * d)
    for i, (tid, bit) in enumerate(zip(ids, bits)):
        expect_add = text_table[tid] + time_table[bit]
        assert np.allclose(added[i], expect_add)
        assert np.allclose(stacked[i, :d], text_table[tid])
        assert np.allclose(stacked[i, d:], time_table[bit])


def test_fuse_zero_time_table_add_equals_text_rows():
    rng = np.random.default_rng(1)
    text_table = rng.normal(size=(6, 4))
    ids = [1, 2, 3]
    bits = TemporalMask(np.array([1, 1, 0])).bits
    fused = fuse(ids, bits, text_table, np.zeros((2, 4)), mode="add")
    assert np.array_equal(fused, text_table[ids])


def test_fuse_validates_inputs():
    text_table, time_table = np.zeros((3, 2)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="length"):
        fuse([0, 1], np.array([0]), text_table, time_table)
    with pytest.raises(ValueError, match="text table"):
        fuse([5], np.array([0]), text_table, time_table)
    with pytest.raises(ValueError, match="fusion mode"):
        fuse([0], np.array([0]), text_table, time_table, mode="mul")


def test_vocabulary_determinism_and_unk():
    v1 = Vocabulary(["b", "a", "c"])
    v2 = Vocabulary(["c", "a", "b"])
    assert v1.to_json() == v2.to_json()
    assert v1.encode(["a"])[0] == 1  # sorted after the reserved UNK row
    assert v1.encode(["zzz"])[0] == 0
    ids = v1.encode(["a", "unknown", "c"])
    assert ids.tolist() == [1, 0, 3]
    # Texts are looked up as given: compile lower-cases them first.
    assert v1.encode(["A"]).tolist() == [0]
    assert v1.encode([w.lower() for w in words("A c")]).tolist() == [1, 3]
    assert v1.encode([]).dtype == np.intp and v1.encode([]).size == 0


def test_vocabulary_json_round_trip():
    v = Vocabulary.build(["From 1966 to 1972.", "in 1987"], tokenize)
    clone = Vocabulary.from_json(v.to_json())
    for tok in ("from", "1966", "1987", "."):
        assert clone.encode([tok])[0] == v.encode([tok])[0]
    assert len(clone) == len(v)


def test_vocabulary_rejects_ids_that_are_not_a_range():
    payload = json.loads(Vocabulary(["a", "b", "c"]).to_json())
    with pytest.raises(ValueError, match="ids"):
        Vocabulary.from_json(json.dumps({**payload, "b": 4, "c": 5}))
    with pytest.raises(ValueError, match="ids"):
        Vocabulary.from_json(json.dumps({**payload, "c": 1}))


def test_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        TemporalMask(np.array([0, 2, 1]))


def test_masks_built_here_match_the_checked_constructor():
    toks = tokenize("He played from 1966 to 1972 there.")
    q = dilate(build_mask(len(toks), tag(toks)), 1)
    c = dilate(build_mask(3, []), 0)
    mask = concat_masks(q, c)
    # The same bits and dtype as the checked constructor gives them.
    assert mask.bits.dtype == np.int8 and mask.bits.tolist() == [0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    assert np.array_equal(TemporalMask(mask.bits).bits, mask.bits)
