"""Answer embedding, triplet score, bounded reward map."""

import hashlib
import math

import numpy as np
import pytest

from tsqa import reward as reward_mod
from tsqa.metrics import normalize_answer
from tsqa.reward import (
    RewardParams,
    embed_answer,
    load_lookup_table,
    reward,
    score_prediction,
    triplet_score,
)

# Reference values computed once with 60-digit arithmetic (mpmath) for
# R(t) = 4 * (2 / (1 + e^t + 1e-6)) - 2.
HIGH_PRECISION_R = {
    0.0: 1.9999980000009999995,
    0.5: 1.020324210089941218302066,
    1.0: 0.1515307923242115570054819,
    2.0: -1.046376737497738951012198,
    5.0: -1.946457192964075181084299,
    30.0: -1.999999999999251390162493,
}


def test_reward_matches_high_precision_reference():
    params = RewardParams()
    for t, want in HIGH_PRECISION_R.items():
        assert reward(t, params) == pytest.approx(want, abs=1e-12)


def test_reward_at_zero_close_to_two():
    # the delta term keeps the map off the asymptote: R(0) is just below 2
    r0 = reward(0.0, RewardParams())
    assert 1.999997 < r0 < 2.0
    assert r0 == pytest.approx(1.999998000001, abs=1e-12)


def test_reward_bounds_and_monotonicity():
    params = RewardParams()
    grid = np.linspace(0.0, 30.0, 10_000)
    values = [reward(float(t), params) for t in grid]
    assert all(-2.0 <= v < 2.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_reward_rejects_negative_score():
    with pytest.raises(ValueError):
        reward(-0.1, RewardParams())


def test_reward_params_validation():
    with pytest.raises(ValueError):
        RewardParams(alpha=0)
    with pytest.raises(ValueError):
        RewardParams(margin=-1)
    with pytest.raises(ValueError):
        RewardParams(embedder="word2vec")
    with pytest.raises(ValueError):
        RewardParams(neg_aggregate="max")


def test_embed_answer_norms():
    params = RewardParams()
    assert np.linalg.norm(embed_answer("", params)) == 0.0
    assert np.linalg.norm(embed_answer("the a an", params)) == 0.0  # articles drop out
    v = embed_answer("Leeds United F.C.", params)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_embed_answer_normalization_invariance():
    params = RewardParams()
    a = embed_answer("Leeds United F.C.", params)
    b = embed_answer("  leeds UNITED fc  ", params)
    assert np.allclose(a, b)


def test_embed_answer_deterministic():
    params = RewardParams()
    a = embed_answer("Gainsborough Trinity", params)
    b = embed_answer("Gainsborough Trinity", params)
    assert np.array_equal(a, b)


def per_gram_embedding(answer, dim):
    """Signed trigram hashing with one blake2b call per gram occurrence."""
    acc = np.zeros(dim)
    for word in normalize_answer(answer).split():
        padded = f"#{word}#"
        for i in range(len(padded) - 2):
            digest = hashlib.blake2b(padded[i:i + 3].encode("utf-8"), digest_size=8).digest()
            h = int.from_bytes(digest, "little")
            acc[h % dim] += 1.0 if (h >> 60) & 1 else -1.0
    norm = float(np.linalg.norm(acc))
    return np.zeros(dim) if norm == 0.0 else acc / norm


@pytest.mark.parametrize("dim", [1, 7, 256])
@pytest.mark.parametrize(
    "answer",
    ["aaaa", "aaaa aaaa baaaab", "1987 to 1991", "?!.,;", "Zürich Straße", "Škoda Ωmega 東京", "Leeds United F.C."],
)
def test_embed_answer_matches_per_gram_hashing(answer, dim):
    reward_mod._slot.cache_clear()
    cold = embed_answer(answer, RewardParams(dim=dim))
    warm = embed_answer(answer, RewardParams(dim=dim))
    want = per_gram_embedding(answer, dim)
    assert cold.tolist() == want.tolist()
    assert warm.tolist() == want.tolist()


def test_reward_cache_build_hashes_each_distinct_trigram_once(monkeypatch, small_compiled):
    from tsqa.trainer import build_reward_caches

    def grams_of(texts):
        return {
            f"#{w}#"[i:i + 3]
            for t in texts
            for w in normalize_answer(t).split()
            for i in range(len(w))
        }

    calls = []
    original = reward_mod._hash
    monkeypatch.setattr(reward_mod, "_hash", lambda gram: calls.append(gram) or original(gram))
    reward_mod._slot.cache_clear()
    train = small_compiled[0][:20]
    build_reward_caches(train, RewardParams())
    texts = {t for comp in train for t in [c.text for c in comp.candidates]}
    texts |= {comp.gold_answers[0] if comp.gold_answers else "" for comp in train}
    pooled = {t for comp in train for t in comp.remote_pool + comp.proximal_pool}
    grams = grams_of(texts)
    assert grams_of(pooled - texts) - grams  # pool-only strings bring grams of their own
    occurrences = sum(len(w) for t in texts for w in normalize_answer(t).split())
    assert occurrences > 2 * len(grams)  # the memo has repeats to save
    assert sorted(calls) == sorted(grams)  # pooled negatives wait for a draw
    reward_mod._slot.cache_clear()


def l2(a, b):
    """Reference distance, independent of the one the reward computes."""
    return float(np.linalg.norm(a - b))


def vec(text, params):
    return embed_answer(text, params)


def test_identical_answers_zero_distance():
    params = RewardParams()
    a = vec("Mill Bank", params)
    b = vec("Mill Bank", params)
    assert triplet_score(a, b, np.zeros((0, params.dim))) == 0.0


def test_triplet_score_cases():
    params = RewardParams()
    gt = vec("alpha works", params)
    pred_exact = vec("alpha works", params)
    neg = vec("omega plant", params)
    # exact prediction with a distant negative scores 0 under margin <= d_neg
    assert triplet_score(gt, pred_exact, np.array([neg]), margin=1.0) == pytest.approx(
        max(0.0 - l2(pred_exact, neg) + 1.0, 0.0)
    )
    # no negatives: plain positive distance
    pred_off = vec("omega plant", params)
    assert triplet_score(gt, pred_off, np.array([])) == pytest.approx(l2(gt, pred_off))


def test_triplet_score_hardest_vs_mean():
    params = RewardParams()
    gt = vec("target name", params)
    pred = vec("prediction text", params)
    negs = np.array([vec(n, params) for n in ("near miss", "far away", "also wrong")])
    dists = [l2(pred, n) for n in negs]
    d_pos = l2(gt, pred)
    hardest = triplet_score(gt, pred, negs, margin=1.0, neg_aggregate="min")
    averaged = triplet_score(gt, pred, negs, margin=1.0, neg_aggregate="mean")
    assert hardest == pytest.approx(max(d_pos - min(dists) + 1.0, 0.0))
    assert averaged == pytest.approx(max(d_pos - sum(dists) / 3 + 1.0, 0.0))
    assert hardest >= averaged  # the nearest negative is the strictest


def test_triplet_clamps_at_zero():
    params = RewardParams(dim=8)
    gt = vec("same", params)
    pred = vec("same", params)
    # a negative identical to the prediction gives d_neg = 0, so the
    # hinge is active: 0 - 0 + margin
    neg = vec("same", params)
    assert triplet_score(gt, pred, np.array([neg]), margin=0.5) == pytest.approx(0.5)
    # margin 0 with positive d_neg clamps to zero
    assert triplet_score(gt, pred, np.array([vec("other", params)]), margin=0.0) == 0.0


def test_score_prediction_orders_good_above_bad():
    params = RewardParams()
    negs = ["Mill A", "Yard D"]
    good = score_prediction("Mill B", "Mill B", negs, params)
    bad = score_prediction("Mill B", "Mill A", negs, params)
    assert good > bad


def test_score_prediction_empty_gold_exact():
    params = RewardParams()
    # both empty: distance 0, negatives far -> top reward
    top = score_prediction("", "", ["Mill A"], params)
    assert top == pytest.approx(reward(0.0, params), abs=1e-12)


def test_lookup_table_embedder(tmp_path):
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text(
        "mill 1.0 0.0\nbank 0.0 1.0\n",
        encoding="utf-8",
    )
    table = load_lookup_table(vec_file, dim=2)
    params = RewardParams(dim=2, embedder="lookup_table", lookup_table=table)
    v = embed_answer("Mill Bank", params)
    assert np.allclose(v, np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5]))
    # OOV-only answers embed to zero
    assert np.linalg.norm(embed_answer("unknown words", params)) == 0.0


def test_lookup_table_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("mill 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_lookup_table(bad, dim=2)
    with pytest.raises(FileNotFoundError):
        load_lookup_table(tmp_path / "missing.txt", dim=2)

