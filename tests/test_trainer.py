"""Optimizer, advantage estimation, both training stages, PPO mechanics."""

import math

import numpy as np
import pytest

from tsqa.config import FeatureConfig
from tsqa.corpus import QARecord, QuestionType
from tsqa.facts import FactIndex, TimeFact
from tsqa.features import Vocabulary
from tsqa.intervals import year_span
from tsqa.metrics import evaluate_compiled
from tsqa.policy import (
    PolicyDims,
    compile_record,
    featurize_record,
    forward,
    init_params,
    loss_and_grads,
    zeros_like_params,
)
from tsqa.reward import RewardParams, reward
from tsqa.tagger import tokenize
from tsqa.trainer import (
    AdamW,
    PPOConfig,
    SFTConfig,
    adaptive_kl_update,
    build_reward_caches,
    build_vocabulary,
    collect_rollouts,
    compute_gae,
    history_to_csv,
    ppo_update,
    reference_probs,
    standardize_advantages,
    train_ppo_compiled,
    train_sft_compiled,
)


# ---------------------------------------------------------------------------
# Configuration and optimizer.


def test_config_validation():
    with pytest.raises(ValueError):
        SFTConfig(epochs=-1)
    with pytest.raises(ValueError):
        SFTConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        PPOConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PPOConfig(cliprange=-0.1)
    with pytest.raises(ValueError):
        PPOConfig(reward_kind="shaped")
    PPOConfig(cliprange=1e9)  # arbitrarily wide clipping is legal


def tiny_params():
    dims = PolicyDims(vocab_size=3, embed_dim=2, hidden=2, feature_dim=8, pooled_dim=5)
    return init_params(np.random.default_rng(0), dims)


def test_adamw_decay_set():
    params = tiny_params()
    before = params.clone()
    opt = AdamW(params, learning_rate=0.1, weight_decay=0.5)
    opt.step(params, zeros_like_params(params))
    # zero gradients: decoupled decay shrinks only the dense weights
    for name, t in params.named_tensors():
        ref = dict(before.named_tensors())[name]
        if name in ("W1", "W2", "Wv"):
            assert np.allclose(t, ref * (1 - 0.1 * 0.5))
        else:
            assert np.array_equal(t, ref)


def test_adamw_first_step_direction():
    params = tiny_params()
    before = params.W1.copy()
    grads = zeros_like_params(params)
    grads.W1[0, 0] = 2.0
    opt = AdamW(params, learning_rate=0.01)
    opt.step(params, grads)
    # after bias correction the first step is lr * g / (|g| + eps)
    expected = before[0, 0] - 0.01 * 2.0 / (2.0 + opt.eps)
    assert params.W1[0, 0] == pytest.approx(expected, abs=1e-12)
    delta = params.W1 - before
    delta[0, 0] = 0.0
    assert not delta.any()


def test_adamw_step_rejects_non_finite_parameters():
    # The finiteness check runs once per step, not once per record featurized.
    params = tiny_params()
    grads = zeros_like_params(params)
    grads.text_table[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite values in text_table"):
        AdamW(params, learning_rate=0.01).step(params, grads)


# ---------------------------------------------------------------------------
# Advantage estimation.


def test_gae_one_step_episodes_collapse():
    rng = np.random.default_rng(0)
    r = rng.normal(size=40)
    v = rng.normal(size=40)
    adv, ret = compute_gae(r, v, gamma=0.99, lam=0.95)
    assert np.array_equal(adv, r - v)
    assert np.allclose(ret, r, atol=1e-12)  # (r - v) + v round trips in float


def test_gae_multi_step_hand_unrolled():
    # gamma = lam = 0.5, one episode of three steps ending in a terminal
    adv, ret = compute_gae(
        [1.0, 2.0, 3.0], [10.0, 20.0, 30.0], gamma=0.5, lam=0.5, dones=[0, 0, 1]
    )
    assert np.allclose(adv, [-1.4375, -9.75, -27.0], atol=1e-12)
    assert np.allclose(ret, [8.5625, 10.25, 3.0], atol=1e-12)


def test_gae_terminal_boundary_blocks_bootstrap():
    # two one-step episodes back to back: the done flag must stop both
    # the value bootstrap and the advantage carry
    adv, _ = compute_gae([1.0, 5.0], [0.5, 0.25], gamma=0.9, lam=0.9, dones=[1, 1])
    assert np.allclose(adv, [0.5, 4.75])


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        compute_gae([1.0], [1.0, 2.0], gamma=0.9, lam=0.9)


def test_standardize_advantages():
    rng = np.random.default_rng(1)
    a = rng.normal(loc=3.0, scale=2.0, size=500)
    s = standardize_advantages(a)
    assert s.mean() == pytest.approx(0.0, abs=1e-12)
    assert s.std() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(standardize_advantages(np.full(8, 2.5)), np.zeros(8))
    assert np.array_equal(standardize_advantages(np.array([1.7])), np.zeros(1))


def test_adaptive_kl_controller():
    cfg = PPOConfig()
    # twice the target saturates the error clip at +0.2
    assert adaptive_kl_update(0.05, 12.0, cfg, 256) == pytest.approx(
        0.05 * 1.00512, abs=1e-12
    )
    assert adaptive_kl_update(0.05, 6.0, cfg, 256) == pytest.approx(0.05, abs=1e-15)
    assert adaptive_kl_update(0.05, 0.0, cfg, 256) == pytest.approx(
        0.05 * (1 - 0.00512), abs=1e-12
    )
    huge = adaptive_kl_update(0.05, 1e9, cfg, 256)
    assert huge == pytest.approx(0.05 * 1.00512, abs=1e-12)  # still clipped
    with pytest.raises(ValueError):
        adaptive_kl_update(0.0, 1.0, cfg, 256)


# ---------------------------------------------------------------------------
# Supervised stage.


def fact(s, r, o, y1, y2):
    iv = year_span(y1, y2)
    return TimeFact(s, r, o, iv.start, iv.end)


FACTS = [
    fact("Neil Warnock", "employer", "Girton College", 1950, 1955),
    fact("Neil Warnock", "employer", "St Hugh's College", 1957, 1961),
]

CTX = (
    "From 1950 to 1955, Neil Warnock worked for Girton College. "
    "From 1957 to 1961, Neil Warnock worked for St Hugh's College."
)


def make_record(rid, gold):
    return QARecord(
        id=rid,
        question="Which employer did Neil Warnock work for in 1958?",
        context=CTX,
        gold_answers=[gold],
        question_type=QuestionType.L2_POINT,
        facts=FACTS,
    )


def compile_batch(golds, config):
    records = [make_record(f"r{i}", g) for i, g in enumerate(golds)]
    vocab = Vocabulary.build(
        [r.question for r in records] + [r.context for r in records], tokenize
    )
    index = FactIndex(FACTS)
    return [compile_record(r, index, vocab, config) for r in records], vocab


def test_sft_aborts_when_too_many_golds_unresolvable(tiny_features):
    golds = ["St Hugh's College"] * 4 + ["Atlantis Office"]
    compiled, vocab = compile_batch(golds, tiny_features)
    assert compiled[-1].gold_index == -1
    with pytest.raises(RuntimeError, match="unresolvable"):
        train_sft_compiled(
            compiled, compiled[:1], SFTConfig(epochs=1), tiny_features, len(vocab)
        )


def test_sft_skips_and_reports_small_fraction(tiny_features):
    golds = ["St Hugh's College"] * 19 + ["Atlantis Office"]
    compiled, vocab = compile_batch(golds, tiny_features)
    params, history = train_sft_compiled(
        compiled, compiled[:2], SFTConfig(epochs=1), tiny_features, len(vocab)
    )
    assert history[0]["skipped"] == 1
    assert len(history) == 1


def test_sft_zero_epochs_returns_init(tiny_features, small_compiled, small_vocab):
    dims = PolicyDims.from_config(len(small_vocab), tiny_features)
    init = init_params(np.random.default_rng(9), dims)
    params, history = train_sft_compiled(
        small_compiled[0],
        small_compiled[1],
        SFTConfig(epochs=0),
        tiny_features,
        len(small_vocab),
        init=init,
    )
    assert history == []
    for (_, a), (_, b) in zip(params.named_tensors(), init.named_tensors()):
        assert np.array_equal(a, b)
    params.W1[0, 0] += 1.0  # returned copy must not alias the input
    assert init.W1[0, 0] != params.W1[0, 0]


def test_sft_deterministic_and_improves(tiny_features, small_compiled, small_vocab):
    cfg = SFTConfig(epochs=4, seed=3)
    run = lambda: train_sft_compiled(
        small_compiled[0], small_compiled[1], cfg, tiny_features, len(small_vocab)
    )
    params_a, hist_a = run()
    params_b, hist_b = run()
    for (_, a), (_, b) in zip(params_a.named_tensors(), params_b.named_tensors()):
        assert np.array_equal(a, b)
    assert hist_a == hist_b
    assert len(hist_a) == 4
    best = max(h["dev_em"] for h in hist_a)
    returned = evaluate_compiled(small_compiled[1], params_a, tiny_features).em
    assert returned == pytest.approx(best)  # best-dev checkpoint is returned
    assert best >= hist_a[0]["dev_em"]


def test_sft_rejects_empty_splits(tiny_features, small_compiled, small_vocab):
    train, dev = small_compiled[0], small_compiled[1]
    cfg = SFTConfig(epochs=1)
    with pytest.raises(ValueError, match="train set is empty"):
        train_sft_compiled([], dev, cfg, tiny_features, len(small_vocab))
    with pytest.raises(ValueError, match="dev set is empty"):
        train_sft_compiled(train, [], cfg, tiny_features, len(small_vocab))


# ---------------------------------------------------------------------------
# Reward caches and rollouts.


@pytest.fixture(scope="module")
def sft_setup(small_compiled, small_vocab, tiny_features):
    params, _ = train_sft_compiled(
        small_compiled[0],
        small_compiled[1],
        SFTConfig(epochs=2, seed=1),
        tiny_features,
        len(small_vocab),
    )
    return params


def test_reward_caches_match_direct_scores(small_compiled):
    rp = RewardParams()
    compiled = small_compiled[0][:20]
    caches = build_reward_caches(compiled, rp)
    from tsqa.metrics import exact_match
    from tsqa.reward import embed_answer

    for comp, cache in zip(compiled, caches):
        gold = comp.gold_answers[0] if comp.gold_answers else ""
        gvec = embed_answer(gold, rp).values
        for k, text in enumerate(comp.candidates.texts):
            d = float(np.linalg.norm(embed_answer(text, rp).values - gvec))
            got = np.linalg.norm(cache.table[cache.cand_rows[k]] - cache.table[cache.gold_row])
            assert got == pytest.approx(d, abs=1e-12)
            want = 1.0 if exact_match(text, comp.gold_answers) else -1.0
            assert cache.em_sign[k] == want
        assert len(cache.cand_rows) == len(comp.candidates)
        assert len(cache.remote_rows) == len(comp.remote_pool)
        assert len(cache.proximal_rows) == len(comp.proximal_pool)


def test_contrastive_reward_no_negatives_uses_raw_distance():
    from tsqa.trainer import _contrastive_raw, _RewardCache

    rp = RewardParams()
    cache = _RewardCache(
        table=np.array([[0.0, 0.0], [1.3, 0.0]]),
        cand_rows=np.array([0, 1]),
        gold_row=0,
        remote_rows=np.zeros(0, dtype=np.intp),
        proximal_rows=np.zeros(0, dtype=np.intp),
        em_sign=np.array([1.0, -1.0]),
    )
    rng = np.random.default_rng(0)
    assert _contrastive_raw(cache, 0, PPOConfig(), rp, rng) == pytest.approx(
        reward(0.0, rp)
    )
    assert _contrastive_raw(cache, 1, PPOConfig(), rp, rng) == pytest.approx(
        reward(1.3, rp)
    )


def _dense_contrastive(comp, action, config, params, rng):
    """The contrastive reward read from dense (K, R) and (K, P) distance
    tables over every candidate and pooled negative."""
    from tsqa.facts import sample_negatives
    from tsqa.reward import embed_answer

    def vectors(texts):
        return np.array([embed_answer(t, params).values for t in texts]).reshape(len(texts), params.dim)

    mat = vectors(comp.candidates.texts)
    gold = vectors([comp.gold_answers[0] if comp.gold_answers else ""])[0]
    dist_gold = np.linalg.norm(mat - gold, axis=1)
    dist_remote = np.linalg.norm(mat[:, None] - vectors(comp.remote_pool)[None], axis=2)
    dist_proximal = np.linalg.norm(mat[:, None] - vectors(comp.proximal_pool)[None], axis=2)
    remote, proximal = sample_negatives(
        dist_remote[action], dist_proximal[action], config.negatives_per_side, rng
    )
    d_pos = float(dist_gold[action])
    if not remote:
        return reward(d_pos, params)
    dists = np.array(remote + proximal)
    d_neg = float(dists.min() if params.neg_aggregate == "min" else dists.mean())
    return reward(max(d_pos - d_neg + params.margin, 0.0), params)


@pytest.mark.parametrize("aggregate", ["min", "mean"])
def test_contrastive_reward_equals_dense_tables_bitwise(small_compiled, aggregate):
    from tsqa.trainer import _contrastive_raw

    rp = RewardParams(neg_aggregate=aggregate)
    config = PPOConfig()
    compiled = small_compiled[0][:20]
    assert any(c.remote_pool and c.proximal_pool for c in compiled)
    caches = build_reward_caches(compiled, rp)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for comp, cache in zip(compiled, caches):
        for action in range(len(comp.candidates)):
            got = _contrastive_raw(cache, action, config, rp, rng)
            assert got == _dense_contrastive(comp, action, config, rp, ref_rng)


def test_contrastive_reward_matches_score_prediction(small_compiled):
    from tsqa.facts import sample_negatives
    from tsqa.reward import score_prediction
    from tsqa.trainer import _contrastive_raw

    rp = RewardParams()
    config = PPOConfig()
    compiled = small_compiled[0][:20]
    caches = build_reward_caches(compiled, rp)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for comp, cache in zip(compiled, caches):
        gold = comp.gold_answers[0] if comp.gold_answers else ""
        for action, pred in enumerate(comp.candidates.texts):
            got = _contrastive_raw(cache, action, config, rp, rng)
            remote, proximal = sample_negatives(
                comp.remote_pool, comp.proximal_pool, config.negatives_per_side, ref_rng
            )
            want = score_prediction(gold, pred, remote + proximal, rp)
            assert got == pytest.approx(want, abs=1e-12)


def test_collect_rollouts_shapes_and_shaping(
    sft_setup, small_compiled, tiny_features
):
    cfg = PPOConfig(num_rollouts=32, reward_kind="exact_match", seed=4)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = collect_rollouts(
        sft_setup,
        sft_setup,
        data,
        cfg,
        tiny_features,
        np.random.default_rng(4),
        kl_coef=0.05,
    )
    assert len(batch) == 32
    assert set(np.unique(batch.raw_rewards)) <= {-1.0, 1.0}
    # on-policy start: the reference is the sampler, so the KL term is zero
    assert np.allclose(batch.kl_to_reference, 0.0, atol=1e-12)
    assert np.allclose(batch.rewards, batch.raw_rewards - 0.05 * batch.kl_to_reference)
    for j, comp in enumerate(batch.compiled):
        assert 0 <= batch.actions[j] < len(comp.candidates)
        rf = featurize_record(comp, sft_setup, tiny_features)
        out = forward(sft_setup, rf.feats, rf.pooled)
        assert batch.values_old[j] == pytest.approx(out.value, abs=1e-12)
        assert batch.logprob_old[j] == pytest.approx(
            math.log(out.probs[batch.actions[j]]), abs=1e-12
        )


def test_collect_rollouts_deterministic(sft_setup, small_compiled, tiny_features):
    cfg = PPOConfig(num_rollouts=16, seed=6)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    a = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(6)
    )
    b = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(6)
    )
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.raw_rewards, b.raw_rewards)
    assert a.record_ids == b.record_ids


# ---------------------------------------------------------------------------
# PPO mechanics.


def gae_and_standardize(batch, cfg):
    adv, ret = compute_gae(batch.rewards, batch.values_old, cfg.gamma, cfg.lam)
    batch.advantages = standardize_advantages(adv)
    batch.returns = ret
    return batch


def test_ppo_zero_advantage_leaves_policy_path_untouched(
    sft_setup, small_compiled, tiny_features
):
    cfg = PPOConfig(num_rollouts=12, chunk_size=6, ppo_epochs=2, seed=8)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(8)
    )
    batch = gae_and_standardize(batch, cfg)
    batch.advantages = np.zeros(len(batch))
    params = sft_setup.clone()
    opt = AdamW(params, learning_rate=0.05)
    params, _ = ppo_update(
        params, batch, cfg, tiny_features, opt, np.random.default_rng(8)
    )
    for name in ("text_table", "time_table", "W1", "b1", "W2", "b2"):
        a = dict(params.named_tensors())[name]
        b = dict(sft_setup.named_tensors())[name]
        assert np.array_equal(a, b), name  # exact, not approximate
    # the value head still trains on the returns
    assert not np.array_equal(params.Wv, sft_setup.Wv)


def test_ppo_wide_clip_single_chunk_equals_reinforce_with_baseline(
    sft_setup, small_compiled, tiny_features
):
    n = 24
    cfg = PPOConfig(
        num_rollouts=n, chunk_size=n, ppo_epochs=1, cliprange=1e9, seed=10
    )
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(10)
    )
    batch = gae_and_standardize(batch, cfg)

    ppo_params = sft_setup.clone()
    ppo_params, _ = ppo_update(
        ppo_params,
        batch,
        cfg,
        tiny_features,
        AdamW(ppo_params, learning_rate=0.01),
        np.random.default_rng(10),
    )

    # independent REINFORCE-with-baseline step: grad of -A log pi(a) is
    # A times the cross-entropy gradient at gold = a, plus the value fit
    ref = sft_setup.clone()
    grads = zeros_like_params(ref)
    for j in range(n):
        comp = batch.compiled[j]
        rf = featurize_record(comp, ref, tiny_features)
        _, ce, _ = loss_and_grads(
            ref, rf, "cross_entropy", {"gold_index": int(batch.actions[j])}
        )
        grads.flat += float(batch.advantages[j]) / n * ce.flat
        _, vg, _ = loss_and_grads(
            ref, rf, "value_mse", {"return": float(batch.returns[j])}
        )
        grads.flat += cfg.vf_coef / n * vg.flat
    AdamW(ref, learning_rate=0.01).step(ref, grads)

    for (name, a), (_, b) in zip(ppo_params.named_tensors(), ref.named_tensors()):
        assert np.allclose(a, b, atol=1e-8), name


def test_ppo_update_stats_match_a_separate_forward(
    sft_setup, small_compiled, tiny_features
):
    n = 24
    cfg = PPOConfig(num_rollouts=n, chunk_size=n, ppo_epochs=1, cliprange=0.05, seed=12)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(12)
    )
    batch = gae_and_standardize(batch, cfg)
    # A policy sharper than the sampler, so the ratios move away from 1.
    params = sft_setup.clone()
    params.W2 *= 1.5
    start = params.clone()
    _, stats = ppo_update(
        params, batch, cfg, tiny_features, AdamW(params, 0.01), np.random.default_rng(3)
    )

    # One chunk: every sample is scored before the single optimizer step,
    # in the order of the update's own permutation.
    kl_terms, clipped = [], 0
    for j in np.random.default_rng(3).permutation(n):
        rf = featurize_record(batch.compiled[j], start, tiny_features)
        probs = forward(start, rf.feats, rf.pooled).probs
        logp = float(np.log(max(probs[batch.actions[j]], 1e-300)))
        kl_terms.append(float(batch.logprob_old[j]) - logp)
        clipped += abs(np.exp(logp - float(batch.logprob_old[j])) - 1.0) > cfg.cliprange
    assert 0 < clipped < n
    assert stats["approx_kl"] == float(np.mean(kl_terms))
    assert stats["clip_frac"] == clipped / n


def test_ppo_update_requires_advantages(sft_setup, small_compiled, tiny_features):
    cfg = PPOConfig(num_rollouts=4, seed=1)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:10]
    batch = collect_rollouts(
        sft_setup, sft_setup, data, cfg, tiny_features, np.random.default_rng(1)
    )
    params = sft_setup.clone()
    with pytest.raises(ValueError):
        ppo_update(
            params, batch, cfg, tiny_features,
            AdamW(params, 0.01), np.random.default_rng(1),
        )


def test_reference_probs_rows_are_distributions(
    sft_setup, small_compiled, tiny_features
):
    data = small_compiled[1][:10]
    probs = reference_probs(sft_setup, data, tiny_features)
    assert len(probs) == len(data)
    for p, comp in zip(probs, data):
        assert p.shape == (len(comp.candidates),)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_train_ppo_zero_iterations_clones_sft(
    sft_setup, small_compiled, tiny_features
):
    params, history = train_ppo_compiled(
        small_compiled[0],
        small_compiled[1],
        sft_setup,
        PPOConfig(iterations=0),
        tiny_features,
    )
    assert history == []
    for (_, a), (_, b) in zip(params.named_tensors(), sft_setup.named_tensors()):
        assert np.array_equal(a, b)
    params.W1[0, 0] += 1.0
    assert sft_setup.W1[0, 0] != params.W1[0, 0]


def test_train_ppo_history_and_best_dev_floor(
    sft_setup, small_compiled, tiny_features
):
    # absurd learning rate: training wrecks the live policy, yet the
    # returned checkpoint can never fall below the supervised baseline
    cfg = PPOConfig(
        iterations=2, num_rollouts=16, chunk_size=8, ppo_epochs=1,
        learning_rate=5.0, seed=2,
    )
    params, history = train_ppo_compiled(
        small_compiled[0], small_compiled[1], sft_setup, cfg, tiny_features
    )
    assert [h["iteration"] for h in history] == [0, 1]
    for row in history:
        assert {
            "mean_reward", "kl", "kl_coef", "clip_frac", "policy_loss", "value_loss",
            "approx_kl", "dev_em", "dev_f1",
        } <= set(row)
        assert row["kl_coef"] > 0
    base = evaluate_compiled(small_compiled[1], sft_setup, tiny_features).em
    after = evaluate_compiled(small_compiled[1], params, tiny_features).em
    assert after >= base


def test_train_ppo_rejects_empty_splits(sft_setup, small_compiled, tiny_features):
    train, dev = small_compiled[0], small_compiled[1]
    cfg = PPOConfig(iterations=1, num_rollouts=4)
    with pytest.raises(ValueError, match="train set is empty"):
        train_ppo_compiled([], dev, sft_setup, cfg, tiny_features)
    with pytest.raises(ValueError, match="dev set is empty"):
        train_ppo_compiled(train, [], sft_setup, cfg, tiny_features)


def test_train_ppo_deterministic(sft_setup, small_compiled, tiny_features):
    cfg = PPOConfig(iterations=2, num_rollouts=12, chunk_size=6, ppo_epochs=2, seed=5)
    run = lambda: train_ppo_compiled(
        small_compiled[0], small_compiled[1], sft_setup, cfg, tiny_features
    )
    params_a, hist_a = run()
    params_b, hist_b = run()
    for (_, a), (_, b) in zip(params_a.named_tensors(), params_b.named_tensors()):
        assert np.array_equal(a, b)
    assert hist_a == hist_b


# ---------------------------------------------------------------------------
# Bookkeeping.


def test_build_vocabulary_covers_all_splits(small_corpus):
    train, dev, test, _ = small_corpus
    vocab = build_vocabulary([train, dev])
    for rec in train:
        for tok in tokenize(rec.question):
            assert vocab.id_of(tok.text) is not None


def test_history_to_csv_round():
    sft_rows = [
        {"epoch": 0, "loss": 1.25, "dev_em": 0.5, "dev_f1": 0.625, "skipped": 0}
    ]
    text = history_to_csv(sft_rows)
    assert text.splitlines()[0] == "epoch,loss,dev_em,dev_f1,skipped"
    assert "1.25" in text
    ppo_rows = [
        {
            "iteration": 0, "mean_reward": 0.5, "kl": 0.0, "kl_coef": 0.05,
            "clip_frac": 0.0, "policy_loss": -0.25, "value_loss": 0.125,
            "approx_kl": 0.0, "dev_em": 1.0, "dev_f1": 1.0,
        }
    ]
    assert history_to_csv(ppo_rows).splitlines()[0] == (
        "iteration,mean_reward,kl,kl_coef,clip_frac,policy_loss,value_loss,approx_kl,"
        "dev_em,dev_f1"
    )
    assert history_to_csv([]) == ""
