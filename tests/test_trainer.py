"""Optimizer, advantage estimation, both training stages, PPO mechanics."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tsqa.config import FeatureConfig
from tsqa.corpus import QARecord, QuestionType, SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex, TimeFact, sample_negatives
from tsqa.features import Vocabulary
from tsqa.intervals import year_span
from tsqa.metrics import evaluate_compiled, exact_match
from tsqa.policy import (
    Candidate,
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
    _choice_index,
    _contrastive_raw,
    adaptive_kl_update,
    build_reward_caches,
    build_vocabulary,
    collect_rollouts,
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
        PPOConfig(init_kl_coef=0.0)
    with pytest.raises(ValueError):
        PPOConfig(cliprange=-0.1)
    with pytest.raises(ValueError):
        PPOConfig(reward_kind="shaped")
    with pytest.raises(ValueError, match="vf_coef"):
        PPOConfig(vf_coef=-0.5)  # would turn the value loss into gradient ascent
    PPOConfig(vf_coef=0.0)  # no value loss is legal
    PPOConfig(cliprange=1e9)  # arbitrarily wide clipping is legal


def tiny_params():
    # V 3, d 2, H 2, F 8, F̄ 5
    return init_params(np.random.default_rng(0), 3, FeatureConfig(embed_dim=2, hidden=2))


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


def test_adamw_step_allocates_no_parameter_sized_temporaries():
    # A temporary the size of the parameters, made on every step, may be
    # handed back to the OS and faulted in again on the next one.
    import tracemalloc

    params = init_params(np.random.default_rng(0), 4000, FeatureConfig())
    grads = zeros_like_params(params)
    grads.flat[:] = 1e-3
    opt = AdamW(params, learning_rate=0.01, weight_decay=1e-4)
    opt.step(params, grads)
    tracemalloc.start()
    try:
        opt.step(params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes / 4  # the finiteness check's bool mask is an eighth


def test_adamw_step_rejects_non_finite_parameters():
    # The finiteness check runs once per step, not once per record featurized.
    params = tiny_params()
    grads = zeros_like_params(params)
    grads.text_table[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite values in text_table"):
        AdamW(params, learning_rate=0.01).step(params, grads)


@pytest.mark.parametrize(
    "shape",
    [
        dict(n_entities=200, n_relations=1, distractor_sentences_per_context=0, seed=7),
        dict(n_entities=60, n_relations=2, distractor_sentences_per_context=4, distractors_dated=False, seed=11),
    ],
    ids=["bigstore", "distractor"],
)
def test_build_vocabulary_equals_the_one_built_from_tokens(shape):
    # build_vocabulary reads token texts; Vocabulary.build also takes a Token tokenizer.
    splits = generate_synthetic(SyntheticConfig(**shape))[:2]
    texts = [text for split in splits for r in split for text in (r.question, r.context)]
    got = build_vocabulary(splits)
    assert got.to_json() == Vocabulary.build(texts, tokenize).to_json()
    assert len(got) > 100


# ---------------------------------------------------------------------------
# Advantage estimation.


def rollouts(params, data, cfg, feature_config, seed):
    """One `collect_rollouts` batch from the inputs `train_ppo_compiled`
    builds, with `params` as the frozen reference."""
    rp = RewardParams()
    return collect_rollouts(
        params, data, cfg, feature_config, np.random.default_rng(seed), cfg.init_kl_coef,
        rp, build_reward_caches(data, rp), reference_probs(params, data, feature_config),
    )


def rollouts_one_at_a_time(params, dataset, config, feature_config, rng, kl_coef, reward_params, vectors, ref_probs):
    """`collect_rollouts` as a loop of whole rollouts, the reference for the
    batched one: each rollout featurizes and forwards its record alone and
    samples its action with `rng.choice`."""
    comps, actions, logprob_old, raw, values, kls = [], [], [], [], [], []
    for _ in range(config.num_rollouts):
        i = int(rng.integers(len(dataset)))
        comp = dataset[i]
        rf = featurize_record(comp, params, feature_config)
        out = forward(params, rf.feats, rf.pooled[0])
        a = int(rng.choice(len(out.probs), p=out.probs))
        logp = float(np.log(max(out.probs[a], 1e-300)))
        logp_ref = float(np.log(max(ref_probs[i][a], 1e-300)))
        if config.reward_kind == "contrastive":
            remote, proximal = sample_negatives(comp.remote_pool, comp.proximal_pool, config.negatives_per_side, rng)
            r = _contrastive_raw(comp, a, remote + proximal, vectors, reward_params)
        else:
            r = 1.0 if exact_match(comp.candidates[a].text, comp.gold_answers) else -1.0
        comps.append(comp)
        actions.append(a)
        logprob_old.append(logp)
        raw.append(r)
        values.append(out.value)
        kls.append(logp - logp_ref)
    values, kls = np.array(values), np.array(kls)
    shaped = np.array(raw) - kl_coef * kls
    adv = shaped - values
    return {
        "compiled": comps, "actions": np.array(actions), "logprob_old": np.array(logprob_old),
        "raw_rewards": np.array(raw), "rewards": shaped, "values_old": values,
        "kl_to_reference": kls, "advantages": standardize_advantages(adv), "returns": adv + values,
    }


@pytest.mark.parametrize("kind", ["contrastive", "exact_match"])
def test_collect_rollouts_match_the_one_rollout_at_a_time_loop(kind, sft_setup, small_compiled, tiny_features):
    data = small_compiled[0][:6]  # 40 rollouts over 6 records draw some twice
    assert any(c.remote_pool and c.proximal_pool for c in data)
    cfg = PPOConfig(num_rollouts=40, reward_kind=kind, seed=3)
    rp = RewardParams()
    vectors = build_reward_caches(data, rp)
    ref = reference_probs(sft_setup, data, tiny_features)
    # A policy sharper than the reference, so the KL terms are not zero.
    params = sft_setup.clone()
    params.W2 *= 1.5
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = collect_rollouts(params, data, cfg, tiny_features, rng, 0.05, rp, vectors, ref)
    want = rollouts_one_at_a_time(params, data, cfg, tiny_features, ref_rng, 0.05, rp, vectors, ref)
    ids = [c.id for c in got.compiled]
    assert ids == [c.id for c in want["compiled"]]
    assert len(set(ids)) < len(ids)
    assert np.array_equal(got.actions, want["actions"])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.abs(want["kl_to_reference"]).max() > 0.01
    assert len(set(want["raw_rewards"])) > 1
    for name in ("logprob_old", "raw_rewards", "rewards", "values_old", "kl_to_reference", "advantages", "returns"):
        assert np.allclose(getattr(got, name), want[name], rtol=0.0, atol=1e-12), name


def test_choice_index_replays_rng_choice():
    # The same index as `rng.choice(K, p=probs)` from the same stream, and the same state after.
    src = np.random.default_rng(0)

    def one_hot(k):
        p = np.zeros(k)
        p[src.integers(k)] = 1.0
        return p

    def floored(k):  # one certain candidate, the rest at the log floor
        p = np.full(k, 1e-300)
        p[src.integers(k)] = 1.0
        return p / p.sum()

    def softmax(k):  # logits hundreds apart, as a sharp head gives
        z = src.normal(scale=300.0, size=k)
        e = np.exp(z - z.max())
        return e / e.sum()

    kinds = {"dirichlet": lambda k: src.dirichlet(np.ones(k)), "one_hot": one_hot, "floor": floored, "softmax": softmax}
    a, b = np.random.default_rng(1), np.random.default_rng(1)
    for name, make in kinds.items():
        for k in (1, 2, 3, 7, 13):
            for _ in range(150):
                p = make(k)
                assert _choice_index(p, b.random()) == a.choice(k, p=p), (name, k)
                assert b.bit_generator.state == a.bit_generator.state
    # A uniform on a step of the cdf takes the next candidate, so one of
    # probability zero is never picked.
    assert _choice_index(np.array([0.0, 0.5, 0.0, 0.5]), 0.0) == 1
    assert _choice_index(np.array([0.0, 0.5, 0.0, 0.5]), 0.5) == 3


def test_collect_rollouts_advantages_are_one_step(
    sft_setup, small_compiled, tiny_features
):
    # A one-step episode has no successor state to bootstrap from: A = r - V.
    cfg = PPOConfig(num_rollouts=40, seed=2)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = rollouts(sft_setup, data, cfg, tiny_features, 2)
    adv = batch.rewards - batch.values_old
    assert np.array_equal(batch.advantages, standardize_advantages(adv))
    assert np.array_equal(batch.returns, adv + batch.values_old)
    assert np.allclose(batch.returns, batch.rewards, atol=1e-12)


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
    params, history = train_sft_compiled(
        small_compiled[0],
        small_compiled[1],
        SFTConfig(epochs=0, seed=9),
        tiny_features,
        len(small_vocab),
    )
    assert history == []
    init = init_params(np.random.default_rng(9), len(small_vocab), tiny_features)
    assert np.array_equal(params.flat, init.flat)


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
    vectors = build_reward_caches(compiled, rp)
    from tsqa.reward import embed_answer

    for comp in compiled:
        gold = comp.gold_answers[0] if comp.gold_answers else ""
        gvec = embed_answer(gold, rp)
        for k, text in enumerate([c.text for c in comp.candidates]):
            d = float(np.linalg.norm(embed_answer(text, rp) - gvec))
            got = np.linalg.norm(vectors[text] - vectors[gold])
            assert got == pytest.approx(d, abs=1e-12)
            want = 1.0 if exact_match(text, comp.gold_answers) else -1.0
            assert 2.0 * comp.candidate_score(k)[0] - 1.0 == want  # the exact-match reward


def test_contrastive_reward_no_negatives_uses_raw_distance():
    rp = RewardParams()
    vectors = {"gold": np.array([0.0, 0.0]), "far": np.array([1.3, 0.0])}
    comp = SimpleNamespace(candidates=[Candidate("gold"), Candidate("far")], gold_answers=["gold"])
    assert _contrastive_raw(comp, 0, [], vectors, rp) == pytest.approx(
        reward(0.0, rp)
    )
    assert _contrastive_raw(comp, 1, [], vectors, rp) == pytest.approx(
        reward(1.3, rp)
    )


def test_reward_caches_embed_pooled_negatives_on_first_draw(
    monkeypatch, sft_setup, small_compiled, tiny_features
):
    import tsqa.reward as reward_mod
    import tsqa.trainer as trainer_mod

    embedded, drawn = [], []
    embed, sample = reward_mod.embed_answer, trainer_mod.sample_negatives

    def recording_embed(answer, params):
        embedded.append(answer)
        return embed(answer, params)

    def recording_sample(*args):
        remote, proximal = sample(*args)
        drawn.extend(remote + proximal)
        return remote, proximal

    monkeypatch.setattr(reward_mod, "embed_answer", recording_embed)
    monkeypatch.setattr(trainer_mod, "sample_negatives", recording_sample)
    rp = RewardParams()
    data = small_compiled[0][:20]
    answers = {x.text for c in data for x in c.candidates}
    answers |= {c.gold_answers[0] if c.gold_answers else "" for c in data}
    pool_only = {t for c in data for t in c.remote_pool + c.proximal_pool} - answers
    assert pool_only  # there are strings the build must leave alone

    vectors = build_reward_caches(data, rp)
    assert sorted(embedded) == sorted(answers)  # each candidate and gold once, no pool string
    ref = reference_probs(sft_setup, data, tiny_features)

    def embedded_by_rollouts(kind):
        embedded.clear()
        cfg = PPOConfig(num_rollouts=200, reward_kind=kind, seed=2)
        collect_rollouts(
            sft_setup, data, cfg, tiny_features, np.random.default_rng(2), cfg.init_kl_coef,
            rp, vectors, ref,
        )
        return list(embedded)

    assert embedded_by_rollouts("exact_match") == []
    got = embedded_by_rollouts("contrastive")
    new = [t for t in drawn if t not in answers]
    assert len(new) > len(set(new))  # some pool-only negative is drawn more than once
    assert sorted(got) == sorted(set(new))  # each drawn negative once, nothing undrawn


def test_exact_match_rewards_score_only_the_drawn_actions(monkeypatch, sft_setup, small_compiled, tiny_features):
    import tsqa.policy as policy_mod

    scored = []
    em = policy_mod.exact_match

    def recording_em(prediction, golds):
        scored.append(prediction)
        return em(prediction, golds)

    monkeypatch.setattr(policy_mod, "exact_match", recording_em)
    data = [replace(c) for c in small_compiled[0][:20]]  # fresh copies: a record keeps its scores
    rp = RewardParams()
    vectors = build_reward_caches(data, rp)
    ref = reference_probs(sft_setup, data, tiny_features)

    def run(kind):
        cfg = PPOConfig(num_rollouts=64, reward_kind=kind, seed=6)
        rng = np.random.default_rng(6)
        return collect_rollouts(sft_setup, data, cfg, tiny_features, rng, cfg.init_kl_coef, rp, vectors, ref)

    run("contrastive")
    assert scored == []  # neither the build nor a contrastive run scores a candidate
    batch = run("exact_match")
    drawn = list(zip(batch.compiled, batch.actions.tolist()))
    want = [1.0 if em(c.candidates[a].text, c.gold_answers) else -1.0 for c, a in drawn]
    assert batch.raw_rewards.tolist() == want
    assert set(want) == {-1.0, 1.0}
    assert len(scored) == len({(c.id, a) for c, a in drawn})  # each drawn action once, nothing undrawn


def _dense_contrastive(comp, action, config, params, rng):
    """The contrastive reward read from dense (K, R) and (K, P) distance
    tables over every candidate and pooled negative."""
    from tsqa.facts import sample_negatives
    from tsqa.reward import embed_answer

    def vectors(texts):
        return np.array([embed_answer(t, params) for t in texts]).reshape(len(texts), params.dim)

    mat = vectors([c.text for c in comp.candidates])
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
    rp = RewardParams(neg_aggregate=aggregate)
    config = PPOConfig()
    compiled = small_compiled[0][:20]
    assert any(c.remote_pool and c.proximal_pool for c in compiled)
    vectors = build_reward_caches(compiled, rp)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for comp in compiled:
        for action in range(len(comp.candidates)):
            remote, proximal = sample_negatives(
                comp.remote_pool, comp.proximal_pool, config.negatives_per_side, rng
            )
            got = _contrastive_raw(comp, action, remote + proximal, vectors, rp)
            assert got == _dense_contrastive(comp, action, config, rp, ref_rng)


def test_contrastive_reward_matches_score_prediction(small_compiled):
    from tsqa.reward import score_prediction

    rp = RewardParams()
    config = PPOConfig()
    compiled = small_compiled[0][:20]
    vectors = build_reward_caches(compiled, rp)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for comp in compiled:
        gold = comp.gold_answers[0] if comp.gold_answers else ""
        for action, pred in enumerate([c.text for c in comp.candidates]):
            drawn = sample_negatives(comp.remote_pool, comp.proximal_pool, config.negatives_per_side, rng)
            got = _contrastive_raw(comp, action, drawn[0] + drawn[1], vectors, rp)
            remote, proximal = sample_negatives(
                comp.remote_pool, comp.proximal_pool, config.negatives_per_side, ref_rng
            )
            want = score_prediction(gold, pred, remote + proximal, rp)
            assert got == want


def test_collect_rollouts_shapes_and_shaping(
    sft_setup, small_compiled, tiny_features
):
    cfg = PPOConfig(num_rollouts=32, reward_kind="exact_match", init_kl_coef=0.05, seed=4)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = rollouts(sft_setup, data, cfg, tiny_features, 4)
    assert len(batch) == 32
    assert set(np.unique(batch.raw_rewards)) <= {-1.0, 1.0}
    # on-policy start: the reference is the sampler, so the KL term is zero
    assert np.allclose(batch.kl_to_reference, 0.0, atol=1e-12)
    assert np.allclose(batch.rewards, batch.raw_rewards - 0.05 * batch.kl_to_reference)
    for j, comp in enumerate(batch.compiled):
        assert 0 <= batch.actions[j] < len(comp.candidates)
        rf = featurize_record(comp, sft_setup, tiny_features)
        out = forward(sft_setup, rf.feats, rf.pooled[0])
        assert batch.values_old[j] == pytest.approx(out.value, abs=1e-12)
        assert batch.logprob_old[j] == pytest.approx(
            math.log(out.probs[batch.actions[j]]), abs=1e-12
        )


def test_collect_rollouts_deterministic(sft_setup, small_compiled, tiny_features):
    cfg = PPOConfig(num_rollouts=16, seed=6)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    a = rollouts(sft_setup, data, cfg, tiny_features, 6)
    b = rollouts(sft_setup, data, cfg, tiny_features, 6)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.raw_rewards, b.raw_rewards)
    assert [c.id for c in a.compiled] == [c.id for c in b.compiled]


# ---------------------------------------------------------------------------
# PPO mechanics.


def test_ppo_zero_advantage_leaves_policy_path_untouched(
    sft_setup, small_compiled, tiny_features
):
    cfg = PPOConfig(num_rollouts=12, chunk_size=6, ppo_epochs=2, seed=8)
    data = [c for c in small_compiled[0] if c.gold_index >= 0][:25]
    batch = rollouts(sft_setup, data, cfg, tiny_features, 8)
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
    batch = rollouts(sft_setup, data, cfg, tiny_features, 10)

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
    batch = rollouts(sft_setup, data, cfg, tiny_features, 12)
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
        probs = forward(start, rf.feats, rf.pooled[0]).probs
        logp = float(np.log(max(probs[batch.actions[j]], 1e-300)))
        kl_terms.append(float(batch.logprob_old[j]) - logp)
        clipped += abs(np.exp(logp - float(batch.logprob_old[j])) - 1.0) > cfg.cliprange
    assert 0 < clipped < n
    assert stats["approx_kl"] == float(np.mean(kl_terms))
    assert stats["clip_frac"] == clipped / n


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


def test_b2_stays_zero_through_sft_and_ppo(sft_setup, small_compiled, tiny_features):
    # The softmax ignores b2, so its exact gradient is zero and AdamW never moves it.
    assert not sft_setup.b2.any()
    cfg = PPOConfig(iterations=2, num_rollouts=16, chunk_size=8, ppo_epochs=2, seed=4)
    for kind in ("contrastive", "exact_match"):
        params, history = train_ppo_compiled(
            small_compiled[0], small_compiled[1], sft_setup, replace(cfg, reward_kind=kind), tiny_features
        )
        assert len(history) == 2
        assert not params.b2.any(), kind
    batch = rollouts(sft_setup, small_compiled[0][:20], cfg, tiny_features, 4)
    params = sft_setup.clone()
    ppo_update(params, batch, cfg, tiny_features, AdamW(params, 0.01), np.random.default_rng(4))
    assert not params.b2.any()
    assert not np.array_equal(params.W2, sft_setup.W2)


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
        assert vocab.encode(tokenize(rec.question)).all()  # no token falls back to UNK


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
