"""Headline acceptance checks, one verdict line per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdict
lines alongside the pytest outcome; each test covers one numbered
criterion at its stated tolerance and time budget.
"""

import math
import statistics
import time

import numpy as np
import pytest

from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic, generate_synthetic_annotated
from tsqa.facts import FactIndex, TimeFact, mine_proximal, mine_remote, sample_negatives
from tsqa.features import TemporalMask, Vocabulary, build_mask, dilate
from tsqa.intervals import MonthInterval, month_index
from tsqa.metrics import evaluate_compiled, exact_match, f1
from tsqa.policy import (
    PolicyDims,
    PoolRows,
    RecordFeatures,
    compile_dataset,
    compile_record,
    featurize_record,
    forward,
    grad_check,
    init_params,
    loss_and_grads,
    zeros_like_params,
)
from tsqa.reward import RewardParams, reward
from tsqa.tagger import tag, tokenize
from tsqa.trainer import (
    AdamW,
    PPOConfig,
    SFTConfig,
    adaptive_kl_update,
    build_vocabulary,
    collect_rollouts,
    compute_gae,
    ppo_update,
    standardize_advantages,
    train_ppo_compiled,
    train_sft_compiled,
)

from test_metrics import SUITE, ref_em, ref_f1


def verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: reward exactness and monotonicity.


def test_criterion_1_reward_exactness():
    t0 = time.perf_counter()
    params = RewardParams()
    # 60-digit evaluation of 4 * 2 / (1 + e^T + 1e-6) - 2, frozen
    oracle = {
        0.0: 1.999998000001,
        0.5: 1.020324210089941218,
        1.0: 0.151530792324211557,
        2.0: -1.046376737497738951,
        5.0: -1.946457192964075181,
        30.0: -1.999999999999251390,
    }
    worst = max(abs(reward(t, params) - want) for t, want in oracle.items())
    grid = np.linspace(0.0, 30.0, 10_000)
    values = np.array([reward(float(t), params) for t in grid])
    monotone = bool(np.all(np.diff(values) < 0))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1",
        worst < 1e-6 and monotone and elapsed < 1.0,
        f"max deviation {worst:.3e}, strictly decreasing on 10000 points, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: dilation against the brute-force double loop.


def test_criterion_2_dilation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        window = int(rng.integers(0, 17))
        bits = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(int)
        out = dilate(TemporalMask(bits), window).bits
        brute = np.zeros(n, dtype=int)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if bits[j]:
                    brute[i] = 1
                    break
        if not np.array_equal(out, brute):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 2",
        mismatches == 0 and elapsed < 1.0,
        f"1000 random cases, {mismatches} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: miner invariants at scale.


def test_criterion_3_miner_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n_subjects, n_relations, n_objects = 500, 5, 800
    facts = []
    for _ in range(10_000):
        s = f"Person {int(rng.integers(n_subjects)):03d}"
        r = f"rel{int(rng.integers(n_relations))}"
        o = f"Answer {int(rng.integers(n_objects)):03d}"
        lo = month_index(int(rng.integers(1000, 2990)), int(rng.integers(1, 13)))
        hi = min(lo + int(rng.integers(0, 120)), month_index(2999, 12))
        facts.append(TimeFact(s, r, o, lo, hi))
    index = FactIndex(facts)

    by_obj: dict[str, list[TimeFact]] = {}
    for f in index.facts:
        by_obj.setdefault(f.object, []).append(f)

    violations = 0
    for _ in range(1000):
        f = index.facts[int(rng.integers(len(index.facts)))]
        span = int(rng.integers(0, 180))
        lo = max(month_index(1000, 1), f.interval.lo - int(rng.integers(0, 60)))
        q = MonthInterval(lo, min(lo + span, month_index(2999, 12)))
        gold = f.object
        remote = mine_remote(f.subject, f.relation, gold, q, index)
        proximal = mine_proximal(f.subject, f.relation, gold, q, index)

        if gold in remote or gold in proximal:
            violations += 1
        if len(set(remote)) != len(remote) or len(set(proximal)) != len(proximal):
            violations += 1
        for obj in remote:
            ok = any(
                w.subject == f.subject
                and w.relation == f.relation
                and not w.interval.intersects(q)
                for w in by_obj[obj]
            )
            violations += not ok
        for obj in proximal:
            ok = any(
                (w.subject, w.relation) != (f.subject, f.relation)
                and w.interval.intersects(q)
                for w in by_obj[obj]
            )
            violations += not ok
        sampled_remote, sampled_proximal = sample_negatives(remote, proximal, 3, rng)
        want = min(3, len(remote), len(proximal))
        if len(sampled_remote) != want or len(sampled_proximal) != want:
            violations += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 3",
        violations == 0 and elapsed < 5.0,
        f"10000 facts, 1000 questions, {violations} violations, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: gradient fidelity against central differences.


TINY = FeatureConfig(embed_dim=4, window=2, hidden=8)


def warnock_compiled():
    from tsqa.corpus import QARecord, QuestionType
    from tsqa.intervals import year_span

    def tf(o, y1, y2):
        iv = year_span(y1, y2)
        return TimeFact("Neil Warnock", "employer", o, iv.start, iv.end)

    facts = [
        tf("Girton College", 1950, 1955),
        tf("St Hugh's College", 1957, 1961),
        tf("University of Bath", 1963, 1970),
    ]
    rec = QARecord(
        id="g0",
        question="Which employer did Neil Warnock work for in 1958?",
        context=(
            "From 1950 to 1955, Neil Warnock worked for Girton College. "
            "From 1957 to 1961, Neil Warnock worked for St Hugh's College. "
            "From 1963 to 1970, Neil Warnock worked for University of Bath."
        ),
        gold_answers=["St Hugh's College"],
        question_type=QuestionType.L2_POINT,
        facts=facts,
    )
    vocab = Vocabulary.build([rec.question, rec.context], tokenize)
    return compile_record(rec, FactIndex(facts), vocab, TINY), vocab


def random_params(rng, vocab_size):
    dims = PolicyDims.from_config(vocab_size, TINY)
    params = init_params(rng, dims)
    params.time_table[:] = rng.normal(scale=0.2, size=params.time_table.shape)
    params.b1[:] = rng.normal(scale=0.1, size=params.b1.shape)
    params.bv[:] = rng.normal(scale=0.1, size=params.bv.shape)
    # nonzero attention vectors, so the pools weight their rows unevenly
    params.u_question[:] = rng.normal(scale=1.0, size=params.u_question.shape)
    params.u_window[:] = rng.normal(scale=1.0, size=params.u_window.shape)
    return params


def features_from_matrix(feats, pooled):
    """Features with no table provenance: no pooled rows, so backward
    reaches neither the tables nor the attention vectors."""
    empty = np.arange(0)
    return RecordFeatures(
        feats=feats,
        pooled=pooled,
        rows=np.zeros((0, TINY.fused_width)),
        weights=np.zeros(0),
        layout=PoolRows.of(0, [], empty, empty),
        config=TINY,
    )


def test_criterion_4_gradient_fidelity():
    t0 = time.perf_counter()
    comp, vocab = warnock_compiled()
    rng = np.random.default_rng(404)
    worst = {"cross_entropy": 0.0, "ppo_surrogate": 0.0, "value_mse": 0.0}

    def ppo_inputs(params, rf):
        out = forward(params, rf.feats, rf.pooled)
        action = int(rng.integers(len(out.probs)))
        offset = float(rng.choice([-0.5, 0.0, 0.5]))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return {
            "action": action,
            "logprob_old": float(np.log(out.probs[action])) + offset,
            "advantage": sign * float(rng.uniform(0.3, 1.5)),
            "cliprange": 0.2,
        }

    # 20 draws per kind re-featurize from the tables, covering the
    # scatter path; value_mse holds the features fixed by design
    for i in range(20):
        params = random_params(rng, len(vocab))
        rf0 = featurize_record(comp, params, TINY)

        def ce(p):
            rf = featurize_record(comp, p, TINY)
            return loss_and_grads(p, rf, "cross_entropy", {"gold_index": comp.gold_index})

        worst["cross_entropy"] = max(
            worst["cross_entropy"], grad_check(params, ce, seed=i, min_coords=120)
        )
        inputs = ppo_inputs(params, rf0)

        def ppo(p):
            rf = featurize_record(comp, p, TINY)
            return loss_and_grads(p, rf, "ppo_surrogate", inputs)

        worst["ppo_surrogate"] = max(
            worst["ppo_surrogate"], grad_check(params, ppo, seed=i, min_coords=120)
        )

        ret = float(rng.normal())

        def vmse(p):
            return loss_and_grads(p, rf0, "value_mse", {"return": ret})

        worst["value_mse"] = max(
            worst["value_mse"], grad_check(params, vmse, seed=i, min_coords=120)
        )

    # 80 draws per kind on random feature matrices (no table provenance)
    dims = PolicyDims.from_config(40, TINY)
    for i in range(80):
        params = init_params(rng, dims)
        params.b1[:] = rng.normal(scale=0.1, size=params.b1.shape)
        k = int(rng.integers(2, 7))
        rf = features_from_matrix(
            rng.normal(size=(k, dims.feature_dim)), rng.normal(size=dims.pooled_dim)
        )
        gold = int(rng.integers(k))
        worst["cross_entropy"] = max(
            worst["cross_entropy"],
            grad_check(
                params,
                lambda p: loss_and_grads(p, rf, "cross_entropy", {"gold_index": gold}),
                seed=100 + i,
                min_coords=80,
            ),
        )
        inputs = ppo_inputs(params, rf)
        worst["ppo_surrogate"] = max(
            worst["ppo_surrogate"],
            grad_check(
                params,
                lambda p: loss_and_grads(p, rf, "ppo_surrogate", inputs),
                seed=100 + i,
                min_coords=80,
            ),
        )
        ret = float(rng.normal())
        worst["value_mse"] = max(
            worst["value_mse"],
            grad_check(
                params,
                lambda p: loss_and_grads(p, rf, "value_mse", {"return": ret}),
                seed=100 + i,
                min_coords=80,
            ),
        )
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    verdict(
        "criterion 4",
        peak < 1e-4 and elapsed < 30.0,
        "100 draws per loss kind, max rel err "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: PPO mechanics.


@pytest.fixture(scope="module")
def mechanics_setup():
    cfg = SyntheticConfig(
        n_entities=20,
        n_relations=2,
        facts_per_pair=3,
        distractor_sentences_per_context=2,
        unanswerable_fraction=0.1,
        seed=55,
    )
    train, dev, _, facts = generate_synthetic(cfg)
    vocab = build_vocabulary([train, dev])
    index = FactIndex(facts)
    compiled = compile_dataset(train, index, vocab, TINY)
    params, _ = train_sft_compiled(
        compiled, compile_dataset(dev, index, vocab, TINY),
        SFTConfig(epochs=2, seed=1), TINY, len(vocab),
    )
    usable = [c for c in compiled if c.gold_index >= 0]
    return params, usable


def test_criterion_5_ppo_mechanics(mechanics_setup):
    params, data = mechanics_setup

    # (a) zero advantages leave every policy-path tensor bitwise intact
    cfg = PPOConfig(num_rollouts=16, chunk_size=8, ppo_epochs=2, seed=5)
    batch = collect_rollouts(
        params, params, data, cfg, TINY, np.random.default_rng(5)
    )
    adv, ret = compute_gae(batch.rewards, batch.values_old, cfg.gamma, cfg.lam)
    batch.advantages = np.zeros(len(batch))
    batch.returns = ret
    trained = params.clone()
    ppo_update(trained, batch, cfg, TINY, AdamW(trained, 0.05), np.random.default_rng(5))
    policy_path = ("text_table", "time_table", "W1", "b1", "W2", "b2", "u_question", "u_window")
    zero_adv_exact = all(
        np.array_equal(dict(trained.named_tensors())[n], dict(params.named_tensors())[n])
        for n in policy_path
    )

    # (b) wide clip, one epoch, one chunk reduces to REINFORCE with baseline
    n = 24
    cfg_wide = PPOConfig(
        num_rollouts=n, chunk_size=n, ppo_epochs=1, cliprange=1e9, seed=6
    )
    batch = collect_rollouts(
        params, params, data, cfg_wide, TINY, np.random.default_rng(6)
    )
    adv, ret = compute_gae(batch.rewards, batch.values_old, cfg_wide.gamma, cfg_wide.lam)
    batch.advantages = standardize_advantages(adv)
    batch.returns = ret
    ppo_params = params.clone()
    ppo_update(
        ppo_params, batch, cfg_wide, TINY,
        AdamW(ppo_params, 0.01), np.random.default_rng(6),
    )
    ref = params.clone()
    grads = zeros_like_params(ref)
    for j in range(n):
        rf = featurize_record(batch.compiled[j], ref, TINY)
        _, ce, _ = loss_and_grads(
            ref, rf, "cross_entropy", {"gold_index": int(batch.actions[j])}
        )
        grads.flat += float(batch.advantages[j]) / n * ce.flat
        _, vg, _ = loss_and_grads(ref, rf, "value_mse", {"return": float(batch.returns[j])})
        grads.flat += cfg_wide.vf_coef / n * vg.flat
    AdamW(ref, 0.01).step(ref, grads)
    reinforce_gap = max(
        float(np.abs(a - b).max())
        for (_, a), (_, b) in zip(ppo_params.named_tensors(), ref.named_tensors())
    )

    # (c) the adaptive KL controller reproduces the worked multiplier
    kl_next = adaptive_kl_update(0.05, 12.0, PPOConfig(), 256)
    kl_err = abs(kl_next - 0.05 * 1.00512)

    verdict(
        "criterion 5",
        zero_adv_exact and reinforce_gap < 1e-8 and kl_err < 1e-12,
        f"zero-advantage exact={zero_adv_exact}, REINFORCE gap {reinforce_gap:.1e}, "
        f"KL controller err {kl_err:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end learning on the mixed corpus.


def test_criterion_6_end_to_end_learning():
    t0 = time.perf_counter()
    cfg = SyntheticConfig(
        n_entities=834,
        n_relations=1,
        facts_per_pair=4,
        distractor_sentences_per_context=0,
        question_type_mix={"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0},
        unanswerable_fraction=0.1,
        seed=7,
    )
    train, dev, test, facts = generate_synthetic(cfg)
    train, dev, test = train[:2000], dev[:500], test[:500]
    fc = FeatureConfig()
    vocab = build_vocabulary([train, dev])
    index = FactIndex(facts)
    compiled_train = compile_dataset(train, index, vocab, fc)
    compiled_dev = compile_dataset(dev, index, vocab, fc)
    compiled_test = compile_dataset(test, index, vocab, fc)

    scores = []
    for seed in (1, 2, 3):
        sft, _ = train_sft_compiled(
            compiled_train, compiled_dev, SFTConfig(epochs=3, seed=seed), fc, len(vocab)
        )
        ppo, _ = train_ppo_compiled(
            compiled_train,
            compiled_dev,
            sft,
            PPOConfig(iterations=30, reward_kind="contrastive", seed=seed),
            fc,
        )
        scores.append(evaluate_compiled(compiled_test, ppo, fc).em)
    med = statistics.median(scores)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 6",
        med >= 0.85 and elapsed < 300.0,
        f"2000 train / 500 test, test EM by seed {[round(s, 4) for s in scores]}, "
        f"median {med:.4f} >= 0.85, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: directional ablations on the distractor-heavy corpus.


@pytest.fixture(scope="module")
def ablation_corpus():
    cfg = SyntheticConfig(
        n_entities=120,
        n_relations=2,
        facts_per_pair=4,
        distractor_sentences_per_context=4,
        distractors_dated=False,
        question_type_mix={"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0},
        unanswerable_fraction=0.0,
        seed=11,
    )
    train, dev, test, facts = generate_synthetic(cfg)
    fc = FeatureConfig()
    vocab = build_vocabulary([train, dev])
    index = FactIndex(facts)
    compiled = {
        "train": compile_dataset(train, index, vocab, fc),
        "dev": compile_dataset(dev, index, vocab, fc),
        "test": compile_dataset(test, index, vocab, fc),
    }
    # precondition stated by the criterion: distractor-heavy means every
    # record offers at least three negatives of each granularity
    pools = [
        (len(c.remote_pool), len(c.proximal_pool))
        for split in compiled.values()
        for c in split
    ]
    assert min(r for r, _ in pools) >= 3
    assert min(p for _, p in pools) >= 3
    return compiled, fc, len(vocab)


def test_criterion_7a_temporal_fusion_ablation(ablation_corpus):
    compiled, fc_on, vocab_size = ablation_corpus
    fc_off = FeatureConfig(
        embed_dim=fc_on.embed_dim,
        window=fc_on.window,
        hidden=fc_on.hidden,
        fusion_mode=fc_on.fusion_mode,
        temporal_fusion=False,
    )
    gaps = []
    for seed in (1, 2, 3):
        cfg = SFTConfig(epochs=16, seed=seed)
        on, _ = train_sft_compiled(
            compiled["train"], compiled["dev"], cfg, fc_on, vocab_size
        )
        off, _ = train_sft_compiled(
            compiled["train"], compiled["dev"], cfg, fc_off, vocab_size
        )
        em_on = evaluate_compiled(compiled["test"], on, fc_on).em
        em_off = evaluate_compiled(compiled["test"], off, fc_off).em
        gaps.append(100.0 * (em_on - em_off))
    med = statistics.median(gaps)
    verdict(
        "criterion 7a",
        med >= 5.0,
        f"fusion-on minus fusion-off EM points by seed {[round(g, 1) for g in gaps]}, "
        f"median {med:.1f} (needs >= 5.0)",
    )


def test_criterion_7b_contrastive_vs_exact_match_reward(ablation_corpus):
    compiled, fc, vocab_size = ablation_corpus
    by_kind = {"contrastive": [], "exact_match": []}
    for seed in (1, 2, 3):
        sft, _ = train_sft_compiled(
            compiled["train"], compiled["dev"], SFTConfig(epochs=6, seed=seed),
            fc, vocab_size,
        )
        for kind in by_kind:
            ppo, _ = train_ppo_compiled(
                compiled["train"],
                compiled["dev"],
                sft,
                PPOConfig(iterations=12, reward_kind=kind, seed=seed),
                fc,
            )
            by_kind[kind].append(evaluate_compiled(compiled["test"], ppo, fc).em)
    med_c = statistics.median(by_kind["contrastive"])
    med_e = statistics.median(by_kind["exact_match"])
    verdict(
        "criterion 7b",
        med_c >= med_e,
        f"test EM median contrastive {med_c:.4f} vs exact-match {med_e:.4f}, "
        f"per seed {[round(s, 4) for s in by_kind['contrastive']]} vs "
        f"{[round(s, 4) for s in by_kind['exact_match']]}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: metric oracle on the handcrafted suite.


def test_criterion_8_metric_oracle():
    assert len(SUITE) == 50
    mismatches = sum(
        exact_match(pred, golds) != ref_em(pred, golds)
        or f1(pred, golds) != ref_f1(pred, golds)
        for pred, golds in SUITE
    )
    verdict(
        "criterion 8",
        mismatches == 0,
        f"50 handcrafted pairs vs brute-force reference, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# Criterion 9: tagger fidelity on generator annotations.


def test_criterion_9_tagger_fidelity():
    t0 = time.perf_counter()
    cfg = SyntheticConfig(
        n_entities=125,
        n_relations=2,
        facts_per_pair=4,
        distractor_sentences_per_context=2,
        seed=17,
    )
    train, dev, test, _, annotations = generate_synthetic_annotated(cfg)
    records = train + dev + test
    assert len(records) >= 1000
    records = records[:1000]
    predicted = matched = annotated = 0
    for rec in records:
        tokens = tokenize(rec.context)
        spans = tag(tokens)
        got = {
            (
                tokens[s.tok_start].char_start,
                tokens[s.tok_end - 1].char_end,
                s.interval.lo,
                s.interval.hi,
            )
            for s in spans
            if s.interval is not None
        }
        want = {
            (a.char_start, a.char_end, a.start, a.end) for a in annotations[rec.id]
        }
        predicted += len(got)
        annotated += len(want)
        matched += len(got & want)
    precision = matched / predicted
    recall = matched / annotated
    elapsed = time.perf_counter() - t0

    phrase_ok = True
    cases = [
        ("in 1987", month_index(1987, 1), month_index(1987, 12)),
        ("From 1966 to 1972", month_index(1966, 1), month_index(1972, 12)),
        ("in Jul, 1996", month_index(1996, 7), month_index(1996, 7)),
        ("1984–1991", month_index(1984, 1), month_index(1991, 12)),
    ]
    for text, lo, hi in cases:
        spans = [s for s in tag(tokenize(text)) if s.interval is not None]
        if len(spans) != 1 or (spans[0].interval.lo, spans[0].interval.hi) != (lo, hi):
            phrase_ok = False
    verdict(
        "criterion 9",
        precision == 1.0 and recall == 1.0 and phrase_ok,
        f"{len(records)} contexts, precision {precision:.4f}, recall {recall:.4f}, "
        f"4 fixed phrasings exact={phrase_ok}, {elapsed:.1f}s",
    )
