"""The attention pools against the row-gather reference they replaced.

`policy` pools on the token axis: one (pools x tokens) attention matrix
per record, and a backward that sums per token.  The reference below is
the earlier formulation, kept here as the oracle: it gathers one fused
row per (pool, token) pair, pools with segment sums over those rows, and
scatters the row gradients into the tables grouped by the rows' token ids
and mask bits.  Both must give the same loss, probabilities and gradients
within 1e-12.
"""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from tsqa import policy
from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex
from tsqa.features import fuse
from tsqa.policy import compile_dataset, featurize_record, forward, init_params, loss_and_grads
from tsqa.trainer import build_vocabulary

TOLERANCE = 1e-12

FUSIONS = {
    "add": FeatureConfig(),
    "off": FeatureConfig(temporal_fusion=False),
    "concat": FeatureConfig(fusion_mode="concat"),
}


def row_sums(keys, values):
    """The distinct keys and the per-key sums of the rows of `values`, each key's rows in row order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    return ordered[starts], np.add.reduceat(values[order], starts, axis=0)


def reference_features(comp, params, config):
    """Features by gathering one row per (pool, token) pair."""
    time_table = params.time_table if config.temporal_fusion else np.zeros_like(params.time_table)
    vectors = fuse(comp.token_ids, comp.bits, params.text_table, time_table, config.fusion_mode)
    layout = comp.pool_rows
    rows = vectors[layout.pos]
    fw, n_q = vectors.shape[1], layout.question_len
    pools = np.zeros((layout.n_pools, fw))
    weights = np.zeros(0)
    if rows.shape[0]:
        starts, counts = layout.starts, layout.counts
        scores = np.concatenate([rows[:n_q] @ params.u_question, rows[n_q:] @ params.u_window])
        e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), counts))
        weights = e / np.repeat(np.add.reduceat(e, starts), counts)
        pools[layout.pool[starts]] = np.add.reduceat(weights[:, None] * rows, starts, axis=0)
    feats = np.empty((len(comp.candidates), 2 * fw + 4))
    feats[:, :fw] = pools[0]
    feats[:, fw : 2 * fw] = pools[1:]
    feats[:, 2 * fw : 2 * fw + 3] = comp.interval_feats
    feats[:, -1] = comp.density
    pooled = np.concatenate([vectors.mean(axis=0), comp.pooled_extra])
    return SimpleNamespace(feats=feats, pooled=pooled, rows=rows, weights=weights, layout=layout, config=config)


def reference_scatter(grads, scale, params, rf, dfeats):
    """Row gradients dx_i = w_i g + s_i u, summed into the tables by the rows' ids and bits."""
    layout = rf.layout
    if not layout.pos.size:
        return
    config = rf.config
    fw, d, n_q = config.fused_width, config.embed_dim, layout.question_len
    g_pools = np.concatenate([dfeats[:, :fw].sum(axis=0, keepdims=True), dfeats[:, fw : 2 * fw]])
    pools = np.concatenate([rf.feats[:1, :fw], rf.feats[:, fw : 2 * fw]])
    g = g_pools[layout.pool]
    s = rf.weights * ((rf.rows - pools[layout.pool]) * g).sum(axis=1)
    dx = rf.weights[:, None] * g
    dx[:n_q] += s[:n_q, None] * params.u_question
    dx[n_q:] += s[n_q:, None] * params.u_window
    grads.u_question += scale * (s[:n_q] @ rf.rows[:n_q])
    grads.u_window += scale * (s[n_q:] @ rf.rows[n_q:])
    text_part, time_part = (dx, dx) if config.fusion_mode == "add" else (dx[:, :d], dx[:, d:])
    ids, sums = row_sums(np.asarray(layout.token_ids, dtype=np.intp)[layout.pos], text_part)
    grads.text_table[ids] += scale * sums
    if config.temporal_fusion:
        bits, sums = row_sums(np.asarray(layout.bits, dtype=np.intp)[layout.pos], time_part)
        grads.time_table[bits] += scale * sums


def reference_loss_and_grads(params, comp, config, loss_kind, inputs):
    """`loss_and_grads` with the reference pools: the candidate head is shared."""
    with mock.patch.object(policy, "_scatter_table_grads", reference_scatter):
        return loss_and_grads(params, reference_features(comp, params, config), loss_kind, inputs)


def loss_inputs(comp, probs, rng):
    k = len(comp.candidates)
    action = int(rng.integers(k))
    return {
        "cross_entropy": {"gold_index": comp.gold_index if comp.gold_index >= 0 else k - 1},
        "ppo_surrogate": {
            "action": action,
            # offsets that put the ratio inside, above and below the clip range
            "logprob_old": float(np.log(probs[action])) + float(rng.choice([-0.5, 0.0, 0.5])),
            "advantage": float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.3, 1.5)),
            "cliprange": 0.2,
        },
        "value_mse": {"return": float(rng.normal())},
    }


def random_params(vocab_size, config, seed):
    """Parameters with a nonzero time table and attention vectors."""
    rng = np.random.default_rng(seed)
    params = init_params(rng, vocab_size, config)
    params.time_table[:] = rng.normal(size=params.time_table.shape)
    params.u_question[:] = rng.normal(size=params.u_question.shape)
    params.u_window[:] = rng.normal(size=params.u_window.shape)
    return params


def assert_matches_reference(comp, params, config, rng):
    rf = featurize_record(comp, params, config)
    ref = reference_features(comp, params, config)
    assert np.abs(rf.feats - ref.feats).max() <= TOLERANCE
    assert np.array_equal(rf.pooled, ref.pooled)
    probs = forward(params, rf.feats, rf.pooled).probs
    assert np.abs(probs - forward(params, ref.feats, ref.pooled).probs).max() <= TOLERANCE
    for kind, inputs in loss_inputs(comp, probs, rng).items():
        loss, grads, probs = loss_and_grads(params, rf, kind, inputs)
        ref_loss, ref_grads, ref_probs = reference_loss_and_grads(params, comp, config, kind, inputs)
        assert abs(loss - ref_loss) <= TOLERANCE, kind
        if kind != "value_mse":
            assert np.abs(probs - ref_probs).max() <= TOLERANCE, kind
        for (name, got), (_, ref_grad) in zip(grads.named_tensors(), ref_grads.named_tensors()):
            assert np.abs(got - ref_grad).max() <= TOLERANCE, (kind, name)


@pytest.fixture(scope="module")
def digest_corpus():
    """The compile digest's seeded corpus, compiled once: the fusion arms share its window."""
    train, dev, _, facts = generate_synthetic(SyntheticConfig(n_entities=40, seed=3))
    vocab = build_vocabulary([train, dev])
    return compile_dataset(train, FactIndex(facts), vocab, FeatureConfig()), len(vocab)


@pytest.mark.parametrize("fusion", FUSIONS)
def test_token_axis_pools_match_the_row_gather_reference(digest_corpus, fusion):
    compiled, vocab_size = digest_corpus
    config = FUSIONS[fusion]
    params = random_params(vocab_size, config, seed=11)
    rng = np.random.default_rng(5)
    for comp in compiled:
        assert_matches_reference(comp, params, config, rng)


@pytest.mark.parametrize("fusion", FUSIONS)
def test_pools_without_question_rows_or_without_any_rows_match_the_reference(digest_corpus, fusion):
    compiled, vocab_size = digest_corpus
    config = FUSIONS[fusion]
    params = random_params(vocab_size, config, seed=12)
    rng = np.random.default_rng(6)
    for comp in compiled[:10]:
        no_question = replace(comp, question_len=0)
        no_rows = replace(no_question, window_pos=[np.arange(0) for _ in comp.window_pos])
        assert no_question.pool_rows.pos.size and not no_rows.pool_rows.pos.size
        for edited in (no_question, no_rows):
            assert_matches_reference(edited, params, config, rng)
