"""The batched policy engine against two references kept here as oracles.

`policy` featurizes, scores and backpropagates a whole batch of records at
once.  Two earlier one-record formulations check it:

- the per-record path it replaced (`record_*`): per record, a (pools x
  tokens) attention matrix, pools = attention @ vectors, and a backward
  that groups the token columns by token id and mask bit;
- the row-gather path before that (`rows_*`): one fused row per (pool,
  token) pair, segment sums over those rows, and row gradients summed into
  the tables by the rows' token ids and mask bits.

Both share one per-record candidate head, `reference_head`.  Losses,
probabilities, pooled states and all ten gradient tensors must agree with
the engine within 1e-12, and the gradient of b2, which the softmax ignores,
must be exactly zero.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tsqa import policy
from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex
from tsqa.features import fuse
from tsqa.policy import (
    Candidate,
    compile_dataset,
    featurize_batch,
    featurize_record,
    forward,
    greedy_choices,
    init_params,
    loss_and_grads,
    loss_and_grads_batch,
    zeros_like_params,
)
from tsqa.trainer import build_vocabulary

TOLERANCE = 1e-12

FUSIONS = {
    "add": FeatureConfig(),
    "off": FeatureConfig(temporal_fusion=False),
    "concat": FeatureConfig(fusion_mode="concat"),
}


# ---------------------------------------------------------------------------
# The shared pieces: pool rows and the candidate head, one record at a time.


def pool_rows(comp):
    """Row i reads token pos[i] for pool pool[i]: the question's tokens, then
    each candidate's mention window; each pool's rows are one run."""
    sizes = np.array([comp.question_len] + [p.size for p in comp.window_pos], dtype=np.intp)
    pos = np.concatenate([np.arange(comp.question_len)] + list(comp.window_pos)).astype(np.intp)
    pool = np.repeat(np.arange(sizes.size), sizes)
    counts = sizes[sizes > 0]
    return SimpleNamespace(pos=pos, pool=pool, starts=np.cumsum(counts) - counts, counts=counts, n_pools=sizes.size)


def fused(comp, params, config):
    time_table = params.time_table if config.temporal_fusion else np.zeros_like(params.time_table)
    return fuse(comp.token_ids, comp.bits, params.text_table, time_table, config.fusion_mode)


def assemble(comp, pools, vectors):
    """Candidate rows (question pool, window pool, interval features,
    density) and the pooled state."""
    fw = vectors.shape[1]
    feats = np.empty((len(comp.candidates), 2 * fw + 4))
    feats[:, :fw] = pools[0]
    feats[:, fw : 2 * fw] = pools[1:]
    feats[:, 2 * fw : 2 * fw + 3] = comp.interval_feats
    feats[:, -1] = comp.density
    return feats, np.concatenate([vectors.mean(axis=0), comp.pooled_extra])


def softmax_weights(scores, rows):
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, rows.starts), rows.counts))
    return e / np.repeat(np.add.reduceat(e, rows.starts), rows.counts)


def reference_head(params, rf, kind, inputs, scale, grads):
    """One record's loss and probabilities (None for value_mse); adds scale
    times the head's gradients to `grads` and returns d(loss)/d(feats)."""
    if kind == "value_mse":
        diff = float(params.Wv[0] @ rf.pooled + params.bv[0]) - float(inputs["return"])
        grads.Wv[0] += scale * 2.0 * diff * rf.pooled
        grads.bv[0] += scale * 2.0 * diff
        return diff * diff, None, None
    h = np.tanh(rf.feats @ params.W1.T + params.b1)
    logits = (h @ params.W2.T).ravel() + params.b2[0]
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    if kind == "cross_entropy":
        gold = int(inputs["gold_index"])
        loss = -float(np.log(max(probs[gold], 1e-300)))
        dlogits = probs.copy()
        dlogits[gold] -= 1.0
    else:
        action, adv, clip = int(inputs["action"]), float(inputs["advantage"]), float(inputs["cliprange"])
        ratio = float(np.exp(np.log(max(probs[action], 1e-300)) - float(inputs["logprob_old"])))
        clipped = float(np.clip(ratio, 1.0 - clip, 1.0 + clip))
        loss = -min(ratio * adv, clipped * adv)
        coef = -ratio * adv if ratio * adv <= clipped * adv else 0.0
        dlogits = coef * -probs
        dlogits[action] += coef
    dz = dlogits[:, None] * params.W2 * (1.0 - h * h)
    grads.W2[0] += scale * (dlogits @ h)
    grads.W1 += scale * (dz.T @ rf.feats)
    grads.b1 += scale * dz.sum(axis=0)
    return loss, probs, dz @ params.W1


def pool_gradients(rf, dfeats):
    fw = rf.config.fused_width
    g_pools = np.concatenate([dfeats[:, :fw].sum(axis=0, keepdims=True), dfeats[:, fw : 2 * fw]])
    pools = np.concatenate([rf.feats[:1, :fw], rf.feats[:, fw : 2 * fw]])
    return g_pools, pools


def table_parts(config, dx):
    """The text-table and time-table parts of fused-row gradients."""
    d = config.embed_dim
    return (dx, dx) if config.fusion_mode == "add" else (dx[..., :d], dx[..., d:])


# ---------------------------------------------------------------------------
# The per-record path: a (pools x tokens) attention matrix per record.


def record_features(comp, params, config):
    vectors = fused(comp, params, config)
    rows = pool_rows(comp)
    n_q, n_tokens = comp.question_len, vectors.shape[0]
    attention = np.zeros((rows.n_pools, n_tokens))
    if rows.pos.size:
        scores = np.concatenate([vectors[:n_q] @ params.u_question, (vectors @ params.u_window)[rows.pos[n_q:]]])
        attention[rows.pool, rows.pos] = softmax_weights(scores, rows)
    feats, pooled = assemble(comp, attention @ vectors, vectors)
    return SimpleNamespace(feats=feats, pooled=pooled, comp=comp, vectors=vectors, attention=attention, rows=rows, config=config)


def record_scatter(grads, scale, params, rf, dfeats):
    """Token t's gradient is column t of `coef` (the attention, then the s_i
    summed per token for each u) times `basis` (each pool's g, then the two
    u); the tables group the columns by token id and mask bit first."""
    rows, comp = rf.rows, rf.comp
    if not rows.pos.size:
        return
    n_q, vectors = comp.question_len, rf.vectors
    g_pools, pools = pool_gradients(rf, dfeats)
    weights = rf.attention[rows.pool, rows.pos]
    s = weights * ((g_pools @ vectors.T)[rows.pool, rows.pos] - (pools * g_pools).sum(axis=1)[rows.pool])
    coef = np.concatenate([rf.attention, np.zeros((2, vectors.shape[0]))])
    coef[-2, :n_q] = s[:n_q]
    coef[-1] = np.bincount(rows.pos[n_q:], s[n_q:], minlength=vectors.shape[0])
    basis = np.concatenate([g_pools, params.u_question[None], params.u_window[None]])
    du = coef[-2:] @ vectors
    grads.u_question += scale * du[0]
    grads.u_window += scale * du[1]
    text_basis, time_basis = table_parts(rf.config, basis)
    keys, index = np.unique(comp.token_ids, return_inverse=True)
    by_id = np.zeros((keys.size, coef.shape[0]))
    np.add.at(by_id, index, coef.T)
    grads.text_table[keys] += scale * (by_id @ text_basis)
    if rf.config.temporal_fusion:
        on = np.asarray(comp.bits, dtype=float)
        grads.time_table += scale * ((np.stack([1.0 - on, on]) @ coef.T) @ time_basis)


# ---------------------------------------------------------------------------
# The row-gather path: one fused row per (pool, token) pair.


def row_sums(keys, values):
    """The distinct keys and the per-key sums of the rows of `values`, each key's rows in row order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    return ordered[starts], np.add.reduceat(values[order], starts, axis=0)


def rows_features(comp, params, config):
    vectors = fused(comp, params, config)
    rows = pool_rows(comp)
    gathered = vectors[rows.pos]
    fw, n_q = vectors.shape[1], comp.question_len
    pools = np.zeros((rows.n_pools, fw))
    weights = np.zeros(0)
    if gathered.shape[0]:
        scores = np.concatenate([gathered[:n_q] @ params.u_question, gathered[n_q:] @ params.u_window])
        weights = softmax_weights(scores, rows)
        pools[rows.pool[rows.starts]] = np.add.reduceat(weights[:, None] * gathered, rows.starts, axis=0)
    feats, pooled = assemble(comp, pools, vectors)
    return SimpleNamespace(feats=feats, pooled=pooled, comp=comp, gathered=gathered, weights=weights, rows=rows, config=config)


def rows_scatter(grads, scale, params, rf, dfeats):
    """Row gradients dx_i = w_i g + s_i u, summed into the tables by the rows' ids and bits."""
    rows, comp = rf.rows, rf.comp
    if not rows.pos.size:
        return
    n_q = comp.question_len
    g_pools, pools = pool_gradients(rf, dfeats)
    g = g_pools[rows.pool]
    s = rf.weights * ((rf.gathered - pools[rows.pool]) * g).sum(axis=1)
    dx = rf.weights[:, None] * g
    dx[:n_q] += s[:n_q, None] * params.u_question
    dx[n_q:] += s[n_q:, None] * params.u_window
    grads.u_question += scale * (s[:n_q] @ rf.gathered[:n_q])
    grads.u_window += scale * (s[n_q:] @ rf.gathered[n_q:])
    text_part, time_part = table_parts(rf.config, dx)
    ids, sums = row_sums(np.asarray(comp.token_ids, dtype=np.intp)[rows.pos], text_part)
    grads.text_table[ids] += scale * sums
    if rf.config.temporal_fusion:
        bits, sums = row_sums(np.asarray(comp.bits, dtype=np.intp)[rows.pos], time_part)
        grads.time_table[bits] += scale * sums


PATHS = {"record": (record_features, record_scatter), "rows": (rows_features, rows_scatter)}


def reference(params, comps, config, losses, path="record"):
    """The engine's `loss_and_grads_batch`, one record at a time: each
    kind's per-record losses, the summed gradients, the probabilities and
    the pooled states."""
    features_of, scatter = PATHS[path]
    grads = zeros_like_params(params)
    out = {kind: [] for kind in losses}
    probs, pooled = [], []
    for b, comp in enumerate(comps):
        rf = features_of(comp, params, config)
        pooled.append(rf.pooled)
        for kind, inputs in losses.items():
            one = {k: np.broadcast_to(v, (len(comps),))[b] for k, v in inputs.items()}
            scale = float(one.pop("scale", 1.0))
            loss, p, dfeats = reference_head(params, rf, kind, one, scale, grads)
            out[kind].append(loss)
            if p is not None:
                scatter(grads, scale, params, rf, dfeats)
                if len(probs) == b:
                    probs.append(p)
    return out, grads, (np.concatenate(probs) if probs else None), np.array(pooled)


# ---------------------------------------------------------------------------
# Inputs.


def loss_inputs(comps, probs, rng):
    """Inputs of every loss kind for a list of records, with per-record
    scales; the PPO offsets put the ratio inside, above and below the clip range."""
    k = np.array([len(c.candidates) for c in comps])
    starts = np.cumsum(k) - k
    action = rng.integers(k)
    n = len(comps)
    return {
        "cross_entropy": {
            "gold_index": [c.gold_index if c.gold_index >= 0 else len(c.candidates) - 1 for c in comps],
            "scale": rng.uniform(0.1, 1.0, n),
        },
        "ppo_surrogate": {
            "action": action,
            "logprob_old": np.log(probs[starts + action]) + rng.choice([-0.5, 0.0, 0.5], n),
            "advantage": rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 1.5, n),
            "cliprange": 0.2,
            "scale": rng.uniform(0.1, 1.0, n),
        },
        "value_mse": {"return": rng.normal(size=n), "scale": rng.uniform(0.1, 2.0, n)},
    }


def random_params(vocab_size, config, seed):
    """Parameters with a nonzero time table and attention vectors."""
    rng = np.random.default_rng(seed)
    params = init_params(rng, vocab_size, config)
    params.time_table[:] = rng.normal(size=params.time_table.shape)
    params.u_question[:] = rng.normal(size=params.u_question.shape)
    params.u_window[:] = rng.normal(size=params.u_window.shape)
    return params


def edge_records(compiled):
    """Records with no question rows, with no pool rows at all, and with
    only the abstain candidate."""
    out = []
    for comp in compiled:
        no_question = replace(comp, question_len=0)
        no_rows = replace(no_question, window_pos=[np.arange(0) for _ in comp.window_pos])
        abstain_only = replace(
            comp, candidates=[Candidate("")], gold_index=0, window_pos=[np.arange(0)],
            interval_feats=np.zeros((1, 3)), density=np.zeros(1),
        )
        # Each edit must reach the case it is named for.
        assert no_question.pool_rows[1].size and not no_rows.pool_rows[1].size
        assert len(abstain_only.candidates) == 1
        out += [no_question, no_rows, abstain_only]
    return out


def assert_close(got, want, what):
    assert np.abs(np.asarray(got) - np.asarray(want)).max() <= TOLERANCE, what


def assert_grads_match(grads, ref_grads, what):
    assert not grads.b2.any(), what  # the softmax ignores b2
    for (name, got), (_, want) in zip(grads.named_tensors(), ref_grads.named_tensors()):
        assert_close(got, want, (what, name))


@pytest.fixture(scope="module")
def digest_corpus():
    """The compile digest's seeded corpus, compiled once: the fusion arms share its window."""
    train, dev, _, facts = generate_synthetic(SyntheticConfig(n_entities=40, seed=3))
    vocab = build_vocabulary([train, dev])
    return compile_dataset(train, FactIndex(facts), vocab, FeatureConfig()), len(vocab)


# ---------------------------------------------------------------------------
# One record at a time, against the row-gather path.


def assert_matches_reference(comp, params, config, rng):
    rf = featurize_record(comp, params, config)
    ref = rows_features(comp, params, config)
    assert_close(rf.feats, ref.feats, "feats")
    assert np.array_equal(rf.pooled[0], ref.pooled)
    probs = forward(params, rf.feats, rf.pooled[0]).probs
    for kind, inputs in loss_inputs([comp], probs, rng).items():
        one = {k: np.broadcast_to(v, (1,))[0] for k, v in inputs.items() if k != "scale"}
        loss, grads, probs = loss_and_grads(params, rf, kind, one)
        ref_losses, ref_grads, ref_probs, _ = reference(params, [comp], config, {kind: one}, path="rows")
        assert abs(loss - ref_losses[kind][0]) <= TOLERANCE, kind
        if kind != "value_mse":
            assert_close(probs, ref_probs, kind)
        assert_grads_match(grads, ref_grads, kind)


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
    for edited in edge_records(compiled[:10]):
        assert_matches_reference(edited, params, config, rng)


# ---------------------------------------------------------------------------
# Whole batches, against the per-record path.


@pytest.mark.parametrize("fusion", FUSIONS)
def test_batches_match_the_per_record_reference(digest_corpus, fusion):
    compiled, vocab_size = digest_corpus
    config = FUSIONS[fusion]
    params = random_params(vocab_size, config, seed=13)
    rng = np.random.default_rng(7)
    edges = edge_records(compiled[:4])
    # Mixed batches: edge records, and records drawn with replacement as
    # PPO's rollouts are, so one record may appear twice.
    batches = [compiled[:1], edges, compiled[:3] + compiled[:3]]
    batches += [[compiled[i] for i in rng.integers(len(compiled), size=12)] + edges[:3] for _ in range(8)]
    for comps in batches:
        features = featurize_batch(comps, params, config)
        _, _, ref_probs, ref_pooled = reference(params, comps, config, {"cross_entropy": {"gold_index": 0}})
        assert np.array_equal(features.pooled, ref_pooled)
        inputs = loss_inputs(comps, ref_probs, rng)
        # SFT's call, PPO's call with its two losses together, and value_mse alone.
        for kinds in (("cross_entropy",), ("ppo_surrogate", "value_mse"), ("value_mse",)):
            losses = {kind: inputs[kind] for kind in kinds}
            got, grads, probs = loss_and_grads_batch(params, features, losses)
            want, ref_grads, ref_probs, _ = reference(params, comps, config, losses)
            for kind in kinds:
                assert got[kind].shape == (len(comps),)
                assert_close(got[kind], want[kind], kind)
            assert (probs is None) == (ref_probs is None)
            if probs is not None:
                assert_close(probs, ref_probs, kinds)
            assert_grads_match(grads, ref_grads, kinds)


def test_greedy_predictions_across_chunk_bounds_match_the_per_record_argmax(digest_corpus):
    compiled, vocab_size = digest_corpus
    config = FUSIONS["add"]
    params = random_params(vocab_size, config, seed=14)
    first = len(policy.token_chunks(compiled)[0])  # records that fill the first chunk
    assert 2 <= first < len(compiled) - 1
    for n in (1, first - 1, first, first + 1):
        comps = compiled[:n]
        want = []
        for comp in comps:
            rf = record_features(comp, params, config)
            _, probs, _ = reference_head(params, rf, "cross_entropy", {"gold_index": 0}, 1.0, zeros_like_params(params))
            want.append(comp.candidates[int(np.argmax(probs))].text)
        got = [comp.candidates[i].text for comp, i in zip(comps, greedy_choices(comps, params, config))]
        assert got == want, n
