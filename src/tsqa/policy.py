"""Candidate extraction and a hand-differentiated answer-selection policy.

Answers are selected, not generated: every distinct fact object mentioned
in the context becomes a candidate, plus one reserved empty candidate
that realizes abstention.  A two-layer perceptron scores candidates from
features built on the fused text+time embeddings, which learned attention
pools condense per question and per mention window; a linear value head
reads a mean-pooled state vector.  All gradients are written out analytically,
including the scatter back into the shared embedding tables, so training
needs no autodiff framework.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .config import REQUIRED, FeatureConfig, config_from_json, json_object
from .facts import FactIndex, ResolutionError, _subseq_at, infer_question_pair, mine_proximal, mine_remote
from .features import Vocabulary, fuse, mark_spans
from .fileio import write_atomic
from .intervals import MonthInterval
from .metrics import exact_match, f1, normalize_answer
from .tagger import parse_question_time, tag, tokenize, words

# Interval features saturate at ten years so far-apart periods stop
# dominating the scale.
_GAP_CLAMP_MONTHS = 120.0


# ---------------------------------------------------------------------------
# Candidates.


@dataclass(frozen=True)
class Candidate:
    """One answer option; empty text is the abstain option."""

    text: str
    tok_start: Optional[int] = None  # context token span, half-open
    tok_end: Optional[int] = None
    fact_interval: Optional[MonthInterval] = None


def extract_candidates(
    ctx_tokens: Sequence, index: FactIndex, low: Optional[list[str]] = None
) -> list[Candidate]:
    """Candidates = distinct objects of facts whose subject is mentioned
    in the context tokens, each with its first mention, ordered by mention
    position; the one empty candidate comes last.  `ctx_tokens` are
    `Token`s or token texts; `low`, if given, holds their lower-cased texts."""
    if low is None:
        low = [(t if isinstance(t, str) else t.text).lower() for t in ctx_tokens]

    # Facts of the mentioned subjects, in store order.
    fact_ids = sorted(
        i for s in index.mentioned_subjects(low, lower=True) for i in index.by_subject[s]
    )
    found: dict[str, tuple[int, int, MonthInterval]] = {}
    for i in fact_ids:
        fact = index.facts[i]
        if fact.object in found:
            # Same object again: keep the chronologically first interval.
            start, end, iv = found[fact.object]
            if fact.interval.lo < iv.lo:
                found[fact.object] = (start, end, fact.interval)
            continue
        toks = index.object_tokens(fact.object)
        pos = _subseq_at(low, toks) if toks else None
        if pos is None:
            continue
        found[fact.object] = (pos, pos + len(toks), fact.interval)

    ordered = sorted(found.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0]))
    cands = [Candidate(text, s, e, iv) for text, (s, e, iv) in ordered]
    cands.append(Candidate(""))
    return cands


# ---------------------------------------------------------------------------
# Record compilation: everything static per record, computed once.


@dataclass
class CompiledRecord:
    id: str
    question_type: object
    gold_answers: list[str]
    spec: object
    token_ids: np.ndarray  # question tokens then context tokens
    bits: np.ndarray  # dilated temporal mask over the same axis
    question_len: int
    candidates: list[Candidate]  # distinct texts, the empty one last
    gold_index: int  # -1 when the gold matches no candidate
    window_pos: list[np.ndarray]  # per candidate, fused-row indices
    interval_feats: np.ndarray  # (K, 3): overlap, gap, presence
    density: np.ndarray  # (K,) mask density in the mention window
    pooled_extra: np.ndarray  # (3,) question-interval summary
    q_interval: Optional[MonthInterval]  # from the question or its event
    subject: Optional[str]
    relation: Optional[str]
    remote_pool: list[str]
    proximal_pool: list[str]

    @cached_property
    def layout(self) -> "RecordLayout":
        """The static arrays featurize reads, worked out once, on first use."""
        return RecordLayout.of(self)

    @cached_property
    def _scores(self) -> dict[int, tuple[float, float]]:
        return {}

    def candidate_score(self, index: int) -> tuple[float, float]:
        """Candidate `index`'s EM and F1 against the gold answers, scored on first use."""
        score = self._scores.get(index)
        if score is None:
            text = self.candidates[index].text
            score = self._scores[index] = (exact_match(text, self.gold_answers), f1(text, self.gold_answers))
        return score


@dataclass(frozen=True)
class RecordLayout:
    """Which tokens each attention pool reads, and the other static inputs
    of featurize: per record, as arrays that a batch concatenates.

    Pool 0 is the question, pool 1 + c the mention window of candidate c.
    Rows are listed question first, then window by window, so each pool's
    rows are one consecutive run; windows overlap, so a token may be the
    row of several pools.  The groupings by token id and mask bit serve
    only backward, so `grouping` is built on first read.
    """

    token_ids: np.ndarray  # the record's, over the token axis
    bits: np.ndarray  # the record's mask, over the token axis
    sizes: tuple[int, int, int]  # tokens T, pools P, rows N
    rows: np.ndarray  # (3, N): 2 * token + (1 for a window row), pool * T + token, pool
    counts: np.ndarray  # rows of each pool that has rows, in pool order
    interval_feats: np.ndarray  # (K, 3)
    density: np.ndarray  # (K,)
    pooled_extra: np.ndarray  # (3,)

    @classmethod
    def of(cls, comp: "CompiledRecord") -> "RecordLayout":
        n_q, total = comp.question_len, comp.token_ids.size
        sizes = np.array([n_q] + [p.size for p in comp.window_pos], dtype=np.intp)
        pos = np.concatenate([np.arange(n_q)] + comp.window_pos, dtype=np.intp)
        # int32 halves what every compiled record keeps; a batch's rows are intp.
        rows = np.empty((3, pos.size), dtype=np.int32)
        rows[2] = np.repeat(np.arange(sizes.size), sizes)
        np.multiply(pos, 2, out=rows[0])
        rows[0, n_q:] += 1
        np.multiply(rows[2], total, out=rows[1])
        rows[1] += pos
        return cls(
            token_ids=comp.token_ids,
            bits=comp.bits,
            sizes=(total, sizes.size, pos.size),
            rows=rows,
            counts=sizes[sizes > 0],
            interval_feats=comp.interval_feats,
            density=comp.density,
            pooled_extra=comp.pooled_extra,
        )

    @cached_property
    def grouping(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct token ids, and (2, N) cells per row for backward's
        (P + 2, ids) matrix that sums the attention weights (rows 0..P-1)
        and the u terms (row P for the question's u, P + 1 for the
        windows') per token id."""
        score, _, pool = self.rows
        keys, key = np.unique(self.token_ids, return_inverse=True)
        key = key[score >> 1]
        cells = [pool * keys.size + key, (self.sizes[1] + (score & 1)) * keys.size + key]
        return keys, np.stack(cells, dtype=np.int32)


def compile_record(
    record,
    index: Optional[FactIndex],
    vocab: Vocabulary,
    config: FeatureConfig,
    names: Optional[dict[str, list[str]]] = None,
) -> CompiledRecord:
    """The record against `index`, or with `index=None` against its own facts
    (an index whose name tokens are memoized in `names`).

    The question is tokenized with offsets, which its time-scope and pair
    parsers read; the context only as token texts, lower-cased once for
    the tagger, the vocabulary and the candidate search."""
    idx = index if index is not None else FactIndex(record.facts, names)
    q_tokens = tokenize(record.question)
    q_low = [t.text.lower() for t in q_tokens]
    ctx = words(record.context)
    ctx_low = list(map(str.lower, ctx))
    q_spans = tag(q_tokens, q_low)
    spec = record.time_spec
    if spec is None:
        spec = parse_question_time(q_tokens, q_spans)

    n_q, total = len(q_tokens), len(q_tokens) + len(ctx)
    bits = np.zeros(total, dtype=np.int8)
    mark_spans(bits[:n_q], q_spans, config.window)
    mark_spans(bits[n_q:], tag(ctx, ctx_low), config.window)
    token_ids = vocab.encode(q_low + ctx_low, lowered=True)

    candidates = extract_candidates(ctx, idx, ctx_low)

    # The question's own interval, resolving era references through the
    # fact store.  Deliberately never fall back to the gold fact here:
    # features must not encode which candidate is correct.
    q_iv = spec.interval
    if q_iv is None and spec.event_name:
        try:
            q_iv = idx.event_interval(spec.event_name)
        except ResolutionError:
            q_iv = None

    # Per mentioned candidate: its mention widened by the window and
    # clipped to the record, as a run of token positions; the mask density
    # over that run, from the running count of set bits; and its interval
    # features against the question's: overlap (a share of the question's
    # months), signed gap (clamped), and presence.
    positions = np.arange(total)
    set_bits = [0, *np.cumsum(bits).tolist()]
    window_pos, density, rows = [], [], []
    for cand in candidates:
        if cand.tok_start is None:
            window_pos.append(positions[:0])
            density.append(0.0)
            rows += (0.0, 0.0, 0.0)
            continue
        lo = max(0, n_q + cand.tok_start - config.window)
        hi = min(total, n_q + cand.tok_end + config.window)
        window_pos.append(positions[lo:hi])
        density.append((set_bits[hi] - set_bits[lo]) / (hi - lo))
        c_iv = cand.fact_interval
        if q_iv is None or c_iv is None:
            rows += (0.0, 0.0, 0.0)
            continue
        overlap = max(0, min(c_iv.hi, q_iv.hi) - max(c_iv.lo, q_iv.lo) + 1)
        # Months from the question's end to a later candidate's start, or
        # minus those from an earlier candidate's end to the question's start.
        gap = max(c_iv.lo - q_iv.hi, 0) + min(c_iv.hi - q_iv.lo, 0)
        gap = max(-_GAP_CLAMP_MONTHS, min(gap, _GAP_CLAMP_MONTHS))
        rows += (overlap / q_iv.length_months(), gap / _GAP_CLAMP_MONTHS, 1.0)
    density = np.array(density)
    interval_feats = np.array(rows).reshape(-1, 3)

    if q_iv is None:
        pooled_extra = np.array([0.0, 0.0, 1.0 if spec.event_name else 0.0])
    else:
        scaled = min(float(q_iv.length_months()), _GAP_CLAMP_MONTHS) / _GAP_CLAMP_MONTHS
        pooled_extra = np.array([1.0, scaled, 1.0 if spec.event_name else 0.0])

    gold_index = -1
    norm_texts = [normalize_answer(c.text) for c in candidates]
    for gold in record.gold_answers:
        g = normalize_answer(gold)
        if g == "":
            gold_index = len(candidates) - 1
            break
        if g in norm_texts:
            gold_index = norm_texts.index(g)
            break

    subject, relation = infer_question_pair(q_tokens, idx)
    gold = record.gold_answers[0] if record.gold_answers else ""
    mine_iv = q_iv
    if mine_iv is None and gold:
        # Mining may anchor on the gold fact's own period (the reward side
        # already knows the gold answer).
        own = [idx.facts[i] for i in idx.by_object.get(gold, ())]
        if subject is not None:
            own = [f for f in own if f.subject == subject] or own
        if own:
            mine_iv = min(own, key=lambda f: f.interval.lo).interval
    remote_pool: list[str] = []
    proximal_pool: list[str] = []
    if subject is not None and relation is not None and mine_iv is not None:
        remote_pool = mine_remote(subject, relation, gold, mine_iv, idx)
        proximal_pool = mine_proximal(subject, relation, gold, mine_iv, idx)

    return CompiledRecord(
        id=record.id,
        question_type=record.question_type,
        gold_answers=list(record.gold_answers),
        spec=spec,
        token_ids=token_ids,
        bits=bits,
        question_len=n_q,
        candidates=candidates,
        gold_index=gold_index,
        window_pos=window_pos,
        interval_feats=interval_feats,
        density=density,
        pooled_extra=pooled_extra,
        q_interval=q_iv,
        subject=subject,
        relation=relation,
        remote_pool=remote_pool,
        proximal_pool=proximal_pool,
    )


def compile_dataset(
    records: Sequence, index: Optional[FactIndex], vocab: Vocabulary, config: FeatureConfig
) -> list[CompiledRecord]:
    names: dict[str, list[str]] = {}  # shared by the per-record indexes of `index=None`
    return [compile_record(r, index, vocab, config, names) for r in records]


# ---------------------------------------------------------------------------
# Parameters.


# Fixed order; the flat layout and the checkpoint format rely on it.
_NAMES = ("text_table", "time_table", "W1", "b1", "W2", "b2", "Wv", "bv", "u_question", "u_window")


class PolicyParams:
    """The policy's tensors, as views of `shapes` into one float64 vector
    `flat` laid out in `named_tensors()` order: text_table (V, d),
    time_table (2, d), W1 (H, F), b1 (H,), W2 (1, H), b2 (1,), Wv (1, F̄),
    bv (1,), and the attention vectors u_question and u_window (fw,) of the
    question pool and the mention-window pools, which end the vector and
    are also the one (2, fw) view `u`.  Write through the views
    (`params.W1 += g`), never rebind them."""

    def __init__(self, flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> None:
        self.flat, self.shapes = flat, list(shapes)
        offset = 0
        for name, shape in zip(_NAMES, shapes):
            size = math.prod(shape)
            setattr(self, name, flat[offset : offset + size].reshape(shape))
            offset += size
        self.u = flat[offset - 2 * size : offset].reshape(2, size)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in _NAMES]

    def check_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(n for n, t in self.named_tensors() if not np.isfinite(t).all())
            raise ValueError(f"non-finite values in {name}")

    def clone(self) -> "PolicyParams":
        return PolicyParams(self.flat.copy(), self.shapes)


def zeros_like_params(params: PolicyParams) -> PolicyParams:
    return PolicyParams(np.zeros_like(params.flat), params.shapes)


def param_shapes(vocab_size: int, config: FeatureConfig) -> list[tuple[int, ...]]:
    """The ten tensor shapes of a policy, in `named_tensors()` order."""
    d, H, fw = config.embed_dim, config.hidden, config.fused_width
    F, Fb = 2 * fw + 4, fw + 3  # candidate features; pooled state
    return [(vocab_size, d), (2, d), (H, F), (H,), (1, H), (1,), (1, Fb), (1,), (fw,), (fw,)]


def init_params(rng: np.random.Generator, vocab_size: int, config: FeatureConfig) -> PolicyParams:
    """Uniform fan-balanced weights, zero biases, a zero time table so the
    fresh model coincides with the no-temporal baseline, and zero attention
    vectors so it pools uniformly."""
    shapes = param_shapes(vocab_size, config)
    params = PolicyParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
    for w in (params.text_table, params.W1, params.W2, params.Wv):
        limit = np.sqrt(6.0 / sum(w.shape))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return params


# ---------------------------------------------------------------------------
# The batched engine: featurize, forward and backward a list of records at
# once.  A batch concatenates its records' layouts; only the (pools x
# tokens) products stay per record, everything else is one numpy call per
# batch.  The one-record entry points below are batches of one.


class Batch:
    """The layouts of a list of records, concatenated: one token axis, one
    pool-row axis, one pool axis and one candidate axis, each record's block
    after the one before.  A record may appear more than once.

    The pool axis gives each record P + 2 rows: its pools, then two rows
    that backward fills with the question's and the windows' u, so that a
    record's (P + 2, fw) block is the basis its token gradients are
    combinations of.
    """

    def __init__(self, layouts: Sequence["RecordLayout"]) -> None:
        self.layouts = layouts
        # Per record: the slice bounds of its tokens, attention cells and
        # pools, then its row count, candidate count and first candidate.
        self.blocks, sizes, t, c, p, k = [], [], 0, 0, 0, 0
        for lay in layouts:
            n_tokens, n_pools, n = lay.sizes
            self.blocks.append((t, t + n_tokens, c, c + n_pools * n_tokens, p, p + n_pools))
            sizes.append((n_tokens, n, n_pools - 1, k))
            t, c, p, k = t + n_tokens, c + n_pools * n_tokens, p + n_pools + 2, k + n_pools - 1
        self.n_cells, self.n_pools = c, p
        bounds = np.array(self.blocks, dtype=np.intp).reshape(-1, 6)
        self.pool_starts = bounds[:, 4]
        self.n_tokens, self.n_rows, self.n_cands, self.cand_starts = np.array(sizes, dtype=np.intp).reshape(-1, 4).T
        offsets = bounds[:, 0::2].T * np.array([[2], [1], [1]])
        self.rows = np.concatenate([lay.rows for lay in layouts], axis=1) + np.repeat(offsets, self.n_rows, axis=1)
        self.counts = np.concatenate([lay.counts for lay in layouts])
        self.row_starts = np.cumsum(self.counts) - self.counts
        self.token_ids = np.concatenate([lay.token_ids for lay in layouts])
        self.bits = np.concatenate([lay.bits for lay in layouts])
        # Each candidate's pools: its record's question pool, and its own window pool.
        self.question_pools = np.repeat(self.pool_starts, self.n_cands)
        self.window_pools = np.arange(k) + np.repeat(self.pool_starts + 1 - self.cand_starts, self.n_cands)
        self.interval_feats = np.concatenate([lay.interval_feats for lay in layouts])
        self.density = np.concatenate([lay.density for lay in layouts])
        self.pooled_extra = np.array([lay.pooled_extra for lay in layouts])

    def __len__(self) -> int:
        return len(self.layouts)


@dataclass
class BatchFeatures:
    """Candidate feature rows and pooled states of a batch, plus what
    backward needs of the pools: the fused vectors, the row weights and the
    pools themselves.  `config` tells backward the fusion mode and whether
    the time table took part."""

    feats: np.ndarray  # (ΣK, F), record by record
    pooled: np.ndarray  # (B, F̄)
    vectors: np.ndarray  # (ΣT, fw) fused rows, one per token
    weights: np.ndarray  # (ΣN,) each pool row's attention weight
    pools: np.ndarray  # (ΣP + 2B, fw) on the batch's pool axis; the basis rows are zero
    batch: Batch
    config: FeatureConfig


def featurize_batch(
    records: Sequence[CompiledRecord], params: PolicyParams, config: FeatureConfig
) -> BatchFeatures:
    """Pool the question tokens and each mention window with weights
    softmax(u·x_i), one u for the question and one for the windows, and
    lay out each candidate's features: its question pool, its window pool,
    then its interval features and density."""
    batch = Batch([c.layout for c in records])
    # With temporal fusion off the time table reads as zero, and backward
    # leaves its gradient alone.
    time_table = params.time_table if config.temporal_fusion else np.zeros_like(params.time_table)
    vectors = fuse(batch.token_ids, batch.bits, params.text_table, time_table, config.fusion_mode)
    fw = vectors.shape[1]
    score, flat, _ = batch.rows

    weights = np.zeros(0)
    attention = np.zeros(batch.n_cells)
    if score.size:
        # Each token is scored once per attention vector, not once per row.
        scores = (vectors @ params.u.T).ravel()[score]
        starts, counts = batch.row_starts, batch.counts
        e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), counts))
        weights = e / np.repeat(np.add.reduceat(e, starts), counts)
        attention[flat] = weights
    pools = np.zeros((batch.n_pools, fw))
    pooled = np.empty((len(batch), fw + 3))
    for b, (t0, t1, c0, c1, p0, p1) in enumerate(batch.blocks):
        np.matmul(attention[c0:c1].reshape(p1 - p0, t1 - t0), vectors[t0:t1], out=pools[p0:p1])
        # Summed per record as `mean` sums, so a record's pooled state is the same bits in any batch.
        np.add.reduce(vectors[t0:t1], axis=0, out=pooled[b, :fw])

    feats = np.empty((batch.window_pools.size, 2 * fw + 4))
    feats[:, :fw] = pools[batch.question_pools]
    feats[:, fw : 2 * fw] = pools[batch.window_pools]
    feats[:, 2 * fw : 2 * fw + 3] = batch.interval_feats
    feats[:, -1] = batch.density
    pooled[:, :fw] /= batch.n_tokens[:, None]
    pooled[:, fw:] = batch.pooled_extra
    return BatchFeatures(feats, pooled, vectors, weights, pools, batch, config)


def featurize_record(comp: CompiledRecord, params: PolicyParams, config: FeatureConfig) -> BatchFeatures:
    """`featurize_batch` of one record: feats is (K, F), pooled (1, F̄)."""
    return featurize_batch([comp], params, config)


def featurize(
    comp: CompiledRecord, params: PolicyParams, config: FeatureConfig, index: int
) -> np.ndarray:
    """Row `index` of `featurize_record`; kept as a name the benchmark's tracer lists."""
    return featurize_batch([comp], params, config).feats[index]


# ---------------------------------------------------------------------------
# Forward / backward.


@dataclass
class PolicyOutput:
    logits: np.ndarray
    probs: np.ndarray
    value: float


def _check_widths(params: PolicyParams, feats: np.ndarray, pooled: np.ndarray, pooled_shape: tuple) -> None:
    if feats.ndim != 2 or feats.shape[1] != params.W1.shape[1]:
        raise ValueError(
            f"feature width {feats.shape} does not match W1 {params.W1.shape}"
        )
    if pooled.shape != pooled_shape:
        raise ValueError(f"pooled state width {pooled.shape} does not match Wv")


_FIRST = np.zeros(1, dtype=np.intp)  # the one record's start in a one-record call


def _head(
    params: PolicyParams, feats: np.ndarray, starts: np.ndarray, counts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (ΣK, H) tanh activations, the candidate logits, and their softmax
    within each record's run of `counts` candidates from `starts`."""
    h = np.tanh(feats @ params.W1.T + params.b1)
    logits = (h @ params.W2.T).ravel() + params.b2[0]
    e = np.exp(logits - np.repeat(np.maximum.reduceat(logits, starts), counts))
    return h, logits, e / np.repeat(np.add.reduceat(e, starts), counts)


def forward(params: PolicyParams, feats: np.ndarray, pooled: np.ndarray) -> PolicyOutput:
    """One record's logits and probabilities over its (K, F) candidate rows,
    and the value of its (F̄,) pooled state."""
    feats = np.asarray(feats, dtype=float)
    pooled = np.asarray(pooled, dtype=float)
    _check_widths(params, feats, pooled, (params.Wv.shape[1],))
    _, logits, probs = _head(params, feats, _FIRST, feats.shape[0])
    value = float(pooled @ params.Wv[0] + params.bv[0])
    return PolicyOutput(logits=logits, probs=probs, value=value)


LOSS_KINDS = ("cross_entropy", "ppo_surrogate", "value_mse")


def _picked(batch: Batch, inputs: dict, key: str) -> np.ndarray:
    """Each record's candidate `inputs[key]`, as a position on the candidate axis."""
    index = np.asarray(inputs[key], dtype=np.intp).reshape(len(batch))
    outside = (index < 0) | (index >= batch.n_cands)
    if outside.any():
        b = int(np.argmax(outside))
        name = "gold index" if key == "gold_index" else key
        raise ValueError(f"{name} {index[b]} outside {batch.n_cands[b]} candidates")
    return batch.cand_starts + index


def _policy_loss(
    kind: str, probs: np.ndarray, batch: Batch, inputs: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record losses of a policy loss kind, and d(loss)/d(logits)."""
    if kind == "cross_entropy":
        gold = _picked(batch, inputs, "gold_index")
        dlogits = probs.copy()
        dlogits[gold] -= 1.0
        return -np.log(np.maximum(probs[gold], 1e-300)), dlogits
    action = _picked(batch, inputs, "action")
    logp_old = np.asarray(inputs["logprob_old"], dtype=float)
    adv = np.asarray(inputs["advantage"], dtype=float)
    clip = np.asarray(inputs["cliprange"], dtype=float)
    if (clip <= 0).any():
        raise ValueError("cliprange must be positive")
    ratio = np.exp(np.log(np.maximum(probs[action], 1e-300)) - logp_old)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    # Only the unclipped branch has a gradient.
    coef = np.where(ratio * adv <= clipped * adv, -ratio * adv, 0.0)
    dlogits = np.repeat(coef, batch.n_cands) * -probs
    dlogits[action] += coef
    return -np.minimum(ratio * adv, clipped * adv), dlogits


def loss_and_grads_batch(
    params: PolicyParams,
    features: BatchFeatures,
    losses: dict,
    into: Optional[PolicyParams] = None,
) -> tuple[dict, PolicyParams, Optional[np.ndarray]]:
    """Per-record losses, exact gradients and the candidate probabilities
    of a batch (None when only value_mse is asked for, which computes none).

    `losses` maps each loss kind to its inputs, one entry per record:
    gold_index (cross_entropy); action, logprob_old, advantage and cliprange
    (ppo_surrogate); return (value_mse); and an optional scale, a number or
    one per record.  Returns each kind's (B,) losses and the sum of the
    scaled gradients, added to `into` when it is given.  The pooled state is
    a constant input to the value head, so value_mse touches only Wv and
    bv; the policy losses are the only path into the perceptron and the
    shared tables.  The softmax ignores b2, so its gradient is zero.
    """
    batch = features.batch
    _check_widths(params, features.feats, features.pooled, (len(batch), params.Wv.shape[1]))
    for kind in losses:
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
    grads = zeros_like_params(params) if into is None else into
    out: dict[str, np.ndarray] = {}
    h = probs = dlogits = None
    for kind, inputs in losses.items():
        scale = np.broadcast_to(np.asarray(inputs.get("scale", 1.0), dtype=float), (len(batch),))
        if kind == "value_mse":
            values = features.pooled @ params.Wv[0] + params.bv[0]
            diff = values - np.asarray(inputs["return"], dtype=float)
            dvalues = scale * (2.0 * diff)
            grads.Wv[0] += dvalues @ features.pooled
            grads.bv[0] += dvalues.sum()
            out[kind] = diff * diff
            continue
        if probs is None:
            h, _, probs = _head(params, features.feats, batch.cand_starts, batch.n_cands)
            dlogits = np.zeros_like(probs)
        out[kind], d = _policy_loss(kind, probs, batch, inputs)
        dlogits += np.repeat(scale, batch.n_cands) * d
    if dlogits is not None:
        dz = dlogits[:, None] * params.W2 * (1.0 - h * h)  # (ΣK, H)
        grads.W2[0] += dlogits @ h
        grads.W1 += dz.T @ features.feats
        grads.b1 += dz.sum(axis=0)
        _pool_grads(grads, params, features, dz @ params.W1)
    return out, grads, probs


def _pool_grads(grads: PolicyParams, params: PolicyParams, features: BatchFeatures, dfeats: np.ndarray) -> None:
    """Backprop feature gradients through the attention pools into the
    attention vectors and the table rows.

    For a pool p = sum_i w_i x_i with w = softmax(u·x) and upstream g:
    s_i = w_i g·(x_i - p), dx_i = w_i g + s_i u, du = sum_i s_i x_i.  Row i
    reads one token, so a token's gradient sums its rows' dx_i: the
    weights times their pools' g, then the s_i times their u.
    """
    batch = features.batch
    score, flat, pool = batch.rows
    if not score.size:
        return
    vectors, weights, fw = features.vectors, features.weights, features.config.fused_width
    # The pool axis as the basis: each record's pool gradients, then its u.
    # The question pool feeds each of its record's candidate rows.
    basis = np.empty_like(features.pools)
    basis[batch.pool_starts] = np.add.reduceat(dfeats[:, :fw], batch.cand_starts, axis=0)
    basis[batch.window_pools] = dfeats[:, fw : 2 * fw]
    u_rows = batch.pool_starts + batch.n_cands + 1
    basis[u_rows], basis[u_rows + 1] = params.u
    # g_p·x_t for each record's pools and tokens; row i reads (pool_i, token_i).
    products = np.empty(batch.n_cells)
    for t0, t1, c0, c1, p0, p1 in batch.blocks:
        np.matmul(basis[p0:p1], vectors[t0:t1].T, out=products[c0:c1].reshape(p1 - p0, t1 - t0))
    s = weights * (products[flat] - np.einsum("ij,ij->i", features.pools, basis)[pool])
    # (token, u) sums of s; `score` is 2 * token + (1 for a window row).
    du = np.bincount(score, s, minlength=2 * vectors.shape[0]).reshape(-1, 2).T @ vectors
    grads.u += du
    _table_grads(grads, features, np.concatenate([weights, s]), basis)


def _table_grads(grads: PolicyParams, features: BatchFeatures, ws: np.ndarray, basis: np.ndarray) -> None:
    """The tables' gradients from the row weights and s_i, `ws`, and the
    basis: grouped by token id within each record, times the record's
    basis block, then added into the text table; grouped by mask bit,
    times the whole basis, for the time table."""
    batch, config = features.batch, features.config
    d = config.embed_dim
    # Each record's distinct ids, and the slice bounds of its (P + 2, ids)
    # block of the grouped weights and s_i and of its basis rows.
    cells, blocks, g = [], [], 0
    for lay, (_, _, _, _, p0, p1) in zip(batch.layouts, batch.blocks):
        ids, index = lay.grouping
        n_basis = p1 - p0 + 2
        cells.append(index)
        blocks.append((ids, g, g + n_basis * ids.size, p0, p0 + n_basis))
        g += n_basis * ids.size
    cells = np.concatenate(cells, axis=1) + np.repeat(np.array([b[1] for b in blocks], dtype=np.intp), batch.n_rows)
    text_basis, time_basis = (basis, basis) if config.fusion_mode == "add" else (basis[:, :d], basis[:, d:])
    grouped = np.bincount(cells.ravel(), ws, minlength=g)
    for ids, g0, g1, b0, b1 in blocks:
        # A record's ids are distinct, so a fancy add scatters its rows.
        grads.text_table[ids] += grouped[g0:g1].reshape(b1 - b0, ids.size).T @ text_basis[b0:b1]
    if config.temporal_fusion:  # off, featurize read a constant zero table
        # The (basis row, mask bit) sums: row i's pool and its u row, each with the bit of its token.
        score, _, pool = batch.rows
        u_row = np.repeat(batch.pool_starts + batch.n_cands + 1, batch.n_rows) + (score & 1)
        bit = batch.bits[score >> 1]
        per_bit = np.bincount(np.concatenate([2 * pool + bit, 2 * u_row + bit]), ws, minlength=2 * batch.n_pools)
        grads.time_table += per_bit.reshape(-1, 2).T @ time_basis


def loss_and_grads(
    params: PolicyParams,
    rf: BatchFeatures,
    loss_kind: str,
    loss_inputs: dict,
    into: Optional[PolicyParams] = None,
    scale: float = 1.0,
) -> tuple[float, PolicyParams, Optional[np.ndarray]]:
    """`loss_and_grads_batch` of a one-record batch and one loss kind:
    the scalar loss, the gradients (times `scale`, added to `into` when it
    is given) and the candidate probabilities (None for value_mse)."""
    inputs = {**loss_inputs, "scale": scale}
    losses, grads, probs = loss_and_grads_batch(params, rf, {loss_kind: inputs}, into)
    return float(losses[loss_kind][0]), grads, probs


def backward(
    params: PolicyParams, rf: BatchFeatures, loss_kind: str, loss_inputs: dict
) -> PolicyParams:
    """The gradients of `loss_and_grads`; kept as a name the benchmark's tracer lists."""
    return loss_and_grads(params, rf, loss_kind, loss_inputs)[1]


def grad_check(
    params: PolicyParams,
    loss_closure: Callable[[PolicyParams], tuple],
    epsilon: float = 1e-5,
    seed: int = 0,
    min_coords: int = 200,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random coordinate subsample.

    The closure must return (loss, grads, ...) for the given parameters, as
    `loss_and_grads` does; the finite differences reuse only its loss value.
    """
    analytic = loss_closure(params)[1]
    # Flat indices of all entries of tensors of at most 32, then of a sample of the rest.
    sizes = [t.size for _, t in params.named_tensors()]
    small = np.repeat([size <= 32 for size in sizes], sizes)
    coords, rest = np.flatnonzero(small), np.flatnonzero(~small)
    want = min(max(min_coords - coords.size, 0), rest.size)
    picked = np.random.default_rng(seed).choice(rest.size, want, replace=False)
    coords = np.concatenate([coords, rest[picked]])

    worst = 0.0
    for j in coords:
        original = params.flat[j]
        params.flat[j] = original + epsilon
        plus = loss_closure(params)[0]
        params.flat[j] = original - epsilon
        minus = loss_closure(params)[0]
        params.flat[j] = original
        fd = (plus - minus) / (2.0 * epsilon)
        a = analytic.flat[j]
        worst = max(worst, abs(a - fd) / max(1e-6, abs(a), abs(fd)))
    return worst


# ---------------------------------------------------------------------------
# Inference.

# Records per inference batch are cut at this many tokens, which bounds
# the batch's temporaries while keeping the per-call cost shared.
_CHUNK_TOKENS = 1024


def token_chunks(records: Sequence[CompiledRecord]) -> list[Sequence[CompiledRecord]]:
    """`records` cut into consecutive runs of at most `_CHUNK_TOKENS`
    tokens, or of one record that is longer."""
    chunks, start, used = [], 0, 0
    for i, comp in enumerate(records):
        n = comp.token_ids.size
        if used and used + n > _CHUNK_TOKENS:
            chunks.append(records[start:i])
            start, used = i, 0
        used += n
    if start < len(records):
        chunks.append(records[start:])
    return chunks


def record_probs(
    records: Sequence[CompiledRecord], params: PolicyParams, config: FeatureConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each record's (K,) candidate probabilities and the value of its
    pooled state, in input order, from one featurize and one head per chunk
    of `token_chunks`.  A record may appear more than once."""
    probs, values = [], []
    for chunk in token_chunks(records):
        features = featurize_batch(chunk, params, config)
        batch = features.batch
        _check_widths(params, features.feats, features.pooled, (len(batch), params.Wv.shape[1]))
        chunk_probs = _head(params, features.feats, batch.cand_starts, batch.n_cands)[2]
        probs += [chunk_probs[s : s + k] for s, k in zip(batch.cand_starts.tolist(), batch.n_cands.tolist())]
        values.append(features.pooled @ params.Wv[0] + params.bv[0])
    return probs, np.concatenate(values) if values else np.zeros(0)


def greedy_choices(
    compiled: Sequence[CompiledRecord], params: PolicyParams, config: FeatureConfig
) -> np.ndarray:
    """Each record's argmax candidate (the first of equal ones), in input order."""
    probs, _ = record_probs(compiled, params, config)
    return np.array([p.argmax() for p in probs], dtype=np.intp)


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary tensors plus a JSON sidecar for the
# vocabulary and feature configuration.

_MAGIC = b"TSQP"
_VERSION = 2
_HEADER = "<4sI5I"


def _sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def _header_sizes(shapes: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """V, d, H, F and F̄: the sizes a checkpoint header stores."""
    return (*shapes[0], *shapes[2], shapes[6][1])


# What each header size measures, and the sidecar field it follows from.
_HEADER_FIELDS = (
    ("text table rows", "vocabulary size"),
    ("embedding width", "features.embed_dim"),
    ("hidden width", "features.hidden"),
    ("feature width", "features.embed_dim and features.fusion_mode"),
    ("pooled width", "features.embed_dim and features.fusion_mode"),
)


# The sidecar's JSON shape: token -> id, and the feature config's block.
_SIDECAR = {"vocab": ({"": 0}, REQUIRED), "features": ({}, REQUIRED)}


def save_checkpoint(
    path: str | Path, params: PolicyParams, vocab: Vocabulary, config: FeatureConfig
) -> None:
    header = struct.pack(_HEADER, _MAGIC, _VERSION, *_header_sizes(params.shapes))
    write_atomic(path, header + np.asarray(params.flat, dtype="<f8").tobytes())
    sidecar = {"vocab": json.loads(vocab.to_json()), "features": config.to_json_dict()}
    write_atomic(_sidecar_path(path), json.dumps(sidecar, ensure_ascii=False, indent=2) + "\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, Vocabulary, FeatureConfig]:
    """The tensors, vocabulary and feature config of a checkpoint.  The
    layout comes from the sidecar; the header must agree with it."""
    data = Path(path).read_bytes()
    head = struct.calcsize(_HEADER)
    if len(data) < head:
        raise ValueError(f"{path}: checkpoint too short for its header")
    magic, version, *sizes = struct.unpack_from(_HEADER, data, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a policy checkpoint (bad magic)")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")

    sidecar_path = _sidecar_path(path)
    try:
        sidecar = json_object(json.loads(sidecar_path.read_text(encoding="utf-8")), _SIDECAR)
        vocab = Vocabulary.from_json(json.dumps(sidecar["vocab"]))
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    config = config_from_json(FeatureConfig, sidecar["features"], f"{sidecar_path}: features")

    shapes = param_shapes(len(vocab), config)
    for have, want, (what, field) in zip(sizes, _header_sizes(shapes), _HEADER_FIELDS):
        if have != want:
            raise ValueError(
                f"{path}: checkpoint {what} {have} does not match {want}, "
                f"from {field} in {sidecar_path}"
            )
    expected = head + 8 * sum(math.prod(s) for s in shapes)
    if len(data) != expected:
        raise ValueError(f"{path}: checkpoint size {len(data)} != expected {expected}")
    params = PolicyParams(np.frombuffer(data, "<f8", offset=head).astype(float), shapes)
    params.check_finite()
    return params, vocab, config
