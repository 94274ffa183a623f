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

from .config import FeatureConfig
from .facts import FactIndex, ResolutionError, _subseq_at, infer_question_pair, mine_proximal, mine_remote
from .features import (
    EmbeddingTables,
    TemporalMask,
    Vocabulary,
    build_mask,
    concat_masks,
    dilate,
    fuse,
)
from .fileio import write_atomic
from .intervals import MonthInterval
from .metrics import normalize_answer
from .tagger import parse_question_time, tag, tokenize

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

    @property
    def is_empty(self) -> bool:
        return self.text == ""


@dataclass
class CandidateSet:
    candidates: list[Candidate]

    def __post_init__(self) -> None:
        texts = [c.text for c in self.candidates]
        if len(set(texts)) != len(texts):
            raise ValueError("duplicate candidate texts")
        if texts.count("") != 1:
            raise ValueError("exactly one empty candidate required")

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self.candidates[i]

    @property
    def texts(self) -> list[str]:
        return [c.text for c in self.candidates]

    @property
    def empty_index(self) -> int:
        return next(i for i, c in enumerate(self.candidates) if c.is_empty)


def extract_candidates(record, index: FactIndex, ctx_tokens=None) -> CandidateSet:
    """Candidates = distinct objects of facts whose subject is mentioned
    in the context, each with its first context mention, ordered by
    mention position; the empty candidate comes last."""
    if ctx_tokens is None:
        ctx_tokens = tokenize(record.context)
    low = [t.text.lower() for t in ctx_tokens]

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
    return CandidateSet(cands)


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
    candidates: CandidateSet
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
    def mask(self) -> TemporalMask:
        """`bits` as a mask, checked once per record."""
        return TemporalMask(self.bits)

    @cached_property
    def pool_rows(self) -> "PoolRows":
        """The rows the attention pools read, worked out on first use."""
        return PoolRows.of(self.question_len, self.window_pos, self.token_ids, self.bits)


@dataclass(frozen=True)
class _Runs:
    """Rows grouped by an integer key, for per-key sums with one reduceat."""

    order: np.ndarray  # row indices sorted by key, ties in row order
    starts: np.ndarray  # where each key's run begins in `order`
    counts: np.ndarray  # rows per run
    keys: np.ndarray  # the key of each run, ascending

    @classmethod
    def of(cls, keys: np.ndarray) -> "_Runs":
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        # A run starts wherever the key changes, and at row 0.
        starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
        return cls(order, starts, np.diff(np.append(starts, keys.size)), ordered[starts])

    def sums(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values[self.order], self.starts, axis=0)


@dataclass(frozen=True)
class PoolRows:
    """Which fused rows each attention pool reads, static per record.

    Pool 0 is the question, pool 1 + c the mention window of candidate c.
    Rows are listed question first, then window by window, so each pool's
    rows are one consecutive run.
    """

    pos: np.ndarray  # (N,) fused-row index per row
    pool: np.ndarray  # (N,) pool per row
    pools: _Runs  # rows grouped by pool
    text: _Runs  # rows grouped by token id, for the text-table gradient
    time: _Runs  # rows grouped by mask bit, for the time-table gradient
    question_len: int
    n_pools: int

    @classmethod
    def of(
        cls,
        question_len: int,
        window_pos: Sequence[np.ndarray],
        token_ids: np.ndarray,
        bits: np.ndarray,
    ) -> "PoolRows":
        sizes = [question_len] + [p.size for p in window_pos]
        pos = np.concatenate([np.arange(question_len)] + list(window_pos)).astype(np.intp)
        pool = np.repeat(np.arange(len(sizes)), sizes)
        return cls(
            pos=pos,
            pool=pool,
            pools=_Runs.of(pool),
            text=_Runs.of(np.asarray(token_ids, dtype=np.intp)[pos]),
            time=_Runs.of(np.asarray(bits, dtype=np.intp)[pos]),
            question_len=question_len,
            n_pools=len(sizes),
        )


def _window_positions(
    tok_start: int, tok_end: int, question_len: int, total: int, window: int
) -> np.ndarray:
    lo = max(0, question_len + tok_start - window)
    hi = min(total - 1, question_len + tok_end - 1 + window)
    return np.arange(lo, hi + 1)


def _interval_row(q_iv: Optional[MonthInterval], c_iv: Optional[MonthInterval]) -> np.ndarray:
    if q_iv is None or c_iv is None:
        return np.zeros(3)
    overlap = q_iv.overlap_months(c_iv) / q_iv.length_months()
    if c_iv.lo > q_iv.hi:
        gap = float(c_iv.lo - q_iv.hi)
    elif c_iv.hi < q_iv.lo:
        gap = -float(q_iv.lo - c_iv.hi)
    else:
        gap = 0.0
    gap = float(np.clip(gap, -_GAP_CLAMP_MONTHS, _GAP_CLAMP_MONTHS)) / _GAP_CLAMP_MONTHS
    return np.array([overlap, gap, 1.0])


def compile_record(
    record, index: Optional[FactIndex], vocab: Vocabulary, config: FeatureConfig
) -> CompiledRecord:
    idx = index if index is not None else FactIndex(record.facts)
    q_tokens = tokenize(record.question)
    ctx_tokens = tokenize(record.context)
    q_spans = tag(q_tokens)
    spec = record.time_spec
    if spec is None:
        spec = parse_question_time(q_tokens, q_spans)

    q_mask = dilate(build_mask(len(q_tokens), q_spans), config.window)
    c_mask = dilate(build_mask(len(ctx_tokens), tag(ctx_tokens)), config.window)
    bits = concat_masks(q_mask, c_mask).bits
    token_ids = np.concatenate([vocab.encode(q_tokens), vocab.encode(ctx_tokens)])
    n_q, total = len(q_tokens), len(token_ids)

    candidates = extract_candidates(record, idx, ctx_tokens)

    # The question's own interval, resolving era references through the
    # fact store.  Deliberately never fall back to the gold fact here:
    # features must not encode which candidate is correct.
    q_iv = spec.interval
    if q_iv is None and spec.event_name:
        try:
            q_iv = idx.event_interval(spec.event_name)
        except ResolutionError:
            q_iv = None

    window_pos = []
    rows = []
    density = np.zeros(len(candidates))
    for k, cand in enumerate(candidates):
        if cand.is_empty or cand.tok_start is None:
            window_pos.append(np.arange(0))
            rows.append(np.zeros(3))
            continue
        pos = _window_positions(cand.tok_start, cand.tok_end, n_q, total, config.window)
        window_pos.append(pos)
        rows.append(_interval_row(q_iv, cand.fact_interval))
        if pos.size:
            density[k] = float(bits[pos].mean())
    interval_feats = np.stack(rows) if rows else np.zeros((0, 3))

    if q_iv is None:
        pooled_extra = np.array([0.0, 0.0, 1.0 if spec.event_name else 0.0])
    else:
        scaled = min(float(q_iv.length_months()), _GAP_CLAMP_MONTHS) / _GAP_CLAMP_MONTHS
        pooled_extra = np.array([1.0, scaled, 1.0 if spec.event_name else 0.0])

    gold_index = -1
    norm_texts = [normalize_answer(t) for t in candidates.texts]
    for gold in record.gold_answers:
        g = normalize_answer(gold)
        if g == "":
            gold_index = candidates.empty_index
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
    return [compile_record(r, index, vocab, config) for r in records]


# ---------------------------------------------------------------------------
# Parameters.


# Fixed order; the flat layout and the checkpoint format rely on it.
_NAMES = ("text_table", "time_table", "W1", "b1", "W2", "b2", "Wv", "bv", "u_question", "u_window")


@dataclass
class PolicyParams:
    """The policy's tensors, as views of `shapes` into one float64 vector
    `flat` laid out in `named_tensors()` order.  Construction copies the
    arrays into `flat`; write through the views (`params.W1 += g`), never
    rebind them."""

    text_table: np.ndarray  # (V, d)
    time_table: np.ndarray  # (2, d)
    W1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    W2: np.ndarray  # (1, H)
    b2: np.ndarray  # (1,)
    Wv: np.ndarray  # (1, F̄)
    bv: np.ndarray  # (1,)
    u_question: np.ndarray  # (fw,) attention vector of the question pool
    u_window: np.ndarray  # (fw,) attention vector of the mention-window pools

    def __post_init__(self) -> None:
        tensors = [np.asarray(getattr(self, name), dtype=np.float64) for name in _NAMES]
        self._bind(np.concatenate([t.ravel() for t in tensors]), [t.shape for t in tensors])
        self.check_finite()
        if self.text_table.shape[1] != self.time_table.shape[1]:
            raise ValueError("text and time tables disagree on embedding width")
        if self.time_table.shape[0] != 2:
            raise ValueError("time table must have exactly two rows")
        if self.W1.shape[0] != self.b1.shape[0] or self.W2.shape[1] != self.W1.shape[0]:
            raise ValueError("perceptron shapes inconsistent")
        if self.u_question.ndim != 1 or self.u_question.shape != self.u_window.shape:
            raise ValueError("attention vectors must be 1-d and of equal width")

    def _bind(self, flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> None:
        self.flat, self.shapes = flat, list(shapes)
        offset = 0
        for name, shape in zip(_NAMES, shapes):
            size = math.prod(shape)
            setattr(self, name, flat[offset : offset + size].reshape(shape))
            offset += size

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> "PolicyParams":
        """Views of `shapes` over `flat` itself, with no validation."""
        params = object.__new__(cls)
        params._bind(flat, shapes)
        return params

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in _NAMES]

    def check_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(n for n, t in self.named_tensors() if not np.isfinite(t).all())
            raise ValueError(f"non-finite values in {name}")

    def clone(self) -> "PolicyParams":
        return PolicyParams.from_flat(self.flat.copy(), self.shapes)


def zeros_like_params(params: PolicyParams) -> PolicyParams:
    return PolicyParams.from_flat(np.zeros_like(params.flat), params.shapes)


@dataclass(frozen=True)
class PolicyDims:
    vocab_size: int
    embed_dim: int
    hidden: int
    feature_dim: int
    pooled_dim: int

    @property
    def fused_width(self) -> int:
        return self.pooled_dim - 3

    @classmethod
    def from_config(cls, vocab_size: int, config: FeatureConfig) -> "PolicyDims":
        fw = config.fused_width
        return cls(vocab_size, config.embed_dim, config.hidden, 2 * fw + 4, fw + 3)


def init_params(rng: np.random.Generator, dims: PolicyDims) -> PolicyParams:
    """Uniform fan-balanced weights, zero biases, a zero time table so the
    fresh model coincides with the no-temporal baseline, and zero attention
    vectors so it pools uniformly."""

    def uniform(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    V, d = dims.vocab_size, dims.embed_dim
    H, F, Fb = dims.hidden, dims.feature_dim, dims.pooled_dim
    return PolicyParams(
        text_table=uniform((V, d), V, d),
        time_table=np.zeros((2, d)),
        W1=uniform((H, F), F, H),
        b1=np.zeros(H),
        W2=uniform((1, H), H, 1),
        b2=np.zeros(1),
        Wv=uniform((1, Fb), Fb, 1),
        bv=np.zeros(1),
        u_question=np.zeros(dims.fused_width),
        u_window=np.zeros(dims.fused_width),
    )


# ---------------------------------------------------------------------------
# Featurization against current parameters.


@dataclass
class RecordFeatures:
    """Per-candidate feature matrix plus the fused rows the pools read.

    The rows, their attention weights and the record's `PoolRows` are
    what lets backward reach the attention vectors and scatter gradients
    into the shared tables.
    """

    feats: np.ndarray  # (K, F)
    pooled: np.ndarray  # (F̄,)
    rows: np.ndarray  # (N, fw) fused rows, in `layout` order
    weights: np.ndarray  # (N,) attention weight within the row's pool
    layout: PoolRows
    mode: str
    embed_dim: int

    @property
    def fused_width(self) -> int:
        return self.embed_dim * (2 if self.mode == "concat" else 1)

    @classmethod
    def from_matrix(cls, feats: np.ndarray, pooled: np.ndarray) -> "RecordFeatures":
        """Features with no table provenance (table gradients vanish)."""
        fw = (feats.shape[1] - 4) // 2
        empty = np.arange(0)
        return cls(
            feats=np.asarray(feats, dtype=float),
            pooled=np.asarray(pooled, dtype=float),
            rows=np.zeros((0, fw)),
            weights=np.zeros(0),
            layout=PoolRows.of(0, [], empty, empty),
            mode="add",
            embed_dim=fw,
        )


def effective_tables(params: PolicyParams, config: FeatureConfig) -> EmbeddingTables:
    time = params.time_table if config.temporal_fusion else np.zeros_like(params.time_table)
    return EmbeddingTables(time_table=time, text_table=params.text_table)


def _attention_pools(
    rows: np.ndarray, layout: PoolRows, u_question: np.ndarray, u_window: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pool the question rows and each mention window with weights
    softmax(u·x_i), one u for the question and one for the windows.

    Returns (pools, weights): pools is (n_pools, fw), zero for a pool with
    no rows; weights holds each row's weight within its pool.
    """
    pools = np.zeros((layout.n_pools, rows.shape[1]))
    if not rows.shape[0]:
        return pools, np.zeros(0)
    n_q = layout.question_len
    runs = layout.pools
    scores = np.concatenate([rows[:n_q] @ u_question, rows[n_q:] @ u_window])
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, runs.starts), runs.counts))
    weights = e / np.repeat(np.add.reduceat(e, runs.starts), runs.counts)
    pools[runs.keys] = np.add.reduceat(weights[:, None] * rows, runs.starts, axis=0)
    return pools, weights


def featurize_record(
    comp: CompiledRecord, params: PolicyParams, config: FeatureConfig
) -> RecordFeatures:
    tables = effective_tables(params, config)
    fused = fuse(comp.token_ids, comp.mask, tables, comp.question_len, config.fusion_mode)
    vectors = fused.vectors
    fw = vectors.shape[1]
    k = len(comp.candidates)

    layout = comp.pool_rows
    rows = vectors[layout.pos]
    pools, weights = _attention_pools(rows, layout, params.u_question, params.u_window)
    feats = np.empty((k, 2 * fw + 4))
    feats[:, :fw] = pools[0]
    feats[:, fw : 2 * fw] = pools[1:]
    feats[:, 2 * fw : 2 * fw + 3] = comp.interval_feats
    feats[:, -1] = comp.density
    pooled = np.concatenate([vectors.mean(axis=0), comp.pooled_extra])

    return RecordFeatures(
        feats=feats,
        pooled=pooled,
        rows=rows,
        weights=weights,
        layout=layout,
        mode=config.fusion_mode,
        embed_dim=config.embed_dim,
    )


def featurize(
    comp: CompiledRecord, params: PolicyParams, config: FeatureConfig, index: int
) -> np.ndarray:
    """Row `index` of `featurize_record`; kept as a name the benchmark's tracer lists."""
    return featurize_record(comp, params, config).feats[index]


# ---------------------------------------------------------------------------
# Forward / backward.


@dataclass
class PolicyOutput:
    logits: np.ndarray
    probs: np.ndarray
    value: float


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def forward(params: PolicyParams, feats: np.ndarray, pooled: np.ndarray) -> PolicyOutput:
    feats = np.asarray(feats, dtype=float)
    pooled = np.asarray(pooled, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != params.W1.shape[1]:
        raise ValueError(
            f"feature width {feats.shape} does not match W1 {params.W1.shape}"
        )
    if pooled.shape != (params.Wv.shape[1],):
        raise ValueError(f"pooled state width {pooled.shape} does not match Wv")
    _, logits = _hidden_and_logits(params, feats)
    value = float((params.Wv @ pooled)[0] + params.bv[0])
    return PolicyOutput(logits=logits, probs=_softmax(logits), value=value)


def _hidden_and_logits(params: PolicyParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K, H) tanh activations and the K candidate logits."""
    h = np.tanh(feats @ params.W1.T + params.b1)
    return h, (h @ params.W2.T).ravel() + params.b2[0]


LOSS_KINDS = ("cross_entropy", "ppo_surrogate", "value_mse")


def loss_and_grads(
    params: PolicyParams,
    rf: RecordFeatures,
    loss_kind: str,
    loss_inputs: dict,
    into: Optional[PolicyParams] = None,
    scale: float = 1.0,
) -> tuple[float, PolicyParams, Optional[np.ndarray]]:
    """Scalar loss, exact gradients and the candidate probabilities for one
    record (None for value_mse, which computes none).

    The pooled state is treated as a constant input to the value head, so
    value_mse touches only Wv and bv; the policy losses are the only path
    into the perceptron and the shared tables.  With `into`, `scale` times
    the gradients are added to it and it is returned: the sum a trainer
    would form from fresh gradients, bit for bit, but the text table is
    touched only at the rows the record reads.
    """
    grads = zeros_like_params(params) if into is None else into
    if loss_kind == "value_mse":
        ret = float(loss_inputs["return"])
        v = float((params.Wv @ rf.pooled)[0] + params.bv[0])
        diff = v - ret
        grads.Wv[0, :] += scale * (2.0 * diff * rf.pooled)
        grads.bv[0] += scale * (2.0 * diff)
        return diff * diff, grads, None
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")

    feats = rf.feats
    k = feats.shape[0]
    h, logits = _hidden_and_logits(params, feats)
    probs = _softmax(logits)

    if loss_kind == "cross_entropy":
        gold = int(loss_inputs["gold_index"])
        if not 0 <= gold < k:
            raise ValueError(f"gold index {gold} outside {k} candidates")
        loss = -float(np.log(max(probs[gold], 1e-300)))
        dlogits = probs.copy()
        dlogits[gold] -= 1.0
    else:
        action = int(loss_inputs["action"])
        if not 0 <= action < k:
            raise ValueError(f"action {action} outside {k} candidates")
        logp_old = float(loss_inputs["logprob_old"])
        adv = float(loss_inputs["advantage"])
        clip = float(loss_inputs["cliprange"])
        if clip <= 0:
            raise ValueError("cliprange must be positive")
        logp_new = float(np.log(max(probs[action], 1e-300)))
        ratio = float(np.exp(logp_new - logp_old))
        clipped = float(np.clip(ratio, 1.0 - clip, 1.0 + clip))
        loss = -min(ratio * adv, clipped * adv)
        if ratio * adv <= clipped * adv:
            coef = -ratio * adv  # unclipped branch active
        else:
            coef = 0.0
        dlogits = coef * (-probs)
        dlogits[action] += coef

    dh = dlogits[:, None] * params.W2  # (K, H)
    dz = dh * (1.0 - h * h)
    grads.W2[0, :] += scale * (dlogits @ h)
    grads.b2[0] += scale * float(dlogits.sum())
    grads.W1 += scale * (dz.T @ feats)
    grads.b1 += scale * dz.sum(axis=0)
    dfeats = dz @ params.W1  # (K, F)

    _scatter_table_grads(grads, scale, params, rf, dfeats)
    return loss, grads, probs


def _scatter_table_grads(
    grads: PolicyParams,
    scale: float,
    params: PolicyParams,
    rf: RecordFeatures,
    dfeats: np.ndarray,
) -> None:
    """Backprop feature gradients through the attention pools into the
    attention vectors and the table rows.

    For a pool p = sum_i w_i x_i with w = softmax(u·x) and upstream g:
    s_i = w_i g·(x_i - p), dx_i = w_i g + s_i u, du = sum_i s_i x_i.
    """
    layout = rf.layout
    if not layout.pos.size:
        return
    fw, d, n_q = rf.fused_width, rf.embed_dim, layout.question_len
    # The question pool feeds every candidate's row.
    g_pools = np.concatenate([dfeats[:, :fw].sum(axis=0, keepdims=True), dfeats[:, fw : 2 * fw]])
    pools = np.concatenate([rf.feats[:1, :fw], rf.feats[:, fw : 2 * fw]])
    g = g_pools[layout.pool]
    s = rf.weights * ((rf.rows - pools[layout.pool]) * g).sum(axis=1)
    dx = rf.weights[:, None] * g
    dx[:n_q] += s[:n_q, None] * params.u_question
    dx[n_q:] += s[n_q:, None] * params.u_window
    grads.u_question += scale * (s[:n_q] @ rf.rows[:n_q])
    grads.u_window += scale * (s[n_q:] @ rf.rows[n_q:])
    if rf.mode == "add":
        text_part, time_part = dx, dx
    else:
        text_part, time_part = dx[:, :d], dx[:, d:]
    grads.text_table[layout.text.keys] += scale * layout.text.sums(text_part)
    grads.time_table[layout.time.keys] += scale * layout.time.sums(time_part)


def backward(
    params: PolicyParams, rf: RecordFeatures, loss_kind: str, loss_inputs: dict
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


def greedy_predictions(
    compiled: Sequence[CompiledRecord], params: PolicyParams, config: FeatureConfig
) -> list[str]:
    """Argmax candidate text per record, in input order."""
    out = []
    for comp in compiled:
        rf = featurize_record(comp, params, config)
        result = forward(params, rf.feats, rf.pooled)
        out.append(comp.candidates[int(np.argmax(result.probs))].text)
    return out


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary tensors plus a JSON sidecar for the
# vocabulary and feature configuration.

_MAGIC = b"TSQP"
_VERSION = 2
_HEADER = "<4sI5I"


def _sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def save_checkpoint(
    path: str | Path, params: PolicyParams, vocab: Vocabulary, config: FeatureConfig
) -> None:
    shape = (*params.text_table.shape, *params.W1.shape, params.Wv.shape[1])
    header = struct.pack(_HEADER, _MAGIC, _VERSION, *shape)
    write_atomic(path, header + np.asarray(params.flat, dtype="<f8").tobytes())
    sidecar = {"vocab": json.loads(vocab.to_json()), "features": config.to_json_dict()}
    write_atomic(_sidecar_path(path), json.dumps(sidecar, ensure_ascii=False, indent=2) + "\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, Vocabulary, FeatureConfig]:
    data = Path(path).read_bytes()
    head = struct.calcsize(_HEADER)
    if len(data) < head:
        raise ValueError(f"{path}: checkpoint too short for its header")
    magic, version, V, d, H, F, Fb = struct.unpack_from(_HEADER, data, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a policy checkpoint (bad magic)")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if Fb < 3:
        raise ValueError(f"{path}: checkpoint pooled width {Fb} below its 3 extra features")
    fw = Fb - 3
    shapes = [(V, d), (2, d), (H, F), (H,), (1, H), (1,), (1, Fb), (1,), (fw,), (fw,)]
    expected = head + 8 * sum(math.prod(s) for s in shapes)
    if len(data) != expected:
        raise ValueError(f"{path}: checkpoint size {len(data)} != expected {expected}")
    params = PolicyParams.from_flat(np.frombuffer(data, "<f8", offset=head).astype(float), shapes)
    params.check_finite()

    sidecar_path = _sidecar_path(path)
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    try:
        vocab = Vocabulary.from_json(json.dumps(sidecar["vocab"]))
        config = FeatureConfig.from_json_dict(sidecar["features"])
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    # The sidecar must describe the tensors it sits beside.
    for name, have, what, want in (
        ("vocabulary size", len(vocab), "text table rows", V),
        ("features.embed_dim", config.embed_dim, "embedding width", d),
        ("fused width of features.fusion_mode", config.fused_width, "pooled width - 3", fw),
        ("features.hidden", config.hidden, "hidden width", H),
        ("feature width 2 * fused width + 4", 2 * config.fused_width + 4, "W1 columns", F),
    ):
        if have != want:
            raise ValueError(
                f"{sidecar_path}: {name} {have} does not match the checkpoint's {what} {want}"
            )
    return params, vocab, config
