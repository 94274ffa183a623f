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


def extract_candidates(low: list[str], index: FactIndex) -> list[Candidate]:
    """Candidates = distinct objects of facts whose subject is mentioned
    in the context, given as its lower-cased token texts, each with its
    first mention, ordered by mention position; the one empty candidate
    comes last."""
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
    def _scores(self) -> dict[int, tuple[float, float]]:
        return {}

    def candidate_score(self, index: int) -> tuple[float, float]:
        """Candidate `index`'s EM and F1 against the gold answers, scored on first use."""
        score = self._scores.get(index)
        if score is None:
            text = self.candidates[index].text
            score = self._scores[index] = (exact_match(text, self.gold_answers), f1(text, self.gold_answers))
        return score


def compile_record(
    record,
    index: Optional[FactIndex],
    vocab: Vocabulary,
    config: FeatureConfig,
    names: Optional[dict[str, list[str]]] = None,
    pools: bool = True,
) -> CompiledRecord:
    """The record against `index`, or with `index=None` against its own facts
    (an index whose name tokens are memoized in `names`).  With `pools`
    False the (subject, relation) pair and both negative pools, which only
    the PPO stage's train records read, are left empty.

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
    token_ids = vocab.encode(q_low + ctx_low)

    candidates = extract_candidates(ctx_low, idx)

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

    subject = relation = None
    remote_pool: list[str] = []
    proximal_pool: list[str] = []
    if pools:
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
    records: Sequence, index: Optional[FactIndex], vocab: Vocabulary, config: FeatureConfig, pools: bool = True
) -> CompiledSplit:
    names: dict[str, list[str]] = {}  # shared by the per-record indexes of `index=None`
    return CompiledSplit(compile_record(r, index, vocab, config, names, pools) for r in records)


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
    return PolicyParams(np.zeros(params.flat.shape), params.shapes)


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
# once, laid out so that a minibatch is one fancy index per array and each
# (pools x tokens) product is one stacked matmul.  The one-record entry
# points below are batches of one.


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts, dtype=np.intp) - counts


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices of the runs [starts[b], starts[b] + counts[b]), one after another."""
    return np.arange(counts.sum()) + (starts - _starts(counts)).repeat(counts)


def _padded(flat: np.ndarray, counts: np.ndarray, dtype=None) -> np.ndarray:
    """The runs of `flat`, `counts[b]` items for record b, as (B, longest, ...) padded with zeros."""
    mask = np.arange(counts.max(initial=0)) < counts[:, None]
    out = np.zeros(mask.shape + flat.shape[1:], dtype=dtype or flat.dtype)
    out[mask] = flat
    return out


class Layout:
    """The static arrays of a list of compiled records; a record may appear
    more than once.  Token ids and mask bits are padded to the longest
    record, T, and the candidate rows (interval features, density) to the
    most candidates, P - 1, the question's pool making P.  A padded token
    has id 0, and featurize zeroes its vector, so it gets no attention and
    no gradient; a padded pool has no rows.

    Pool 0 is the question, pool 1 + c the mention window of candidate c.
    The pool rows run one record after another, and within a record pool
    by pool, so each pool's rows are one consecutive run; windows overlap,
    so a token may be the row of several pools.  A row is (2 * token + (1
    for a window row), pool * T + token, pool), counted from its own
    record; every index array is int32.

    `take(positions)` lays out the records at `positions` on the same T and
    P with one fancy index per array.  A layout works out its records' pool
    rows and groupings from their concatenated arrays without keeping them
    per record: it is their one copy."""

    def __init__(self, records: Sequence[CompiledRecord]) -> None:
        self.source = None
        # The tokens each pool reads, record by record: the question, then each candidate's window.
        runs = [run for comp in records for run in (np.arange(comp.question_len), *comp.window_pos)]
        counts = np.array([run.size for run in runs], dtype=np.intp)
        n_cands = np.array([len(comp.window_pos) for comp in records], dtype=np.intp)
        firsts = _starts(n_cands + 1)  # each record's question pool
        pool = (np.arange(counts.size) - firsts.repeat(n_cands + 1)).repeat(counts)
        # Per record: tokens, pool rows, candidates.
        n_tokens = [comp.token_ids.size for comp in records]
        self.sizes = np.column_stack([n_tokens, np.add.reduceat(counts, firsts), n_cands]).astype(np.int32)
        self.n_pools = int(n_cands.max(initial=0)) + 1
        tokens = np.arange(max(n_tokens, default=0)) < self.sizes[:, :1]
        self.token_ids, self.bits = np.zeros(tokens.shape, dtype=np.int32), np.zeros(tokens.shape, dtype=np.int8)
        self.token_ids[tokens] = np.concatenate([c.token_ids for c in records])
        self.bits[tokens] = np.concatenate([c.bits for c in records])
        pos = np.concatenate(runs, dtype=np.intp)
        self.rows = np.array([2 * pos + (pool > 0), pool * tokens.shape[1] + pos, pool], dtype=np.int32)
        intervals = np.concatenate([c.interval_feats for c in records])
        density = np.concatenate([c.density for c in records])
        self.cand_feats = _padded(np.concatenate([intervals, density[:, None]], axis=1), self.sizes[:, 2])
        self.pooled_extra = np.array([c.pooled_extra for c in records])

    def take(self, positions: np.ndarray) -> "Layout":
        taken = object.__new__(Layout)
        taken.source, taken.positions, taken.n_pools = self, positions, self.n_pools
        for name in ("sizes", "token_ids", "bits", "cand_feats", "pooled_extra"):
            setattr(taken, name, getattr(self, name)[positions])
        taken.row_index = _runs(self.row_starts[positions], taken.sizes[:, 1])
        taken.rows = self.rows.take(taken.row_index, axis=1)
        return taken

    def __len__(self) -> int:
        return self.sizes.shape[0]

    @cached_property
    def row_starts(self) -> np.ndarray:
        return _starts(self.sizes[:, 1])

    @cached_property
    def cand_starts(self) -> np.ndarray:
        return _starts(self.sizes[:, 2])

    @cached_property
    def cand_mask(self) -> np.ndarray:
        """(B, P - 1): which candidate slots hold a candidate."""
        return np.arange(self.n_pools - 1) < self.sizes[:, 2:]

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward's cells, laid out on first read: each record's count of
        distinct token ids and the ids (B, I), padded with zeros; and per
        pool row, counted from its record, its cells of the (P + 2, I)
        grouping of the weights and s_i by token id (its pool, then its u
        row, P or P + 1) and of the (P + 2, 2) grouping by mask bit."""
        if self.source is not None:
            n_ids, ids, cells = self.source.groups
            return n_ids[self.positions], ids[self.positions], cells.take(self.row_index, axis=1)
        B = len(self)
        tokens = np.arange(self.token_ids.shape[1]) < self.sizes[:, :1]
        token_ids = self.token_ids[tokens]
        # One sort of the (record, token id) keys gives each record's distinct
        # ids, in order, and each token's index among all records' ids.
        width = int(token_ids.max(initial=0)) + 1
        keys, key = np.unique(np.arange(B).repeat(self.sizes[:, 0]) * width + token_ids, return_inverse=True)
        n_ids = np.bincount(keys // width, minlength=B).astype(np.int32)
        ids = _padded(keys % width, n_ids, np.int32)
        record = np.arange(B).repeat(self.sizes[:, 1])
        score, pool = self.rows[0], self.rows[2]
        # Each row's token's id, as an index among its record's ids.
        key = (key[_starts(self.sizes[:, 0])[record] + (score >> 1)] - _starts(n_ids)[record]).astype(np.int32)
        u_row = self.n_pools + (score & 1)
        bit = self.bits[record, score >> 1]
        I = ids.shape[1]
        cells = np.array([pool * I + key, u_row * I + key, 2 * pool + bit, 2 * u_row + bit], dtype=np.int32)
        return n_ids, ids, cells


class CompiledSplit(tuple):
    """A split's compiled records, which never change, and the layouts
    built from them on first read and kept: `layout`, of the whole split,
    which training and rollouts take minibatches from, and `buckets`,
    which greedy decoding reads."""

    @cached_property
    def layout(self) -> Layout:
        return Layout(self)

    @cached_property
    def buckets(self) -> list[tuple[np.ndarray, Layout]]:
        """Per `token_chunks` chunk, its records' positions and their layout."""
        return [(positions, Layout([self[i] for i in positions.tolist()])) for positions in token_chunks(self)]


def as_split(records: Sequence[CompiledRecord]) -> CompiledSplit:
    """`records` if it is a `CompiledSplit`, else a new split of them."""
    return records if isinstance(records, CompiledSplit) else CompiledSplit(records)


@dataclass
class BatchFeatures:
    """Candidate feature rows of a batch, plus what backward needs of the
    pools.  `config` tells backward the fusion mode and whether the time
    table took part."""

    feats: np.ndarray  # (ΣK, F), record by record
    vectors: np.ndarray  # (B * T, fw) fused rows, zero for padded tokens
    rows: np.ndarray  # (3, ΣN) the pool rows on the batch's score, cell and pool axes
    weights: np.ndarray  # (ΣN,) each pool row's attention weight
    pools: np.ndarray  # (B, P, fw)
    layout: Layout
    config: FeatureConfig

    @cached_property
    def pooled(self) -> np.ndarray:
        """(B, F̄) pooled states, summed on first read: each record's mean
        fused vector (padded tokens add exact zeros) and its question-interval
        summary."""
        B, fw = len(self.layout), self.vectors.shape[1]
        pooled = np.empty((B, fw + 3))
        np.add.reduce(self.vectors.reshape(B, -1, fw), axis=1, out=pooled[:, :fw])
        pooled[:, :fw] /= self.layout.sizes[:, :1]
        pooled[:, fw:] = self.layout.pooled_extra
        return pooled


def _record_offsets(layout: Layout, strides: list) -> np.ndarray:
    """(len(strides), ΣN): each pool row's record position in the batch times each stride."""
    return (np.array(strides)[:, None] * np.arange(len(layout))).repeat(layout.sizes[:, 1], axis=1)


def featurize_batch(layout: Layout, params: PolicyParams, config: FeatureConfig) -> BatchFeatures:
    """Pool the question tokens and each mention window with weights
    softmax(u·x_i), one u for the question and one for the windows, and
    lay out each candidate's features: its question pool, its window pool,
    then its interval features and density."""
    (B, T), P = layout.token_ids.shape, layout.n_pools
    # With temporal fusion off the time table reads as zero, and backward
    # leaves its gradient alone.
    time_table = params.time_table if config.temporal_fusion else np.zeros_like(params.time_table)
    vectors = fuse(layout.token_ids.ravel(), layout.bits.ravel(), params.text_table, time_table, config.fusion_mode)
    vectors[(np.arange(T) >= layout.sizes[:, :1]).ravel()] = 0.0
    fw = vectors.shape[1]

    rows = layout.rows + _record_offsets(layout, [2 * T, P * T, P])
    score, cell, pool = rows
    weights = np.zeros(0)
    attention = np.zeros(B * P * T)
    if score.size:
        # Each token is scored once per attention vector, not once per row.
        scores = (vectors @ params.u.T).ravel()[score]
        # A softmax within each pool's run of rows: with the batch's offsets
        # the pool column ascends, one run per pool that has rows.
        counts = np.bincount(pool)
        counts = counts[counts > 0]
        starts = _starts(counts)
        e = np.exp(scores - np.maximum.reduceat(scores, starts).repeat(counts))
        weights = e / np.add.reduceat(e, starts).repeat(counts)
        attention[cell] = weights
    pools = np.matmul(attention.reshape(B, P, T), vectors.reshape(B, T, fw))

    feats = np.empty((int(layout.sizes[:, 2].sum()), 2 * fw + 4))
    feats[:, :fw] = pools[:, 0].repeat(layout.sizes[:, 2], axis=0)
    feats[:, fw : 2 * fw] = pools[:, 1:][layout.cand_mask]
    feats[:, 2 * fw :] = layout.cand_feats[layout.cand_mask]
    return BatchFeatures(feats, vectors, rows, weights, pools, layout, config)


def featurize_record(comp: CompiledRecord, params: PolicyParams, config: FeatureConfig) -> BatchFeatures:
    """`featurize_batch` of one record: feats is (K, F), pooled (1, F̄)."""
    return featurize_batch(Layout([comp]), params, config)


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


def _check_widths(params: PolicyParams, feats: np.ndarray) -> None:
    if feats.ndim != 2 or feats.shape[1] != params.W1.shape[1]:
        raise ValueError(
            f"feature width {feats.shape} does not match W1 {params.W1.shape}"
        )


def _values(params: PolicyParams, pooled: np.ndarray) -> np.ndarray:
    """The value head over (..., F̄) pooled states."""
    if pooled.shape[-1:] != params.Wv.shape[1:]:
        raise ValueError(f"pooled state width {pooled.shape} does not match Wv")
    return pooled @ params.Wv[0] + params.bv[0]


_FIRST = np.zeros(1, dtype=np.intp)  # the one record's start in a one-record call


def _head(
    params: PolicyParams, feats: np.ndarray, starts: np.ndarray, counts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (ΣK, H) tanh activations, the candidate logits, and their softmax
    within each record's run of `counts` candidates from `starts`."""
    _check_widths(params, feats)
    h = np.tanh(feats @ params.W1.T + params.b1)
    logits = (h @ params.W2.T).ravel() + params.b2[0]
    e = np.exp(logits - np.repeat(np.maximum.reduceat(logits, starts), counts))
    return h, logits, e / np.repeat(np.add.reduceat(e, starts), counts)


def forward(params: PolicyParams, feats: np.ndarray, pooled: np.ndarray) -> PolicyOutput:
    """One record's logits and probabilities over its (K, F) candidate rows,
    and the value of its (F̄,) pooled state."""
    feats = np.asarray(feats, dtype=float)
    _, logits, probs = _head(params, feats, _FIRST, feats.shape[0])
    value = float(_values(params, np.asarray(pooled, dtype=float)))
    return PolicyOutput(logits=logits, probs=probs, value=value)


LOSS_KINDS = ("cross_entropy", "ppo_surrogate", "value_mse")


def _picked(layout: Layout, inputs: dict, key: str) -> np.ndarray:
    """Each record's candidate `inputs[key]`, as a position on the candidate axis."""
    index = np.asarray(inputs[key], dtype=np.intp).reshape(len(layout))
    n_cands = layout.sizes[:, 2]
    outside = (index < 0) | (index >= n_cands)
    if outside.any():
        b = int(np.argmax(outside))
        name = "gold index" if key == "gold_index" else key
        raise ValueError(f"{name} {index[b]} outside {n_cands[b]} candidates")
    return layout.cand_starts + index


def _policy_loss(
    kind: str, probs: np.ndarray, layout: Layout, inputs: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record losses of a policy loss kind, and d(loss)/d(logits)."""
    if kind == "cross_entropy":
        gold = _picked(layout, inputs, "gold_index")
        dlogits = probs.copy()
        dlogits[gold] -= 1.0
        return -np.log(np.maximum(probs[gold], 1e-300)), dlogits
    action = _picked(layout, inputs, "action")
    logp_old = np.asarray(inputs["logprob_old"], dtype=float)
    adv = np.asarray(inputs["advantage"], dtype=float)
    clip = np.asarray(inputs["cliprange"], dtype=float)
    if (clip <= 0).any():
        raise ValueError("cliprange must be positive")
    ratio = np.exp(np.log(np.maximum(probs[action], 1e-300)) - logp_old)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    # Only the unclipped branch has a gradient.
    coef = np.where(ratio * adv <= clipped * adv, -ratio * adv, 0.0)
    dlogits = np.repeat(coef, layout.sizes[:, 2]) * -probs
    dlogits[action] += coef
    return -np.minimum(ratio * adv, clipped * adv), dlogits


def loss_and_grads_batch(
    params: PolicyParams,
    features: BatchFeatures,
    losses: dict,
) -> tuple[dict, PolicyParams, Optional[np.ndarray]]:
    """Per-record losses, exact gradients and the candidate probabilities
    of a batch (None when only value_mse is asked for, which computes none).

    `losses` maps each loss kind to its inputs, one entry per record:
    gold_index (cross_entropy); action, logprob_old, advantage and cliprange
    (ppo_surrogate); return (value_mse); and an optional scale, a number or
    one per record.  Returns each kind's (B,) losses and the sum of the
    scaled gradients.  The pooled state is a constant input to the value
    head, so value_mse touches only Wv and bv; the policy losses are the
    only path into the perceptron and the shared tables.  The softmax ignores b2, so its gradient is zero.
    """
    layout = features.layout
    for kind in losses:
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
    grads = zeros_like_params(params)
    out: dict[str, np.ndarray] = {}
    h = probs = dlogits = None
    for kind, inputs in losses.items():
        scale = np.broadcast_to(np.asarray(inputs.get("scale", 1.0), dtype=float), (len(layout),))
        if kind == "value_mse":
            diff = _values(params, features.pooled) - np.asarray(inputs["return"], dtype=float)
            dvalues = scale * (2.0 * diff)
            grads.Wv[0] += dvalues @ features.pooled
            grads.bv[0] += dvalues.sum()
            out[kind] = diff * diff
            continue
        if probs is None:
            h, _, probs = _head(params, features.feats, layout.cand_starts, layout.sizes[:, 2])
            dlogits = np.zeros_like(probs)
        out[kind], d = _policy_loss(kind, probs, layout, inputs)
        dlogits += np.repeat(scale, layout.sizes[:, 2]) * d
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
    score, cell, pool = features.rows
    if not score.size:
        return
    layout, vectors, pools = features.layout, features.vectors, features.pools
    (B, P, fw), T = pools.shape, layout.token_ids.shape[1]
    # Each record's basis: its pool gradients, then its two u.  The
    # question pool feeds each of its record's candidate rows.
    basis = np.zeros((B, P + 2, fw))
    basis[:, 0] = np.add.reduceat(dfeats[:, :fw], layout.cand_starts, axis=0)
    basis[:, 1:P][layout.cand_mask] = dfeats[:, fw : 2 * fw]
    basis[:, P:] = params.u
    # g_p·x_t for each record's pools and tokens; row i reads (pool_i, token_i).
    products = np.matmul(basis[:, :P], vectors.reshape(B, T, fw).transpose(0, 2, 1))
    s = features.weights * (products.ravel()[cell] - np.einsum("bpf,bpf->bp", pools, basis[:, :P]).ravel()[pool])
    # (token, u) sums of s; `score` is 2 * token + (1 for a window row).
    du = np.bincount(score, s, minlength=2 * vectors.shape[0]).reshape(-1, 2).T @ vectors
    grads.u += du
    _table_grads(grads, features, np.concatenate([features.weights, s]), basis)


def _table_grads(grads: PolicyParams, features: BatchFeatures, ws: np.ndarray, basis: np.ndarray) -> None:
    """The tables' gradients from the row weights and s_i, `ws`, and the
    (B, P + 2, fw) basis: grouped by token id within each record, times the
    record's basis, then added into the text table; grouped by mask bit,
    times the whole basis, for the time table."""
    layout, config = features.layout, features.config
    B, Q, d = basis.shape[0], basis.shape[1], config.embed_dim
    n_ids, ids, cells = layout.groups
    I = ids.shape[1]
    cells = cells + _record_offsets(layout, [Q * I, Q * I, 2 * Q, 2 * Q])
    grouped = np.bincount(cells[:2].ravel(), ws, minlength=B * Q * I)
    text_basis, time_basis = (basis, basis) if config.fusion_mode == "add" else (basis[..., :d], basis[..., d:])
    per_id = np.matmul(grouped.reshape(B, Q, I).transpose(0, 2, 1), text_basis)
    # A record's ids are distinct, so a fancy add scatters its rows; one bincount
    # over the batch's cells id * d + j measured slower, as it writes every cell.
    ids = ids.astype(np.intp)
    for b, n in enumerate(n_ids.tolist()):
        grads.text_table[ids[b, :n]] += per_id[b, :n]
    if config.temporal_fusion:  # off, featurize read a constant zero table
        per_bit = np.bincount(cells[2:].ravel(), ws, minlength=2 * B * Q)
        grads.time_table += per_bit.reshape(-1, 2).T @ time_basis.reshape(B * Q, -1)


def loss_and_grads(
    params: PolicyParams,
    rf: BatchFeatures,
    loss_kind: str,
    loss_inputs: dict,
) -> tuple[float, PolicyParams, Optional[np.ndarray]]:
    """`loss_and_grads_batch` of a one-record batch and one loss kind: the
    scalar loss, the gradients and the candidate probabilities (None for
    value_mse)."""
    losses, grads, probs = loss_and_grads_batch(params, rf, {loss_kind: loss_inputs})
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

# Inference batches are cut at this many padded tokens, which bounds a
# batch's temporaries while keeping the per-call cost shared.
_CHUNK_TOKENS = 1024


def token_chunks(records: Sequence[CompiledRecord]) -> list[np.ndarray]:
    """The positions of `records` in order of token count (a stable sort),
    cut into runs whose padded size, count times longest, is at most
    `_CHUNK_TOKENS`, or of one record that is longer."""
    n_tokens = np.array([comp.token_ids.size for comp in records], dtype=np.intp)
    order = np.argsort(n_tokens, kind="stable")
    chunks, start = [], 0
    for i, longest in enumerate(n_tokens[order].tolist()):
        if i > start and (i - start + 1) * longest > _CHUNK_TOKENS:
            chunks.append(order[start:i])
            start = i
    return chunks + [order[start:]] if order.size else chunks


def _batch_probs(layout: Layout, params: PolicyParams, config: FeatureConfig) -> tuple[BatchFeatures, np.ndarray]:
    features = featurize_batch(layout, params, config)
    return features, _head(params, features.feats, layout.cand_starts, layout.sizes[:, 2])[2]


def greedy_choices(
    compiled: Sequence[CompiledRecord], params: PolicyParams, config: FeatureConfig
) -> np.ndarray:
    """Each record's argmax candidate (the first of equal ones), in input
    order, from one featurize and head per bucket of the split."""
    choices = np.zeros(len(compiled), dtype=np.intp)
    for positions, layout in as_split(compiled).buckets:
        padded = np.full(layout.cand_mask.shape, -1.0)
        padded[layout.cand_mask] = _batch_probs(layout, params, config)[1]
        choices[positions] = padded.argmax(axis=1)
    return choices


def layout_chunks(layout: Layout, positions: np.ndarray, params: PolicyParams, config: FeatureConfig):
    """The records at `positions` of `layout`, in runs within
    `_CHUNK_TOKENS` padded tokens: per run, its features and each record's
    (K,) candidate probabilities."""
    step = max(1, _CHUNK_TOKENS // max(layout.token_ids.shape[1], 1))
    for start in range(0, len(positions), step):
        taken = layout.take(positions[start : start + step])
        features, probs = _batch_probs(taken, params, config)
        yield features, np.split(probs, taken.cand_starts[1:])


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
