"""Temporal mask features and embedding fusion.

Questions and contexts each get a binary mask marking tokens covered by a
tagged temporal span.  Masks are widened by a sliding window so that words
near a time expression also carry the signal, then mapped through a tiny
two-row embedding table and fused with per-token text embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tagger import TemporalSpan, Token

UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class TemporalMask:
    """Row vector of 0/1 bits, one per token."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 1 or not ((b == 0) | (b == 1)).all():
            raise ValueError("mask must be a 1-d array of 0/1 bits")
        object.__setattr__(self, "bits", b.astype(np.int8))

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class EmbeddingTables:
    """time_table is 2 x d (rows for bit 0 and bit 1); text_table is V x d.
    Only shapes are checked: `PolicyParams` checks its values at every change."""

    time_table: np.ndarray
    text_table: np.ndarray

    def __post_init__(self) -> None:
        tt, xt = np.asarray(self.time_table), np.asarray(self.text_table)
        if tt.shape[0] != 2 or tt.ndim != 2 or xt.ndim != 2:
            raise ValueError("time_table must be 2 x d, text_table V x d")
        if tt.shape[1] != xt.shape[1]:
            raise ValueError("tables must share the column count d")


@dataclass(frozen=True)
class FusedSequence:
    vectors: np.ndarray  # (n_tokens, width)
    question_len: int


def build_mask(length: int, spans: Sequence[TemporalSpan]) -> TemporalMask:
    """Zeros with 1 at every position covered by a span (signals included)."""
    bits = np.zeros(length, dtype=np.int8)
    for s in spans:
        if s.tok_start < 0 or s.tok_end > length:
            raise ValueError(
                f"span [{s.tok_start}, {s.tok_end}) outside mask of length {length}"
            )
        bits[s.tok_start:s.tok_end] = 1
    return TemporalMask(bits)


def dilate(mask: TemporalMask, window: int) -> TemporalMask:
    """Sliding-window widening: output bit i is 1 iff some input bit within
    distance `window` is 1.  Windows clip at the sequence boundaries."""
    if window < 0:
        raise ValueError("window must be >= 0")
    bits = mask.bits
    if window == 0 or bits.size == 0:
        return TemporalMask(bits.copy())
    kernel = np.ones(2 * window + 1, dtype=np.int64)
    # mode="full" plus a centered slice keeps the output aligned with the
    # input even when the kernel is wider than the sequence.
    hit = np.convolve(bits.astype(np.int64), kernel, mode="full")[window : window + bits.size]
    return TemporalMask((hit > 0).astype(np.int8))


def concat_masks(question_mask: TemporalMask, context_mask: TemporalMask) -> TemporalMask:
    return TemporalMask(np.concatenate([question_mask.bits, context_mask.bits]))


def embed_temporal(mask: TemporalMask, tables: EmbeddingTables) -> np.ndarray:
    """Row i of the result is time_table[bit_i]; kept as a name the benchmark's tracer lists."""
    return tables.time_table[mask.bits.astype(np.intp)]


def fuse(
    token_ids: Sequence[int],
    mask: TemporalMask,
    tables: EmbeddingTables,
    question_len: int = 0,
    mode: str = "add",
) -> FusedSequence:
    """Combine text and temporal embeddings per token.

    mode "add" sums the two rows (the default); mode "concat" stacks them,
    doubling the row width.  Token ids must be valid rows of text_table;
    callers map unseen tokens to the UNK id first.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size != mask.bits.size:
        raise ValueError("token_ids and mask length differ")
    if ids.size and (ids.min() < 0 or ids.max() >= tables.text_table.shape[0]):
        raise ValueError("token id outside the text table")
    text = tables.text_table[ids]
    time = tables.time_table[mask.bits.astype(np.intp)]
    if mode == "add":
        vectors = text + time
    elif mode == "concat":
        vectors = np.concatenate([text, time], axis=1)
    else:
        raise ValueError(f"unknown fusion mode {mode!r}")
    return FusedSequence(vectors, question_len)


class Vocabulary:
    """Deterministic token -> id map with a reserved UNK row at id 0."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {UNK_TOKEN: 0}
        for tok in sorted(set(tokens) - {UNK_TOKEN}):
            self._ids[tok] = len(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, 0)

    def encode(self, tokens: Sequence[Token | str]) -> np.ndarray:
        texts = [t.text if isinstance(t, Token) else t for t in tokens]
        return np.array([self._ids.get(t.lower(), 0) for t in texts], dtype=np.intp)

    def to_json(self) -> str:
        return json.dumps(self._ids, ensure_ascii=False)

    @classmethod
    def from_json(cls, payload: str) -> "Vocabulary":
        ids = json.loads(payload)
        vocab = cls()
        vocab._ids = {str(k): int(v) for k, v in ids.items()}
        if vocab._ids.get(UNK_TOKEN) != 0:
            raise ValueError("vocabulary payload lacks the UNK row")
        if sorted(vocab._ids.values()) != list(range(len(vocab._ids))):
            raise ValueError(f"vocabulary ids are not exactly 0..{len(vocab._ids) - 1}")
        return vocab

    @classmethod
    def build(cls, texts: Iterable[str], tokenizer) -> "Vocabulary":
        seen: set[str] = set()
        for text in texts:
            for tok in tokenizer(text):
                seen.add(tok.text.lower())
        return cls(seen)
