"""Temporal mask features and embedding fusion.

Questions and contexts each get a binary mask marking tokens covered by a
tagged temporal span.  Masks are widened by a sliding window so that words
near a time expression also carry the signal, then mapped through a tiny
two-row embedding table and fused with per-token text embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
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

    @classmethod
    def _built(cls, bits: np.ndarray) -> "TemporalMask":
        """A mask of int8 0/1 bits that this module built, not checked again."""
        mask = object.__new__(cls)
        object.__setattr__(mask, "bits", bits)
        return mask


def build_mask(length: int, spans: Sequence[TemporalSpan]) -> TemporalMask:
    """Zeros with 1 at every position covered by a span (signals included)."""
    bits = np.zeros(length, dtype=np.int8)
    for s in spans:
        if s.tok_start < 0 or s.tok_end > length:
            raise ValueError(
                f"span [{s.tok_start}, {s.tok_end}) outside mask of length {length}"
            )
        bits[s.tok_start:s.tok_end] = 1
    return TemporalMask._built(bits)


def dilate(mask: TemporalMask, window: int) -> TemporalMask:
    """Sliding-window widening: output bit i is 1 iff some input bit within
    distance `window` is 1.  Windows clip at the sequence boundaries."""
    if window < 0:
        raise ValueError("window must be >= 0")
    bits = mask.bits
    if window == 0 or bits.size == 0:
        return TemporalMask._built(bits.copy())
    kernel = np.ones(2 * window + 1, dtype=np.int64)
    # mode="full" plus a centered slice keeps the output aligned with the
    # input even when the kernel is wider than the sequence.
    hit = np.convolve(bits.astype(np.int64), kernel, mode="full")[window : window + bits.size]
    return TemporalMask._built((hit > 0).astype(np.int8))


def mark_spans(bits: np.ndarray, spans: Sequence[TemporalSpan], window: int) -> None:
    """Set the bits of every span widened by `window` tokens on each side
    and clipped to `bits`, in place.  On zeros this gives
    `dilate(build_mask(len(bits), spans), window).bits` in one pass, since
    the dilated mask is the union of the widened spans."""
    if window < 0:
        raise ValueError("window must be >= 0")
    for s in spans:
        bits[max(0, s.tok_start - window) : s.tok_end + window] = 1


def concat_masks(question_mask: TemporalMask, context_mask: TemporalMask) -> TemporalMask:
    return TemporalMask._built(np.concatenate([question_mask.bits, context_mask.bits]))


def embed_temporal(bits: np.ndarray, time_table: np.ndarray) -> np.ndarray:
    """Row i of the result is time_table[bits[i]]; kept as a name the benchmark's tracer lists."""
    return time_table[np.asarray(bits, dtype=np.intp)]


def fuse(
    token_ids: Sequence[int],
    bits: np.ndarray,
    text_table: np.ndarray,
    time_table: np.ndarray,
    mode: str = "add",
) -> np.ndarray:
    """The fused rows, one per token: text_table[id] and time_table[bit].

    mode "add" sums the two rows (the default); mode "concat" stacks them,
    doubling the row width.  Token ids must be valid rows of text_table;
    callers map unseen tokens to the UNK id first.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size != np.size(bits):
        raise ValueError("token_ids and mask length differ")
    if ids.size and (ids.min() < 0 or ids.max() >= text_table.shape[0]):
        raise ValueError("token id outside the text table")
    text = text_table.take(ids, axis=0)
    time = time_table.take(np.asarray(bits, dtype=np.intp), axis=0)
    if mode == "add":
        text += time
        return text
    if mode == "concat":
        return np.concatenate([text, time], axis=1)
    raise ValueError(f"unknown fusion mode {mode!r}")


class Vocabulary:
    """Deterministic token -> id map with a reserved UNK row at id 0."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {UNK_TOKEN: 0}
        for tok in sorted(set(tokens) - {UNK_TOKEN}):
            self._ids[tok] = len(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, tokens: Sequence[Token | str], lowered: bool = False) -> np.ndarray:
        """The ids of `tokens` (UNK for unseen ones), looked up lower-cased;
        with `lowered`, `tokens` are texts that already are."""
        if not lowered:
            tokens = [(t.text if isinstance(t, Token) else t).lower() for t in tokens]
        return np.fromiter(map(self._ids.get, tokens, repeat(0)), dtype=np.intp, count=len(tokens))

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
        """The lower-cased tokens of `texts`; `tokenizer` gives `Token`s or token texts."""
        seen: set[str] = set()
        for text in texts:
            seen.update(t if isinstance(t, str) else t.text for t in tokenizer(text))
        return cls({t.lower() for t in seen})
