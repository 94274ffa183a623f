"""Contrastive answer reward.

Answers are embedded into a fixed-width vector space; the triplet score
penalizes predictions that sit far from the gold answer but close to a
mined negative, and a squashing map turns that score into a bounded
reward for reinforcement learning.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .metrics import normalize_answer

DEFAULT_DIM = 256


@dataclass
class RewardParams:
    alpha: float = 4.0
    beta: float = 2.0
    delta: float = 1e-6
    margin: float = 1.0
    dim: int = DEFAULT_DIM
    embedder: str = "surface_ngram"  # or "lookup_table"
    lookup_table: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)
    neg_aggregate: str = "min"  # "min" = hardest negative, "mean" for ablations

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta < 0 or self.delta < 0:
            raise ValueError("alpha must be positive; beta, delta non-negative")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.embedder not in ("surface_ngram", "lookup_table"):
            raise ValueError(f"unknown embedder {self.embedder!r}")
        if self.neg_aggregate not in ("min", "mean"):
            raise ValueError(f"unknown negative aggregate {self.neg_aggregate!r}")


def load_lookup_table(path: str | Path, dim: int = DEFAULT_DIM) -> dict[str, np.ndarray]:
    """Parse a word-vector file: token then `dim` reals per line."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"lookup table {p} not found")
    table: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise ValueError(f"{p}:{lineno}: expected token plus {dim} values")
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{p}:{lineno}: non-numeric vector entry") from exc
        if not np.isfinite(vec).all():
            raise ValueError(f"{p}:{lineno}: non-finite vector entry")
        table[parts[0]] = vec
    return table


def _trigrams(word: str) -> list[str]:
    padded = f"#{word}#"
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _hash(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@functools.lru_cache(maxsize=1 << 14)
def _slot(gram: str, dim: int) -> tuple[int, float]:
    """The bucket and sign a trigram adds to, hashed once per distinct gram."""
    h = _hash(gram)
    return h % dim, 1.0 if (h >> 60) & 1 else -1.0


def embed_answer(answer: str, params: RewardParams) -> np.ndarray:
    """Normalize then embed into a unit vector; nothing to embed gives zeros."""
    text = normalize_answer(answer)
    if not text:
        return np.zeros(params.dim)
    if params.embedder == "lookup_table":
        if params.lookup_table is None:
            raise ValueError("lookup_table embedder selected but no table loaded")
        hits = [params.lookup_table[w] for w in text.split() if w in params.lookup_table]
        if not hits:
            return np.zeros(params.dim)
        acc = np.mean(hits, axis=0)
    else:
        # Signed character-trigram hashing: stable across runs and platforms.
        acc = np.zeros(params.dim)
        for word in text.split():
            for gram in _trigrams(word):
                bucket, sign = _slot(gram, params.dim)
                acc[bucket] += sign
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        return np.zeros(params.dim)
    return acc / norm


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Not np.linalg.norm: on a 1-d vector it takes a dot product, which may
    # sum in another order than the rows of a matrix do.
    return np.sqrt(np.add.reduce((a - b) ** 2, axis=-1))


def triplet_score(
    gt: np.ndarray,
    pred: np.ndarray,
    negatives: np.ndarray,
    margin: float = 1.0,
    neg_aggregate: str = "min",
) -> float:
    """max(d(gt, pred) - d_neg + margin, 0); without negatives, d(gt, pred).

    Takes embeddings: `negatives` is an (n, dim) array.  d_neg is the
    distance to the hardest (nearest) negative by default; "mean" averages
    over the set instead.
    """
    d_pos = float(_distances(pred, gt))
    if len(negatives) == 0:
        return d_pos
    dists = _distances(pred, negatives)
    d_neg = float(dists.min() if neg_aggregate == "min" else dists.mean())
    return max(d_pos - d_neg + margin, 0.0)


def reward(t: float, params: RewardParams) -> float:
    """Bounded, strictly decreasing map of the triplet score."""
    if t < 0:
        raise ValueError("triplet score must be non-negative")
    return params.alpha * (2.0 / (1.0 + math.exp(t) + params.delta)) - params.beta


def score_prediction(
    gt: str, pred: str, negatives: Sequence[str], params: RewardParams
) -> float:
    """Embed, score the triplet, and squash into a reward."""
    gt_vec = embed_answer(gt, params)
    pred_vec = embed_answer(pred, params)
    neg_vecs = np.array([embed_answer(n, params) for n in negatives])
    t = triplet_score(gt_vec, pred_vec, neg_vecs, params.margin, params.neg_aggregate)
    return reward(t, params)
