"""Two-stage training: supervised selection, then PPO with shaped rewards.

Stage 1 minimizes cross-entropy of the gold candidate under AdamW.  Stage
2 treats each record as a one-step episode: sample an answer, score it
with the contrastive reward (or a plain exact-match baseline), subtract
an adaptive KL penalty against the frozen stage-1 policy, and run clipped
PPO updates.  Both stages return the checkpoint with the best dev EM.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import reward as reward_mod
from .config import FeatureConfig
from .facts import sample_negatives
from .features import Vocabulary
from .metrics import evaluate_compiled
from .policy import (
    CompiledRecord,
    PolicyDims,
    PolicyParams,
    featurize_record,
    forward,
    init_params,
    loss_and_grads,
    zeros_like_params,
)
from .reward import RewardParams
from .tagger import tokenize

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration.


@dataclass
class SFTConfig:
    epochs: int = 6
    batch_size: int = 8
    # Tuned for the toy perceptron; far larger than encoder-scale rates.
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class PPOConfig:
    num_rollouts: int = 256
    chunk_size: int = 12
    ppo_epochs: int = 4
    init_kl_coef: float = 0.05
    target: float = 6.0
    horizon: float = 10_000.0
    gamma: float = 0.99
    lam: float = 0.95
    cliprange: float = 0.2
    vf_coef: float = 1.0
    iterations: int = 20
    learning_rate: float = 1e-3
    negatives_per_side: int = 3
    reward_kind: str = "contrastive"
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_rollouts, self.chunk_size, self.ppo_epochs) < 1:
            raise ValueError("rollout, chunk, and epoch counts must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not 0 < self.gamma <= 1 or not 0 < self.lam <= 1:
            raise ValueError("gamma and lam must lie in (0, 1]")
        if self.cliprange <= 0:
            raise ValueError("cliprange must be positive")
        if self.init_kl_coef <= 0 or self.target <= 0 or self.horizon <= 0:
            raise ValueError("KL controller constants must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negatives_per_side < 0:
            raise ValueError("negatives_per_side must be non-negative")
        if self.reward_kind not in ("contrastive", "exact_match"):
            raise ValueError(f"unknown reward kind {self.reward_kind!r}")


# ---------------------------------------------------------------------------
# Optimizer.


class AdamW:
    """Adaptive moments with decoupled weight decay over the flat parameter
    vector.  Decay applies to the perceptron and value weights only; each
    step ends by checking that the parameters are still finite."""

    def __init__(
        self,
        params: PolicyParams,
        learning_rate: float,
        weight_decay: float = 0.0,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)

    def step(self, params: PolicyParams, grads: PolicyParams) -> None:
        self.t += 1
        g, m, v = grads.flat, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        if self.weight_decay:
            for w in (params.W1, params.W2, params.Wv):
                w -= self.learning_rate * self.weight_decay * w
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        params.flat -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        params.check_finite()


# ---------------------------------------------------------------------------
# Stage 1: supervised selection.


def build_vocabulary(datasets: Sequence[Sequence]) -> Vocabulary:
    texts = chain.from_iterable(
        (r.question, r.context) for split in datasets for r in split
    )
    return Vocabulary.build(texts, tokenize)


def _require_records(train: Sequence, dev: Sequence) -> None:
    for name, split in (("train", train), ("dev", dev)):
        if not split:
            raise ValueError(f"{name} set is empty")


def train_sft_compiled(
    compiled_train: Sequence[CompiledRecord],
    compiled_dev: Sequence[CompiledRecord],
    config: SFTConfig,
    feature_config: FeatureConfig,
    vocab_size: int,
    init: Optional[PolicyParams] = None,
) -> tuple[PolicyParams, list[dict]]:
    _require_records(compiled_train, compiled_dev)
    usable = [c for c in compiled_train if c.gold_index >= 0]
    skipped = len(compiled_train) - len(usable)
    if skipped:
        logger.warning(
            "skipping %d of %d records whose gold matches no candidate",
            skipped,
            len(compiled_train),
        )
    if skipped > 0.10 * len(compiled_train):
        raise RuntimeError(
            f"{skipped}/{len(compiled_train)} records have unresolvable golds; "
            "the candidate extractor and the dataset disagree"
        )

    rng = np.random.default_rng(config.seed)
    dims = PolicyDims.from_config(vocab_size, feature_config)
    params = init.clone() if init is not None else init_params(rng, dims)
    if config.epochs == 0:
        return params, []

    optimizer = AdamW(params, config.learning_rate, config.weight_decay)
    history: list[dict] = []
    best_em = -1.0
    best = params.clone()
    for epoch in range(config.epochs):
        order = rng.permutation(len(usable))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            grads = zeros_like_params(params)
            for j in chunk:
                comp = usable[int(j)]
                rf = featurize_record(comp, params, feature_config)
                loss, _, _ = loss_and_grads(
                    params,
                    rf,
                    "cross_entropy",
                    {"gold_index": comp.gold_index},
                    into=grads,
                    scale=1.0 / len(chunk),
                )
                epoch_loss += loss
            if not feature_config.temporal_fusion:
                grads.time_table[:] = 0.0
            optimizer.step(params, grads)
        metrics = evaluate_compiled(compiled_dev, params, feature_config)
        history.append(
            {
                "epoch": epoch,
                "loss": epoch_loss / max(len(usable), 1),
                "dev_em": metrics.em,
                "dev_f1": metrics.f1,
                "skipped": skipped,
            }
        )
        if metrics.em > best_em:
            best_em = metrics.em
            best = params.clone()
    return best, history


# ---------------------------------------------------------------------------
# Reward caches: every answer string a rollout can score is embedded once
# into one shared table; distances are computed on read, only for the
# prediction, the gold answer and the negatives a rollout draws.


@dataclass
class _RewardCache:
    table: np.ndarray  # (strings, dim) embeddings, shared by every record
    cand_rows: np.ndarray  # (K,) table row of each candidate
    gold_row: int
    remote_rows: np.ndarray  # (R,)
    proximal_rows: np.ndarray  # (P,)
    em_sign: np.ndarray  # (K,) exact-match reward in {-1, +1}


def build_reward_caches(
    compiled: Sequence[CompiledRecord], params: RewardParams
) -> list[_RewardCache]:
    from .metrics import exact_match

    rows: dict[str, int] = {}
    vectors: list[np.ndarray] = []

    def row_of(text: str) -> int:
        i = rows.get(text)
        if i is None:
            i = rows[text] = len(vectors)
            vectors.append(reward_mod.embed_answer(text, params).values)
        return i

    def rows_of(texts: Sequence[str]) -> np.ndarray:
        return np.array([row_of(t) for t in texts], dtype=np.intp)

    row_ids = [
        (
            rows_of(comp.candidates.texts),
            row_of(comp.gold_answers[0] if comp.gold_answers else ""),
            rows_of(comp.remote_pool),
            rows_of(comp.proximal_pool),
        )
        for comp in compiled
    ]
    table = np.stack(vectors) if vectors else np.zeros((0, params.dim))
    return [
        _RewardCache(
            table,
            cand_rows,
            gold_row,
            remote_rows,
            proximal_rows,
            em_sign=np.array(
                [1.0 if exact_match(t, comp.gold_answers) else -1.0 for t in comp.candidates.texts]
            ),
        )
        for comp, (cand_rows, gold_row, remote_rows, proximal_rows) in zip(compiled, row_ids)
    ]


def _contrastive_raw(
    cache: _RewardCache,
    action: int,
    config: PPOConfig,
    params: RewardParams,
    rng: np.random.Generator,
) -> float:
    remote, proximal = sample_negatives(
        cache.remote_rows, cache.proximal_rows, config.negatives_per_side, rng
    )
    # sqrt(add.reduce(d**2)), the sum np.linalg.norm(..., axis=1) takes; on
    # a 1-d vector norm takes a dot product, which may sum in another order.
    pred = cache.table[cache.cand_rows[action]]
    d_pos = float(np.sqrt(np.add.reduce((pred - cache.table[cache.gold_row]) ** 2)))
    if not remote:
        t = d_pos
    else:
        negs = cache.table[remote + proximal]
        dists = np.sqrt(np.add.reduce((pred - negs) ** 2, axis=1))
        d_neg = float(dists.min() if params.neg_aggregate == "min" else dists.mean())
        t = max(d_pos - d_neg + params.margin, 0.0)
    return reward_mod.reward(t, params)


# ---------------------------------------------------------------------------
# Stage 2: PPO.


@dataclass
class RolloutBatch:
    record_ids: list[str]
    compiled: list[CompiledRecord]
    actions: np.ndarray
    logprob_old: np.ndarray
    raw_rewards: np.ndarray
    rewards: np.ndarray  # raw minus the KL penalty
    values_old: np.ndarray
    kl_to_reference: np.ndarray
    advantages: np.ndarray = field(default_factory=lambda: np.zeros(0))
    returns: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.actions)


def collect_rollouts(
    params: PolicyParams,
    reference_params: PolicyParams,
    dataset: Sequence[CompiledRecord],
    config: PPOConfig,
    feature_config: FeatureConfig,
    rng: np.random.Generator,
    kl_coef: Optional[float] = None,
    reward_params: Optional[RewardParams] = None,
    caches: Optional[list[_RewardCache]] = None,
    ref_probs: Optional[list[np.ndarray]] = None,
) -> RolloutBatch:
    """Sample one-step episodes and attach shaped rewards."""
    if kl_coef is None:
        kl_coef = config.init_kl_coef
    reward_params = reward_params or RewardParams()
    if caches is None:
        caches = build_reward_caches(dataset, reward_params)
    if ref_probs is None:
        ref_probs = reference_probs(reference_params, dataset, feature_config)

    ids, comps = [], []
    actions = np.zeros(config.num_rollouts, dtype=int)
    logprob_old = np.zeros(config.num_rollouts)
    raw = np.zeros(config.num_rollouts)
    shaped = np.zeros(config.num_rollouts)
    values = np.zeros(config.num_rollouts)
    kls = np.zeros(config.num_rollouts)
    for j in range(config.num_rollouts):
        i = int(rng.integers(len(dataset)))
        comp = dataset[i]
        rf = featurize_record(comp, params, feature_config)
        out = forward(params, rf.feats, rf.pooled)
        a = int(rng.choice(len(out.probs), p=out.probs))
        logp = float(np.log(max(out.probs[a], 1e-300)))
        logp_ref = float(np.log(max(ref_probs[i][a], 1e-300)))

        if config.reward_kind == "contrastive":
            r = _contrastive_raw(caches[i], a, config, reward_params, rng)
        else:
            r = float(caches[i].em_sign[a])

        ids.append(comp.id)
        comps.append(comp)
        actions[j] = a
        logprob_old[j] = logp
        raw[j] = r
        kls[j] = logp - logp_ref
        shaped[j] = r - kl_coef * kls[j]
        values[j] = out.value
    return RolloutBatch(
        record_ids=ids,
        compiled=comps,
        actions=actions,
        logprob_old=logprob_old,
        raw_rewards=raw,
        rewards=shaped,
        values_old=values,
        kl_to_reference=kls,
    )


def reference_probs(
    reference_params: PolicyParams,
    dataset: Sequence[CompiledRecord],
    feature_config: FeatureConfig,
) -> list[np.ndarray]:
    out = []
    for comp in dataset:
        rf = featurize_record(comp, reference_params, feature_config)
        out.append(forward(reference_params, rf.feats, rf.pooled).probs)
    return out


def compute_gae(
    rewards: Sequence[float],
    values: Sequence[float],
    gamma: float,
    lam: float,
    dones: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation; QA episodes are one step, so
    dones defaults to all-terminal and the recursion collapses to
    A = r - V, return = r."""
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.shape != v.shape:
        raise ValueError("rewards and values must have equal length")
    d = np.ones_like(r) if dones is None else np.asarray(dones, dtype=float)
    adv = np.zeros_like(r)
    carry = 0.0
    for t in range(len(r) - 1, -1, -1):
        v_next = v[t + 1] if t + 1 < len(r) else 0.0
        nonterminal = 1.0 - d[t]
        delta = r[t] + gamma * v_next * nonterminal - v[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + v


def standardize_advantages(advantages: np.ndarray) -> np.ndarray:
    centered = advantages - advantages.mean()
    std = centered.std()
    if std < 1e-8:
        return np.zeros_like(centered)
    return centered / std


def ppo_update(
    params: PolicyParams,
    batch: RolloutBatch,
    config: PPOConfig,
    feature_config: FeatureConfig,
    optimizer: AdamW,
    rng: np.random.Generator,
) -> tuple[PolicyParams, dict]:
    """Clipped-surrogate updates over the batch, chunk by chunk."""
    if len(batch.advantages) != len(batch):
        raise ValueError("batch advantages not computed")
    n = len(batch)
    policy_losses, value_losses, kl_terms, clip_hits = [], [], [], 0
    for _ in range(config.ppo_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.chunk_size):
            chunk = order[start : start + config.chunk_size]
            grads = zeros_like_params(params)
            for j in chunk:
                j = int(j)
                comp = batch.compiled[j]
                rf = featurize_record(comp, params, feature_config)
                p_loss, _, probs = loss_and_grads(
                    params,
                    rf,
                    "ppo_surrogate",
                    {
                        "action": int(batch.actions[j]),
                        "logprob_old": float(batch.logprob_old[j]),
                        "advantage": float(batch.advantages[j]),
                        "cliprange": config.cliprange,
                    },
                    into=grads,
                    scale=1.0 / len(chunk),
                )
                v_loss, _, _ = loss_and_grads(
                    params,
                    rf,
                    "value_mse",
                    {"return": float(batch.returns[j])},
                    into=grads,
                    scale=config.vf_coef / len(chunk),
                )
                total = p_loss + config.vf_coef * v_loss
                if not np.isfinite(total):
                    raise RuntimeError(
                        f"non-finite PPO loss on record {comp.id}: "
                        f"policy={p_loss}, value={v_loss}"
                    )
                policy_losses.append(p_loss)
                value_losses.append(v_loss)

                # The policy loss's own probabilities: the parameters only
                # change at the end of the chunk.
                logp_new = float(np.log(max(probs[int(batch.actions[j])], 1e-300)))
                ratio = np.exp(logp_new - float(batch.logprob_old[j]))
                kl_terms.append(float(batch.logprob_old[j]) - logp_new)
                if abs(ratio - 1.0) > config.cliprange:
                    clip_hits += 1
            if not feature_config.temporal_fusion:
                grads.time_table[:] = 0.0
            optimizer.step(params, grads)
    total_samples = max(len(policy_losses), 1)
    stats = {
        "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
        "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
        "approx_kl": float(np.mean(kl_terms)) if kl_terms else 0.0,
        "clip_frac": clip_hits / total_samples,
    }
    return params, stats


def adaptive_kl_update(
    coef: float, observed_kl: float, config: PPOConfig, n_samples: int
) -> float:
    """Proportional controller nudging the KL penalty toward its target."""
    if coef <= 0:
        raise ValueError("KL coefficient must be positive")
    err = float(np.clip((observed_kl - config.target) / config.target, -0.2, 0.2))
    return coef * (1.0 + err * n_samples / config.horizon)


def train_ppo_compiled(
    compiled_train: Sequence[CompiledRecord],
    compiled_dev: Sequence[CompiledRecord],
    sft_params: PolicyParams,
    config: PPOConfig,
    feature_config: FeatureConfig,
    reward_params: Optional[RewardParams] = None,
) -> tuple[PolicyParams, list[dict]]:
    _require_records(compiled_train, compiled_dev)
    if config.iterations == 0:
        return sft_params.clone(), []
    reward_params = reward_params or RewardParams()
    reference = sft_params.clone()
    params = sft_params.clone()
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(params, config.learning_rate)
    caches = build_reward_caches(compiled_train, reward_params)
    ref_probs = reference_probs(reference, compiled_train, feature_config)

    baseline = evaluate_compiled(compiled_dev, sft_params, feature_config)
    best_em, best = baseline.em, sft_params.clone()
    kl_coef = config.init_kl_coef
    history: list[dict] = []
    for iteration in range(config.iterations):
        batch = collect_rollouts(
            params,
            reference,
            compiled_train,
            config,
            feature_config,
            rng,
            kl_coef,
            reward_params,
            caches,
            ref_probs,
        )
        adv, returns = compute_gae(
            batch.rewards, batch.values_old, config.gamma, config.lam
        )
        batch.advantages = standardize_advantages(adv)
        batch.returns = returns
        params, stats = ppo_update(
            params, batch, config, feature_config, optimizer, rng
        )
        observed_kl = float(batch.kl_to_reference.mean())
        kl_coef = adaptive_kl_update(kl_coef, observed_kl, config, len(batch))
        metrics = evaluate_compiled(compiled_dev, params, feature_config)
        history.append(
            {
                "iteration": iteration,
                "mean_reward": float(batch.raw_rewards.mean()),
                "kl": observed_kl,
                "kl_coef": kl_coef,
                "clip_frac": stats["clip_frac"],
                "policy_loss": stats["policy_loss"],
                "value_loss": stats["value_loss"],
                "approx_kl": stats["approx_kl"],
                "dev_em": metrics.em,
                "dev_f1": metrics.f1,
            }
        )
        if metrics.em > best_em:
            best_em = metrics.em
            best = params.clone()
    return best, history


_PPO_COLUMNS = [
    "iteration", "mean_reward", "kl", "kl_coef", "clip_frac",
    "policy_loss", "value_loss", "approx_kl", "dev_em", "dev_f1",
]
_SFT_COLUMNS = ["epoch", "loss", "dev_em", "dev_f1", "skipped"]


def history_to_csv(history: Sequence[dict]) -> str:
    if not history:
        return ""
    columns = _PPO_COLUMNS if "iteration" in history[0] else _SFT_COLUMNS
    lines = [",".join(columns)]
    for row in history:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
