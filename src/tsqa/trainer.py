"""Two-stage training: supervised selection, then PPO with shaped rewards.

Stage 1 minimizes cross-entropy of the gold candidate under AdamW.  Stage
2 treats each record as a one-step episode: sample an answer, score it
with the contrastive reward (or a plain exact-match baseline), subtract
an adaptive KL penalty against the frozen stage-1 policy, and run clipped
PPO updates on the one-step advantage A = r - V, standardized over each
rollout batch.  Both stages return the checkpoint with the best dev EM.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
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
    PolicyParams,
    featurize_batch,
    init_params,
    loss_and_grads_batch,
    record_probs,
)
from .reward import RewardParams
# `tokenize` stays bound here: the benchmark checks that its tracer wraps it in every module that holds it.
from .tagger import tokenize, words  # noqa: F401

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
        if self.cliprange <= 0:
            raise ValueError("cliprange must be positive")
        if self.init_kl_coef <= 0 or self.target <= 0 or self.horizon <= 0:
            raise ValueError("KL controller constants must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negatives_per_side < 0:
            raise ValueError("negatives_per_side must be non-negative")
        if self.vf_coef < 0:  # a negative weight would climb the value loss
            raise ValueError("vf_coef must be non-negative")
        if self.reward_kind not in ("contrastive", "exact_match"):
            raise ValueError(f"unknown reward kind {self.reward_kind!r}")


# ---------------------------------------------------------------------------
# Optimizer.


class AdamW:
    """Adaptive moments with decoupled weight decay over the flat parameter
    vector.  Decay applies to the perceptron and value weights only; each
    step ends by checking that the parameters are still finite."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: PolicyParams, learning_rate: float, weight_decay: float = 0.0) -> None:
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)
        self._update = np.empty_like(params.flat)
        self._denom = np.empty_like(params.flat)

    def step(self, params: PolicyParams, grads: PolicyParams) -> None:
        self.t += 1
        # Every product goes into a kept buffer: temporaries the size of the
        # parameters would be handed back to the OS and faulted in anew.
        g, m, v, update, denom = grads.flat, self._m, self._v, self._update, self._denom
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=update)
        update *= g
        v += update
        if self.weight_decay:
            for w in (params.W1, params.W2, params.Wv):
                w -= self.learning_rate * self.weight_decay * w
        np.divide(m, 1.0 - self.beta1**self.t, out=update)
        update *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        params.flat -= update
        params.check_finite()


# ---------------------------------------------------------------------------
# Stage 1: supervised selection.


def build_vocabulary(datasets: Sequence[Sequence]) -> Vocabulary:
    texts = chain.from_iterable(
        (r.question, r.context) for split in datasets for r in split
    )
    return Vocabulary.build(texts, words)


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
    params = init_params(rng, vocab_size, feature_config)
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
            chunk = [usable[int(j)] for j in order[start : start + config.batch_size]]
            features = featurize_batch(chunk, params, feature_config)
            inputs = {"gold_index": [comp.gold_index for comp in chunk], "scale": 1.0 / len(chunk)}
            losses, grads, _ = loss_and_grads_batch(params, features, {"cross_entropy": inputs})
            epoch_loss += float(losses["cross_entropy"].sum())
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
# Reward embeddings: the candidates and gold answer of every record are
# embedded at build time, a pooled negative the first time a rollout draws
# it, each distinct string once through one memo per build.  Distances are
# computed on read, only for the prediction, the gold answer and the drawn
# negatives.


class _Embeddings(dict):
    """The build's string -> embedding memo; a missing string is embedded on first read."""

    def __init__(self, params: RewardParams) -> None:
        super().__init__()
        self.params = params

    def __missing__(self, text: str) -> np.ndarray:
        # Looked up at call time, so a wrapper set on the module sees every embed.
        vector = self[text] = reward_mod.embed_answer(text, self.params)
        return vector


def _gold(comp: CompiledRecord) -> str:
    return comp.gold_answers[0] if comp.gold_answers else ""


def build_reward_caches(compiled: Sequence[CompiledRecord], params: RewardParams) -> dict[str, np.ndarray]:
    """The embedding memo of a PPO run, holding every candidate and gold answer of `compiled`."""
    vectors = _Embeddings(params)
    for comp in compiled:
        for text in [c.text for c in comp.candidates] + [_gold(comp)]:
            vectors[text]  # embedded now, when missing
    return vectors


def _contrastive_raw(
    comp: CompiledRecord, action: int, negatives: list[str], vectors: dict[str, np.ndarray], params: RewardParams
) -> float:
    """The contrastive reward of candidate `action` against `negatives`, remote then proximal."""
    t = reward_mod.triplet_score(
        vectors[_gold(comp)], vectors[comp.candidates[action].text],
        np.array([vectors[text] for text in negatives]),
        params.margin, params.neg_aggregate,
    )
    return reward_mod.reward(t, params)


# ---------------------------------------------------------------------------
# Stage 2: PPO.


@dataclass
class RolloutBatch:
    compiled: list[CompiledRecord]
    actions: np.ndarray
    logprob_old: np.ndarray
    raw_rewards: np.ndarray
    rewards: np.ndarray  # raw minus the KL penalty
    values_old: np.ndarray
    kl_to_reference: np.ndarray
    advantages: np.ndarray  # standardized r - V over the batch
    returns: np.ndarray  # (r - V) + V: the value head's target

    def __len__(self) -> int:
        return len(self.actions)


def _choice_index(probs: np.ndarray, uniform: float) -> int:
    """The index `rng.choice(len(probs), p=probs)` picks when the one
    `rng.random()` it reads returns `uniform`: numpy's own rule."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(uniform, side="right"))


def collect_rollouts(
    params: PolicyParams,
    dataset: Sequence[CompiledRecord],
    config: PPOConfig,
    feature_config: FeatureConfig,
    rng: np.random.Generator,
    kl_coef: float,
    reward_params: RewardParams,
    vectors: dict[str, np.ndarray],
    ref_probs: list[np.ndarray],
) -> RolloutBatch:
    """Sample one-step episodes with shaped rewards and their advantages;
    `vectors` is the reward embedding memo of `build_reward_caches`, and
    `ref_probs` holds each record's reference policy probabilities.  Each
    rollout draws its record, its action's uniform and its negatives as a
    loop of one `rng.choice` per rollout would; one `record_probs` call
    then reads every drawn record."""
    contrastive = config.reward_kind == "contrastive"
    picks, uniforms, negatives = [], [], []
    for _ in range(config.num_rollouts):
        picks.append(int(rng.integers(len(dataset))))
        uniforms.append(rng.random())
        if contrastive:
            comp = dataset[picks[-1]]
            remote, proximal = sample_negatives(comp.remote_pool, comp.proximal_pool, config.negatives_per_side, rng)
            negatives.append(remote + proximal)
    comps = [dataset[i] for i in picks]
    probs, values = record_probs(comps, params, feature_config)
    actions = np.array([_choice_index(p, u) for p, u in zip(probs, uniforms)], dtype=int)
    logprob_old = np.log(np.maximum([p[a] for p, a in zip(probs, actions)], 1e-300))
    kls = logprob_old - np.log(np.maximum([ref_probs[i][a] for i, a in zip(picks, actions)], 1e-300))
    if contrastive:
        raw = np.array([_contrastive_raw(c, a, n, vectors, reward_params) for c, a, n in zip(comps, actions, negatives)])
    else:
        # +1 for an exact match, -1 otherwise.
        raw = np.array([2.0 * c.candidate_score(a)[0] - 1.0 for c, a in zip(comps, actions)])
    shaped = raw - kl_coef * kls
    adv = shaped - values
    return RolloutBatch(
        compiled=comps,
        actions=actions,
        logprob_old=logprob_old,
        raw_rewards=raw,
        rewards=shaped,
        values_old=values,
        kl_to_reference=kls,
        advantages=standardize_advantages(adv),
        returns=adv + values,
    )


def reference_probs(
    reference_params: PolicyParams,
    dataset: Sequence[CompiledRecord],
    feature_config: FeatureConfig,
) -> list[np.ndarray]:
    return record_probs(dataset, reference_params, feature_config)[0]


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
    n = len(batch)
    policy_losses, value_losses, kl_terms, clip_hits = [], [], [], 0
    for _ in range(config.ppo_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.chunk_size):
            chunk = order[start : start + config.chunk_size]
            records = [batch.compiled[int(j)] for j in chunk]
            features = featurize_batch(records, params, feature_config)
            actions, logprob_old = batch.actions[chunk], batch.logprob_old[chunk]
            losses, grads, probs = loss_and_grads_batch(
                params,
                features,
                {
                    "ppo_surrogate": {
                        "action": actions,
                        "logprob_old": logprob_old,
                        "advantage": batch.advantages[chunk],
                        "cliprange": config.cliprange,
                        "scale": 1.0 / len(chunk),
                    },
                    "value_mse": {"return": batch.returns[chunk], "scale": config.vf_coef / len(chunk)},
                },
            )
            p_loss, v_loss = losses["ppo_surrogate"], losses["value_mse"]
            finite = np.isfinite(p_loss + config.vf_coef * v_loss)
            if not finite.all():
                j = int(np.argmin(finite))
                raise RuntimeError(
                    f"non-finite PPO loss on record {records[j].id}: "
                    f"policy={p_loss[j]}, value={v_loss[j]}"
                )
            policy_losses += p_loss.tolist()
            value_losses += v_loss.tolist()

            # The policy loss's own probabilities: the parameters only
            # change at the end of the chunk.
            logp_new = np.log(np.maximum(probs[features.batch.cand_starts + actions], 1e-300))
            kl_terms += (logprob_old - logp_new).tolist()
            clip_hits += int((np.abs(np.exp(logp_new - logprob_old) - 1.0) > config.cliprange).sum())
            optimizer.step(params, grads)
    stats = {
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "approx_kl": float(np.mean(kl_terms)),
        "clip_frac": clip_hits / len(policy_losses),
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
    params = sft_params.clone()
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(params, config.learning_rate)
    vectors = build_reward_caches(compiled_train, reward_params)
    ref_probs = reference_probs(sft_params, compiled_train, feature_config)

    baseline = evaluate_compiled(compiled_dev, sft_params, feature_config)
    best_em, best = baseline.em, sft_params.clone()
    kl_coef = config.init_kl_coef
    history: list[dict] = []
    for iteration in range(config.iterations):
        batch = collect_rollouts(
            params, compiled_train, config, feature_config, rng,
            kl_coef, reward_params, vectors, ref_probs,
        )
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


def history_to_csv(history: Sequence[dict]) -> str:
    """One CSV line per row, columns in the order the trainer built the first row."""
    if not history:
        return ""
    columns = list(history[0])
    lines = [",".join(columns)]
    for row in history:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
