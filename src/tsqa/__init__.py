"""Desk-scale training framework for time-sensitive question answering.

Pipeline: tag temporal expressions, build dilated temporal masks, fuse
them with text embeddings, mine granularity-based negative answers, and
train a small selection policy in two stages (supervised, then PPO with
a contrastive temporal reward).  Records are compiled once
(`compile_dataset`), trained on (`train_sft_compiled`, then
`train_ppo_compiled`) and scored (`evaluate_compiled`) in compiled form.
"""

from .config import FeatureConfig
from .corpus import QARecord, QuestionType, SyntheticConfig, generate_synthetic
from .facts import FactIndex, TimeFact
from .intervals import MonthInterval
from .metrics import evaluate_compiled
from .policy import compile_dataset
from .reward import RewardParams, score_prediction
from .trainer import PPOConfig, SFTConfig, build_vocabulary, train_ppo_compiled, train_sft_compiled

__version__ = "0.1.0"

__all__ = [
    "FactIndex",
    "FeatureConfig",
    "MonthInterval",
    "PPOConfig",
    "QARecord",
    "QuestionType",
    "RewardParams",
    "SFTConfig",
    "SyntheticConfig",
    "TimeFact",
    "build_vocabulary",
    "compile_dataset",
    "evaluate_compiled",
    "generate_synthetic",
    "score_prediction",
    "train_ppo_compiled",
    "train_sft_compiled",
    "__version__",
]
