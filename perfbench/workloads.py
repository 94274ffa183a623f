"""The benchmark's workloads, run through tsqa's public functions.

Every workload's timed section trains a policy (compile, supervised stage,
PPO stage), scores it on the test split, saves it, and scores it again with
the `tsqa eval` command on records the training did not see.

Package functions are looked up through their modules at call time
(``policy.compile_dataset``, not a name imported once), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from refclock import Clock
from tsqa import cli, corpus, facts, metrics, policy, trainer
from tsqa.config import FeatureConfig

# Seed of both training stages; the workload seed picks the corpus.
TRAIN_SEED = 1

_L2_EASY = {"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0}

# Generator shape of acceptance criterion 6: a large shared store.
BIGSTORE_CORPUS = dict(
    n_entities=834,
    n_relations=1,
    facts_per_pair=4,
    distractor_sentences_per_context=0,
    question_type_mix=_L2_EASY,
    unanswerable_fraction=0.1,
)

# Generator shape of acceptance criterion 7: undated distractors.
DISTRACTOR_CORPUS = dict(
    n_entities=120,
    n_relations=2,
    facts_per_pair=4,
    distractor_sentences_per_context=4,
    distractors_dated=False,
    question_type_mix=_L2_EASY,
    unanswerable_fraction=0.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict
    default_seed: int
    held_out_seed: int
    # Prefix sizes of the generated train and dev splits used for training,
    # and of the test split that `evaluate_compiled` scores.
    n_train: int
    n_dev: int
    n_test: int
    # How many records `tsqa eval` scores, taken from the records training
    # did not see: the test split first, then the rest of dev and train.
    n_eval: int
    sft_epochs: int
    ppo_iterations: int
    ppo_rollouts: int
    reward_kind: str
    # Lowest acceptable test EM; the quality guard of the correctness gate.
    min_test_em: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bigstore",
            why="large shared fact store: compile, reward caches and tsqa eval's per-record indexes dominate; policy math is small",
            corpus=BIGSTORE_CORPUS,
            default_seed=7,
            held_out_seed=23,
            n_train=100,
            n_dev=30,
            n_test=60,
            n_eval=1200,
            sft_epochs=30,
            ppo_iterations=2,
            ppo_rollouts=64,
            reward_kind="contrastive",
            min_test_em=0.85,  # acceptance criterion 6
        ),
        Workload(
            name="distractor",
            why="13 candidates per record and many epochs: featurize, backprop and AdamW dominate, compile is small",
            corpus=DISTRACTOR_CORPUS,
            default_seed=11,
            held_out_seed=29,
            n_train=160,
            n_dev=72,
            n_test=144,
            n_eval=400,
            sft_epochs=20,
            ppo_iterations=2,
            ppo_rollouts=128,
            reward_kind="exact_match",
            min_test_em=0.3,  # about four times the 1-in-13 chance of a blind pick
        ),
    )
}


class WorkloadError(RuntimeError):
    """An output of the program failed a correctness check."""


@dataclass
class Training:
    params: object
    sft_steps: int  # usable records x epochs
    rollouts: int
    skipped: int  # training records whose gold matches no candidate


@dataclass
class Prepared:
    """What set-up hands to the timed section."""

    train: list
    dev: list
    test: list
    index: Optional[object]
    vocab: object
    eval_path: Path
    n_eval: int
    checkpoint: Path


@dataclass
class Rep:
    """One execution of a workload's timed section."""

    test_em: float
    test_f1: float
    eval_em: float  # of `tsqa eval` on the unseen records
    skipped: int
    training: Training


def setup(w: Workload, seed: int, work_dir: Path) -> Prepared:
    """Generate the corpus and build what the timed section starts from."""
    work_dir.mkdir(parents=True, exist_ok=True)
    train, dev, test, all_facts = corpus.generate_synthetic(corpus.SyntheticConfig(seed=seed, **w.corpus))
    unseen = test + dev[w.n_dev :] + train[w.n_train :]
    eval_records = unseen[: w.n_eval]
    if len(eval_records) < w.n_eval or len(train) < w.n_train or len(dev) < w.n_dev or len(test) < w.n_test:
        raise WorkloadError(
            f"seed {seed} gave {len(train)}/{len(dev)}/{len(test)} records, fewer than the workload cuts"
        )
    train, dev, test = train[: w.n_train], dev[: w.n_dev], test[: w.n_test]
    eval_path = work_dir / "eval.jsonl"
    corpus.save_dataset(eval_records, eval_path)
    return Prepared(
        train=train,
        dev=dev,
        test=test,
        index=facts.FactIndex(all_facts),
        vocab=trainer.build_vocabulary([train, dev]),
        eval_path=eval_path,
        n_eval=len(eval_records),
        checkpoint=work_dir / "policy.bin",
    )


def train_policy(w: Workload, prep: Prepared, fc: FeatureConfig, clock: Clock) -> Training:
    """Compile train and dev, then run the supervised and PPO stages."""
    with clock.stage("stage.compile"):
        compiled_train = policy.compile_dataset(prep.train, prep.index, prep.vocab, fc)
        compiled_dev = policy.compile_dataset(prep.dev, prep.index, prep.vocab, fc)
    usable = sum(c.gold_index >= 0 for c in compiled_train)

    with clock.stage("stage.sft"):
        sft, sft_history = trainer.train_sft_compiled(
            compiled_train,
            compiled_dev,
            trainer.SFTConfig(epochs=w.sft_epochs, seed=TRAIN_SEED),
            fc,
            len(prep.vocab),
        )
    with clock.stage("stage.ppo"):
        params, ppo_history = trainer.train_ppo_compiled(
            compiled_train,
            compiled_dev,
            sft,
            trainer.PPOConfig(
                iterations=w.ppo_iterations,
                num_rollouts=w.ppo_rollouts,
                reward_kind=w.reward_kind,
                seed=TRAIN_SEED,
            ),
            fc,
        )

    losses = [row["loss"] for row in sft_history]
    losses += [row[k] for row in ppo_history for k in ("mean_reward", "kl", "kl_coef")]
    if len(sft_history) != w.sft_epochs or len(ppo_history) != w.ppo_iterations:
        raise WorkloadError("training history does not cover every epoch and iteration")
    if not all(math.isfinite(v) for v in losses):
        raise WorkloadError(f"non-finite loss or reward in the training history: {losses}")
    return Training(
        params=params,
        sft_steps=usable * w.sft_epochs,
        rollouts=w.ppo_iterations * w.ppo_rollouts,
        skipped=len(compiled_train) - usable,
    )


def cli_eval(prep: Prepared, report_path: Path) -> dict:
    """Run `tsqa eval` on the prepared file; return its JSON report."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["eval", "--data", str(prep.eval_path), "--checkpoint", str(prep.checkpoint),
            "--format", "json", "--out", str(report_path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise WorkloadError(f"tsqa eval exited {code}: {err.getvalue().strip()}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["n"] != prep.n_eval:
        raise WorkloadError(f"tsqa eval scored {report['n']} records, expected {prep.n_eval}")
    return report


def run_timed(w: Workload, prep: Prepared, work_dir: Path, clock: Clock) -> Rep:
    """The timed section: everything a later change may speed up, as
    stages of `clock`."""
    fc = FeatureConfig()
    training = train_policy(w, prep, fc, clock)
    with clock.stage("stage.compile"):
        compiled_test = policy.compile_dataset(prep.test, prep.index, prep.vocab, fc)
    with clock.stage("stage.evaluate"):
        scored = metrics.evaluate_compiled(compiled_test, training.params, fc)
    with clock.stage("stage.save"):
        policy.save_checkpoint(prep.checkpoint, training.params, prep.vocab, fc)
    with clock.stage("stage.cli_eval"):
        report = cli_eval(prep, work_dir / "report.json")
    return Rep(scored.em, scored.f1, report["em"], training.skipped, training)


def planned_records(w: Workload, prep: Prepared) -> int:
    """Records one timed section handles, for counting a failed one."""
    return len(prep.train) + len(prep.dev) + len(prep.test) + prep.n_eval


@dataclass
class Fingerprints:
    """Test EM/F1 per (workload, seed, source hash), kept across runs in
    the checkout so that a second run of one seed must repeat the first."""

    path: Path
    entries: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Fingerprints":
        try:
            return cls(path, json.loads(path.read_text(encoding="utf-8")))
        except FileNotFoundError:
            return cls(path)

    def check(self, key: str, em: float, f1: float) -> Optional[str]:
        """Record the values under `key`; return a message if they differ
        from an earlier record."""
        seen = self.entries.get(key)
        if seen is not None and (seen["test_em"] != em or seen["test_f1"] != f1):
            return f"test EM/F1 {em!r}/{f1!r} differ from an earlier run of the same seed: {seen}"
        if seen is None:
            self.entries[key] = {"test_em": em, "test_f1": f1}
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)
        return None
