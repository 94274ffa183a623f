"""Guard for changes meant to leave training bit for bit the same.

Reads the seeded 40-entity corpus back through `save_dataset`/`load_dataset`
and `save_facts`/`load_facts`, then runs 3 SFT epochs and 2 PPO iterations
of 64 rollouts for each of contrastive and exact-match reward x fusion add,
off and concat.  One digest covers every SFT and PPO history, the trained
parameters, the checkpoint and sidecar bytes, and the test EM/F1.

DIGEST was recorded with numpy 2.4.6 on Python 3.11.7, x86-64 Linux, with
one BLAS thread.  A batch's products are large enough for OpenBLAS to split
them over threads, and the split changes the order of float sums, so the
grid runs in a fresh interpreter with every BLAS and OpenMP thread count
set to 1, as perfbench runs; the digest then does not depend on the core
count.  numpy may still sum in another order on another CPU or BLAS build;
a mismatch there is re-recorded with a note in CHANGES.md, never given a
tolerance.  A change that alters a training trajectory on purpose updates
DIGEST, logs the old and new values in CHANGES.md, and re-reports
criteria 6, 7a and 7b.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import tsqa
from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic, load_dataset, load_facts, save_dataset, save_facts
from tsqa.facts import FactIndex
from tsqa.metrics import evaluate_compiled
from tsqa.policy import compile_dataset, save_checkpoint
from tsqa.trainer import PPOConfig, SFTConfig, build_vocabulary, train_ppo_compiled, train_sft_compiled

DIGEST = "beaab30f957aee62a51835561dd5d06a78f68743c8ec7af34fdd65bffb63d284"

# Set before numpy is first imported, in the interpreter that trains.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

FUSIONS = {
    "add": FeatureConfig(),
    "off": FeatureConfig(temporal_fusion=False),
    "concat": FeatureConfig(fusion_mode="concat"),
}


def _feed(digest, history, params) -> None:
    digest.update(json.dumps(history, sort_keys=True).encode())
    # A fixed byte order, so the digest is the same on every platform.
    digest.update(params.flat.astype("<f8").tobytes())


def training_digest(tmp_path) -> str:
    train, dev, test, facts = generate_synthetic(SyntheticConfig(n_entities=40, seed=3))
    splits = []
    for name, records in (("train", train), ("dev", dev), ("test", test)):
        save_dataset(records, tmp_path / f"{name}.jsonl")
        splits.append(load_dataset(tmp_path / f"{name}.jsonl"))
    save_facts(facts, tmp_path / "facts.jsonl")
    index = FactIndex(load_facts(tmp_path / "facts.jsonl"))
    vocab = build_vocabulary(splits[:2])
    # Compilation reads the window, which every arm shares, not the fusion mode.
    train, dev, test = (compile_dataset(split, index, vocab, FeatureConfig()) for split in splits)

    digest = hashlib.sha256()
    checkpoint = tmp_path / "policy.bin"
    for name, config in FUSIONS.items():
        sft, history = train_sft_compiled(train, dev, SFTConfig(epochs=3), config, len(vocab))
        _feed(digest, history, sft)
        for kind in ("contrastive", "exact_match"):
            ppo = PPOConfig(iterations=2, num_rollouts=64, reward_kind=kind)
            params, history = train_ppo_compiled(train, dev, sft, ppo, config)
            _feed(digest, history, params)
            save_checkpoint(checkpoint, params, vocab, config)
            digest.update(checkpoint.read_bytes())
            digest.update((tmp_path / "policy.bin.json").read_bytes())
            scored = evaluate_compiled(test, params, config)
            digest.update(repr((name, kind, scored.em, scored.f1)).encode())
    return digest.hexdigest()


def test_training_matches_the_recorded_digest(tmp_path):
    paths = [str(Path(tsqa.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    script = (
        f"import sys; sys.path[:0] = {paths!r}; from pathlib import Path; "
        f"from test_training_digest import training_digest; print(training_digest(Path({str(tmp_path)!r})))"
    )
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == DIGEST
