"""Guard for exact speedups: compilation and the reward table, hashed.

The speedups in the tokenizer, the tagger, `compile_record` and the reward
embedding are meant to leave every output bit for bit the same.  This test
compiles a seeded corpus, with the shared fact index and with `index=None`,
builds its reward caches, and compares one digest of every compiled field
and of the reward table with the value recorded before those speedups.

A change that alters compilation or the reward embedding on purpose
updates DIGEST here and says so, with the reason, in CHANGES.md.
"""

import hashlib
from dataclasses import fields

import numpy as np

from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex
from tsqa.policy import CompiledRecord, compile_dataset
from tsqa.reward import RewardParams
from tsqa.trainer import build_reward_caches, build_vocabulary

DIGEST = "07ae2f3deace331c70cba82c2412cdf4438654b73f2db5cfe1c6e2f5610bd720"


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        # A fixed byte order and width, so the digest is the same on every platform.
        wide = value.astype("<f8" if value.dtype.kind == "f" else "<i8")
        digest.update(f"array{value.shape}".encode())
        digest.update(wide.tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(f"list{len(value)}".encode())
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode())
    digest.update(b";")


def _runs(runs) -> list:
    return [runs.order, runs.starts, runs.counts, runs.keys]


def compiled_and_reward_digest() -> str:
    train, dev, test, facts = generate_synthetic(SyntheticConfig(n_entities=40, seed=3))
    vocab = build_vocabulary([train, dev])
    config = FeatureConfig()
    digest = hashlib.sha256()
    for index in (FactIndex(facts), None):
        compiled = compile_dataset(train + dev + test, index, vocab, config)
        for comp in compiled:
            for f in fields(CompiledRecord):
                _feed(digest, getattr(comp, f.name))
            rows = comp.pool_rows
            _feed(digest, [rows.pos, rows.pool, rows.question_len, rows.n_pools])
            _feed(digest, _runs(rows.pools) + _runs(rows.text) + _runs(rows.time))
        caches = build_reward_caches(compiled, RewardParams())
        _feed(digest, caches[0].table)
        for cache in caches:
            _feed(digest, [cache.cand_rows, cache.gold_row, cache.remote_rows, cache.proximal_rows, cache.em_sign])
    return digest.hexdigest()


def test_compiled_records_and_reward_table_match_the_recorded_digest():
    assert compiled_and_reward_digest() == DIGEST
