"""Guard for exact speedups: compilation and the reward vectors, hashed.

The speedups in the tokenizer, the tagger, `compile_record` and the reward
embedding are meant to leave every output bit for bit the same.  This test
compiles a seeded corpus, with the shared fact index and with `index=None`,
builds its reward embedding memo, and compares two digests with recorded
values: FIELDS_DIGEST of every compiled field and, per record, of the
embedding of every candidate, the gold answer and every pooled negative,
read through the memo, and of the exact-match signs (+1 or -1) that the
exact-match reward reads; and LAYOUT_DIGEST of the static per-record pool
rows and backward groupings that the layouts of featurize and backward are
built from, read from each record's one-record `Layout`.

A change that alters compilation or the reward embedding on purpose
updates the digest it moves here and says so, with the reason, in
CHANGES.md.  FIELDS_DIGEST was last recorded when the reward caches began
embedding pooled negatives on first draw (the same value is computed from
the shared embedding table the caches held before, and from the one memo
that replaced the per-record caches); LAYOUT_DIGEST when featurize and
backward became batched (the same value is computed from the compiled
record's own pool rows, which replaced a separate layout object, and from
the one-record layout, once the layout built every record's rows and
groupings from the split's concatenated arrays).

DISTRACTOR_DIGEST pins the compiled fields and layouts of a second,
distractor-shaped corpus (two relations, four undated distractor sentences
per context, so about 150 tokens and 13 candidates per record), compiled
the way `tsqa eval` compiles, with `index=None`.  It was recorded before
contexts were compiled as plain token texts, and that change left it as
it was.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex
from tsqa.policy import CompiledRecord, Layout, compile_dataset
from tsqa.reward import RewardParams
from tsqa.trainer import build_reward_caches, build_vocabulary

FIELDS_DIGEST = "1c25a8adb3620373521a12555176503a05cbf025ef704e99430d1673406e39b8"
LAYOUT_DIGEST = "e0412a718e908290a2324363df9a65af66f96a9c79785e6e88c9849792344eed"
DISTRACTOR_DIGEST = "010e99c4d722327dc0ded56940baa2a8be9b9df582d1af531ee6ee37f0c5ba43"


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


def _feed_layout(digest, comp) -> None:
    """Feed `comp`'s one-record layout: the sizes (tokens T, pools P, rows
    N), the (3, N) pool rows and the row count of each pool that has rows;
    then the distinct token ids and the first two `groups` cell rows."""
    layout = Layout([comp])
    rows, (_, ids, cells) = layout.rows, layout.groups
    counts = np.bincount(rows[2], minlength=layout.n_pools)
    _feed(digest, ((layout.token_ids.shape[1], layout.n_pools, rows.shape[1]), rows, counts[counts > 0]))
    _feed(digest, [ids[0], cells[:2]])


def compiled_and_reward_digests() -> tuple[str, str]:
    train, dev, test, facts = generate_synthetic(SyntheticConfig(n_entities=40, seed=3))
    vocab = build_vocabulary([train, dev])
    config = FeatureConfig()
    digest, layout = hashlib.sha256(), hashlib.sha256()
    for index in (FactIndex(facts), None):
        compiled = compile_dataset(train + dev + test, index, vocab, config)
        for comp in compiled:
            for f in fields(CompiledRecord):
                _feed(digest, getattr(comp, f.name))
            _feed_layout(layout, comp)
        vectors = build_reward_caches(compiled, RewardParams())
        for comp in compiled:
            candidates = [c.text for c in comp.candidates]
            gold = comp.gold_answers[0] if comp.gold_answers else ""
            _feed(digest, [vectors[t] for t in candidates + [gold] + comp.remote_pool + comp.proximal_pool])
            _feed(digest, np.array([2.0 * comp.candidate_score(k)[0] - 1.0 for k in range(len(candidates))]))
    return digest.hexdigest(), layout.hexdigest()


def test_compiled_records_and_reward_table_match_the_recorded_digest():
    assert compiled_and_reward_digests() == (FIELDS_DIGEST, LAYOUT_DIGEST)


def distractor_digest() -> str:
    train, dev, test, _ = generate_synthetic(
        SyntheticConfig(
            n_entities=30, n_relations=2, distractor_sentences_per_context=4, distractors_dated=False, seed=5
        )
    )
    vocab = build_vocabulary([train, dev])
    digest = hashlib.sha256()
    for comp in compile_dataset(train + dev + test, None, vocab, FeatureConfig()):
        for f in fields(CompiledRecord):
            _feed(digest, getattr(comp, f.name))
        _feed_layout(digest, comp)
    return digest.hexdigest()


def test_distractor_shaped_records_match_the_recorded_digest():
    assert distractor_digest() == DISTRACTOR_DIGEST


# Small corpora of the benchmark's two generator shapes.
SHAPES = {
    "bigstore": dict(
        n_entities=80, n_relations=1, facts_per_pair=4, distractor_sentences_per_context=0,
        question_type_mix={"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0}, unanswerable_fraction=0.1, seed=7,
    ),
    "distractor": dict(
        n_entities=30, n_relations=2, distractor_sentences_per_context=4, distractors_dated=False, seed=5
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_compile_without_pools_leaves_only_the_pair_and_pools_empty(shape):
    train, dev, test, facts = generate_synthetic(SyntheticConfig(**SHAPES[shape]))
    vocab = build_vocabulary([train, dev])
    pooled = {"subject", "relation", "remote_pool", "proximal_pool"}
    for index in (FactIndex(facts), None):
        full = compile_dataset(train + dev + test, index, vocab, FeatureConfig())
        bare = compile_dataset(train + dev + test, index, vocab, FeatureConfig(), pools=False)
        assert any(comp.remote_pool or comp.proximal_pool for comp in full)
        for comp, lean in zip(full, bare, strict=True):
            assert (lean.subject, lean.relation, lean.remote_pool, lean.proximal_pool) == (None, None, [], [])
            for f in fields(CompiledRecord):
                if f.name not in pooled:
                    want, got = hashlib.sha256(), hashlib.sha256()
                    _feed(want, getattr(comp, f.name))
                    _feed(got, getattr(lean, f.name))
                    assert got.digest() == want.digest(), (comp.id, f.name)
