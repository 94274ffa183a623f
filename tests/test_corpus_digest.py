"""Guard for the synthetic generator: its corpora, hashed.

Every acceptance criterion, both benchmark workloads and every other
digest are built from `generate_synthetic_annotated`.  This test hashes
the serialized records of every split, the JSON of every fact and every
gold span annotation over a grid of configs, and compares the digest with
a recorded value.  The grid covers the default shape at several seeds,
the benchmark workloads' shapes, the shared `small_corpus` fixture, and
configs that reach the generator's rarer branches: all-unanswerable
before/after questions, undated distractors under era questions, the
distractor fill from outside the question's period, a year range so
crowded that implicit anchors fall back to first/last questions, and the
smallest entity count.

A change that alters the generated corpora on purpose updates CORPUS_DIGEST
here and says so, with the reason, in CHANGES.md.  It was recorded before
the generator rendered each subject's sentences once per subject.
"""

import hashlib
import json
from dataclasses import astuple

from tsqa.corpus import SyntheticConfig, generate_synthetic_annotated, serialize_record

CORPUS_DIGEST = "afb3576048333e34b6bcca4234cd9af47dd17a4c4710f3cb9661922069c109dc"

_L2_EASY = {"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0}
_ONLY = lambda kind: {k: float(k == kind) for k in ("L2", "L3", "EASY", "HARD")}  # noqa: E731

CONFIGS = [
    *(SyntheticConfig(seed=seed) for seed in range(6)),
    # The benchmark's bigstore and distractor shapes, at their default seeds.
    SyntheticConfig(
        n_entities=834, n_relations=1, facts_per_pair=4, distractor_sentences_per_context=0,
        question_type_mix=_L2_EASY, unanswerable_fraction=0.1, seed=7,
    ),
    SyntheticConfig(
        n_entities=120, n_relations=2, facts_per_pair=4, distractor_sentences_per_context=4,
        distractors_dated=False, question_type_mix=_L2_EASY, unanswerable_fraction=0.0, seed=11,
    ),
    # The `small_corpus` fixture.
    SyntheticConfig(
        n_entities=30, n_relations=2, facts_per_pair=3, distractor_sentences_per_context=2,
        unanswerable_fraction=0.15, seed=5,
    ),
    SyntheticConfig(n_entities=30, question_type_mix=_ONLY("HARD"), unanswerable_fraction=1.0, seed=2),
    SyntheticConfig(n_entities=30, question_type_mix=_ONLY("L3"), distractors_dated=False, seed=3),
    # More distractors asked for than the question's period holds: the fill branch.
    SyntheticConfig(n_entities=10, n_relations=3, facts_per_pair=6, distractor_sentences_per_context=40, seed=4),
    # A crowded year range: some anchors find no free year and fall back to first/last.
    SyntheticConfig(
        n_entities=200, n_relations=3, facts_per_pair=2, year_range=(1950, 1966),
        question_type_mix=_ONLY("HARD"), unanswerable_fraction=0.2, seed=1,
    ),
    SyntheticConfig(n_entities=2, seed=6),
]


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for config in CONFIGS:
        train, dev, test, facts, annotations = generate_synthetic_annotated(config)
        for split in (train, dev, test):
            digest.update(f"split{len(split)};".encode())
            for record in split:
                digest.update(serialize_record(record).encode() + b"\n")
        digest.update(f"facts{len(facts)};".encode())
        for fact in facts:
            digest.update(json.dumps(fact.to_json_dict()).encode() + b"\n")
        digest.update(f"annotations{len(annotations)};".encode())
        for rec_id, spans in annotations.items():
            digest.update(repr((rec_id, [astuple(s) for s in spans])).encode() + b"\n")
    return digest.hexdigest()


def test_generated_corpora_match_the_recorded_digest():
    assert corpus_digest() == CORPUS_DIGEST
