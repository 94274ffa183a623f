"""Shared fixtures: a small deterministic corpus and compiled feature sets."""

import pytest

from tsqa import policy
from tsqa.config import FeatureConfig
from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.facts import FactIndex
from tsqa.policy import compile_dataset
from tsqa.trainer import build_vocabulary


@pytest.fixture(scope="session")
def small_corpus():
    cfg = SyntheticConfig(
        n_entities=30,
        n_relations=2,
        facts_per_pair=3,
        distractor_sentences_per_context=2,
        unanswerable_fraction=0.15,
        seed=5,
    )
    return generate_synthetic(cfg)


@pytest.fixture(scope="session")
def small_index(small_corpus) -> FactIndex:
    return FactIndex(small_corpus[3])


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    train, dev, _, _ = small_corpus
    return build_vocabulary([train, dev])


@pytest.fixture(scope="session")
def tiny_features() -> FeatureConfig:
    # small dims keep finite-difference loops fast
    return FeatureConfig(embed_dim=4, window=2, hidden=8)


@pytest.fixture(scope="session")
def small_compiled(small_corpus, small_index, small_vocab, tiny_features):
    train, dev, test, _ = small_corpus
    return (
        compile_dataset(train, small_index, small_vocab, tiny_features),
        compile_dataset(dev, small_index, small_vocab, tiny_features),
        compile_dataset(test, small_index, small_vocab, tiny_features),
    )


@pytest.fixture
def layout_builds(monkeypatch) -> list[int]:
    """The record count of every `Layout` built while the test runs."""
    built: list[int] = []
    init = policy.Layout.__init__

    def counting(self, records):
        built.append(len(records))
        init(self, records)

    monkeypatch.setattr(policy.Layout, "__init__", counting)
    return built
