"""Shared fixtures: fixture-corpus paths and a large synthetic instance stream.

The synthetic stream is session-scoped because the statistical checks
(masking law, replacement frequencies, next-sentence balance) all consume
the same ~10^4 instances and generating them dominates suite runtime.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from corpusprep.bpe import SPECIALS, Vocab
from corpusprep.ingest import Document, read_documents
from corpusprep.pretrain import GenerationConfig, TokenStore, build_instances

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def data_dir() -> str:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_corpus_path() -> str:
    return os.path.join(DATA_DIR, "fixture_corpus.jsonl")


@pytest.fixture(scope="session")
def fixture_docs(fixture_corpus_path) -> list:
    return list(read_documents(fixture_corpus_path, "json-lines"))


@pytest.fixture(scope="session")
def fixture_manifest() -> dict:
    with open(os.path.join(DATA_DIR, "fixture_manifest.json"), encoding="utf-8") as f:
        return json.load(f)


def make_synthetic_vocab(size: int = 505) -> Vocab:
    """A vocabulary of opaque word pieces, bypassing BPE training."""
    pieces = list(SPECIALS) + [f"▁p{i:03d}" for i in range(size - len(SPECIALS))]
    return Vocab(pieces=tuple(pieces), merges=())


def make_synthetic_docs(
    n_docs: int = 120, sentences_per_doc: int = 100, rng_seed: int = 99
) -> list:
    """(id, sentences) pairs, sentences short lists of ids from the synthetic vocabulary,
    the input of pretrain.TokenStore."""
    rng = random.Random(rng_seed)
    docs = []
    for d in range(n_docs):
        sentences = [
            [len(SPECIALS) + rng.randint(0, 499) for _ in range(rng.randint(4, 6))]
            for _ in range(sentences_per_doc)
        ]
        docs.append((f"syn-{d:04d}", sentences))
    return docs


@pytest.fixture(scope="session")
def synthetic_vocab() -> Vocab:
    return make_synthetic_vocab()


@pytest.fixture(scope="session")
def synthetic_docs() -> list:
    return make_synthetic_docs()


@pytest.fixture(scope="session")
def mlm_stream(synthetic_docs, synthetic_vocab):
    """~10^4 instances at max_seq_length 128, fixed seed, for statistics."""
    config = GenerationConfig(
        max_seq_length=128,
        masked_lm_prob=0.15,
        random_next_prob=0.5,
        short_seq_prob=0.1,
        dupe_factor=25,
        shards=4,
        seed=2024,
    )
    instances = list(build_instances(TokenStore(synthetic_docs), synthetic_vocab, config))
    return {"config": config, "vocab": synthetic_vocab, "instances": instances}


def write_jsonl(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def simple_doc(doc_id: str, text: str, **kwargs) -> Document:
    return Document(id=doc_id, text=text, **kwargs)
