from __future__ import annotations

from pathlib import Path

import pytest

from lexrag.backends import MockEmbedder, MockGenerator
from lexrag.corpus import load_dictionary, load_parallel, to_documents
from lexrag.index import (
    IndexBundle,
    IndexManifest,
    build_keyword_index,
    build_vector_index,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def mock_embedder() -> MockEmbedder:
    return MockEmbedder(dim=8)


@pytest.fixture
def mock_generator() -> MockGenerator:
    return MockGenerator()


@pytest.fixture
def tiny_docs():
    entries = load_dictionary(DATA_DIR / "tiny_dict.jsonl")
    examples = load_parallel(DATA_DIR / "tiny_parallel.tsv")
    return to_documents(entries, examples)


@pytest.fixture
def tiny_bundle(tiny_docs, mock_embedder) -> IndexBundle:
    keyword = build_keyword_index(tiny_docs)
    vector = build_vector_index(tiny_docs, mock_embedder)
    manifest = IndexManifest.create(keyword, vector)
    return IndexBundle(keyword=keyword, vector=vector, manifest=manifest, docs=tiny_docs)
