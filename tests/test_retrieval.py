from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.backends import BackendError, MockEmbedder
from lexrag.corpus import Document
from lexrag.index import KeywordIndex, VectorIndex, vector_topk
from lexrag.retrieval import (
    RetrievalConfig,
    RetrievalError,
    extract_query_terms,
    retrieve,
)
from oracles import oracle_topk


class TestExtractQueryTerms:
    def test_bigram_order(self):
        assert extract_query_terms("The cat sat", 2) == [
            "the cat",
            "cat sat",
            "the",
            "cat",
            "sat",
        ]

    def test_punctuation_normalized(self):
        assert extract_query_terms("Water.", 1) == ["water"]

    def test_empty_query(self):
        assert extract_query_terms("", 4) == []

    def test_duplicates_keep_first(self):
        assert extract_query_terms("go go go", 2) == ["go go", "go"]

    def test_phrase_len_longer_than_query(self):
        assert extract_query_terms("one two", 4) == ["one two", "one", "two"]


class _FixedQueryEmbedder:
    """Always answers with one predetermined query vector."""

    embedder_id = "fixed"

    def __init__(self, vec):
        self.vec = list(vec)
        self.calls = 0

    def embed_texts(self, texts):
        self.calls += 1
        return [list(self.vec) for _ in texts]


class _FailingEmbedder:
    embedder_id = "failing"
    calls = 0

    def embed_texts(self, texts):
        raise BackendError("embedding backend down")


def _dict_doc(doc_id, headword, target="t"):
    return Document(
        id=doc_id,
        kind="dictionary",
        source_text=headword,
        target_text=target,
    )


def _square_setup():
    """Four 2-D docs: d:0 along x, d:3 at 37 degrees, d:1 along y, d:2 anti-x."""
    docs = {
        "d:0": _dict_doc("d:0", "water"),
        "d:1": _dict_doc("d:1", "sun"),
        "d:2": _dict_doc("d:2", "fire"),
        "d:3": _dict_doc("d:3", "earth"),
    }
    kw = KeywordIndex(entries={"water": ["d:0"], "sun": ["d:1"]}, max_phrase_len=1)
    vec = VectorIndex(
        dim=2,
        embedder_id="fixed",
        ids=["d:0", "d:1", "d:2", "d:3"],
        vectors=np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.8, 0.6]], dtype=np.float32
        ),
    )
    return docs, kw, vec


class TestRetrieve:
    def test_keyword_hit_never_embeds_under_strict_fallback(self, tiny_bundle):
        embedder = MockEmbedder(dim=8)
        results = retrieve(
            "water is good",
            tiny_bundle.keyword,
            tiny_bundle.vector,
            tiny_bundle.doc_map,
            embedder,
            RetrievalConfig(max_phrase_len=2),
        )
        assert embedder.calls == 0
        # phrase order first ("water" precedes "good"), id order within a phrase
        assert [(r.doc.id, r.score, r.provenance, r.matched_phrase) for r in results] == [
            ("d:0", 1.0, "keyword", "water"),
            ("x:2", 1.0, "keyword", "water"),
            ("d:5", 1.0, "keyword", "good"),
        ]

    def test_zero_keyword_hits_equals_vector_topk(self, tiny_bundle, mock_embedder):
        config = RetrievalConfig(k_vector=3, k_total=8)
        query = "completely unrelated nonsense"
        results = retrieve(
            query,
            tiny_bundle.keyword,
            tiny_bundle.vector,
            tiny_bundle.doc_map,
            mock_embedder,
            config,
        )
        raw = MockEmbedder(dim=8).embed_texts([query])[0]
        unit = (np.array(raw) / np.linalg.norm(raw)).tolist()
        expected = vector_topk(tiny_bundle.vector, unit, config.k_vector)
        assert [(r.doc.id, r.score) for r in results] == expected
        assert all(r.provenance == "vector" and r.matched_phrase is None for r in results)

        stored = [(i, v.tolist()) for i, v in zip(tiny_bundle.vector.ids, tiny_bundle.vector.vectors)]
        oracle = oracle_topk(stored, unit, config.k_vector)
        assert [r.doc.id for r in results] == [doc_id for doc_id, _ in oracle]

    def test_fill_policy_merges_without_duplicates(self):
        docs, kw, vec = _square_setup()
        embedder = _FixedQueryEmbedder([1.0, 0.0])
        results = retrieve(
            "water please",
            kw,
            vec,
            docs,
            embedder,
            RetrievalConfig(k_vector=2, k_total=8, policy="fill", max_phrase_len=1),
        )
        assert [(r.doc.id, r.provenance) for r in results] == [
            ("d:0", "keyword"),
            ("d:3", "vector"),
        ]
        assert results[0].score == 1.0
        assert results[1].score == pytest.approx(0.8, abs=1e-6)

    def test_strict_fallback_skips_vector_when_keywords_hit(self):
        docs, kw, vec = _square_setup()
        embedder = _FixedQueryEmbedder([1.0, 0.0])
        results = retrieve(
            "water please",
            kw,
            vec,
            docs,
            embedder,
            RetrievalConfig(k_vector=2, k_total=8, max_phrase_len=1),
        )
        assert embedder.calls == 0
        assert [r.provenance for r in results] == ["keyword"]

    def test_k_total_caps_keyword_hits(self, tiny_bundle, mock_embedder):
        results = retrieve(
            "water sun fire dog",
            tiny_bundle.keyword,
            tiny_bundle.vector,
            tiny_bundle.doc_map,
            mock_embedder,
            RetrievalConfig(k_vector=1, k_total=2, max_phrase_len=1),
        )
        assert len(results) == 2
        assert [r.doc.id for r in results] == ["d:0", "x:2"]

    def test_embedder_failure_only_reachable_in_fallback(self, tiny_bundle):
        embedder = _FailingEmbedder()
        results = retrieve(
            "water",
            tiny_bundle.keyword,
            tiny_bundle.vector,
            tiny_bundle.doc_map,
            embedder,
            RetrievalConfig(max_phrase_len=1),
        )
        assert results  # keyword path answered, no embedding attempted
        with pytest.raises(BackendError):
            retrieve(
                "zxqj",
                tiny_bundle.keyword,
                tiny_bundle.vector,
                tiny_bundle.doc_map,
                embedder,
                RetrievalConfig(max_phrase_len=1),
            )

    def test_unknown_doc_id_is_a_retrieval_error(self):
        docs, kw, vec = _square_setup()
        del docs["d:0"]
        with pytest.raises(RetrievalError, match="d:0"):
            retrieve(
                "water",
                kw,
                vec,
                docs,
                _FixedQueryEmbedder([1.0, 0.0]),
                RetrievalConfig(max_phrase_len=1),
            )

    def test_deterministic(self, tiny_bundle, mock_embedder):
        config = RetrievalConfig()
        args = (
            "the sun and the sea",
            tiny_bundle.keyword,
            tiny_bundle.vector,
            tiny_bundle.doc_map,
            mock_embedder,
            config,
        )
        first = retrieve(*args)
        second = retrieve(*args)
        assert first == second

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(k_vector=9, k_total=8)
        with pytest.raises(ValueError):
            RetrievalConfig(policy="sometimes")

    @pytest.mark.parametrize(
        "setting",
        [{"k_vector": 2.5}, {"k_total": 8.0}, {"k_vector": True}, {"max_phrase_len": "2"}],
    )
    def test_non_integer_settings_rejected(self, setting):
        with pytest.raises(ValueError, match="must be an integer"):
            RetrievalConfig(**setting)


_BUNDLE_CACHE = []


def _shared_bundle():
    if not _BUNDLE_CACHE:
        from pathlib import Path

        from lexrag.corpus import load_dictionary, load_parallel, to_documents
        from lexrag.index import IndexBundle, IndexManifest, build_keyword_index, build_vector_index

        data = Path(__file__).parent / "data"
        docs = to_documents(
            load_dictionary(data / "tiny_dict.jsonl"),
            load_parallel(data / "tiny_parallel.tsv"),
        )
        kw = build_keyword_index(docs)
        vec = build_vector_index(docs, MockEmbedder(dim=8))
        _BUNDLE_CACHE.append(
            IndexBundle(kw, vec, IndexManifest.create(kw, vec), docs)
        )
    return _BUNDLE_CACHE[0]


@settings(max_examples=50)
@given(st.text(alphabet="abcdefgh water sun dog", max_size=40), st.booleans())
def test_no_duplicates_and_cap_property(query, fill):
    bundle = _shared_bundle()
    config = RetrievalConfig(
        k_vector=3, k_total=4, policy="fill" if fill else "strict_fallback"
    )
    results = retrieve(
        query,
        bundle.keyword,
        bundle.vector,
        bundle.doc_map,
        MockEmbedder(dim=8),
        config,
    )
    ids = [r.doc.id for r in results]
    assert len(ids) == len(set(ids))
    assert len(ids) <= config.k_total
