from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.backends import BackendError, MockEmbedder
from lexrag.corpus import Document, to_documents
from lexrag.index import (
    IndexBundle,
    IndexFormatError,
    IndexManifest,
    VectorIndex,
    build_keyword_index,
    build_vector_index,
    normalize_keyword,
    vector_topk,
)
from lexrag.retrieval import RetrievalConfig, extract_query_terms, retrieve
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

    # Letters, punctuation, whitespace other than a space, combining marks
    # (NFD forms), characters whose case fold decomposes or lengthens, and
    # both Cherokee cases (lowercase folds to uppercase).
    @settings(max_examples=300)
    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(
                    list("aAeEiIzZ .,;!?'\"-()\u00ab\u00bb\u2019")
                    + ["\t", "\n", "\r", "\u00a0", "\u2003", "\u3000"]
                    + ["\u0301", "\u0308", "\u0345", "\u0390", "\u00df", "\u0130"]
                ),
                st.characters(min_codepoint=0x13A0, max_codepoint=0x13F5),
                st.characters(min_codepoint=0xAB70, max_codepoint=0xABBF),
            ),
            max_size=40,
        )
    )
    def test_phrases_are_normalized(self, query):
        # keyword_lookup relies on this: it looks each phrase up as it is
        for phrase in extract_query_terms(query, 4):
            assert normalize_keyword(phrase) == phrase


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
    embedder_id = "mock-embed-8"  # the tiny index's, so only the failure differs
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


def _square_setup(keyword_entries=None):
    """Four 2-D docs: d:0 along x, d:3 at 37 degrees, d:1 along y, d:2 anti-x."""
    docs = [
        _dict_doc("d:0", "water"),
        _dict_doc("d:1", "sun"),
        _dict_doc("d:2", "fire"),
        _dict_doc("d:3", "earth"),
    ]
    kw = keyword_entries or {"water": [0], "sun": [1]}
    vec = VectorIndex(
        dim=2,
        embedder_id="fixed",
        ids=[doc.id for doc in docs],
        vectors=np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.8, 0.6]], dtype=np.float32
        ),
    )
    return IndexBundle(kw, vec, IndexManifest.create(kw, vec), docs)


class TestRetrieve:
    def test_keyword_hit_never_embeds_under_strict_fallback(self, tiny_bundle):
        embedder = MockEmbedder(dim=8)
        results = retrieve(
            "water is good", tiny_bundle, embedder, RetrievalConfig(max_phrase_len=2)
        )
        assert embedder.calls == 0
        # phrase order first ("water" precedes "good"), id order within a phrase
        assert [(r.doc.id, r.score, r.provenance, r.matched_phrase) for r in results] == [
            ("d:0", 1.0, "keyword", "water"),
            ("x:2", 1.0, "keyword", "water"),
            ("d:5", 1.0, "keyword", "good"),
        ]

    def test_dictionary_example_is_a_keyword_hit(self, tiny_bundle):
        # "they baked bread" is the bread entry's example pair, not a parallel line.
        results = retrieve("baked", tiny_bundle, MockEmbedder(dim=8))
        assert [(r.doc.id, r.provenance, r.matched_phrase) for r in results] == [
            ("x:3", "keyword", "baked")
        ]
        assert results[0].doc.target_text == "ᎦᏚ ᎤᎾᏓᏛᏁᎢ"

    def test_zero_keyword_hits_equals_vector_topk(self, tiny_bundle, mock_embedder):
        config = RetrievalConfig(k_vector=3, k_total=8)
        query = "completely unrelated nonsense"
        results = retrieve(query, tiny_bundle, mock_embedder, config)
        raw = MockEmbedder(dim=8).embed_texts([query])[0]
        unit = (np.array(raw) / np.linalg.norm(raw)).tolist()
        expected = vector_topk(tiny_bundle.vector, unit, config.k_vector)
        assert [(r.doc, r.score) for r in results] == [
            (tiny_bundle.docs[row], score) for row, score in expected
        ]
        assert all(r.provenance == "vector" and r.matched_phrase is None for r in results)

        stored = [(i, v.tolist()) for i, v in zip(tiny_bundle.vector.ids, tiny_bundle.vector.vectors)]
        oracle = oracle_topk(stored, unit, config.k_vector)
        assert [r.doc.id for r in results] == [doc_id for doc_id, _ in oracle]

    def test_fill_policy_merges_without_duplicates(self):
        embedder = _FixedQueryEmbedder([1.0, 0.0])
        results = retrieve(
            "water please",
            _square_setup(),
            embedder,
            RetrievalConfig(k_vector=2, k_total=8, policy="fill", max_phrase_len=1),
        )
        assert [(r.doc.id, r.provenance) for r in results] == [
            ("d:0", "keyword"),
            ("d:3", "vector"),
        ]
        assert results[0].score == 1.0
        assert results[1].score == pytest.approx(0.8, abs=1e-6)

    def test_fill_cuts_vector_hits_at_k_total(self):
        # Vector top-3 is d:0 (already a keyword hit), d:3, d:1; one slot is left.
        results = retrieve(
            "water fire",
            _square_setup({"water": [0], "fire": [2]}),
            _FixedQueryEmbedder([1.0, 0.0]),
            RetrievalConfig(k_vector=3, k_total=3, policy="fill", max_phrase_len=1),
        )
        assert [(r.doc.id, r.provenance, r.matched_phrase) for r in results] == [
            ("d:0", "keyword", "water"),
            ("d:2", "keyword", "fire"),
            ("d:3", "vector", None),
        ]

    def test_vector_tie_follows_document_position(self):
        # x:9 and x:10 have one vector; id-text order would put x:10 first.
        examples = [("example", f"word{i}", f"t{i}", None) for i in range(11)]
        docs = to_documents([], examples)
        rows = [[0.0, 1.0]] * 9 + [[1.0, 0.0]] * 2
        vec = VectorIndex(2, "fixed", [doc.id for doc in docs], np.array(rows, dtype=np.float32))
        kw = build_keyword_index(docs)
        bundle = IndexBundle(kw, vec, IndexManifest.create(kw, vec), docs)
        config = RetrievalConfig(k_vector=2, k_total=2)
        results = retrieve("nothing indexed", bundle, _FixedQueryEmbedder([1.0, 0.0]), config)
        assert [r.doc.id for r in results] == ["x:9", "x:10"]

    def test_strict_fallback_skips_vector_when_keywords_hit(self):
        embedder = _FixedQueryEmbedder([1.0, 0.0])
        results = retrieve(
            "water please",
            _square_setup(),
            embedder,
            RetrievalConfig(k_vector=2, k_total=8, max_phrase_len=1),
        )
        assert embedder.calls == 0
        assert [r.provenance for r in results] == ["keyword"]

    def test_k_total_caps_keyword_hits(self, tiny_bundle, mock_embedder):
        results = retrieve(
            "water sun fire dog",
            tiny_bundle,
            mock_embedder,
            RetrievalConfig(k_vector=1, k_total=2, max_phrase_len=1),
        )
        assert len(results) == 2
        assert [r.doc.id for r in results] == ["d:0", "x:2"]

    def test_one_phrase_hits_come_in_document_order(self):
        # x:2 before x:10, not in id-text order (x:10 before x:2)
        examples = [("example", f"the word {i}", f"t{i}", None) for i in range(12)]
        docs = to_documents([], examples)
        kw = build_keyword_index(docs)
        vec = build_vector_index(docs, MockEmbedder(dim=8))
        bundle = IndexBundle(kw, vec, IndexManifest.create(kw, vec), docs)
        config = RetrievalConfig(k_vector=1, k_total=12, max_phrase_len=1)
        embedder = MockEmbedder(dim=8)
        results = retrieve("the", bundle, embedder, config)
        assert [r.doc.id for r in results] == [f"x:{i}" for i in range(12)]
        assert embedder.calls == 0

    def test_embedder_failure_only_reachable_in_fallback(self, tiny_bundle):
        embedder = _FailingEmbedder()
        results = retrieve("water", tiny_bundle, embedder, RetrievalConfig(max_phrase_len=1))
        assert results  # keyword path answered, no embedding attempted
        with pytest.raises(BackendError):
            retrieve("zxqj", tiny_bundle, embedder, RetrievalConfig(max_phrase_len=1))

    def test_bundle_rejects_keyword_id_without_document(self):
        # Retrieval reads docs[position] unguarded: a bundle cannot hold a
        # keyword posting that is not a document's position (docs[-1] would
        # silently return the last one).
        for bad in (9, 4, -1):
            with pytest.raises(IndexFormatError, match=f"'rain' lists {bad}, not the position"):
                _square_setup({"water": [0], "rain": [bad]})

    def test_deterministic(self, tiny_bundle, mock_embedder):
        config = RetrievalConfig()
        args = ("the sun and the sea", tiny_bundle, mock_embedder, config)
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
        from lexrag.index import build_keyword_index, build_vector_index

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
    results = retrieve(query, bundle, MockEmbedder(dim=8), config)
    ids = [r.doc.id for r in results]
    assert len(ids) == len(set(ids))
    assert len(ids) <= config.k_total


GOLDEN_KEYWORD_PHASE = Path(__file__).parent / "data" / "golden_keyword_phase.json"
# Each query turns on one part of keyword normalization: case, punctuation,
# whitespace other than a space, compatibility and special case folds (ﬁ, ſ,
# ß, İ), the canonical order of combining marks, NFD input and Cherokee case.
NORMALIZATION_QUERIES = [
    "WATER",
    "\u00abWater\u00bb,",
    "  Mountain \t LION  ",
    "mountain\u00a0lion\u2003hunts",
    "\u3000the\nman\r\nsaw",
    "\ufb01re and \u017fun",
    "Stra\u00dfe is good",
    "\u0130 saw the dog",
    "a\u0345\u0301 water",
    "\u0390 dog",
    "wa\u0301ter wa\u0301ter",
    "bre\u0301ad Bread",
    "\u13a0\u13b9 \uab70\uab89 water",
    "Mountain-Lion?",
    "...",
    "'dog' 'DOG' dog.",
]


def keyword_phase_golden() -> list:
    """``retrieve`` on the tiny bundle for the batch input and the
    normalization queries, as (doc_id, provenance, matched_phrase, score)."""
    bundle = _shared_bundle()
    batch = (Path(__file__).parent / "data" / "batch_input.txt").read_text(encoding="utf-8")
    golden = []
    for query in batch.splitlines() + NORMALIZATION_QUERIES:
        results = retrieve(query, bundle, MockEmbedder(dim=8))
        golden.append(
            {
                "query": query,
                "results": [
                    [r.doc.id, r.provenance, r.matched_phrase, r.score] for r in results
                ],
            }
        )
    return golden


def test_keyword_phase_equals_golden():
    golden = json.loads(GOLDEN_KEYWORD_PHASE.read_text(encoding="utf-8"))
    assert keyword_phase_golden() == golden
