from __future__ import annotations

import hashlib
import json
import os
import shutil
import string
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import unicodedata
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lexrag
from lexrag.backends import MockEmbedder
from lexrag import corpus
from lexrag import index as index_module
from lexrag.corpus import Document, IngestError, save_documents, to_documents
from lexrag.index import (
    DOCS_FILE,
    FORMAT_VERSION,
    KEYWORD_FILE,
    MANIFEST_FILE,
    SCORE_BLOCK_ROWS,
    VECTORS_FILE,
    VECTORS_HEADER,
    EmbeddingCache,
    IndexBuildError,
    IndexBundle,
    IndexFormatError,
    IndexManifest,
    KeywordIndex,
    VectorIndex,
    build_keyword_index,
    build_vector_index,
    cache_key,
    embed_chunks,
    keyword_lookup,
    load_index,
    normalize_keyword,
    save_index,
    screen_rows,
    vector_topk,
)
from lexrag.retrieval import RetrievalConfig, extract_query_terms, retrieve
from oracles import (
    oracle_keyword_lookup,
    oracle_normalize_keyword,
    oracle_pack_keyword,
    oracle_topk,
    oracle_unpack_keyword,
)

# Word characters, edge punctuation (the tsheg and shad are Po), combining
# marks, casefold expanders, Cherokee in both cases and str.split separators.
KEYWORD_ALPHABET = (
    string.ascii_letters
    + string.digits
    + "_-'\u00bf\u00ab\u0f0b\u0f0d\u0301\u0345\u0f72\u00df\u0390\ufb01"
    + "\u13a0\u13a1\u13f5\u13f8\u13fd\uab70\uabbf"
    + " \t\n\x1c\x85\xa0\u3000"
)


class TestNormalizeKeyword:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Water,", "water"),
            ("MOUNTAIN  Lion", "mountain lion"),
            ("ᎠᎹ", "ᎠᎹ"),
            ("  spaced   out  ", "spaced out"),
            ("'quoted'", "quoted"),
            ("...", ""),
            ("don't", "don't"),  # internal punctuation survives
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_keyword(raw) == expected

    def test_nfc_before_and_after_casefold(self):
        # without the first pass: "a\u03af"; without the second: "\u03b9\u0308\u0301"
        assert normalize_keyword("a\u0345\u0301") == "\u00e1\u03b9"
        assert normalize_keyword("\u0390") == "\u0390"

    @settings(max_examples=500)
    @given(st.text(KEYWORD_ALPHABET, max_size=30))
    def test_equals_the_punctuation_scan(self, text):
        assert normalize_keyword(text) == oracle_normalize_keyword(text)

    def test_no_punctuation_is_alphanumeric(self):
        # The premise that lets a word with alphanumeric ends skip the scan.
        chars = map(chr, range(sys.maxunicode + 1))
        assert [c for c in chars if c.isalnum() and unicodedata.category(c)[0] == "P"] == []

    @given(st.text(max_size=50))
    def test_idempotent(self, text):
        once = normalize_keyword(text)
        assert normalize_keyword(once) == once


class TestKeywordIndex:
    def test_single_headword(self):
        docs = to_documents([("dictionary", "water", "ᎠᎹ", None)], [])
        index = build_keyword_index(docs)
        assert index == {"water": [0]}

    def test_shared_headword_collects_both_ids(self):
        docs = to_documents(
            [("dictionary", "water", "ᎠᎹ", None), ("dictionary", "water", "water-2", None)], []
        )
        index = build_keyword_index(docs)
        assert index["water"] == [0, 1]

    def test_example_source_unigrams(self):
        docs = to_documents([], [("example", "he loved the world", "…", None)])
        index = build_keyword_index(docs)
        assert index == {
            "he": [0],
            "loved": [0],
            "the": [0],
            "world": [0],
        }

    def test_repeated_unigram_listed_once(self):
        examples = [("example", text, "…", None) for text in ("a b A", "b", "b a. b")]
        index = build_keyword_index(to_documents([], examples))
        assert index == {"a": [0, 2], "b": [0, 1, 2]}

    def test_max_phrase_len_tracks_longest_capped(self, tiny_docs):
        index = build_keyword_index(tiny_docs)
        vector = build_vector_index(tiny_docs, MockEmbedder(dim=8))
        assert IndexManifest.create(index, vector).max_phrase_len == 2  # "mountain lion"
        assert IndexManifest.create({"a b c d e": [0]}, vector).max_phrase_len == 4
        assert IndexManifest.create({}, vector).max_phrase_len == 1

    def test_lookup_normalizes(self):
        # the query is normalized once, into phrases that match the keys as they are
        index = KeywordIndex.pack({"water": [0]}, 1)
        assert [keyword_lookup(index, p) for p in extract_query_terms("Water", 4)] == [[0]]

    def test_lookup_miss(self):
        index = KeywordIndex.pack({"water": [0]}, 1)
        assert keyword_lookup(index, "earth") == []

    def test_lookup_multiword(self, tiny_docs):
        index = KeywordIndex.pack(build_keyword_index(tiny_docs), len(tiny_docs))
        phrases = extract_query_terms("Mountain Lion", 2)
        assert phrases[0] == "mountain lion"
        assert [tiny_docs[i].id for i in keyword_lookup(index, phrases[0])] == ["d:8"]

    def test_lookup_returns_a_fresh_list(self, tiny_bundle):
        index = tiny_bundle.keyword
        first = keyword_lookup(index, "water")
        expected = list(first)
        first.append(99)
        first[0] = -1
        assert expected and keyword_lookup(index, "water") == expected
        assert keyword_lookup(index, "water") is not keyword_lookup(index, "water")
        keyword_lookup(index, "zorp").append(0)
        assert keyword_lookup(index, "zorp") == []

    def test_every_headword_reachable(self, tiny_docs):
        index = KeywordIndex.pack(build_keyword_index(tiny_docs), len(tiny_docs))
        for position, doc in enumerate(tiny_docs):
            if doc.kind == "dictionary":
                assert position in keyword_lookup(index, doc.source_text)


class _DriftingEmbedder:
    """Returns dim 8 for the first batch, dim 16 afterwards."""

    embedder_id = "drifting"

    def __init__(self):
        self.batches = 0

    def embed_texts(self, texts):
        self.batches += 1
        dim = 8 if self.batches == 1 else 16
        return [[1.0] + [0.0] * (dim - 1) for _ in texts]


class _PoisonEmbedder(MockEmbedder):
    """The mock embedder, but from request ``good_batches + 1`` onwards the
    first vector of each request is filled with ``value``."""

    def __init__(self, value, good_batches):
        super().__init__(dim=8)
        self.value = value
        self.good_batches = good_batches

    def embed_texts(self, texts):
        vectors = super().embed_texts(texts)
        if self.calls > self.good_batches:
            vectors[0] = [self.value] * 8
        return vectors


class _ZeroEmbedder:
    embedder_id = "zero"

    def embed_texts(self, texts):
        return [[0.0] * 8 for _ in texts]


class _ScaledEmbedder:
    """A fixed vector per text, drawn from the text's SHA-256, of any length
    and spread over many magnitudes, as raw lists like an HTTP reply's."""

    def __init__(self, dim):
        self.dim = dim
        self.embedder_id = f"scaled-{dim}"
        self.sent = []

    def vector(self, text):
        rng = np.random.default_rng(list(hashlib.sha256(text.encode()).digest()))
        return (rng.standard_normal(self.dim) * 10.0 ** rng.uniform(-30, 30)).tolist()

    def embed_texts(self, texts):
        self.sent.extend(texts)
        return [self.vector(text) for text in texts]


def _examples(sources):
    return to_documents([], [("example", source, "t", None) for source in sources])


class TestBuildVectorIndex:
    def test_single_doc_unit_norm(self):
        docs = to_documents([("dictionary", "water", "ᎠᎹ", None)], [])
        index = build_vector_index(docs, MockEmbedder(dim=8))
        assert index.count == 1
        assert abs(np.linalg.norm(index.vectors[0]) - 1.0) < 1e-4

    def test_cache_skips_backend_on_rebuild(self, tiny_docs, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache" / "embeddings.jsonl")
        first = MockEmbedder(dim=8)
        a = build_vector_index(tiny_docs, first, cache=cache)
        assert first.calls > 0

        reloaded = EmbeddingCache(tmp_path / "cache" / "embeddings.jsonl")
        second = MockEmbedder(dim=8)
        b = build_vector_index(tiny_docs, second, cache=reloaded)
        assert second.calls == 0
        assert reloaded.hits == len(tiny_docs)
        assert np.array_equal(a.vectors, b.vectors)

    def test_dimension_drift_is_an_error(self, tiny_docs, monkeypatch):
        monkeypatch.setattr("lexrag.index.EMBED_BATCH_SIZE", 2)
        with pytest.raises(IndexBuildError, match="dimension drifted"):
            build_vector_index(tiny_docs, _DriftingEmbedder())

    def test_zero_vector_is_an_error(self, tiny_docs):
        with pytest.raises(IndexBuildError, match="zero vector"):
            build_vector_index(tiny_docs, _ZeroEmbedder())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vector_is_an_error(self, tiny_docs, value):
        embedder = _PoisonEmbedder(value, good_batches=0)
        with pytest.raises(IndexBuildError, match="non-finite vector for 'water — ᎠᎹ'"):
            build_vector_index(tiny_docs, embedder)

    def test_overflowing_vector_is_an_error_without_a_warning(self):
        # Finite values whose squares overflow the norm.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndexBuildError, match="non-finite vector for 'a'"):
                list(embed_chunks(lambda texts: [[1e200] * 8 for _ in texts], ["a"]))

    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_bad_vector_is_not_cached(self, tiny_docs, tmp_path, value, monkeypatch):
        monkeypatch.setattr("lexrag.index.EMBED_BATCH_SIZE", 2)
        path = tmp_path / "cache" / "embeddings.jsonl"
        with pytest.raises(IndexBuildError, match="vector for 'fire — ᎠᏥᎳ'"):
            build_vector_index(
                tiny_docs,
                _PoisonEmbedder(value, good_batches=1),
                cache=EmbeddingCache(path),
            )
        assert len(path.read_text().splitlines()) == 2  # the first request's, paid for and good
        cache = EmbeddingCache(path)
        index = build_vector_index(tiny_docs, MockEmbedder(dim=8), cache=cache)
        assert cache.hits == 2
        assert index.count == len(tiny_docs)

    def test_identical_render_texts_embedded_once(self, tmp_path):
        same = ("example", "he loved", "ᎤᎨᏳᎯ", None)
        docs = to_documents([], [same, ("example", "she sang", "…", None), same])
        sent = []

        class Recording(MockEmbedder):
            def embed_texts(self, texts):
                sent.extend(texts)
                return super().embed_texts(texts)

        cache = EmbeddingCache(tmp_path / "embeddings.jsonl")
        index = build_vector_index(docs, Recording(dim=8), cache=cache)
        assert sent == [docs[0].render_text, docs[1].render_text]
        assert (cache.hits, cache.misses) == (0, 2)  # the repeat is not looked up again
        assert index.vectors[0].tobytes() == index.vectors[2].tobytes()

    def test_row_order_follows_doc_order(self, tiny_docs):
        index = build_vector_index(tiny_docs, MockEmbedder(dim=8))
        assert index.ids == [doc.id for doc in tiny_docs]

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.one_of(st.integers(1, 70), st.sampled_from([383, 384, 1535, 1536])),
        distinct=st.builds(
            lambda chunks, offset: max(1, 32 * chunks + offset),
            st.integers(0, 3),
            st.integers(-2, 2),
        ),
        data=st.data(),
    )
    def test_matrix_equals_whole_float64_normalization(self, dim, distinct, data):
        # The float64 matrix of every document's vector, normalized at once
        # and then cast, is what the build wrote before it went chunk by chunk.
        sources = [f"s{i}" for i in range(distinct)]
        picks = data.draw(st.lists(st.integers(0, distinct - 1), max_size=distinct // 2))
        docs = _examples(sources + [sources[i] for i in picks])
        texts = [doc.render_text for doc in docs]
        warm = data.draw(st.sets(st.sampled_from(texts[:distinct])))
        embedder = _ScaledEmbedder(dim)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "embeddings.jsonl"
            if warm:
                EmbeddingCache(path).put(
                    embedder.embedder_id, sorted(warm), [embedder.vector(t) for t in sorted(warm)]
                )
            cache = EmbeddingCache(path)
            index = build_vector_index(docs, embedder, cache=cache)
            assert len(path.read_text(encoding="utf-8").splitlines()) == distinct
        matrix = np.asarray([embedder.vector(text) for text in texts], dtype=np.float64)
        expected = (matrix / np.linalg.norm(matrix, axis=1)[:, None]).astype(np.float32)
        assert index.vectors.tobytes() == expected.tobytes()
        assert embedder.sent == [text for text in texts[:distinct] if text not in warm]
        assert (cache.hits, cache.misses) == (len(warm), distinct - len(warm))

    def test_peak_memory_is_about_the_float32_matrix(self):
        # 2,000 texts at the dimension of text-embedding-ada-002: the build
        # holds the float32 matrix and one chunk of replies, where a list of
        # Python floats per vector and float64 copies took 13 times the matrix.
        embedder = _ScaledEmbedder(1536)
        docs = _examples([f"s{i}" for i in range(2000)])
        tracemalloc.start()
        try:
            index = build_vector_index(docs, embedder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * index.vectors.nbytes + 4 * 2**20

    def test_dimension_conflict_stops_at_its_chunk_and_keeps_replies(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("lexrag.index.EMBED_BATCH_SIZE", 2)
        docs = _examples([f"s{i}" for i in range(7)])
        texts = [doc.render_text for doc in docs]
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put("scaled-16", texts[:1], [[1.0] * 8])  # a stale dim-8 entry
        embedder = _ScaledEmbedder(16)
        with pytest.raises(IndexBuildError, match=r"inconsistent embedding dimensions: \[8, 16\]"):
            build_vector_index(docs, embedder, cache=EmbeddingCache(path))
        assert embedder.sent == texts[1:3]  # the first reply, not all three requests
        reloaded = EmbeddingCache(path)
        cached = {text: len(v) for text in texts if (v := reloaded.get("scaled-16", text))}
        assert cached == {texts[0]: 8, texts[1]: 16, texts[2]: 16}


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _index_from_rows(rows, embedder_id="test"):
    ids = [doc_id for doc_id, _ in rows]
    matrix = np.stack([_unit(vec) for _, vec in rows]).astype(np.float32)
    return VectorIndex(dim=matrix.shape[1], embedder_id=embedder_id, ids=ids, vectors=matrix)


THREE_ROWS = [
    ("d1", [1.0, 0.0]),
    ("d2", [0.0, 1.0]),
    ("d3", [0.70710678, 0.70710678]),
]


def _ids(index, ranked):
    return [index.ids[row] for row, _ in ranked]


class TestVectorTopK:
    def test_self_similarity_first(self):
        index = _index_from_rows(THREE_ROWS)
        top = vector_topk(index, [0.0, 1.0], 1)
        assert _ids(index, top) == ["d2"]
        assert top[0][1] >= 1.0 - 1e-6

    def test_hand_case(self):
        index = _index_from_rows(THREE_ROWS)
        result = vector_topk(index, [1.0, 0.0], 2)
        assert result[0][0] == 0 and _ids(index, result) == ["d1", "d3"]
        assert result[0][1] == pytest.approx(1.0, abs=1e-6)
        assert result[1][1] == pytest.approx(0.70710678, abs=1e-6)

    def test_k_larger_than_count(self):
        index = _index_from_rows(THREE_ROWS)
        result = vector_topk(index, [1.0, 0.0], 10)
        assert [row for row, _ in result] == [0, 2, 1]

    def test_k_zero(self):
        index = _index_from_rows(THREE_ROWS)
        assert vector_topk(index, [1.0, 0.0], 0) == []

    def test_dim_mismatch(self):
        index = _index_from_rows(THREE_ROWS)
        with pytest.raises(ValueError, match="dim"):
            vector_topk(index, [1.0, 0.0, 0.0], 1)

    def test_non_unit_query_rejected(self):
        index = _index_from_rows(THREE_ROWS)
        with pytest.raises(ValueError, match="unit"):
            vector_topk(index, [2.0, 0.0], 1)

    def test_overflowing_query_rejected_without_a_warning(self):
        index = _index_from_rows(THREE_ROWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would be an extra stderr line
            with pytest.raises(ValueError, match="query vector norm inf is not unit length"):
                vector_topk(index, [1e200, 1e200], 1)

    @pytest.mark.parametrize("queries", [[1.0, 0.0], []], ids=["flat-query", "empty"])
    def test_screen_refuses_what_is_not_a_batch(self, queries):
        index = _index_from_rows(THREE_ROWS)
        with pytest.raises(ValueError, match="must be a non-empty 2-D batch of vectors"):
            screen_rows(index, queries, 1)

    def test_screen_refuses_a_non_unit_query_of_a_batch(self):
        index = _index_from_rows(THREE_ROWS)
        with pytest.raises(ValueError, match="norm 2.000000 is not unit length"):
            screen_rows(index, [[1.0, 0.0], [2.0, 0.0]], 1)

    def test_tie_broken_by_ascending_row(self):
        # Rows 9 and 10 tie; their ids sort "x:10" first, their rows 9 first.
        rows = [(f"x:{i}", [0.0, 1.0] if i < 9 else [1.0, 0.0]) for i in range(11)]
        index = _index_from_rows(rows)
        ranked = vector_topk(index, [1.0, 0.0], 2)
        assert [row for row, _ in ranked] == [9, 10]
        assert ranked[0][1] == ranked[1][1]

    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_brute_force_oracle(self, dim):
        rng = np.random.default_rng(20240921 + dim)
        matrix = rng.standard_normal((200, dim))
        rows = [(f"doc:{i:04d}", _unit(vec).tolist()) for i, vec in enumerate(matrix)]
        index = _index_from_rows(rows)
        stored_rows = [(doc_id, index.vectors[i].tolist()) for i, (doc_id, _) in enumerate(rows)]
        for qi in range(5):
            query = _unit(rng.standard_normal(dim)).tolist()
            for k in (1, 5, 50):
                got = vector_topk(index, query, k)
                want = oracle_topk(stored_rows, query, k)
                assert _ids(index, got) == [w[0] for w in want]
                assert np.allclose([g[1] for g in got], [w[1] for w in want], atol=1e-6)


def _full_sort_topk(index, query_vec, k):
    """The pre-partition implementation: sort every row by (-score, row)."""
    scores = index.vectors.astype(np.float64) @ np.asarray(query_vec, dtype=np.float64)
    ranked = sorted(enumerate(scores.tolist()), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


_small_ints = st.integers(min_value=-2, max_value=2)


@st.composite
def _tied_index_and_query(draw):
    """Few distinct quantised rows, each duplicated, so many scores tie,
    including at the k-th boundary; shuffled ids, which must not matter."""
    dim = draw(st.integers(min_value=2, max_value=4))
    nonzero = st.lists(_small_ints, min_size=dim, max_size=dim).filter(any)
    base = draw(st.lists(nonzero, min_size=1, max_size=5))
    rows = [row for row in base for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    ids = draw(st.permutations([f"r{i:02d}" for i in range(len(rows))]))
    index = _index_from_rows(list(zip(ids, rows)))
    query = _unit(draw(nonzero)).tolist()
    count = index.count
    k = draw(st.sampled_from(sorted({0, 1, max(count - 1, 0), count, count + 3})))
    return index, query, k


# OpenBLAS splits a product of more than about 460,000 elements across
# threads, at rows that need not be a multiple of 8, which changes the low
# bits of some rows of the full product that _full_sort_topk computes.  At
# dims 2 and 64 the products here stay far below that; dim 1536 runs when
# BLAS is pinned to one thread, as in the benchmark and in a CI step.
_ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


@st.composite
def _near_tie_index_and_query(draw):
    """Three or more score blocks plus a partial tail (a count that is not a
    multiple of 8).  Every background row scores at most 0.5; planted across
    the blocks are rows scoring 0.9 in real numbers, whose float32 rounding
    leaves float64 scores closer together than float32 resolution, so the
    float32 screen orders them differently from the float64 scores, and
    exact copies of one of them, which tie."""
    dim = draw(st.sampled_from([2, 64, 1536] if _ONE_BLAS_THREAD else [2, 64]))
    count = draw(
        st.integers(3 * SCORE_BLOCK_ROWS + 1, 4 * SCORE_BLOCK_ROWS - 1).filter(lambda n: n % 8)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = _unit(rng.standard_normal(dim))
    matrix = rng.standard_normal((count, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix[matrix @ query > 0.5] *= -1
    near_ties, copies = draw(st.integers(2, 12)), draw(st.integers(0, 3))
    across = rng.standard_normal((near_ties, dim))
    across -= np.outer(across @ query, query)
    across /= np.linalg.norm(across, axis=1, keepdims=True)
    planted = rng.choice(count, size=near_ties + copies, replace=False)
    matrix[planted[:near_ties]] = 0.9 * query + np.sqrt(1 - 0.9**2) * across
    matrix[planted[near_ties:]] = matrix[planted[0]]
    ids = [f"r{i:04d}" for i in rng.permutation(count)]
    index = VectorIndex(dim=dim, embedder_id="test", ids=ids, vectors=matrix.astype(np.float32))
    k = draw(st.sampled_from([1, 5, count - 1, count, count + 3]))
    return index, query.tolist(), k


@st.composite
def _near_tie_index_and_batch(draw):
    """The index of ``_near_tie_index_and_query`` with a batch of 1 to 40
    unit queries, each its planted query (whose near-ties it meets, so
    likely more than once), another random query or a stored row, and
    distinct values of k from 0 to count + 3."""
    index, query, _ = draw(_near_tie_index_and_query())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["planted", "random", "row"]), min_size=1, max_size=40))
    batch = [
        query if kind == "planted"
        else _unit(rng.standard_normal(index.dim)).tolist() if kind == "random"
        else _unit(index.vectors[rng.integers(index.count)]).tolist()
        for kind in kinds
    ]
    count = index.count
    ks = st.sampled_from([0, 1, 5, count - 1, count, count + 3])
    return index, batch, draw(st.lists(ks, min_size=1, max_size=3, unique=True))


class TestPartitionTopK:
    @settings(max_examples=40, deadline=None)
    @given(_near_tie_index_and_batch())
    def test_batch_screen_equals_full_sort_of_each_query(self, case):
        index, batch, ks = case
        for k in ks:
            screened = screen_rows(index, batch, k)
            got = [vector_topk(index, q, k, rows) for q, rows in zip(batch, screened)]
            assert got == [_full_sort_topk(index, q, k) for q in batch]

    @settings(max_examples=300, deadline=None)
    @given(_tied_index_and_query())
    def test_equals_full_sort_under_ties(self, case):
        index, query, k = case
        assert vector_topk(index, query, k) == _full_sort_topk(index, query, k)

    @pytest.mark.parametrize("k", [1, 5, 199, 200, 203])
    def test_equals_full_sort_on_random_rows(self, k):
        rng = np.random.default_rng(7)
        rows = [(f"doc:{i:04d}", vec) for i, vec in enumerate(rng.standard_normal((200, 16)))]
        index = _index_from_rows(rows)
        for _ in range(5):
            query = _unit(rng.standard_normal(16)).tolist()
            assert vector_topk(index, query, k) == _full_sort_topk(index, query, k)

    @settings(max_examples=60, deadline=None)
    @given(_near_tie_index_and_query())
    def test_equals_full_sort_across_blocks(self, case):
        index, query, k = case
        assert vector_topk(index, query, k) == _full_sort_topk(index, query, k)

    def test_tied_run_straddling_a_block_boundary(self):
        # the two best rows are in the last block; rows 254..261 tie for third
        # place, and the four that rank lie on both sides of the block
        # boundary at row 256
        count, tied = 2 * SCORE_BLOCK_ROWS + 3, range(SCORE_BLOCK_ROWS - 2, SCORE_BLOCK_ROWS + 6)
        rows = [(f"x{i:04d}", [-1.0, 1.0 + i % 7]) for i in range(count)]
        rows[-3:-1] = [("a", [1.0, 0.0]), ("b", [1.0, 0.1])]
        for row in tied:
            rows[row] = (f"t{row}", [1.0, 1.0])
        index = _index_from_rows(rows)
        got = vector_topk(index, [1.0, 0.0], 6)
        assert [row for row, _ in got] == [count - 3, count - 2, *tied[:4]]
        assert got == _full_sort_topk(index, [1.0, 0.0], 6)

    def test_boundary_ties_all_considered(self):
        # five identical rows tie for second place; only the lowest rows survive
        rows = [(f"t{i}", [1.0, 1.0]) for i in range(5)] + [("z", [1.0, 0.0])]
        index = _index_from_rows(rows)
        got = vector_topk(index, [1.0, 0.0], 3)
        assert [row for row, _ in got] == [5, 0, 1]
        assert got == _full_sort_topk(index, [1.0, 0.0], 3)

    @pytest.mark.parametrize("count", [2, 9, 17, SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 1])
    def test_lone_last_row_is_scored_with_the_group_before_it(self, count):
        # count % 8 == 1 or count == 2: the best row is the last one, alone in its 8-row group
        rng = np.random.default_rng(count)
        rows = [(f"r{i}", _unit(rng.standard_normal(16)).tolist()) for i in range(count)]
        query = rows[-1][1]
        index = _index_from_rows(rows)
        (screened,) = screen_rows(index, [query], 1)
        assert screened.size >= 2 and screened[-1] == count - 1
        for k in (1, 3):
            assert vector_topk(index, query, k) == _full_sort_topk(index, query, k)

    def test_nan_query_rejected(self):
        index = _index_from_rows(THREE_ROWS)
        with pytest.raises(ValueError, match="unit"):
            vector_topk(index, [float("nan"), 0.0], 1)


# Runs vector_topk on seeded matrices whose full product OpenBLAS splits
# across threads (above about 460,000 elements), with duplicate rows that
# tie; prints one SHA-256 over the rows and float.hex scores of each query's
# ranking, screened on its own and as one batch of all three queries.  With
# one row more than a multiple of 16, two threads split a product of all rows
# off an 8-row boundary, which changes the bits of some of its rows; score
# blocks of 4,096 rows fail this test.
_TOPK_SIZES = ((3000, 1536), (9000, 384), (20000, 64), (3001, 1536), (9001, 384), (20001, 64))
_TOPK_SCRIPT = """
import hashlib, json, sys
import numpy as np
from lexrag.index import VectorIndex, screen_rows, vector_topk
digests = []
for count, dim in json.loads(sys.argv[1]):
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((count, dim))
    rows[count // 2 : count // 2 + 8] = rows[:8]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ids = [f"d:{i}" for i in rng.permutation(count)]
    index = VectorIndex(dim, "e", ids, rows.astype(np.float32))
    queries = rng.standard_normal((3, dim))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    for k in (5, count + 1):
        rankings = [vector_topk(index, query, k) for query in queries]
        for query, rows in zip(queries, screen_rows(index, queries, k)):
            rankings.append(vector_topk(index, query, k, rows))
        for ranking in rankings:
            ranked = [(row, score.hex()) for row, score in ranking]
            digests.append(hashlib.sha256(json.dumps(ranked).encode()).hexdigest())
json.dump(digests, sys.stdout)
"""


def _topk_digests(blas_threads: int) -> list[str]:
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.path.dirname(os.path.dirname(lexrag.__file__)),
    }
    done = subprocess.run(
        [sys.executable, "-c", _TOPK_SCRIPT, json.dumps(_TOPK_SIZES)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_topk_bits_do_not_depend_on_blas_threads():
    """Each float64 score block stays below OpenBLAS's split point, so top-K
    ids and score bits are the same on one BLAS thread and on two."""
    one = _topk_digests(1)
    assert len(one) == 12 * len(_TOPK_SIZES)
    for singles in range(0, len(one), 6):  # the batch repeats each query's own ranking
        assert one[singles + 3 : singles + 6] == one[singles : singles + 3]
    assert _topk_digests(2) == one


class TestPersistence:
    def _build(self, tiny_docs):
        keyword = build_keyword_index(tiny_docs)
        vector = build_vector_index(tiny_docs, MockEmbedder(dim=8))
        manifest = IndexManifest.create(keyword, vector)
        return keyword, vector, manifest

    def test_round_trip_field_equal(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        bundle = load_index(tmp_path)
        assert bundle.keyword == keyword
        assert bundle.manifest == manifest
        assert bundle.docs == list(tiny_docs)
        assert bundle.vector.ids == vector.ids
        assert bundle.vector.dim == vector.dim
        assert bundle.vector.embedder_id == vector.embedder_id
        assert np.array_equal(bundle.vector.vectors, vector.vectors)

    def test_vector_payload_bit_exact(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        # save -> load -> save must reproduce vectors.bin byte for byte
        first = tmp_path / "one"
        second = tmp_path / "two"
        save_index(keyword, vector, manifest, tiny_docs, first)
        bundle = load_index(first)
        save_index(bundle.keyword, bundle.vector, bundle.manifest, bundle.docs, second)
        assert (first / "vectors.bin").read_bytes() == (second / "vectors.bin").read_bytes()

    def test_corrupt_magic(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        payload = bytearray((tmp_path / "vectors.bin").read_bytes())
        payload[:4] = b"XXXX"
        (tmp_path / "vectors.bin").write_bytes(bytes(payload))
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(tmp_path)

    def test_unsupported_version(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        payload = bytearray((tmp_path / "vectors.bin").read_bytes())
        payload[4:8] = (99).to_bytes(4, "little")
        (tmp_path / "vectors.bin").write_bytes(bytes(payload))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(tmp_path)

    def test_truncated_payload(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        payload = (tmp_path / "vectors.bin").read_bytes()
        (tmp_path / "vectors.bin").write_bytes(payload[:-7])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(tmp_path)

    def test_manifest_count_mismatch(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        text = manifest_path.read_text(encoding="utf-8").replace(
            f'"count": {vector.count}', f'"count": {vector.count + 1}'
        )
        manifest_path.write_text(text, encoding="utf-8")
        with pytest.raises(IndexFormatError, match="count"):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "name, value, expected",
        [
            ("count", 13.9, "an integer, got 13.9"),
            ("count", "13", 'an integer, got "13"'),
            ("embedder_id", None, "a string, got null"),
            ("embedder_id", 7, "a string, got 7"),
            ("version", "4", 'an integer, got "4"'),
            ("max_phrase_len", 2.5, "an integer, got 2.5"),
            ("max_phrase_len", True, "an integer, got true"),
        ],
    )
    def test_manifest_value_of_wrong_type_rejected(self, name, value, expected, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        path = tmp_path / MANIFEST_FILE
        path.write_text(json.dumps({**json.loads(path.read_text()), name: value}), encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path)
        assert str(info.value) == f"{path}: malformed manifest: field {name!r} must be {expected}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: {**m, "shards": 2}, "unknown key 'shards'"),
            (lambda m: {k: v for k, v in m.items() if k != "version"}, "missing field 'version'"),
            (lambda m: [m], "must be a JSON object"),
        ],
        ids=["unknown", "missing", "array"],
    )
    def test_manifest_keys_must_be_its_fields(self, edit, message, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        path = tmp_path / MANIFEST_FILE
        path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path)
        assert str(info.value) == f"{path}: malformed manifest: {message}"

    def test_manifest_max_phrase_len_below_one_rejected(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        save_index(keyword, vector, replace(manifest, max_phrase_len=0), tiny_docs, tmp_path)
        with pytest.raises(IndexFormatError, match="'max_phrase_len' must be at least 1, got 0"):
            load_index(tmp_path)

    def test_unknown_doc_id_rejected(self, tiny_docs, tmp_path):
        keyword, vector, manifest = self._build(tiny_docs)
        ghost = {**keyword, "ghost": [999]}
        with pytest.raises(IndexFormatError, match="'ghost' lists 999, not the position"):
            save_index(ghost, vector, manifest, tiny_docs, tmp_path / "refused")
        assert not (tmp_path / "refused").exists()

        save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        (tmp_path / KEYWORD_FILE).write_text(oracle_pack_keyword(ghost), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="'ghost' lists 999, not the position"):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "break_parts,message",
        [
            (lambda k, v, m, d: (k, v, replace(m, count=m.count + 1), d), "does not match"),
            (lambda k, v, m, d: (k, v, replace(m, dim=m.dim + 1), d), "does not match"),
            (lambda k, v, m, d: (k, v, replace(m, embedder_id="other"), d), "does not match"),
            (lambda k, v, m, d: (k, v, m, d[::-1]), "do not follow the documents in order"),
            (
                lambda k, v, m, d: ({**k, "ghost": [999]}, v, m, d),
                f"{KEYWORD_FILE}: phrase 'ghost' lists 999, not the position of one of the 14 ",
            ),
            (
                lambda k, v, m, d: ({**k, "ghost": [0, -1]}, v, m, d),
                "'ghost' lists -1, not the position",
            ),
            (
                lambda k, v, m, d: ({**k, "ghost": ["d:0"]}, v, m, d),
                "'ghost' lists 'd:0', not the position",
            ),
            (
                lambda k, v, m, d: ({**k, "ghost": [1.0]}, v, m, d),
                "'ghost' lists 1.0, not the position",
            ),
            (
                lambda k, v, m, d: ({**k, "ghost": [3, 2]}, v, m, d),
                f"{KEYWORD_FILE}: phrase 'ghost' lists 2 after 3, not in strictly ascending order",
            ),
            (
                lambda k, v, m, d: ({**k, "ghost": [0, 2, 2]}, v, m, d),
                "'ghost' lists 2 after 2, not in strictly ascending order",
            ),
        ],
        ids=[
            "count", "dim", "embedder_id", "id_order", "dangling_id", "negative", "id_string",
            "float", "descending", "repeated",
        ],
    )
    def test_bundle_checks_each_invariant(self, tiny_docs, tmp_path, break_parts, message):
        keyword, vector, manifest, docs = break_parts(*self._build(tiny_docs), list(tiny_docs))
        with pytest.raises(IndexFormatError, match=message):
            IndexBundle(keyword, vector, manifest, docs)
        with pytest.raises(IndexFormatError, match=message):
            save_index(keyword, vector, manifest, docs, tmp_path / "index")
        assert not (tmp_path / "index").exists()


@settings(max_examples=30)
@given(
    st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
def test_headword_lookup_property(headwords):
    entries = [("dictionary", h, f"t-{h}", None) for h in headwords]
    docs = to_documents(entries, [])
    index = KeywordIndex.pack(build_keyword_index(docs), len(docs))
    for position, doc in enumerate(docs):
        assert position in keyword_lookup(index, doc.source_text)


class TestEmbeddingCacheTornTail:
    """A crash during an append may cut the cache's last line short."""

    def _cache_file(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", ["one", "two"], [[1.0, 0.0], [0.0, 1.0]])
        return path

    def test_torn_last_line_dropped_and_cut_from_file(self, tmp_path, caplog):
        path = self._cache_file(tmp_path)
        complete = path.read_bytes()
        path.write_bytes(complete + complete.splitlines(keepends=True)[0][:17])
        with caplog.at_level("WARNING", logger="lexrag.index"):
            cache = EmbeddingCache(path)
        assert cache.get("e", "one") == [1.0, 0.0]
        assert cache.get("e", "two") == [0.0, 1.0]
        assert f"{path}:3: dropping torn last cache line" in caplog.text
        assert path.read_bytes() == complete

    def test_put_after_torn_tail_reloads(self, tmp_path):
        path = self._cache_file(tmp_path)
        path.write_bytes(path.read_bytes() + b'{"key": "abc", "dim": 2, "vec')
        EmbeddingCache(path).put("e", ["three"], [[0.6, 0.8]])
        reloaded = EmbeddingCache(path)
        assert reloaded.get("e", "one") == [1.0, 0.0]
        assert reloaded.get("e", "three") == [0.6, 0.8]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_whole_last_line_without_newline_kept(self, tmp_path):
        path = self._cache_file(tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        EmbeddingCache(path).put("e", ["three"], [[0.6, 0.8]])
        reloaded = EmbeddingCache(path)
        assert reloaded.get("e", "two") == [0.0, 1.0]
        assert reloaded.get("e", "three") == [0.6, 0.8]

    def test_bad_middle_line_still_rejected(self, tmp_path):
        path = self._cache_file(tmp_path)
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first[:17] + b"\n" + second)
        with pytest.raises(IndexFormatError, match=":1: bad cache entry"):
            EmbeddingCache(path)

    def test_bad_last_line_with_newline_still_rejected(self, tmp_path):
        path = self._cache_file(tmp_path)
        path.write_bytes(path.read_bytes() + b'{"key": "abc"}\n')
        with pytest.raises(IndexFormatError, match=":3: bad cache entry"):
            EmbeddingCache(path)


def test_cache_load_holds_the_entries_not_the_file(tmp_path):
    # Reading the file whole, then a copy of it and its list of lines, held
    # about five times what the loaded entries keep.
    path = tmp_path / "embeddings.jsonl"
    vectors = np.random.default_rng(0).standard_normal((2000, 64))
    EmbeddingCache(path).put("e", [f"text {i}" for i in range(2000)], vectors)
    tracemalloc.start()
    try:
        cache = EmbeddingCache(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.get("e", "text 1999") == vectors[1999].tolist()
    assert peak < 1.5 * kept


# Cache lines that are not entries, and what their error says.
BAD_CACHE_LINES = [
    pytest.param(
        '{"key": "abc", "dim": "2", "vector": ["0.5", true]}',
        "dim must be an integer",
        id="string-dim-string-and-bool-values",
    ),
    pytest.param('{"key": 7, "dim": 2.9, "vector": [1, 2]}', "key must be a string", id="int-key"),
    pytest.param(
        '{"key": "abc", "dim": 2.0, "vector": [1, 2]}', "dim must be an integer", id="float-dim"
    ),
    pytest.param('{"key": "abc", "dim": true, "vector": [1]}', "dim must be an integer", id="bool-dim"),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [0.5, true]}',
        "vector must be a list of numbers",
        id="bool-value",
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": ["0.5", 1]}',
        "vector must be a list of numbers",
        id="string-value",
    ),
    pytest.param(
        '{"key": "abc", "dim": 1, "vector": {"0": 1}}',
        "vector must be a list of numbers",
        id="object-vector",
    ),
    pytest.param(
        '{"key": "abc", "dim": 1, "vector": [1' + "0" * 400 + "]}",
        "int too large",
        id="int-too-large-for-float",
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [NaN, 0]}', "vector must be finite", id="nan-value"
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [1e999, 0]}', "vector must be finite", id="inf-value"
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [0, -0.0]}', "vector must not be zero", id="zero-vector"
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [1e-200, 0]}',
        "vector must not be zero",
        id="norm-underflows",
    ),
    pytest.param(
        '{"key": "abc", "dim": 2, "vector": [1e200, 1]}', "vector must be finite", id="norm-overflows"
    ),
]


class TestEmbeddingCacheEntries:
    """An entry's key is a string, its dim an integer and its vector a list
    of that many finite numbers; bool is not a number here."""

    @pytest.mark.parametrize("line, reason", BAD_CACHE_LINES)
    def test_wrong_type_is_bad_entry(self, line, reason, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(IndexFormatError, match=f":1: bad cache entry: .*{reason}"):
            EmbeddingCache(path)

    @pytest.mark.parametrize("line, reason", BAD_CACHE_LINES)
    def test_wrong_type_last_line_without_newline_dropped(self, line, reason, tmp_path, caplog):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put("e", ["one"], [[1.0, 0.0]])
        complete = path.read_bytes()
        path.write_bytes(complete + line.encode())
        with caplog.at_level("WARNING", logger="lexrag.index"):
            cache = EmbeddingCache(path)
        assert cache.get("e", "one") == [1.0, 0.0]
        assert f"{path}:2: dropping torn last cache line" in caplog.text
        assert path.read_bytes() == complete

    def test_non_utf8_line_is_bad_entry(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put("e", ["one"], [[1.0, 0.0]])
        path.write_bytes(path.read_bytes() + b'{"key": "\xff"}\n')
        with pytest.raises(IndexFormatError, match=":2: bad cache entry: 'utf-8' codec"):
            EmbeddingCache(path)

    def test_integer_values_served_as_floats(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        key = json.dumps(cache_key("e", "one"))
        path.write_text(f'{{"key": {key}, "dim": 2, "vector": [1, -0.5]}}\n', encoding="utf-8")
        vector = EmbeddingCache(path).get("e", "one")
        assert vector == [1.0, -0.5] and all(type(v) is float for v in vector)


def _saved_tiny_index(docs, out_dir):
    keyword = build_keyword_index(docs)
    vector = build_vector_index(docs, MockEmbedder(dim=8))
    manifest = IndexManifest.create(keyword, vector)
    save_index(keyword, vector, manifest, docs, out_dir)
    return load_index(out_dir)


def _assert_same_bundle(got, expected):
    assert got.keyword == expected.keyword
    assert got.manifest == expected.manifest
    assert got.docs == expected.docs
    assert got.vector.ids == expected.vector.ids
    assert got.vector.dim == expected.vector.dim
    assert got.vector.embedder_id == expected.vector.embedder_id
    assert np.array_equal(got.vector.vectors, expected.vector.vectors)


class TestFormatV2:
    """vectors.bin v2 holds only the float rows; the manifest commits a save."""

    def test_v1_manifest_rejected_with_rebuild_hint(self, tiny_docs, tmp_path):
        _saved_tiny_index(tiny_docs, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4):
            path.write_text(json.dumps({**manifest, "version": version}), encoding="utf-8")
            with pytest.raises(
                IndexFormatError, match=f"unsupported index version {version}.*index-build"
            ):
                load_index(tmp_path)

    def test_vector_ids_out_of_document_order_rejected(self, tiny_docs, tmp_path):
        keyword = build_keyword_index(tiny_docs)
        vector = build_vector_index(tiny_docs[::-1], MockEmbedder(dim=8))
        manifest = IndexManifest.create(keyword, vector)
        with pytest.raises(IndexFormatError, match="order"):
            save_index(keyword, vector, manifest, tiny_docs, tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_row_count_must_match_docs(self, tiny_docs, tmp_path):
        _saved_tiny_index(tiny_docs, tmp_path)
        docs_path = tmp_path / DOCS_FILE
        columns = json.loads(docs_path.read_text(encoding="utf-8"))
        count = columns.pop("dictionary_count")
        columns = {name: column[:-1] for name, column in columns.items()}
        docs_path.write_text(
            json.dumps({"dictionary_count": count, **columns}), encoding="utf-8"
        )
        with pytest.raises(IndexFormatError, match="rows for"):
            load_index(tmp_path)

    def test_trailing_bytes_rejected(self, tiny_docs, tmp_path):
        _saved_tiny_index(tiny_docs, tmp_path)
        path = tmp_path / "vectors.bin"
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(IndexFormatError, match="trailing bytes"):
            load_index(tmp_path)

    @pytest.mark.parametrize("step", ["save_documents", "_write_vectors"])
    def test_failed_save_over_index_does_not_load(self, step, tmp_path, monkeypatch):
        water = ("dictionary", "water", "ᎠᎹ", None)
        old = to_documents([water, ("dictionary", "sun", "ᏅᏓ", None)], [])
        new = to_documents([water, ("dictionary", "fire", "ᎠᏥᎳ", None)], [])
        _saved_tiny_index(old, tmp_path)

        def crash(*args):
            raise OSError("disk full")

        monkeypatch.setattr(f"lexrag.index.{step}", crash)
        with pytest.raises(OSError, match="disk full"):
            _saved_tiny_index(new, tmp_path)
        with pytest.raises(IndexFormatError, match="missing manifest.json"):
            load_index(tmp_path)

    def test_non_utf8_keyword_map_names_file(self, tiny_docs, tmp_path):
        _saved_tiny_index(tiny_docs, tmp_path)
        (tmp_path / "keyword_index.json").write_bytes(b"\xff")
        with pytest.raises(IndexFormatError, match="keyword_index.json"):
            load_index(tmp_path)


class TestFormatV3:
    """The docs file stores neither ids nor render texts (since v3; in v4 it is
    one object of four columns, in v6 the dictionary count and three columns);
    vectors must be finite."""

    def test_docs_lines_hold_four_keys_and_round_trip(self, tiny_docs, tmp_path):
        bundle = _saved_tiny_index(tiny_docs, tmp_path)
        columns = json.loads((tmp_path / DOCS_FILE).read_text(encoding="utf-8"))
        assert list(columns) == ["dictionary_count", "source_text", "target_text", "definition"]
        assert columns.pop("dictionary_count") == 10
        assert {len(column) for column in columns.values()} == {len(tiny_docs)}
        assert bundle.docs == tiny_docs
        assert [d.render_text for d in bundle.docs] == [d.render_text for d in tiny_docs]
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert manifest["version"] == FORMAT_VERSION == 7
        header = (tmp_path / VECTORS_FILE).read_bytes()[: VECTORS_HEADER.size]
        assert VECTORS_HEADER.unpack(header)[1] == 7

    def test_nan_row_in_vectors_bin_rejected(self, tmp_path):
        entries = [("dictionary", "water", "ᎠᎹ", None), ("dictionary", "sun", "ᏅᏓ", None)]
        docs = to_documents(entries, [])
        _saved_tiny_index(docs, tmp_path)
        path = tmp_path / "vectors.bin"
        payload = bytearray(path.read_bytes())
        payload[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(payload))
        with pytest.raises(IndexFormatError, match="row 1 .*norm nan"):
            load_index(tmp_path)

    def test_nan_row_rejected_in_memory(self):
        vectors = np.array([[1.0, 0.0], [float("nan"), 0.0]])
        with pytest.raises(IndexBuildError, match="row 1"):
            VectorIndex(dim=2, embedder_id="e", ids=["d:0", "d:1"], vectors=vectors)


INDEX_FILES = (MANIFEST_FILE, KEYWORD_FILE, DOCS_FILE, VECTORS_FILE)


def test_truncated_index_file_rejected_or_unchanged(tiny_docs, tmp_path):
    saved = tmp_path / "saved"
    expected = _saved_tiny_index(tiny_docs, saved)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(INDEX_FILES), data=st.data())
    def check(name, data):
        original = (saved / name).read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(original)), label="cut")
        target = tmp_path / "cut"
        shutil.copytree(saved, target, dirs_exist_ok=True)
        (target / name).write_bytes(original[:cut])
        try:
            bundle = load_index(target)
        except (IndexFormatError, IngestError):
            return
        _assert_same_bundle(bundle, expected)

    check()


def _list_documents(dictionary_count, columns):
    """The Document list a load gave before documents were kept as columns:
    every Document built, ids and kinds from position."""
    examples = len(columns[0]) - dictionary_count
    ids = [f"d:{seq}" for seq in range(dictionary_count)]
    ids += [f"x:{seq}" for seq in range(examples)]
    kinds = ["dictionary"] * dictionary_count + ["example"] * examples
    return list(map(Document._make, zip(ids, kinds, *columns)))


@pytest.fixture
def built(monkeypatch):
    """The Documents lexrag.corpus builds from here on, one entry each."""
    made: list = []

    class Counted(Document):
        __slots__ = ()

        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

        @classmethod
        def _make(cls, iterable):
            made.append(iterable)
            return super()._make(iterable)

    monkeypatch.setattr(corpus, "Document", Counted)
    return made


class TestDocumentsAsColumns:
    """A load keeps docs.json's columns; a Document is built when its
    position is read, and the first one built is handed out after it."""

    _TEXT = st.text(alphabet="ab ᎠᎹ", min_size=1, max_size=5).filter(str.strip)
    _ROW = st.tuples(_TEXT, _TEXT, st.none() | _TEXT)

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(_ROW.map(lambda row: ("dictionary", *row)), max_size=5),
        examples=st.lists(_ROW.map(lambda row: ("example", row[0], row[1], None)), max_size=5),
        data=st.data(),
    )
    def test_each_position_is_the_document_the_list_gave(self, entries, examples, data):
        assume(entries or examples)
        docs = to_documents(entries, examples)
        with tempfile.TemporaryDirectory() as tmp:
            bundle = _saved_tiny_index(docs, Path(tmp, "index"))
            columns = json.loads(Path(tmp, "index", DOCS_FILE).read_text(encoding="utf-8"))
            save_documents(list(docs), Path(tmp, "from-list.json"))
            saved = Path(tmp, "index", DOCS_FILE).read_bytes()
            assert Path(tmp, "from-list.json").read_bytes() == saved
        old = _list_documents(columns.pop("dictionary_count"), list(columns.values()))
        loaded, count = bundle.docs, len(old)
        assert len(loaded) == count
        for position in [*range(count), *range(-count, 0)]:
            assert loaded[position] == old[position]
            assert bundle.vector.ids[position] == old[position].id
        for position in (count, -count - 1):
            with pytest.raises(IndexError):
                loaded[position]
            with pytest.raises(IndexError):
                bundle.vector.ids[position]
        bounds = st.none() | st.integers(-count - 2, count + 2)
        step = st.none() | st.integers(-3, 3).filter(bool)
        cut = slice(data.draw(bounds), data.draw(bounds), data.draw(step))
        assert loaded[cut] == old[cut]
        assert bundle.vector.ids[cut] == [doc.id for doc in old[cut]]
        assert loaded == old and old == loaded and not loaded != old and not old != loaded
        assert loaded == docs and list(loaded) == old
        assert loaded != old[1:] and old[1:] != loaded
        ids = [doc.id for doc in old]
        assert bundle.vector.ids == ids and ids == bundle.vector.ids
        assert np.array_equal(np.array(bundle.vector.ids), np.array(ids))

    def test_load_and_save_build_no_document_and_no_id(
        self, tiny_docs, tmp_path, built, monkeypatch
    ):
        _saved_tiny_index(tiny_docs, tmp_path / "index")
        built.clear()

        def no_id(*args):
            raise AssertionError("an id was made")

        monkeypatch.setattr(corpus.DocumentIds, "__getitem__", no_id)
        monkeypatch.setattr(corpus.DocumentIds, "__iter__", no_id)
        bundle = load_index(tmp_path / "index")
        save_documents(bundle.docs, tmp_path / DOCS_FILE)
        assert built == []
        assert (tmp_path / DOCS_FILE).read_bytes() == (tmp_path / "index" / DOCS_FILE).read_bytes()

    def test_a_query_builds_at_most_k_total_documents_once(self, tiny_docs, tmp_path, built):
        _saved_tiny_index(tiny_docs, tmp_path)
        bundle = load_index(tmp_path)
        config = RetrievalConfig(k_vector=1, k_total=4)
        query = "the man saw the dog water is good"
        built.clear()
        results = retrieve(query, bundle, MockEmbedder(dim=8), config)
        assert len(built) == len(results) == config.k_total
        assert retrieve(query, bundle, MockEmbedder(dim=8), config) == results
        assert len(built) == config.k_total
        as_list = IndexBundle(bundle.keyword, bundle.vector, bundle.manifest, list(bundle.docs))
        assert retrieve(query, as_list, MockEmbedder(dim=8), config) == results


class TestPackedKeywordFile:
    """keyword_index.json keeps the phrases, their posting counts and every
    posting as base64 uint32s; a load keeps them packed, in a KeywordIndex
    equal to the dict a build makes."""

    _PHRASE = st.text(alphabet="ab ᎠᎹé𝄞", min_size=1, max_size=6)  # shared prefixes, non-ASCII

    @staticmethod
    def _parts(keyword, count):
        docs = to_documents([("dictionary", f"w{i}", f"t{i}", None) for i in range(count)], [])
        vector = VectorIndex(dim=1, embedder_id="e", ids=docs.ids, vectors=np.ones((count, 1)))
        return keyword, vector, IndexManifest.create(keyword, vector), docs

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 300), data=st.data())
    def test_round_trip_keeps_every_list_and_every_byte(self, count, data):
        postings = st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True)
        keyword = data.draw(
            st.dictionaries(self._PHRASE, postings | st.just([count - 1]), min_size=1, max_size=20)
        )
        keyword = {phrase: sorted(positions) for phrase, positions in keyword.items()}
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            save_index(*self._parts(keyword, count), first)
            text = (first / KEYWORD_FILE).read_text(encoding="utf-8")
            loaded = load_index(first)
            save_index(loaded.keyword, loaded.vector, loaded.manifest, loaded.docs, second)
            assert (second / KEYWORD_FILE).read_text(encoding="utf-8") == text
        assert text == oracle_pack_keyword(keyword)
        assert oracle_unpack_keyword(text) == keyword
        assert loaded.keyword == keyword and list(loaded.keyword) == sorted(keyword)
        assert all(type(p) is int for positions in loaded.keyword.values() for p in positions)

    def test_long_and_single_position_lists(self, tmp_path):
        keyword = {"the": list(range(5000)), "ᎠᎹ": [4999], "a": [0], "a b": [1, 4998]}
        save_index(*self._parts(keyword, 5000), tmp_path)
        assert load_index(tmp_path).keyword == keyword

    def test_load_runs_the_postings_pass_once(self, tmp_path, monkeypatch):
        keyword = {"water": [0, 2], "sun": [1]}
        save_index(*self._parts(keyword, 3), tmp_path)
        passes = []
        check = index_module._check_postings
        monkeypatch.setattr(index_module, "_check_postings", lambda *a: passes.append(check(*a)))
        loaded = load_index(tmp_path).keyword
        assert len(passes) == 1 and loaded == keyword
        assert isinstance(loaded, KeywordIndex) and loaded.postings.dtype == np.dtype("<u4")

    @settings(max_examples=80, deadline=None)
    @given(count=st.integers(1, 40), data=st.data())
    def test_packed_index_equals_the_dict_oracle(self, count, data):
        rows = st.lists(st.integers(0, count - 1), max_size=count, unique=True).map(sorted)
        keyword = data.draw(st.dictionaries(self._PHRASE, rows, max_size=12), label="keyword")
        misses = data.draw(st.lists(self._PHRASE.filter(lambda p: p not in keyword)), label="misses")
        packed = KeywordIndex.pack(keyword, count)
        assert packed == keyword and len(packed) == len(keyword) and list(packed) == sorted(keyword)
        assert all(phrase in packed for phrase in keyword)
        assert not any(phrase in packed for phrase in misses)
        for phrase in [*keyword, *misses]:
            assert keyword_lookup(packed, phrase) == oracle_keyword_lookup(keyword, phrase)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(*self._parts(keyword, count), tmp)
            text = Path(tmp, KEYWORD_FILE).read_text(encoding="utf-8")
            loaded = load_index(tmp).keyword
        assert isinstance(loaded, KeywordIndex) and loaded == packed
        assert text == oracle_pack_keyword(keyword)

    def test_row_out_of_order_is_named(self, tiny_docs, tmp_path):
        _saved_tiny_index(tiny_docs, tmp_path)
        path = tmp_path / KEYWORD_FILE
        fields = json.loads(path.read_text(encoding="utf-8"))
        counts = dict(zip(fields["phrases"], fields["counts"]))
        assert oracle_unpack_keyword(path.read_text(encoding="utf-8"))["bread"] == [9, 13]
        counts.update(baked=0, bread=3)  # bread takes baked's posting: 13, 9, 13
        path.write_text(json.dumps({**fields, "counts": list(counts.values())}), encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path)
        assert str(info.value) == (
            f"{KEYWORD_FILE}: phrase 'bread' lists 9 after 13, not in strictly ascending order"
        )

    def test_file_holds_three_fields_in_order(self, tiny_docs, tmp_path):
        bundle = _saved_tiny_index(tiny_docs, tmp_path)
        packed = (tmp_path / KEYWORD_FILE).read_text(encoding="utf-8")
        assert list(json.loads(packed)) == ["phrases", "counts", "positions"]
        assert packed == oracle_pack_keyword(bundle.keyword)
