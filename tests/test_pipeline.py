from __future__ import annotations

import math

import numpy as np
import pytest

from lexrag import retrieval
from lexrag.backends import BackendError, MockEmbedder, MockGenerator
from lexrag.corpus import Document, from_json
from lexrag.index import EMBED_BATCH_SIZE, IndexBundle, IndexManifest, VectorIndex, screen_rows
from lexrag.pipeline import (
    DEFAULT_TEMPLATE,
    MAX_PARALLELISM,
    PromptTemplate,
    assemble_prompt,
    batch_translate,
    translate,
)
from lexrag.retrieval import RetrievalConfig, RetrievalResult


def _dict_result(doc_id, headword, target, phrase=None):
    doc = Document(
        id=doc_id,
        kind="dictionary",
        source_text=headword,
        target_text=target,
    )
    return RetrievalResult(doc=doc, score=1.0, provenance="keyword", matched_phrase=phrase or headword)


def _example_result(doc_id, source, target, score=0.9):
    doc = Document(
        id=doc_id,
        kind="example",
        source_text=source,
        target_text=target,
    )
    return RetrievalResult(doc=doc, score=score, provenance="vector")


class TestAssemblePrompt:
    def test_zero_results_no_section_headers(self):
        prompt = assemble_prompt("hello there", [])
        assert "Glossary:" not in prompt
        assert "Examples:" not in prompt
        assert prompt.endswith("Output only the translation.\nhello there")
        assert prompt.startswith("You are a careful translator")

    def test_one_dictionary_result_one_glossary_line(self):
        prompt = assemble_prompt("water", [_dict_result("d:0", "water", "ᎠᎹ")])
        glossary_lines = [l for l in prompt.splitlines() if " → " in l]
        assert glossary_lines == ["water → ᎠᎹ"]

    def test_golden_file(self, data_dir):
        results = [
            _dict_result("d:0", "water", "ᎠᎹ"),
            _dict_result("d:5", "good", "ᎣᏍᏓ"),
            _example_result("x:2", "water is good", "ᎠᎹ ᎣᏍᏓ"),
        ]
        prompt = assemble_prompt("The water is good.", results)
        golden = (data_dir / "golden_prompt_full.txt").read_bytes().decode("utf-8")
        assert prompt == golden

    def test_glossary_lines_are_exactly_dictionary_results(self):
        results = [
            _dict_result("d:0", "water", "ᎠᎹ"),
            _example_result("x:0", "a b", "c d"),
            _dict_result("d:1", "sun", "ᏅᏓ"),
        ]
        prompt = assemble_prompt("q", results)
        glossary = [l for l in prompt.splitlines() if " → " in l]
        examples = [l for l in prompt.splitlines() if " ⇒ " in l]
        assert glossary == ["water → ᎠᎹ", "sun → ᏅᏓ"]
        assert examples == ["a b ⇒ c d"]

    def test_byte_deterministic(self):
        results = [_dict_result("d:0", "water", "ᎠᎹ")]
        assert assemble_prompt("q", results) == assemble_prompt("q", results)

    def test_query_within_prompt_once(self):
        prompt = assemble_prompt("zzunique query zz", [])
        assert prompt.count("zzunique query zz") == 1

    def test_language_placeholders(self):
        prompt = assemble_prompt("q", [], DEFAULT_TEMPLATE, "English", "Tibetan")
        assert "from English into Tibetan" in prompt
        assert "into Tibetan." in prompt

    def test_template_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown key 'surprise'"):
            from_json(PromptTemplate, {"preamble": "x", "surprise": "y"})

    def test_template_unknown_placeholder(self):
        with pytest.raises(ValueError, match=r"'preamble': \{nope\} is not one of"):
            PromptTemplate(preamble="Hello {nope}")


def _empty_bundle():
    keyword = {}
    vector = VectorIndex(
        dim=8, embedder_id="mock-embed-8", ids=[], vectors=np.zeros((0, 8), dtype=np.float32)
    )
    manifest = IndexManifest.create(keyword, vector)
    return IndexBundle(keyword=keyword, vector=vector, manifest=manifest, docs=[])


class TestTranslate:
    def test_mock_chain_glossary_echo(self, tiny_bundle, mock_embedder, mock_generator):
        record = translate(
            "water and sun",
            tiny_bundle,
            mock_embedder,
            mock_generator,
            RetrievalConfig(max_phrase_len=2),
        )
        assert record.output == "ᎠᎹ ᏅᏓ"
        assert record.model_id == "mock-gen"
        # "water" also hits the example sentence x:2; only dictionary docs
        # become glossary lines, so the output stays ᎠᎹ ᏅᏓ
        assert [r.doc.id for r in record.results] == ["d:0", "x:2", "d:1"]

    def test_zero_retrievals_empty_vector_index(self, mock_embedder, mock_generator):
        bundle = _empty_bundle()
        record = translate(
            "nothing matches at all",
            bundle,
            mock_embedder,
            mock_generator,
        )
        assert record.output == "⟨no-entries⟩"
        assert record.results == []

    def test_identical_inputs_identical_records_minus_timings(
        self, tiny_bundle, mock_embedder, mock_generator
    ):
        kwargs = dict(
            indexes=tiny_bundle,
            embedder=mock_embedder,
            generator=mock_generator,
        )
        a = translate("the sun is warm", **kwargs)
        b = translate("the sun is warm", **kwargs)
        for record in (a, b):
            record.retrieval_ms = 0.0
            record.generation_ms = 0.0
        assert a == b

    def test_prompt_contains_every_retrieved_line(self, tiny_bundle, mock_embedder, mock_generator):
        record = translate(
            "water sun fire", tiny_bundle, mock_embedder, mock_generator
        )
        for result in record.results:
            if result.doc.kind == "dictionary":
                line = f"{result.doc.source_text} → {result.doc.target_text}"
            else:
                line = f"{result.doc.source_text} ⇒ {result.doc.target_text}"
            assert line in record.prompt


class _FlakyGenerator:
    """Fails only when the prompt carries the poison marker."""

    model_id = "flaky-gen"

    def __init__(self, poison="POISON"):
        self.poison = poison
        self._inner = MockGenerator(model_id=self.model_id)

    def generate(self, prompt):
        if self.poison in prompt:
            raise BackendError("simulated outage")
        return self._inner.generate(prompt)


class TestBatchTranslate:
    def test_order_preserved(self, tiny_bundle, mock_embedder, mock_generator):
        queries = ["water", "sun", "fire"]
        records = batch_translate(queries, tiny_bundle, mock_embedder, mock_generator)
        assert [r.query for r in records] == queries
        assert [r.output for r in records] == ["ᎠᎹ", "ᏅᏓ", "ᎠᏥᎳ"]

    def test_partial_failure_recorded_batch_continues(self, tiny_bundle, mock_embedder):
        records = batch_translate(
            ["water", "POISON sun", "fire"],
            tiny_bundle,
            mock_embedder,
            _FlakyGenerator(),
        )
        assert records[0].error is None and records[0].output == "ᎠᎹ"
        assert records[1].error is not None and records[1].output == ""
        assert records[2].error is None and records[2].output == "ᎠᏥᎳ"

    def test_parallelism_does_not_change_outputs(self, tiny_bundle):
        queries = ["water", "sun and dog", "no match here", "bread", "mountain lion"]

        def run(parallelism):
            records = batch_translate(
                queries,
                tiny_bundle,
                MockEmbedder(dim=8),
                MockGenerator(),
                parallelism=parallelism,
            )
            return [
                (r.query, r.output, [x.doc.id for x in r.results], r.error)
                for r in records
            ]

        assert run(1) == run(4)

    def test_empty_batch_rejected(self, tiny_bundle, mock_embedder, mock_generator):
        with pytest.raises(ValueError):
            batch_translate([], tiny_bundle, mock_embedder, mock_generator)

    # Checked before any thread starts, so an out-of-range value starts none.
    @pytest.mark.parametrize("parallelism", [0, -2, MAX_PARALLELISM + 1, 1_000_000])
    def test_parallelism_out_of_range_rejected(
        self, tiny_bundle, mock_embedder, mock_generator, parallelism
    ):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_PARALLELISM}"):
            batch_translate(
                ["water"], tiny_bundle, mock_embedder, mock_generator, parallelism=parallelism
            )


class _CountingEmbedder:
    """MockEmbedder that records every request's texts; texts containing
    ``poison`` make the whole request fail."""

    def __init__(self, poison=None):
        self._inner = MockEmbedder(dim=8)
        self.embedder_id = self._inner.embedder_id
        self.poison = poison
        self.requests = []

    def embed_texts(self, texts):
        self.requests.append(list(texts))
        if self.poison is not None and any(self.poison in text for text in texts):
            raise BackendError("poisoned embedding request")
        return self._inner.embed_texts(texts)


def _fallback_queries(n):
    return [f"qqzx {i} nothing indexed" for i in range(n)]


def _record_keys(records):
    keys = []
    for record in records:
        payload = record.to_dict(include_prompt=True)
        del payload["retrieval_ms"], payload["generation_ms"]
        keys.append(payload)
    return keys


MIXED_BATCH = (
    ["water", "sun and dog"]
    + _fallback_queries(70)
    + ["mountain lion", "qqzx 3 nothing indexed", "water is good"]
    + _fallback_queries(5)
)


class TestBatchedFallback:
    def test_one_embed_request_per_chunk_of_distinct_fallback_queries(self, tiny_bundle):
        embedder = _CountingEmbedder()
        batch_translate(MIXED_BATCH, tiny_bundle, embedder, MockGenerator())
        distinct = len(set(_fallback_queries(70)))
        assert len(embedder.requests) == math.ceil(distinct / EMBED_BATCH_SIZE) == 3
        embedded = [text for request in embedder.requests for text in request]
        assert sorted(embedded) == sorted(set(_fallback_queries(70)))

    def test_keyword_only_batch_never_embeds(self, tiny_bundle):
        embedder = _CountingEmbedder()
        records = batch_translate(
            ["water", "sun", "mountain lion", "water"], tiny_bundle, embedder, MockGenerator()
        )
        assert embedder.requests == []
        assert not any(record.error for record in records)

    @pytest.mark.parametrize("policy", ["strict_fallback", "fill"])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_batch_equals_single_query_records(
        self, tiny_bundle, policy, parallelism, monkeypatch
    ):
        sizes = []  # of the batches screened together

        def counted(index, queries, k):
            sizes.append(len(queries))
            return screen_rows(index, queries, k)

        monkeypatch.setattr(retrieval, "screen_rows", counted)
        config = RetrievalConfig(policy=policy, max_phrase_len=2)
        embedder, generator = MockEmbedder(dim=8), MockGenerator()
        batch = batch_translate(
            MIXED_BATCH, tiny_bundle, embedder, generator, config, parallelism=parallelism
        )
        # 70 distinct fallback queries, and under fill 4 keyword queries more
        last = 6 if policy == "strict_fallback" else 10
        assert sizes == [EMBED_BATCH_SIZE, EMBED_BATCH_SIZE, last]
        single = [translate(q, tiny_bundle, embedder, generator, config) for q in MIXED_BATCH]
        assert _record_keys(batch) == _record_keys(single)

    def test_failed_chunk_fails_only_the_poisoned_item(self, tiny_bundle):
        queries = ["water"] + _fallback_queries(3) + ["POISON qqzx"] + _fallback_queries(2)
        embedder = _CountingEmbedder(poison="POISON")
        records = batch_translate(queries, tiny_bundle, embedder, MockGenerator())
        assert [bool(record.error) for record in records] == [
            False, False, False, False, True, False, False,
        ]
        assert "poisoned" in records[4].error and records[4].output == ""
        clean = batch_translate(
            [q for q in queries if "POISON" not in q], tiny_bundle, MockEmbedder(dim=8), MockGenerator()
        )
        assert _record_keys([r for r in records if not r.error]) == _record_keys(clean)
        # one chunk request, then one request per distinct fallback query
        assert len(embedder.requests) == 1 + 4

    def test_zero_embedding_fails_only_its_item(self, tiny_bundle):
        class _ZeroForOne(_CountingEmbedder):
            def embed_texts(self, texts):
                vectors = super().embed_texts(texts)
                return [[0.0] * 8 if "ZERO" in t else v for t, v in zip(texts, vectors)]

        records = batch_translate(
            ["qqzx a", "ZERO qqzx", "qqzx b"], tiny_bundle, _ZeroForOne(), MockGenerator()
        )
        assert [bool(record.error) for record in records] == [False, True, False]
        assert "zero vector" in records[1].error

    def test_zero_vector_costs_one_request_per_query_of_its_chunk(self, tiny_bundle):
        class _ZeroForOne(_CountingEmbedder):
            def embed_texts(self, texts):
                vectors = super().embed_texts(texts)
                return [[0.0] * 8 if "ZERO" in t else v for t, v in zip(texts, vectors)]

        others = _fallback_queries(4)
        embedder = _ZeroForOne()
        records = batch_translate(
            [*others[:2], "ZERO qqzx", *others[2:]], tiny_bundle, embedder, MockGenerator()
        )
        assert len(embedder.requests) == 1 + 5
        assert [bool(record.error) for record in records] == [False, False, True, False, False]
        assert records[2].error == "embedder returned a zero vector for 'ZERO qqzx'"
        clean = batch_translate(others, tiny_bundle, MockEmbedder(dim=8), MockGenerator())
        assert _record_keys(records[:2] + records[3:]) == _record_keys(clean)

    def test_wrong_dimension_costs_one_request_per_chunk(self, tiny_bundle):
        embedder = _CountingEmbedder()
        embedder._inner = MockEmbedder(dim=16)  # the index's embedder id, another dimension
        queries = ["water"] + _fallback_queries(EMBED_BATCH_SIZE + 8)
        records = batch_translate(queries, tiny_bundle, embedder, MockGenerator())
        assert [len(request) for request in embedder.requests] == [EMBED_BATCH_SIZE, 8]
        assert records[0].error is None and records[0].output == "ᎠᎹ"
        for record in records[1:]:
            assert record.error == "query dim (16,) does not match index dim 8"
            assert record.output == ""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_embedder_fails_only_fallback_items(self, tiny_bundle, value):
        class _NonFiniteEmbedder(_CountingEmbedder):
            def embed_texts(self, texts):
                return [[value] * 8 for _ in super().embed_texts(texts)]

        records = batch_translate(
            ["nothing qqzx", "water"], tiny_bundle, _NonFiniteEmbedder(), MockGenerator()
        )
        assert "non-finite vector" in records[0].error and records[0].output == ""
        assert records[1].error is None and records[1].output == "ᎠᎹ"

    def test_embedder_dim_mismatch_fails_only_fallback_items(self, tiny_bundle):
        embedder = MockEmbedder(dim=16)
        embedder.embedder_id = tiny_bundle.vector.embedder_id  # a wrong dim, not a wrong id
        records = batch_translate(["water", "nothing here"], tiny_bundle, embedder, MockGenerator())
        assert records[0].error is None and records[0].output == "ᎠᎹ"
        assert "does not match index dim 8" in records[1].error
        assert records[1].output == ""

    def test_other_embedder_fails_only_fallback_items_without_embedding(self, tiny_bundle):
        embedder = _CountingEmbedder()
        embedder.embedder_id = "some-other-model"
        records = batch_translate(
            ["water", "nothing here", "qqzx"], tiny_bundle, embedder, MockGenerator()
        )
        assert records[0].error is None and records[0].output == "ᎠᎹ"
        for record in records[1:]:
            assert "'mock-embed-8'" in record.error and "'some-other-model'" in record.error
            assert record.output == "" and record.results == []
        assert embedder.requests == []
