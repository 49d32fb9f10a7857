"""Acceptance suite: one test per release criterion, each timed against its
stated budget and printing a PASS line (visible with ``pytest -v -s`` or in
captured output).  Everything here runs offline with deterministic mock
backends; the only sockets ever opened by the wider suite are loopback stubs.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from lexrag.backends import MockEmbedder
from lexrag.cli import main
from lexrag.corpus import load_dictionary, load_parallel, to_documents
from lexrag.index import (
    IndexBundle,
    IndexFormatError,
    IndexManifest,
    build_keyword_index,
    build_vector_index,
    keyword_lookup,
    load_index,
    save_index,
    vector_topk,
)
from lexrag.metrics import (
    bertscore,
    bleu,
    evaluate_set,
    human_eval_normalize,
    load_human_scores,
    rouge_l,
)
from lexrag.retrieval import RetrievalConfig, extract_query_terms, retrieve
from oracles import oracle_bleu, oracle_rouge_l, oracle_topk

_TIMINGS: dict[str, tuple[float, float]] = {}


def _finish(name: str, label: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    _TIMINGS[name] = (elapsed, budget_s)
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"[acceptance] {name} {label}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")


def test_criterion_1_human_score_normalization(data_dir):
    started = time.perf_counter()
    tibetan = load_human_scores(data_dir / "human_scores_tibetan.csv")
    manchu = load_human_scores(data_dir / "human_scores_manchu.csv")

    assert human_eval_normalize(tibetan, "gpt-4o-rag") == pytest.approx(0.293, abs=0.0005)
    assert human_eval_normalize(tibetan, "gpt-4o") == pytest.approx(0.147, abs=0.0005)
    assert human_eval_normalize(tibetan, "llama-3.1-405b") == pytest.approx(0.067, abs=0.0005)
    assert human_eval_normalize(manchu, "gpt-4o") == pytest.approx(0.173, abs=0.0005)
    assert human_eval_normalize(manchu, "llama-3.1-405b") == pytest.approx(0.040, abs=0.0005)
    # The externally published summary value for this sheet is 0.333, which
    # does not follow from its own rows; the normalization formula gives
    # (3+5+7+7+7)/75 = 0.3867 and that is what this toolkit asserts.
    assert human_eval_normalize(manchu, "gpt-4o-rag") == pytest.approx(0.3867, abs=0.0005)
    _finish("C1", "human-score normalization reproduces reference cells", started, 1.0)


def test_criterion_2_metric_oracle_equivalence(data_dir, mock_embedder):
    started = time.perf_counter()
    hyps = (data_dir / "metric_fixture_hyps.txt").read_text(encoding="utf-8").splitlines()
    refs = (data_dir / "metric_fixture_refs.txt").read_text(encoding="utf-8").splitlines()
    expected = json.loads((data_dir / "metric_fixture_expected.json").read_text())
    pairs = [(h.split(), r.split()) for h, r in zip(hyps, refs)]

    report = evaluate_set(hyps, refs, token_embedder=mock_embedder)
    for key, value in expected.items():
        if key == "n_sentences":
            assert report.n_sentences == value
        else:
            assert getattr(report, key) == pytest.approx(value, abs=1e-6), key

    # live oracle recomputation, not just the frozen snapshot
    assert report.bleu == pytest.approx(oracle_bleu(pairs), abs=1e-6)
    rouge = [oracle_rouge_l(h, r) for h, r in pairs]
    assert report.rouge_l_f == pytest.approx(sum(s[2] for s in rouge) / len(rouge), abs=1e-6)

    # hand-derived cases
    assert bleu([("a b c d e".split(), "a b c d f".split())]) == pytest.approx(
        0.668740, abs=1e-6
    )
    assert bleu([("a b".split(), "a b c d".split())]) == pytest.approx(
        math.exp(-1.0), abs=1e-6
    )
    p, r, f = rouge_l("the cat sat on mat".split(), "the cat on the mat".split())
    assert (p, r, f) == pytest.approx((0.8, 0.8, 0.8), abs=1e-6)
    _finish("C2", "BLEU/ROUGE-L match the brute-force oracle", started, 1.0)


def test_criterion_3_metric_identities_1000_corpora():
    started = time.perf_counter()
    import random

    rng = random.Random(195705)
    vocab = "a b c d e f g h i j k the cat sat mat sun water ᎠᎹ ᏅᏓ ᎡᎶᎯ".split()
    embedder = MockEmbedder(dim=8)
    for _ in range(1000):
        x = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        y = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]

        assert bleu([(x, x)]) == 1.0
        assert rouge_l(x, x) == (1.0, 1.0, 1.0)

        score = bleu([(x, y)])
        assert 0.0 <= score <= 1.0

        p1, r1, f1 = rouge_l(x, y)
        p2, r2, f2 = rouge_l(y, x)
        assert (p1, r1) == (r2, p2) and f1 == f2
        assert all(0.0 <= v <= 1.0 for v in (p1, r1, f1))

        bp1, br1, bf1 = bertscore(x, y, embedder)
        bp2, br2, _ = bertscore(y, x, embedder)
        assert bp1 == br2 and br1 == bp2
        assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in (bp1, br1, bf1))
    _finish("C3", "metric identities over 1000 random corpora", started, 10.0)


def test_criterion_4_topk_equals_brute_force():
    started = time.perf_counter()
    from lexrag.index import VectorIndex

    for dim in (8, 64):
        rng = np.random.default_rng(424200 + dim)
        matrix = rng.standard_normal((1000, dim))
        matrix = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        ids = [f"doc:{i:04d}" for i in range(1000)]
        index = VectorIndex(
            dim=dim, embedder_id="seeded", ids=ids, vectors=matrix.astype(np.float32)
        )
        stored = [(doc_id, vec.tolist()) for doc_id, vec in zip(ids, index.vectors)]
        for _ in range(5):
            query = rng.standard_normal(dim)
            query = (query / np.linalg.norm(query)).tolist()
            for k in (1, 5, 50):
                got = vector_topk(index, query, k)
                want = oracle_topk(stored, query, k)
                assert [ids[row] for row, _ in got] == [w[0] for w in want]
                for (_, gs), (_, ws) in zip(got, want):
                    assert gs == pytest.approx(ws, abs=1e-6)
    _finish("C4", "cosine top-K equals full-sort brute force", started, 5.0)


def _seeded_bundle(data_dir) -> IndexBundle:
    docs = to_documents(
        load_dictionary(data_dir / "tiny_dict.jsonl"),
        load_parallel(data_dir / "tiny_parallel.tsv"),
    )
    keyword = build_keyword_index(docs)
    vector = build_vector_index(docs, MockEmbedder(dim=8))
    return IndexBundle(keyword, vector, IndexManifest.create(keyword, vector), docs)


def test_criterion_5_keyword_first_fallback(data_dir):
    started = time.perf_counter()
    bundle = _seeded_bundle(data_dir)
    config = RetrievalConfig(k_vector=5, k_total=8, max_phrase_len=2)

    headwords = [doc.source_text for doc in bundle.docs if doc.kind == "dictionary"]
    assert len(headwords) == 10
    for headword in headwords:
        embedder = MockEmbedder(dim=8)
        results = retrieve(f"please {headword} now", bundle, embedder, config)
        assert embedder.calls == 0, headword
        assert results and all(r.provenance == "keyword" for r in results)

    for query in ("zorp flix quux", "nothing matches here", "జై హో"):
        for phrase in extract_query_terms(query, config.max_phrase_len):
            assert keyword_lookup(bundle.keyword, phrase) == []
        embedder = MockEmbedder(dim=8)
        results = retrieve(query, bundle, embedder, config)
        assert embedder.calls == 1
        raw = MockEmbedder(dim=8).embed_texts([query])[0]
        unit = (np.asarray(raw) / np.linalg.norm(raw)).tolist()
        expected = vector_topk(bundle.vector, unit, config.k_vector)[: config.k_total]
        assert [(r.doc, r.score) for r in results] == [(bundle.docs[i], s) for i, s in expected]
    _finish("C5", "keyword hits suppress embedding; misses mirror top-K", started, 1.0)


def _normalized_records(path) -> str:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record["retrieval_ms"] = 0.0
        record["generation_ms"] = 0.0
        lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines)


def test_criterion_6_end_to_end_determinism(tmp_path, data_dir, capsys, monkeypatch):
    started = time.perf_counter()
    monkeypatch.chdir(tmp_path)

    def build_and_translate(tag: str, parallelism: int) -> tuple[str, bytes]:
        root = tmp_path / tag
        index_dir = root / "idx"
        assert (
            main(
                [
                    "index-build",
                    "--dict",
                    str(data_dir / "tiny_dict.jsonl"),
                    "--out",
                    str(index_dir),
                ]
            )
            == 0
        )
        out = root / "out.jsonl"
        assert (
            main(
                [
                    "translate",
                    "--index",
                    str(index_dir),
                    "--input",
                    str(data_dir / "batch_input.txt"),
                    "--output",
                    str(out),
                    "--trace",
                    "--parallel",
                    str(parallelism),
                ]
            )
            == 0
        )
        return _normalized_records(out), (index_dir / "vectors.bin").read_bytes()

    run_a, vectors_a = build_and_translate("run-a", 1)
    run_b, vectors_b = build_and_translate("run-b", 1)
    run_c, vectors_c = build_and_translate("run-c", 4)
    assert run_a == run_b == run_c
    assert vectors_a == vectors_b == vectors_c

    first = json.loads(run_a.splitlines()[0])
    golden = (data_dir / "golden_prompt_cli.txt").read_bytes().decode("utf-8")
    assert first["prompt"] == golden
    assert first["output"] == "ᎠᎹ ᎣᏍᏓ"
    capsys.readouterr()
    _finish("C6", "CLI pipeline byte-identical across runs and parallelism", started, 5.0)


def test_criterion_7_persistence_round_trip(tmp_path, data_dir):
    started = time.perf_counter()
    bundle = _seeded_bundle(data_dir)

    first = tmp_path / "first"
    second = tmp_path / "second"
    save_index(bundle.keyword, bundle.vector, bundle.manifest, bundle.docs, first)
    loaded = load_index(first)
    save_index(loaded.keyword, loaded.vector, loaded.manifest, loaded.docs, second)
    assert (first / "vectors.bin").read_bytes() == (second / "vectors.bin").read_bytes()
    assert loaded.manifest == bundle.manifest

    def corrupt(mutate) -> IndexFormatError:
        target = tmp_path / "corrupt"
        save_index(bundle.keyword, bundle.vector, bundle.manifest, bundle.docs, target)
        mutate(target)
        with pytest.raises(IndexFormatError) as err:
            load_index(target)
        return err.value

    err = corrupt(
        lambda d: (d / "vectors.bin").write_bytes(b"XXXX" + (d / "vectors.bin").read_bytes()[4:])
    )
    assert "magic" in str(err)

    def bad_version(d):
        payload = bytearray((d / "vectors.bin").read_bytes())
        payload[4:8] = (99).to_bytes(4, "little")
        (d / "vectors.bin").write_bytes(bytes(payload))

    err = corrupt(bad_version)
    assert "version" in str(err)

    def bad_count(d):
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["count"] += 1
        (d / "manifest.json").write_text(json.dumps(manifest))

    err = corrupt(bad_count)
    assert "count" in str(err)
    _finish("C7", "index persistence bit-exact, corruption detected", started, 1.0)


def test_criterion_8_offline_suite_budget():
    # Everything above ran in-process on mock backends (no sockets at all in
    # this module); the wall-time budget for the full suite is enforced per
    # criterion here and observable in the pytest summary line.
    recorded = dict(_TIMINGS)
    if recorded:
        for name, (elapsed, budget) in recorded.items():
            assert elapsed < budget, name
        total = sum(elapsed for elapsed, _ in recorded.values())
        assert total < 60.0
        print(f"[acceptance] C8 offline suite within budget: PASS ({total:.2f}s < 60s)")
    else:
        pytest.skip("criteria 1-7 did not run in this session")
