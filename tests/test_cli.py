from __future__ import annotations

import base64
import contextlib
import copy
import io
import json
import math
import re
import shutil
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexrag.backends import BackendConfig, BackendError, MockEmbedder, MockGenerator, RetryPolicy
from lexrag.cli import AppConfig, load_config, main
from lexrag.corpus import IngestError, split_lines
from lexrag.index import (
    CACHE_FILE,
    DOCS_FILE,
    KEYWORD_FILE,
    MANIFEST_FILE,
    VECTORS_FILE,
    IndexFormatError,
    cache_key,
    load_index,
)
from lexrag.retrieval import RetrievalConfig
from oracles import oracle_pack_keyword, oracle_unpack_keyword
from test_backends import stub_server  # noqa: F401  (a fixture)

pytestmark = pytest.mark.usefixtures("_cwd_tmp")

INDEX_FILES = (MANIFEST_FILE, KEYWORD_FILE, DOCS_FILE, VECTORS_FILE)


@pytest.fixture
def _cwd_tmp(tmp_path, monkeypatch):
    # keep each test away from any real ./lexrag.json
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path: Path, **overrides) -> Path:
    config = {"backend": {"provider": "mock", "embed_dim": 8}}
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture
def built_index(tmp_path, data_dir, capsys) -> Path:
    out = tmp_path / "idx"
    code, _, err = run(
        capsys,
        "index-build",
        "--dict",
        str(data_dir / "tiny_dict.jsonl"),
        "--out",
        str(out),
    )
    assert code == 0, err
    return out


class TestIndexBuild:
    def test_two_entry_dict(self, tmp_path, capsys):
        source = tmp_path / "d.jsonl"
        source.write_text(
            '{"headword":"water","target":"ᎠᎹ"}\n{"headword":"sun","target":"ᏅᏓ"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        code, stdout, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 2
        assert "indexed 2 documents" in stdout
        assert "dim=8" in stdout

    def test_rebuild_hits_cache_and_reproduces_bytes(self, tmp_path, capsys):
        source = tmp_path / "d.jsonl"
        source.write_text(
            '{"headword":"water","target":"ᎠᎹ"}\n{"headword":"sun","target":"ᏅᏓ"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        code, stdout, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0 and "cache_hits=0" in stdout
        first_bytes = (out / "vectors.bin").read_bytes()

        code, stdout, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0
        assert "cache_hits=2" in stdout
        assert (out / "vectors.bin").read_bytes() == first_bytes

    def test_two_builds_differ_only_in_created_at(self, tmp_path, data_dir, capsys):
        inputs = ("--dict", str(data_dir / "tiny_dict.jsonl"))
        inputs += ("--parallel", str(data_dir / "tiny_parallel.jsonl"))
        trees = []
        for name in ("a", "b"):
            code, _, err = run(capsys, "index-build", *inputs, "--out", str(tmp_path / name))
            assert code == 0, err
            root = tmp_path / name
            files = {
                p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }
            assert set(files) == {*INDEX_FILES, CACHE_FILE}
            manifest = json.loads(files.pop(MANIFEST_FILE))
            del manifest["created_at"]
            trees.append((files, manifest))
        assert trees[0] == trees[1]

    def test_cold_build_writes_the_golden_vectors(self, tmp_path, data_dir, capsys):
        out = tmp_path / "idx"
        config = write_config(tmp_path / "cfg.json")
        inputs = ("--dict", str(data_dir / "tiny_dict.jsonl"))
        inputs += ("--parallel", str(data_dir / "tiny_parallel.jsonl"))
        code, stdout, err = run(capsys, "index-build", *inputs, "--out", str(out), "--config", str(config))
        assert code == 0, err
        assert stdout.startswith("indexed 14 documents") and "cache_misses=14)" in stdout
        golden = (data_dir / "golden_tiny_vectors.bin").read_bytes()
        assert (out / VECTORS_FILE).read_bytes() == golden

    def test_cold_build_writes_the_golden_keyword_index(self, tmp_path, data_dir, capsys):
        out = tmp_path / "idx"
        config = write_config(tmp_path / "cfg.json")
        inputs = ("--dict", str(data_dir / "tiny_dict.jsonl"))
        inputs += ("--parallel", str(data_dir / "tiny_parallel.jsonl"))
        code, _, err = run(capsys, "index-build", *inputs, "--out", str(out), "--config", str(config))
        assert code == 0, err
        golden = (data_dir / "golden_tiny_keyword_index.json").read_bytes()
        assert (out / KEYWORD_FILE).read_bytes() == golden

    def test_no_inputs_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "index-build", "--out", str(tmp_path / "idx"))
        assert code == 64
        assert "--dict or --parallel" in err

    def test_ingest_error_removes_partial_dir(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"headword":""}\n', encoding="utf-8")
        out = tmp_path / "idx"
        code, _, err = run(capsys, "index-build", "--dict", str(bad), "--out", str(out))
        assert code == 1
        assert not out.exists()

    def test_punctuation_only_headword_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"headword":"water","target":"ᎠᎹ"}\n{"headword":"?!","target":"X"}\n', encoding="utf-8"
        )
        out = tmp_path / "idx"
        code, _, err = run(capsys, "index-build", "--dict", str(bad), "--out", str(out))
        assert code == 1 and not out.exists()
        assert err == f"lexrag: error: {bad}:2: headword is empty after normalization\n"

    def test_headword_cap_counts_keyword_words(self, tmp_path, capsys):
        # "." is no keyword word, so this headword's phrase has 4 words: the cap.
        source = tmp_path / "d.jsonl"
        source.write_text('{"headword":"one two three four .","target":"X"}\n')
        out = tmp_path / "idx"
        code, _, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0, err
        code, stdout, _ = run(
            capsys, "translate", "--index", str(out), "--text", "one two three four"
        )
        assert (code, stdout) == (0, "X\n")

        source.write_text('{"headword":"one two three four five .","target":"X"}\n')
        code, _, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 1
        assert err == (
            f"lexrag: error: {source}:1: headword 'one two three four five .' exceeds 4 words\n"
        )

    def test_parallel_only_build(self, tmp_path, data_dir, capsys):
        out = tmp_path / "idx"
        code, stdout, _ = run(
            capsys,
            "index-build",
            "--parallel",
            str(data_dir / "tiny_parallel.tsv"),
            "--out",
            str(out),
        )
        assert code == 0
        assert "indexed 3 documents" in stdout

    def test_dict_and_parallel_combined(self, tmp_path, data_dir, capsys):
        out = tmp_path / "idx"
        code, stdout, _ = run(
            capsys,
            "index-build",
            "--dict",
            str(data_dir / "tiny_dict.jsonl"),
            "--parallel",
            str(data_dir / "tiny_parallel.tsv"),
            "--out",
            str(out),
        )
        assert code == 0
        assert "indexed 14 documents" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 14

    def test_unknown_config_key_rejected(self, tmp_path, data_dir, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"retrieval": {"k_vectorr": 5}}', encoding="utf-8")
        code, _, err = run(
            capsys,
            "index-build",
            "--dict",
            str(data_dir / "tiny_dict.jsonl"),
            "--out",
            str(tmp_path / "idx"),
            "--config",
            str(config),
        )
        assert code == 65
        assert "k_vectorr" in err

    def test_max_phrase_len_is_not_a_config_key(self, tmp_path, data_dir, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"retrieval": {"max_phrase_len": 1}}', encoding="utf-8")
        code, _, err = run(
            capsys,
            "index-build",
            "--dict",
            str(data_dir / "tiny_dict.jsonl"),
            "--out",
            str(tmp_path / "idx"),
            "--config",
            str(config),
        )
        assert code == 65
        assert "max_phrase_len" in err

    def test_missing_explicit_config_is_io_error(self, tmp_path, data_dir, capsys):
        code, _, err = run(
            capsys,
            "index-build",
            "--dict",
            str(data_dir / "tiny_dict.jsonl"),
            "--out",
            str(tmp_path / "idx"),
            "--config",
            str(tmp_path / "absent.json"),
        )
        assert code == 1
        assert "config file not found" in err


class _FailingEmbedder(MockEmbedder):
    """The mock embedder, until ``ok_calls`` requests have been served."""

    def __init__(self, ok_calls: int = 0) -> None:
        super().__init__(dim=8)
        self.ok_calls = ok_calls

    def embed_texts(self, texts):
        if self.ok_calls == 0:
            raise BackendError("embedding service unavailable")
        self.ok_calls -= 1
        return super().embed_texts(texts)


def _embedder_named(embedder_id: str, dim: int = 8) -> MockEmbedder:
    embedder = MockEmbedder(dim)
    embedder.embedder_id = embedder_id
    return embedder


INDEX_FILES = (MANIFEST_FILE, KEYWORD_FILE, DOCS_FILE, VECTORS_FILE)


class TestFailedIndexBuild:
    def test_backend_error_keeps_previous_index(self, built_index, tmp_path, capsys, monkeypatch):
        before = {name: (built_index / name).read_bytes() for name in INDEX_FILES}
        source = tmp_path / "new.jsonl"
        source.write_text('{"headword":"moon","target":"ᏅᏙ"}\n', encoding="utf-8")
        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (_FailingEmbedder(), MockGenerator())
        )
        code, _, err = run(capsys, "index-build", "--dict", str(source), "--out", str(built_index))
        assert code == 2
        assert "embedding service unavailable" in err
        assert {name: (built_index / name).read_bytes() for name in INDEX_FILES} == before
        assert load_index(built_index).manifest.count == 11

    def test_new_dir_keeps_paid_embeddings(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "d.jsonl"
        source.write_text(
            "".join(f'{{"headword":"w{i}","target":"t{i}"}}\n' for i in range(40)),
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (_FailingEmbedder(1), MockGenerator())
        )
        code, _, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 2
        assert not (out / "manifest.json").exists()

        monkeypatch.undo()
        code, stdout, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0
        assert "cache_hits=32, cache_misses=8" in stdout

    def test_v1_index_rejected_then_rebuilt_from_cache(self, built_index, data_dir, capsys):
        path = built_index / "manifest.json"
        for version in (1, 2, 3, 4, 5):
            path.write_text(json.dumps({**json.loads(path.read_text()), "version": version}))
            code, out, err = run(
                capsys, "translate", "--index", str(built_index), "--text", "water"
            )
            assert code == 1 and out == ""
            assert f"unsupported index version {version}" in err
            assert "lexrag index-build" in err

            code, stdout, _ = run(
                capsys,
                "index-build",
                "--dict",
                str(data_dir / "tiny_dict.jsonl"),
                "--out",
                str(built_index),
            )
            assert code == 0
            assert "cache_misses=0" in stdout
            code, _, _ = run(
                capsys, "translate", "--index", str(built_index), "--text", "water"
            )
            assert code == 0


class _BadVectorEmbedder(MockEmbedder):
    """The mock embedder, but with every vector zeroed or NaN, one vector
    short, or with the vectors of the second request onwards one element
    longer."""

    def __init__(self, fault: str) -> None:
        super().__init__(dim=8)
        self.fault = fault

    def embed_texts(self, texts):
        vectors = super().embed_texts(texts)
        if self.fault == "zero":
            return [[0.0] * len(v) for v in vectors]
        if self.fault == "nan":
            return [[float("nan")] * len(v) for v in vectors]
        if self.fault == "count":
            return vectors[1:]
        return vectors if self.calls == 1 else [v + [0.0] for v in vectors]


class TestIndexBuildValidation:
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("zero", "zero vector"),
            ("drift", "dimension drifted from 8 to 9"),
            ("nan", "non-finite vector for 'w0 — t0'"),
            ("count", "embedder returned 31 vectors for 32 texts"),
        ],
    )
    def test_bad_embedding_is_exit_65(self, tmp_path, capsys, monkeypatch, fault, message):
        source = tmp_path / "d.jsonl"
        source.write_text(
            "".join(f'{{"headword":"w{i}","target":"t{i}"}}\n' for i in range(40)),
            encoding="utf-8",
        )
        monkeypatch.setattr(
            "lexrag.cli.make_backends",
            lambda settings: (_BadVectorEmbedder(fault), MockGenerator()),
        )
        out = tmp_path / "idx"
        code, stdout, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 65
        assert stdout == ""
        assert err.startswith("lexrag: validation error:")
        assert message in err
        assert len(err.splitlines()) == 1
        assert not (out / "manifest.json").exists()

    def test_cached_and_fresh_dimensions_differ_is_exit_65(
        self, built_index, data_dir, tmp_path, capsys, monkeypatch
    ):
        # The cache holds the tiny dictionary's dim-8 vectors; "moon" is new.
        source = tmp_path / "d.jsonl"
        tiny = (data_dir / "tiny_dict.jsonl").read_text(encoding="utf-8")
        source.write_text(tiny + '{"headword":"moon","target":"ᏅᏙ"}\n', encoding="utf-8")
        embedder = _embedder_named("mock-embed-8", dim=16)
        monkeypatch.setattr("lexrag.cli.make_backends", lambda settings: (embedder, MockGenerator()))
        code, stdout, err = run(
            capsys, "index-build", "--dict", str(source), "--out", str(built_index)
        )
        assert code == 65 and stdout == ""
        assert err == "lexrag: validation error: inconsistent embedding dimensions: [8, 16]\n"
        assert embedder.calls == 1

    @pytest.mark.parametrize("fault", ["zero", "nan"])
    def test_rebuild_after_bad_embedding_succeeds(self, tmp_path, capsys, monkeypatch, fault):
        source = tmp_path / "d.jsonl"
        source.write_text(
            '{"headword":"water","target":"ᎠᎹ"}\n{"headword":"sun","target":"ᏅᏓ"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        monkeypatch.setattr(
            "lexrag.cli.make_backends",
            lambda settings: (_BadVectorEmbedder(fault), MockGenerator()),
        )
        code, _, _ = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 65

        monkeypatch.undo()  # the working mock embedder, with the same embedder_id
        code, stdout, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0, err
        assert "cache_misses=2" in stdout
        lines = (out / "cache" / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            vector = json.loads(line)["vector"]
            assert all(math.isfinite(v) for v in vector) and any(vector)

    def test_zero_vector_in_cache_is_exit_1(self, tmp_path, capsys):
        source = tmp_path / "d.jsonl"
        source.write_text('{"headword":"water","target":"ᎠᎹ"}\n', encoding="utf-8")
        out = tmp_path / "idx"
        cache = out / CACHE_FILE
        cache.parent.mkdir(parents=True)
        good = {"key": "abc", "dim": 2, "vector": [0.6, 0.8]}
        zero = {"key": cache_key("mock-embed-8", "water — ᎠᎹ"), "dim": 8, "vector": [0.0] * 8}
        cache.write_text(f"{json.dumps(good)}\n{json.dumps(zero)}\n", encoding="utf-8")
        code, stdout, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"lexrag: error: {cache}:2: bad cache entry: vector must not be zero\n"
        assert not (out / MANIFEST_FILE).exists()


class _FaultyEmbedder(MockEmbedder):
    """The dim-8 mock embedder, whose replies from request ``start`` on carry
    ``fault``: a zero, NaN or infinite last vector, one vector too few or
    too many, or vectors one dimension longer."""

    def __init__(self, fault: str, start: int) -> None:
        super().__init__(dim=8)
        self.fault, self.start = fault, start

    def embed_texts(self, texts):
        vectors = super().embed_texts(texts)
        if self.calls < self.start:
            return vectors
        if self.fault == "fewer":
            return vectors[:-1]
        if self.fault == "more":
            return [*vectors, vectors[0]]
        if self.fault == "dim":
            return [[*vector, 0.5] for vector in vectors]
        value = {"zero": 0.0, "nan": math.nan, "inf": math.inf}[self.fault]
        return [*vectors[:-1], [value] * 8]


class TestFaultyEmbedderContract:
    """Whatever an embedder's reply gets wrong, and at whichever request,
    each command that embeds fails with exit 65 and one ``lexrag:`` line."""

    FAULTS = ("zero", "nan", "inf", "fewer", "more", "dim")

    def test_every_fault_is_exit_65(self, built_index, tmp_path, capsys, monkeypatch):
        # 70 texts or tokens: requests of 32, 32 and 6.
        source = tmp_path / "d.jsonl"
        source.write_text(
            "".join(f'{{"headword":"w{i}","target":"t{i}"}}\n' for i in range(70)),
            encoding="utf-8",
        )
        hyp = tmp_path / "h.txt"
        hyp.write_text("".join(chr(0x13A0 + i) for i in range(70)) + "\n", encoding="utf-8")
        out = tmp_path / "idx-faulty"
        commands = {
            "index-build": (3, ["index-build", "--dict", str(source), "--out", str(out)]),
            "evaluate": (3, [
                "evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                "--metrics", "bertscore", "--tokenize", "codepoint",
            ]),
            "translate": (1, ["translate", "--index", str(built_index), "--text", "nothing here"]),
        }

        @settings(max_examples=60, deadline=None)
        @given(
            command=st.sampled_from(sorted(commands)),
            fault=st.sampled_from(self.FAULTS),
            data=st.data(),
        )
        def check(command, fault, data):
            requests, argv = commands[command]
            # A first reply one dimension longer sets the dimension of a
            # build or a scoring run; only the index it is queried against
            # makes it a fault.
            first = 2 if fault == "dim" and command != "translate" else 1
            start = data.draw(st.integers(first, requests), label="start")
            shutil.rmtree(out, ignore_errors=True)
            embedder = _FaultyEmbedder(fault, start)
            monkeypatch.setattr(
                "lexrag.cli.make_backends", lambda settings: (embedder, MockGenerator())
            )
            code, stdout, err = run(capsys, *argv)
            assert code == 65 and stdout == "", err
            assert err.startswith("lexrag:") and len(err.splitlines()) == 1, err
            assert embedder.calls == start
            if command == "index-build":
                assert not (out / MANIFEST_FILE).exists()
                cache = out / CACHE_FILE
                cached = cache.read_text(encoding="utf-8").splitlines() if cache.exists() else []
                assert len(cached) == 32 * (start - 1)

        check()

    def test_overflowing_query_vector_is_exit_65(self, built_index, capsys, monkeypatch):
        # Finite values whose squares overflow: numpy's overflow warning
        # would print two more stderr lines ahead of the error.
        embedder = MockEmbedder(dim=8)
        monkeypatch.setattr(embedder, "embed_texts", lambda texts: [[1e200] * 8 for _ in texts])
        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (embedder, MockGenerator())
        )
        code, stdout, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "nothing here"
        )
        assert (code, stdout) == (65, "")
        assert err == (
            "lexrag: validation error: embedder returned a non-finite vector for 'nothing here'\n"
        )


_COUNTS_MESSAGE = "expected string phrases, each with an int count >= 0"
_BASE64_MESSAGE = "positions are not base64 of uint32s: "


def _water_postings(fields, postings):
    """``fields`` packed anew with the postings of the phrase 'water' set to ``postings``."""
    keyword = oracle_unpack_keyword(json.dumps(fields))
    return json.loads(oracle_pack_keyword({**keyword, "water": postings}))


def _water_count(fields, count):
    """``fields`` with the posting count of the phrase 'water' set to ``count``."""
    counts = list(fields["counts"])
    counts[fields["phrases"].index("water")] = count
    return {**fields, "counts": counts}


def _postings(fields):
    return base64.b64decode(fields["positions"])


class TestDamagedIndex:
    def test_nan_vector_is_exit_1(self, built_index, capsys):
        path = built_index / "vectors.bin"
        payload = bytearray(path.read_bytes())
        payload[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(payload))
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert code == 1 and out == ""
        assert err.startswith("lexrag:") and "norm nan" in err
        assert len(err.splitlines()) == 1

    def test_non_string_text_is_exit_1(self, built_index, capsys):
        path = built_index / DOCS_FILE
        columns = json.loads(path.read_text(encoding="utf-8"))
        columns["source_text"][0] = 5
        path.write_text(json.dumps(columns), encoding="utf-8")
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert code == 1 and out == ""
        assert err.startswith("lexrag:") and f"{DOCS_FILE}: source_text[0] is not a string" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda fields: _water_postings(fields, [11]),
                f"{KEYWORD_FILE}: phrase 'water' lists 11, not the position of one of the 11 ",
            ),
            (lambda fields: _water_count(fields, True), _COUNTS_MESSAGE),
            (lambda fields: _water_count(fields, 1.0), _COUNTS_MESSAGE),
            (lambda fields: _water_count(fields, -1), _COUNTS_MESSAGE),
            (lambda fields: {**fields, "positions": "d:0"}, _BASE64_MESSAGE),
            (lambda fields: _water_count(fields, 2), "counts sum to 14, not 13 postings"),
        ],
        ids=["count", "true", "float", "negative", "v4_id", "sum"],
    )
    def test_bad_keyword_posting_is_exit_1(self, edit, message, built_index, capsys):
        path = built_index / KEYWORD_FILE
        fields = json.loads(path.read_text(encoding="utf-8"))
        assert oracle_unpack_keyword(json.dumps(fields))["water"] == [0]
        path.write_text(json.dumps(edit(fields)), encoding="utf-8")
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert (code, out) == (1, "")
        assert err.startswith("lexrag: error: ") and len(err.splitlines()) == 1
        assert KEYWORD_FILE in err and message in err, err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: {**f, "positions": f["positions"][:-2]}, _BASE64_MESSAGE),
            (
                lambda f: {**f, "positions": base64.b64encode(_postings(f) + b"\0").decode()},
                "multiple of element size",
            ),
            (
                lambda f: {**f, "phrases": f["phrases"][:1] + f["phrases"][:-1]},
                "phrase 'baked' repeats",
            ),
            (lambda f: {**f, "phrases": [5, *f["phrases"][1:]]}, _COUNTS_MESSAGE),
            (
                lambda f: _water_postings(f, [2**32 - 1]),
                "phrase 'water' lists 4294967295, not the position of one of the 11 documents",
            ),
            (lambda f: f["phrases"], "expected phrases, counts and positions"),
            (lambda f: {"phrases": f["phrases"], "positions": f["positions"]}, "expected phrases"),
            (
                lambda f: _water_postings(f, [2, 1]),
                "phrase 'water' lists 1 after 2, not in strictly ascending order",
            ),
        ],
        ids=[
            "cut_base64", "partial_uint32", "repeated_phrase", "int_phrase", "largest_uint32",
            "array", "no_counts", "descending",
        ],
    )
    def test_damaged_packed_keyword_file_is_exit_1(self, edit, message, built_index, capsys):
        path = built_index / KEYWORD_FILE
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))))
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert (code, out) == (1, "")
        assert err.startswith("lexrag: error: ") and len(err.splitlines()) == 1
        assert KEYWORD_FILE in err and message in err, err

    @pytest.mark.parametrize("name", [KEYWORD_FILE, DOCS_FILE])
    def test_integer_over_digit_limit_is_exit_1(self, name, built_index, capsys):
        # Past Python's int-digit limit json.loads raises a plain ValueError,
        # not a JSONDecodeError.
        path = built_index / name
        path.write_text(path.read_text(encoding="utf-8").replace("[", f"[{'9' * 5000},", 1))
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert (code, out) == (1, "")
        assert err.startswith(f"lexrag: error: {path}") and len(err.splitlines()) == 1

    def test_any_cut_or_bit_flip_loads_or_is_exit_1(self, tmp_path, data_dir, capsys):
        """Truncating an index file at any offset, or flipping any one of its
        bits, leaves an index that either loads and translates (a flip inside
        a text value, or in a vector's sign bit, can) or fails to load with an
        index error: exit 1 and one ``lexrag:`` line."""
        config = str(write_config(tmp_path / "lexrag.json"))
        saved = tmp_path / "saved"
        code, _, err = run(
            capsys,
            "index-build",
            "--dict",
            str(data_dir / "tiny_dict.jsonl"),
            "--parallel",
            str(data_dir / "tiny_parallel.jsonl"),
            "--out",
            str(saved),
            "--config",
            config,
        )
        assert code == 0, err

        @settings(max_examples=400, deadline=None)
        @given(name=st.sampled_from(INDEX_FILES), flip=st.booleans(), data=st.data())
        def check(name, flip, data):
            damaged = bytearray((saved / name).read_bytes())
            if flip:
                bit = data.draw(st.integers(0, 8 * len(damaged) - 1), label="bit")
                damaged[bit // 8] ^= 1 << bit % 8
            else:
                del damaged[data.draw(st.integers(0, len(damaged)), label="cut") :]
            target = tmp_path / "damaged"
            shutil.copytree(saved, target, dirs_exist_ok=True)
            (target / name).write_bytes(damaged)
            try:
                load_index(target)
                loads = True
            except (IndexFormatError, IngestError):
                loads = False
            code, out, err = run(
                capsys, "translate", "--index", str(target), "--text", "water", "--config", config
            )
            if loads:
                assert code == 0 and out.strip(), err
            else:
                assert code == 1 and out == ""
                assert err.startswith("lexrag:") and len(err.splitlines()) == 1, err

        check()


class TestByteOrderMark:
    """A UTF-8 byte order mark at the start of an input file, as Windows
    editors and spreadsheet "CSV UTF-8" exports write it, is dropped: the
    file reads as it does without one."""

    def test_batch_input_first_line(self, built_index, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_bytes("\ufeffwater\nwater\n".encode("utf-8"))
        code, out, err = run(capsys, "translate", "--index", str(built_index), "--input", str(path))
        assert code == 0, err
        records = [json.loads(line) for line in out.splitlines()]
        first, second = ([record[k] for k in ("query", "output", "results")] for record in records)
        assert first == second
        assert first[1] == "ᎠᎹ" and first[2][0]["provenance"] == "keyword"

    def test_evaluate_hypothesis(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_bytes("\ufeffᎠᎹ ᎠᏂ\n".encode("utf-8"))
        (tmp_path / "r.txt").write_text("ᎠᎹ ᎠᏂ\n", encoding="utf-8")
        argv = ("evaluate", "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "r.txt"))
        code, out, err = run(capsys, *argv, "--metrics", "bleu,rouge")
        assert code == 0, err
        report = json.loads(out)
        assert (report["bleu"], report["rouge_l_f"]) == (1.0, 1.0)

    def test_humaneval_sheet(self, data_dir, tmp_path, capsys):
        sheet = data_dir / "human_scores_cherokee.csv"
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf" + sheet.read_bytes())
        expected = run(capsys, "humaneval", "--scores", str(sheet))
        assert expected[0] == 0, expected[2]
        assert run(capsys, "humaneval", "--scores", str(path)) == expected

    def test_dictionary_jsonl(self, data_dir, tmp_path, capsys):
        source = data_dir / "tiny_dict.jsonl"
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        for name, dictionary in (("plain", source), ("marked", path)):
            code, _, err = run(
                capsys, "index-build", "--dict", str(dictionary), "--out", str(tmp_path / name)
            )
            assert code == 0, err
        for name in (KEYWORD_FILE, DOCS_FILE, VECTORS_FILE):
            marked, plain = (tmp_path / build / name for build in ("marked", "plain"))
            assert marked.read_bytes() == plain.read_bytes()


class TestTranslate:
    def test_single_text(self, built_index, capsys):
        code, stdout, _ = run(
            capsys, "translate", "--index", str(built_index), "--text", "water"
        )
        assert code == 0
        assert stdout.strip() == "ᎠᎹ"

    def test_batch_three_lines_in_order(self, built_index, tmp_path, capsys):
        batch = tmp_path / "in.txt"
        batch.write_text("water\nsun\nbread\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["query"] for r in records] == ["water", "sun", "bread"]
        assert [r["output"] for r in records] == ["ᎠᎹ", "ᏅᏓ", "ᎦᏚ"]
        assert all("prompt" not in r for r in records)

    def test_trace_includes_prompt(self, built_index, tmp_path, capsys):
        batch = tmp_path / "in.txt"
        batch.write_text("water\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
            "--trace",
        )
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert "water → ᎠᎹ" in record["prompt"]

    def test_jsonl_batch_keeps_ids(self, built_index, tmp_path, capsys):
        batch = tmp_path / "in.jsonl"
        batch.write_text(
            '{"id": "v1", "source": "water"}\n{"id": 2, "source": "sun"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == ["v1", "2"]

    @pytest.mark.parametrize(
        "line,field",
        [
            ('{"id": "a", "source": null}', "'source'"),
            ('{"id": "a", "source": ["water"]}', "'source'"),
            ('{"id": "a", "source": 7}', "'source'"),
            ('{"id": true, "source": "water"}', "'id'"),
            ('{"id": null, "source": "water"}', "'id'"),
            ('{"id": 1.5, "source": "water"}', "'id'"),
            ('{"source": "water"}', "id and source"),
            ('["a", "water"]', "id and source"),
        ],
        ids=[
            "source-null", "source-list", "source-int", "id-bool", "id-null", "id-float",
            "no-id", "not-object",
        ],
    )
    def test_jsonl_batch_bad_field_is_exit_1(self, built_index, tmp_path, capsys, line, field):
        batch = tmp_path / "in.jsonl"
        batch.write_text('{"id": 1, "source": "water"}\n' + line + "\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "translate", "--index", str(built_index), "--input", str(batch)
        )
        assert code == 1 and stdout == ""
        assert err.startswith(f"lexrag: error: {batch}:2: ") and field in err

    def test_invalid_index_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "translate", "--index", str(empty), "--text", "x")
        assert code == 1
        assert "manifest" in err

    def test_corrupt_magic_diagnostic(self, built_index, capsys):
        payload = bytearray((built_index / "vectors.bin").read_bytes())
        payload[:4] = b"NOPE"
        (built_index / "vectors.bin").write_bytes(bytes(payload))
        code, _, err = run(capsys, "translate", "--index", str(built_index), "--text", "x")
        assert code == 1
        assert "magic" in err

    def test_non_utf8_input_names_the_file(self, built_index, tmp_path, capsys):
        batch = tmp_path / "in.txt"
        batch.write_bytes(b"water\n\xff\n")
        code, stdout, err = run(
            capsys, "translate", "--index", str(built_index), "--input", str(batch)
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("lexrag: error:") and err.count("\n") == 1
        assert f"{batch} is not valid UTF-8" in err

    def test_text_and_input_mutually_exclusive(self, built_index, tmp_path, capsys):
        code, _, _ = run(capsys, "translate", "--index", str(built_index))
        assert code == 64
        batch = tmp_path / "b.txt"
        batch.write_text("x\n", encoding="utf-8")
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--text",
            "x",
            "--input",
            str(batch),
        )
        assert code == 64

    def test_custom_template_from_config(self, built_index, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(
            json.dumps(
                {
                    "preamble": "Render {source_lang} as {target_lang}.",
                    "glossary_header": "Terms:",
                    "glossary_line_format": "{headword} → {target}",
                    "directive": "Answer in {target_lang} only.",
                }
            ),
            encoding="utf-8",
        )
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"template": str(template)}), encoding="utf-8")
        batch = tmp_path / "in.txt"
        batch.write_text("water\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
            "--trace",
            "--config",
            str(config),
        )
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["prompt"].startswith("Render English as Cherokee.")
        assert "Terms:" in record["prompt"]
        assert record["output"] == "ᎠᎹ"

    def test_backend_failure_exit_codes(self, built_index, tmp_path, capsys):
        config = tmp_path / "http.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {
                        "provider": "http",
                        "base_url": "http://127.0.0.1:9",  # nothing listens on discard
                        "timeout_s": 0.2,
                        "retry": {"max_attempts": 1, "initial_backoff_ms": 1},
                    }
                }
            ),
            encoding="utf-8",
        )
        # single-sentence mode: failure is fatal
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--text",
            "water",
            "--config",
            str(config),
        )
        assert code == 2
        # batch mode: per-item errors, exit 0 without --strict
        batch = tmp_path / "b.txt"
        batch.write_text("water\nsun\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
            "--config",
            str(config),
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["error"] for r in records)
        assert all(r["output"] == "" for r in records)
        # --strict flips that to exit 2, records still written
        code, _, _ = run(
            capsys,
            "translate",
            "--index",
            str(built_index),
            "--input",
            str(batch),
            "--output",
            str(out),
            "--config",
            str(config),
            "--strict",
        )
        assert code == 2
        assert out.read_text().strip()


    def test_zero_query_embedding_is_exit_65(self, built_index, capsys, monkeypatch):
        class _ZeroEmbedder:
            embedder_id = "mock-embed-8"

            def embed_texts(self, texts):
                return [[0.0] * 8 for _ in texts]

        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (_ZeroEmbedder(), MockGenerator())
        )
        code, out, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "nothing indexed here"
        )
        assert code == 65
        assert out == ""
        assert err.startswith("lexrag: validation error:")
        assert "zero vector" in err

    def test_non_integer_k_vector_is_exit_65(self, built_index, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", retrieval={"k_vector": 2.5})
        code, _, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "qqzx",
            "--config", str(config),
        )
        assert code == 65
        assert err.startswith("lexrag: validation error:") and "k_vector" in err

    def test_embedder_dim_mismatch(self, built_index, tmp_path, capsys, monkeypatch):
        # The index's embedder id with another dimension: a wrong dim, not a wrong id.
        monkeypatch.setattr(
            "lexrag.cli.make_backends",
            lambda settings: (_embedder_named("mock-embed-8", dim=16), MockGenerator()),
        )
        code, _, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "nothing here"
        )
        assert code == 65
        assert "does not match index dim 8" in err
        batch = tmp_path / "in.txt"
        batch.write_text("water\nnothing here\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "translate", "--index", str(built_index), "--input", str(batch)
        )
        assert code == 0
        records = [json.loads(line) for line in stdout.splitlines()]
        assert [r["output"] for r in records] == ["ᎠᎹ", ""]
        assert records[0]["error"] is None
        assert "does not match index dim 8" in records[1]["error"]
        assert err == "1/2 items failed\n"


    def test_query_vector_count_mismatch_is_exit_65(self, built_index, capsys, monkeypatch):
        embedder = _embedder_named("mock-embed-8")
        embed_texts = embedder.embed_texts
        embedder.embed_texts = lambda texts: [*embed_texts(texts), *embed_texts(texts)]
        monkeypatch.setattr("lexrag.cli.make_backends", lambda settings: (embedder, MockGenerator()))
        code, out, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "nothing here"
        )
        assert code == 65 and out == ""
        assert err == "lexrag: validation error: embedder returned 2 vectors for 1 texts\n"

    def test_index_of_another_embedder_is_exit_65(self, built_index, capsys, monkeypatch):
        embedder = _embedder_named("some-other-model")
        monkeypatch.setattr("lexrag.cli.make_backends", lambda settings: (embedder, MockGenerator()))
        code, out, err = run(
            capsys, "translate", "--index", str(built_index), "--text", "nothing here"
        )
        assert code == 65 and out == ""
        assert err.startswith("lexrag: validation error:") and len(err.splitlines()) == 1
        assert "'mock-embed-8'" in err and "'some-other-model'" in err
        assert embedder.calls == 0
        code, out, _ = run(capsys, "translate", "--index", str(built_index), "--text", "water")
        assert code == 0 and out == "ᎠᎹ\n"


class TestLineEnds:
    """Text files end lines at \\n, \\r\\n and \\r only; U+2028, U+0085 and the
    other ends that ``str.splitlines`` knows stay inside their line."""

    def test_raw_line_separator_in_dictionary_json_string(self, tmp_path, capsys):
        source = tmp_path / "raw.jsonl"
        source.write_text(
            '{"headword":"water","target":"ᎠᎹ","definition":"a\u2028b"}\r\n'
            '{"headword":"sun","target":"ᏅᏓ"}\r',
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        code, stdout, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0, err
        assert stdout.startswith("indexed 2 documents")
        assert load_index(out).docs[0].definition == "a\u2028b"

    def test_escaped_next_line_in_definition_loads(self, tmp_path, capsys):
        source = tmp_path / "d.jsonl"
        source.write_text(
            '{"headword":"water","target":"ᎠᎹ"}\n'
            '{"headword":"sun","target":"ᏅᏓ","definition":"x\\u0085y"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "i"
        code, _, err = run(capsys, "index-build", "--dict", str(source), "--out", str(out))
        assert code == 0, err
        code, stdout, err = run(capsys, "translate", "--index", str(out), "--text", "sun")
        assert code == 0, err
        assert stdout == "ᏅᏓ\n"
        assert load_index(out).docs[1].render_text == "sun — ᏅᏓ — x\x85y"

    def test_batch_input_line_keeps_line_separator(self, built_index, tmp_path, capsys):
        batch = tmp_path / "in.txt"
        batch.write_text("water\u2028sun\r\nfire\x0c\x1cbread\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "translate", "--index", str(built_index), "--input", str(batch)
        )
        assert code == 0, err
        queries = [json.loads(line)["query"] for line in stdout.rstrip("\n").split("\n")]
        assert queries == ["water\u2028sun", "fire\x0c\x1cbread"]

    def test_hyp_and_ref_lines_keep_line_separator(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\u2028b\rc\x85d\r\n", encoding="utf-8")
        ref.write_text("a b\nc d\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "evaluate", "--hyp", str(hyp), "--ref", str(ref), "--metrics", "bleu"
        )
        assert code == 0, err
        assert json.loads(stdout)["n_sentences"] == 2


class TestEvaluate:
    def test_identical_files_bleu_one(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("ᎠᎹ ᎣᏍᏓ\nᏅᏓ ᎡᎶᎯ\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, "evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--format", "json"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["bleu"] == pytest.approx(1.0)
        assert report["rouge_l_f"] == pytest.approx(1.0)
        assert report["bert_f1"] == pytest.approx(1.0, abs=1e-6)

    def test_twenty_pair_fixture_matches_frozen_report(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "evaluate",
            "--hyp",
            str(data_dir / "metric_fixture_hyps.txt"),
            "--ref",
            str(data_dir / "metric_fixture_refs.txt"),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(stdout)
        expected = json.loads((data_dir / "metric_fixture_expected.json").read_text())
        for key, value in expected.items():
            assert report[key] == pytest.approx(value, abs=1e-6), key

    def test_line_count_mismatch_exit_65(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\nb\n", encoding="utf-8")
        ref.write_text("a\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--hyp", str(hyp), "--ref", str(ref))
        assert code == 65
        assert "mismatch" in err

    def test_metric_subset_and_markdown(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            "evaluate",
            "--hyp",
            str(hyp),
            "--ref",
            str(hyp),
            "--metrics",
            "bleu,rouge",
            "--format",
            "markdown",
        )
        assert code == 0
        assert "| bleu |" in stdout or "bleu" in stdout.splitlines()[0]
        assert "1.000" in stdout
        assert "bert_f1" not in stdout

    def test_codepoint_tokenization_for_unsegmented_text(self, tmp_path, capsys):
        # whitespace tokens disagree, codepoints agree
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("ᎠᎹᎣᏍᏓ\n", encoding="utf-8")
        ref.write_text("ᎠᎹ ᎣᏍᏓ\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            "evaluate",
            "--hyp",
            str(hyp),
            "--ref",
            str(ref),
            "--metrics",
            "bleu,rouge",
            "--tokenize",
            "codepoint",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["bleu"] == pytest.approx(1.0)
        code, stdout, _ = run(
            capsys,
            "evaluate",
            "--hyp",
            str(hyp),
            "--ref",
            str(ref),
            "--metrics",
            "bleu,rouge",
            "--tokenize",
            "whitespace",
            "--format",
            "json",
        )
        assert json.loads(stdout)["bleu"] < 1.0

    def test_nan_token_embedding_is_exit_65_without_report(self, tmp_path, capsys, monkeypatch):
        class _NanEmbedder:
            embedder_id = "nan"

            def embed_tokens(self, tokens):
                return [[float("nan")] * 8 for _ in tokens]

        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (_NanEmbedder(), MockGenerator())
        )
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        report = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, "evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--output", str(report)
        )
        assert code == 65
        assert stdout == "" and not report.exists()
        assert err.startswith("lexrag: validation error:") and err.count("\n") == 1
        assert "non-finite vector" in err

    @pytest.mark.parametrize(
        "dims",
        [[[8] * 32, [16] * 8], [[8] * 5 + [16] + [8] * 26, [8] * 8]],
        ids=["between_requests", "within_one_request"],
    )
    def test_token_dimension_drift_is_exit_65(self, tmp_path, capsys, monkeypatch, dims):
        class _DriftingEmbedder:
            embedder_id = "drifting"
            requests = iter(dims)

            def embed_tokens(self, tokens):
                vectors = MockEmbedder(16).embed_tokens(tokens)
                return [v[:dim] for v, dim in zip(vectors, next(self.requests))]

        monkeypatch.setattr(
            "lexrag.cli.make_backends", lambda settings: (_DriftingEmbedder(), MockGenerator())
        )
        hyp = tmp_path / "h.txt"
        hyp.write_text("".join(chr(0x13A0 + i) for i in range(40)) + "\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "evaluate", "--hyp", str(hyp), "--ref", str(hyp),
            "--metrics", "bertscore", "--tokenize", "codepoint",
        )
        assert code == 65 and stdout == ""
        assert err == "lexrag: validation error: embedding dimension drifted from 8 to 16\n"

    def test_labels_embedded_in_json(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            "evaluate",
            "--hyp",
            str(hyp),
            "--ref",
            str(hyp),
            "--language",
            "Cherokee",
            "--model",
            "mock",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["language"] == "Cherokee"
        assert report["model"] == "mock"


class TestHumanEval:
    def test_reference_sheet_display(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "humaneval",
            "--scores",
            str(data_dir / "human_scores_tibetan.csv"),
            "--format",
            "markdown",
        )
        assert code == 0
        lines = dict(line.split("\t") for line in stdout.strip().splitlines())
        assert lines["gpt-4o-rag"] == "0.293"
        assert lines["gpt-4o"] == "0.147"
        assert lines["llama-3.1-405b"] == "0.067"

    def test_json_full_precision(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "humaneval",
            "--scores",
            str(data_dir / "human_scores_tibetan.csv"),
            "--format",
            "json",
        )
        assert code == 0
        rows = {row["model"]: row["human_eval"] for row in json.loads(stdout)}
        assert rows["gpt-4o-rag"] == pytest.approx(22 / 75, abs=1e-12)

    def test_single_perfect_row(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text(
            "sentence_id,model_id,fluency,grammaticality,faithfulness\ns1,m,5,5,5\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(capsys, "humaneval", "--scores", str(path), "--format", "markdown")
        assert code == 0
        assert stdout.strip() == "m\t1.000"

    def test_score_out_of_range_exit_65_names_row(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text(
            "sentence_id,model_id,fluency,grammaticality,faithfulness\n"
            "s1,m,1,1,1\ns2,m,7,1,1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "humaneval", "--scores", str(path))
        assert code == 65
        assert ":3" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    @pytest.mark.parametrize("mode", ["--per-model", "--no-per-model"])
    def test_header_only_sheet_exit_65_names_file(self, tmp_path, capsys, fmt, mode):
        path = tmp_path / "empty.csv"
        path.write_text(
            "sentence_id,model_id,fluency,grammaticality,faithfulness\n", encoding="utf-8"
        )
        code, stdout, err = run(capsys, "humaneval", "--scores", str(path), mode, "--format", fmt)
        assert code == 65
        assert stdout == ""
        assert err == f"lexrag: validation error: {path}: no score rows\n"

    def test_pooled_mode(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "humaneval",
            "--scores",
            str(data_dir / "human_scores_tibetan.csv"),
            "--no-per-model",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(stdout)
        assert len(rows) == 1
        assert rows[0]["human_eval"] == pytest.approx((5 + 11 + 22) / (15 * 15))


class TestReport:
    def test_merged_markdown_matches_golden(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "report",
            str(data_dir / "report_machine_alpha.json"),
            str(data_dir / "report_machine_beta.json"),
            str(data_dir / "report_human.json"),
            "--format",
            "markdown",
        )
        assert code == 0
        assert stdout == (data_dir / "golden_report.md").read_text(encoding="utf-8")

    def test_two_reports_two_rows(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "report",
            str(data_dir / "report_machine_alpha.json"),
            str(data_dir / "report_machine_beta.json"),
            "--format",
            "markdown",
        )
        assert code == 0
        rows = [line for line in stdout.splitlines() if line.startswith("| Atlantean")]
        assert len(rows) == 2
        assert "- |" in rows[0]  # human eval column absent

    def test_duplicate_rows_exit_65(self, data_dir, capsys):
        code, _, err = run(
            capsys,
            "report",
            str(data_dir / "report_machine_alpha.json"),
            str(data_dir / "report_machine_alpha.json"),
        )
        assert code == 65
        assert "duplicate" in err

    def test_missing_labels_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bleu": 1.0}', encoding="utf-8")
        code, _, err = run(capsys, "report", str(bad))
        assert code == 65
        assert "language" in err

    @pytest.mark.parametrize(
        "row,field",
        [
            ('{"language": null, "model": ["m"], "bleu": 0.5}', "language"),
            ('{"language": "x", "model": ["m"], "bleu": 0.5}', "model"),
            ('{"language": 3, "model": "m"}', "language"),
        ],
        ids=["language-null", "model-list", "language-int"],
    )
    def test_non_string_labels_exit_65(self, tmp_path, capsys, row, field):
        bad = tmp_path / "bad.json"
        bad.write_text(row, encoding="utf-8")
        code, stdout, err = run(capsys, "report", str(bad))
        assert code == 65 and stdout == ""
        assert err == f"lexrag: validation error: {bad}: field {field!r} must be a string\n"

    def test_json_passthrough_full_precision(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys,
            "report",
            str(data_dir / "report_human.json"),
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(stdout)
        assert rows[0]["human_eval"] == pytest.approx(0.29333333333333333, abs=1e-15)


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _readme_sample_config() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


class TestReadmeConfig:
    def test_sample_config_loads_and_lists_every_key(self, tmp_path):
        sample = _readme_sample_config()
        path = tmp_path / "lexrag.json"
        path.write_text(sample, encoding="utf-8")
        config = load_config(str(path))
        assert config.retrieval.k_total == 8 and config.backend.retry.max_attempts == 3

        raw = json.loads(sample)
        assert set(raw) == _names(AppConfig)
        assert set(raw["backend"]) == {"provider", "embed_dim"} | _names(BackendConfig)
        assert set(raw["backend"]["retry"]) == _names(RetryPolicy)
        assert set(raw["retrieval"]) == _names(RetrievalConfig) - {"max_phrase_len"}


_NEGATIVE_BACKOFF = "initial_backoff_ms and multiplier must be >= 0"


class TestConfigValues:
    """A config value of the wrong type or out of range fails at load, before
    any index or request: exit 65 with one line naming the file and the key."""

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"template": 5}, "field 'template' must be a string or null, got 5"),
            ({"index_dir": 5}, "field 'index_dir' must be a string or null, got 5"),
            ({"backend": {"base_url": 5}}, "field 'backend.base_url' must be a string, got 5"),
            (
                {"backend": {"api_key_env": 5}},
                "field 'backend.api_key_env' must be a string, got 5",
            ),
            (
                {"backend": {"timeout_s": "1"}},
                'field \'backend.timeout_s\' must be a finite number, got "1"',
            ),
            (
                {"backend": {"timeout_s": float("inf")}},
                "field 'backend.timeout_s' must be a finite number, got Infinity",
            ),
            (
                {"backend": {"provider": "http", "retry": {"max_attempts": 2.5}}},
                "field 'backend.retry.max_attempts' must be an integer, got 2.5",
            ),
            (
                {"backend": {"embed_dim": 2.5}},
                "field 'backend.embed_dim' must be an integer, got 2.5",
            ),
            (
                {"backend": {"embed_dim": True}},
                "field 'backend.embed_dim' must be an integer, got true",
            ),
            (
                {"backend": {"max_in_flight": 2.5}},
                "field 'backend.max_in_flight' must be an integer, got 2.5",
            ),
            (
                {"tokenize": "words"},
                'field \'tokenize\' must be one of \'whitespace\', \'codepoint\', got "words"',
            ),
            ({"retrieval": [5]}, "field 'retrieval' must be an object, got [5]"),
            ({"backend": {"retry": {"tries": 2}}}, "unknown key 'backend.retry.tries'"),
            ([], "must be a JSON object"),
        ],
    )
    @pytest.mark.parametrize("command", ["translate", "index-build"])
    def test_wrong_type_is_exit_65(self, command, config, message, tmp_path, data_dir, capsys):
        self._assert_config_error(command, config, message, tmp_path, data_dir, capsys)

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"backend": {"retry": {"max_attempts": 0}}},
                "backend.retry: max_attempts must be >= 1",
            ),
            ({"backend": {"timeout_s": -1}}, "backend: timeout_s must be > 0"),
            ({"retrieval": {"k_vector": 9}}, "retrieval: need 1 <= k_vector <= k_total"),
            ({"backend": {"embed_dim": 0}}, "backend: embed_dim must be >= 1"),
            (
                {"backend": {"provider": "grpc"}},
                "backend: provider must be 'mock' or 'http', got 'grpc'",
            ),
            ({"report_format": "xml"}, "report_format must be json, csv or markdown, got 'xml'"),
        ],
        ids=["max_attempts", "timeout_s", "k_vector", "embed_dim", "provider", "top_level"],
    )
    @pytest.mark.parametrize("command", ["translate", "index-build"])
    def test_out_of_range_names_its_section_once(
        self, command, config, message, tmp_path, data_dir, capsys
    ):
        self._assert_config_error(command, config, message, tmp_path, data_dir, capsys)

    @staticmethod
    def _assert_config_error(command, config, message, tmp_path, data_dir, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        if command == "translate":
            argv = ["--index", str(tmp_path / "no-index"), "--text", "water"]
        else:
            argv = ["--dict", str(data_dir / "tiny_dict.jsonl"), "--out", str(tmp_path / "idx")]
        code, out, err = run(capsys, command, *argv, "--config", str(path))
        assert (code, out) == (65, "")
        assert err == f"lexrag: validation error: {path}: {message}\n"
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize(
        "backend, message",
        [
            ({"retry": {"initial_backoff_ms": -100}}, _NEGATIVE_BACKOFF),
            ({"retry": {"multiplier": -1}}, _NEGATIVE_BACKOFF),
            ({"timeout_s": -1}, "timeout_s must be > 0"),
            ({"timeout_s": 0}, "timeout_s must be > 0"),
        ],
    )
    def test_out_of_range_backend_value_fails_before_any_request(
        self, backend, message, built_index, tmp_path, capsys, monkeypatch
    ):
        def no_request(*args):
            raise AssertionError("a request was sent")

        monkeypatch.setattr("lexrag.backends.HttpBackend._send", no_request)
        path = write_config(
            tmp_path / "cfg.json",
            backend={"provider": "http", "base_url": "http://127.0.0.1:9", **backend},
        )
        argv = ("translate", "--index", str(built_index), "--text", "water", "--config", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "")
        section = "backend.retry" if "retry" in backend else "backend"
        assert err == f"lexrag: validation error: {path}: {section}: {message}\n"

    @pytest.mark.parametrize("command", ["evaluate", "index-build"])
    def test_mock_dim_over_the_cap_is_exit_65(self, command, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "cfg.json", backend={"provider": "mock", "embed_dim": 65537})
        if command == "evaluate":
            pairs = tmp_path / "pairs.txt"
            pairs.write_text("ᎠᎹ\n", encoding="utf-8")
            argv = ["--hyp", str(pairs), "--ref", str(pairs)]
        else:
            argv = ["--dict", str(data_dir / "tiny_dict.jsonl"), "--out", str(tmp_path / "idx")]
        code, out, err = run(capsys, command, *argv, "--config", str(path))
        assert (code, out) == (65, "")
        assert err == f"lexrag: validation error: {path}: backend: embed_dim must be <= 65536\n"
        assert not (tmp_path / "idx").exists()

    def test_mock_dim_at_the_cap_embeds(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", backend={"provider": "mock", "embed_dim": 65536})
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("ᎠᎹ\n", encoding="utf-8")  # one token
        argv = ("evaluate", "--hyp", str(pairs), "--ref", str(pairs), "--config", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        assert report["n_sentences"] == 1
        assert report["bert_f1"] == pytest.approx(1.0)

    def test_any_damaged_config_exits_with_a_documented_code(self, built_index, tmp_path, capsys):
        """The README sample config (with the mock provider), with one value
        or section replaced by another JSON value, cut at any offset, or with
        a 0xff byte inserted: ``translate`` returns 0, 1, 2, 64 or 65 and never
        raises, and a failure prints exactly one ``lexrag:`` line."""
        base = json.loads(_readme_sample_config())
        assert base["backend"]["provider"] == "mock"
        (tmp_path / base["template"]).write_text("{}", encoding="utf-8")
        key_paths = [(section,) for section in base] + [
            (section, *inner)
            for section, value in base.items()
            if isinstance(value, dict)
            for inner in [(key,) for key in value]
            + [(key, leaf) for key, sub in value.items() if isinstance(sub, dict) for leaf in sub]
        ]
        # Never "http", so that no request is sent.
        text = st.text(max_size=6).filter(lambda s: s != "http")
        leaf = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**70), 2**70),
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf, 1e308]),
            text,
        )
        json_value = st.recursive(
            leaf,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
            max_leaves=6,
        )
        path = tmp_path / "lexrag.json"
        argv = ("translate", "--index", str(built_index), "--text", "water", "--config", str(path))
        path.write_text(json.dumps(base), encoding="utf-8")
        assert run(capsys, *argv)[:2] == (0, "ᎠᎹ\n")

        @settings(max_examples=300, deadline=None)
        @given(damage=st.sampled_from(["replace", "cut", "0xff"]), data=st.data())
        def check(damage, data):
            raw = json.dumps(base).encode()
            if damage == "replace":
                config = json.loads(raw)
                *parents, key = data.draw(st.sampled_from(key_paths), label="key path")
                section = config
                for parent in parents:
                    section = section[parent]
                section[key] = data.draw(json_value, label="value")
                raw = json.dumps(config).encode()
            else:
                offset = data.draw(st.integers(0, len(raw)), label="offset")
                raw = raw[:offset] + (b"\xff" + raw[offset:] if damage == "0xff" else b"")
            path.write_bytes(raw)
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2, 64, 65)
            if code:
                assert err.startswith("lexrag:") and len(err.splitlines()) == 1, err

        check()


class TestTemplateFile:
    """A template file is read and checked once, before any query."""

    def _translate(self, capsys, built_index, tmp_path, mode, content):
        template = tmp_path / "template.json"
        template.write_bytes(content)
        config = write_config(tmp_path / "cfg.json", template=str(template))
        if mode == "--text":
            query = ["--text", "water"]
        else:
            (tmp_path / "in.txt").write_text("water\nsun\n", encoding="utf-8")
            query = ["--input", str(tmp_path / "in.txt")]
        code, out, err = run(
            capsys, "translate", "--index", str(built_index), *query, "--config", str(config)
        )
        return template, code, out, err

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("glossary_line_format", "{nope}", "{nope} is not one of ('headword', 'target')"),
            ("example_line_format", "{0}", "{0} is not one of ('source', 'target')"),
            (
                "preamble",
                "{source_lang.x}",
                "{source_lang.x} is not one of ('source_lang', 'target_lang')",
            ),
            (
                "glossary_line_format",
                "{headword:{target}}",
                "{headword:{target}} is not one of ('headword', 'target')",
            ),
            ("directive", "{target_lang:d}", "Unknown format code 'd' for object of type 'str'"),
            ("directive", "{target_lang", "expected '}' before end of string"),
        ],
    )
    @pytest.mark.parametrize("mode", ["--text", "--input"])
    def test_bad_placeholder_is_exit_65(
        self, mode, name, value, message, built_index, tmp_path, capsys
    ):
        content = json.dumps({name: value}).encode()
        template, code, out, err = self._translate(capsys, built_index, tmp_path, mode, content)
        assert (code, out) == (65, "")
        assert err == f"lexrag: validation error: {template}: template field {name!r}: {message}\n"

    @pytest.mark.parametrize(
        "content, code, message",
        [
            (b'{"preamble": "x', 1, "invalid JSON: Unterminated string"),
            (b'{"preamble": "\xff"}', 1, "is not valid UTF-8"),
            (b'["x"]', 65, "must be a JSON object"),
            (b'{"preamble": 5}', 65, "field 'preamble' must be a string, got 5"),
        ],
    )
    def test_unreadable_template_names_the_file(
        self, content, code, message, built_index, tmp_path, capsys
    ):
        template, got, out, err = self._translate(capsys, built_index, tmp_path, "--text", content)
        assert (got, out) == (code, "")
        assert err.startswith(f"lexrag: {'error' if code == 1 else 'validation error'}: {template}")
        assert message in err and err.count("\n") == 1


class TestUsage:
    def test_unknown_subcommand_is_64(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_required_option_is_64(self, capsys):
        assert main(["evaluate", "--hyp", "x"]) == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    # The range is checked before the index is loaded or a thread started.
    @pytest.mark.parametrize("parallel", ["0", "-2", "65", "1000000"])
    def test_translate_parallel_out_of_range_is_64(self, tmp_path, capsys, parallel):
        batch = tmp_path / "in.txt"
        batch.write_text("water\n", encoding="utf-8")
        code, out, err = run(
            capsys, "translate", "--index", str(tmp_path / "no-index"), "--input", str(batch),
            "--parallel", parallel,
        )
        assert code == 64 and out == ""
        assert err == "lexrag: error: --parallel must be between 1 and 64\n"


GOLDEN_DIR = Path(__file__).parent / "data" / "golden_cli"
_EVALUATE = (
    "evaluate",
    "--hyp",
    "{data}/metric_fixture_hyps.txt",
    "--ref",
    "{data}/metric_fixture_refs.txt",
)
_LABELS = ("--language", "Cherokee", "--model", "mock")
_HUMANEVAL = ("humaneval", "--scores", "{data}/human_scores_tibetan.csv")
_REPORT_ONE = ("report", "{data}/report_machine_alpha.json")
_REPORT_THREE = _REPORT_ONE + ("{data}/report_machine_beta.json", "{data}/report_human.json")
GOLDEN_COMMANDS = {
    "evaluate": _EVALUATE,
    "evaluate_labelled": _EVALUATE + _LABELS,
    "evaluate_subset": _EVALUATE + _LABELS + ("--metrics", "bleu,rouge"),
    "humaneval": _HUMANEVAL,
    "humaneval_labelled": _HUMANEVAL + ("--language", "Tibetan"),
    "humaneval_pooled": _HUMANEVAL + ("--no-per-model",),
    "report_one": _REPORT_ONE,
    "report_three": _REPORT_THREE,
}
GOLDEN_CASES = [
    (name, fmt) for name in GOLDEN_COMMANDS for fmt in ("json", "csv", "markdown")
]


def _golden_argv(name: str, fmt: str, data_dir: Path) -> list[str]:
    argv = [arg.format(data=data_dir) for arg in GOLDEN_COMMANDS[name]]
    return argv + ["--format", fmt]


class TestGoldenOutput:
    """Byte-exact output of every report command in every format, on stdout
    and through ``--output FILE``."""

    @pytest.mark.parametrize("name,fmt", GOLDEN_CASES)
    def test_stdout_matches_golden(self, name, fmt, data_dir, capsys):
        code, stdout, err = run(capsys, *_golden_argv(name, fmt, data_dir))
        assert code == 0, err
        expected = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
        assert stdout.encode("utf-8") == expected

    @pytest.mark.parametrize("name,fmt", GOLDEN_CASES)
    def test_output_file_matches_stdout(self, name, fmt, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = _golden_argv(name, fmt, data_dir) + ["--output", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        assert stdout == ""
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


class TestReportValues:
    """Metric values must be numbers or null, in every output format."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    @pytest.mark.parametrize("value", [[1], "0.5", True, {"x": 1}, float("inf"), float("nan")])
    def test_non_number_exit_65_naming_file_and_field(self, tmp_path, capsys, fmt, value):
        path = tmp_path / "bad.json"
        row = {"language": "x", "model": "m", "bleu": 0.5, "bert_f1": value}
        path.write_text(json.dumps([row]), encoding="utf-8")
        code, stdout, err = run(capsys, "report", str(path), "--format", fmt)
        assert code == 65
        assert stdout == ""
        assert err.startswith(f"lexrag: validation error: {path}: field 'bert_f1' ")

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_int_float_and_null_accepted(self, tmp_path, capsys, fmt):
        path = tmp_path / "ok.json"
        row = {"language": "x", "model": "m", "n_sentences": 4, "bleu": 1, "bert_f1": None,
               "rouge_l_f": 0.25}
        path.write_text(json.dumps([row]), encoding="utf-8")
        code, stdout, _ = run(capsys, "report", str(path), "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert json.loads(stdout) == [row]
        else:
            last = {
                "csv": "x,m,1.000,0.250,-,-,-,-",
                "markdown": "| x | m | 1.000 | 0.250 | - | - | - | - |",
            }
            assert stdout.endswith(last[fmt] + "\n")



class TestCsvQuoting:
    """A CSV cell holding a comma or a quote is quoted, so each row keeps
    the header's columns."""

    LABEL = 'gpt-4o, "rag"'
    QUOTED = '"gpt-4o, ""rag"""'

    def test_evaluate(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("ᎠᎹ\n", encoding="utf-8")
        argv = ["--hyp", str(hyp), "--ref", str(hyp), "--metrics", "bleu", "--model", self.LABEL]
        code, stdout, _ = run(capsys, "evaluate", *argv, "--language", "chr", "--format", "csv")
        assert code == 0
        assert stdout == f"language,model,n_sentences,bleu\nchr,{self.QUOTED},1,1.0\n"

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"language": "chr", "model": self.LABEL, "bleu": 1}), encoding="utf-8")
        code, stdout, _ = run(capsys, "report", str(path), "--format", "csv")
        assert code == 0
        assert stdout.splitlines()[1] == f"chr,{self.QUOTED},1.000,-,-,-,-,-"


class TestMarkdownPipes:
    """A ``|`` in a markdown cell is escaped as ``\\|``, so a markdown reader
    splits each row into the header's columns."""

    @staticmethod
    def columns(line: str) -> int:
        return len(re.split(r"(?<!\\)\|", line)) - 2

    def test_evaluate(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("ᎠᎹ\n", encoding="utf-8")
        argv = ["--hyp", str(hyp), "--ref", str(hyp), "--metrics", "bleu", "--model", "m|"]
        code, stdout, _ = run(capsys, "evaluate", *argv, "--language", "a|b", "--format", "markdown")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[2] == r"| a\|b | m\| | 1 | 1.000 |"
        assert [self.columns(line) for line in lines] == [4, 4, 4]

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        row = {"language": "|chr", "model": "gpt|rag", "bleu": 1}
        path.write_text(json.dumps(row), encoding="utf-8")
        code, stdout, _ = run(capsys, "report", str(path), "--format", "markdown")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[2] == r"| \|chr | gpt\|rag | 1.000 | - | - | - | - | - |"
        assert [self.columns(line) for line in lines] == [8, 8, 8]


class TestNonUtf8Files:
    """A file that is not valid UTF-8 is exit 1 with one line naming it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "--hyp", "{good}", "--ref", "{bad}"),
            ("humaneval", "--scores", "{bad}"),
            ("report", "{bad}"),
            ("evaluate", "--hyp", "{good}", "--ref", "{good}", "--config", "{bad}"),
        ],
        ids=["evaluate", "humaneval", "report", "config"],
    )
    def test_names_the_file(self, argv, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("a\n\nb\n", encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a\n\xff\nb\n")
        code, stdout, err = run(capsys, *(arg.format(good=good, bad=bad) for arg in argv))
        assert code == 1
        assert stdout == ""
        assert err.startswith("lexrag: error:") and err.count("\n") == 1
        assert f"{bad} is not valid UTF-8" in err


class TestIntegerOverDigitLimit:
    """Past Python's int-digit limit ``json.loads`` raises a plain ValueError,
    not a JSONDecodeError; on a JSONL input line that is still exit 1 with
    one line naming the file and the line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("index-build", "--dict", "{bad}", "--out", "{out}"),
            ("index-build", "--parallel", "{bad}", "--out", "{out}"),
            ("translate", "--index", "{index}", "--input", "{bad}"),
        ],
        ids=["dict", "parallel", "translate-input"],
    )
    def test_names_file_and_line(self, argv, built_index, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('\n{"id": ' + "9" * 5000 + "}\n", encoding="utf-8")
        values = {"bad": bad, "out": tmp_path / "new", "index": built_index}
        code, stdout, err = run(capsys, *(arg.format(**values) for arg in argv))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"lexrag: error: {bad}:2: ") and err.count("\n") == 1, err


# Nested past the recursion limit, ``json.loads`` raises RecursionError.
_NESTED = "[" * 100_000 + "]" * 100_000
_TRANSLATE_X = ("translate", "--index", "{index}", "--text", "x")
_BUILD_TINY = ("index-build", "--dict", "{data}/tiny_dict.jsonl", "--out")


class TestDeeplyNestedJson:
    """JSON nested too deeply to parse is exit 1 with one ``lexrag:`` line
    naming the file, wherever lexrag reads JSON; in an HTTP reply, it is
    exit 2.  The cache line is followed by the file's good lines."""

    @pytest.mark.parametrize(
        "argv, damaged",
        [
            (("index-build", "--dict", "{tmp}/d.jsonl", "--out", "{tmp}/new"), "{tmp}/d.jsonl"),
            (("index-build", "--parallel", "{tmp}/p.jsonl", "--out", "{tmp}/new"), "{tmp}/p.jsonl"),
            (("translate", "--index", "{index}", "--input", "{tmp}/in.jsonl"), "{tmp}/in.jsonl"),
            ((*_TRANSLATE_X, "--config", "{tmp}/c.json"), "{tmp}/c.json"),
            (("report", "{tmp}/m.json"), "{tmp}/m.json"),
            (_TRANSLATE_X, "{index}/" + DOCS_FILE),
            (_TRANSLATE_X, "{index}/" + MANIFEST_FILE),
            (_TRANSLATE_X, "{index}/" + KEYWORD_FILE),
            ((*_BUILD_TINY, "{index}"), "{index}/" + CACHE_FILE),
            ((*_BUILD_TINY, "{tmp}/new", "--config", "{tmp}/http.json"), None),
        ],
        ids=[
            "dict", "parallel", "translate-input", "config", "report", "docs", "manifest",
            "keyword-index", "cache-line", "http-reply",
        ],
    )
    def test_one_line_and_exit_code(
        self, argv, damaged, built_index, data_dir, tmp_path, capsys, request
    ):
        values = {"tmp": tmp_path, "index": built_index, "data": data_dir}
        if damaged is None:
            server = request.getfixturevalue("stub_server")
            server.respond = lambda path, payload: _NESTED.encode()
            host, port = server.server_address
            backend = {"provider": "http", "base_url": f"http://{host}:{port}"}
            (tmp_path / "http.json").write_text(json.dumps({"backend": backend}), encoding="utf-8")
        else:
            path = Path(damaged.format(**values))
            rest = path.read_text(encoding="utf-8") if path.name == Path(CACHE_FILE).name else ""
            path.write_text(_NESTED + "\n" + rest, encoding="utf-8")
        code, stdout, err = run(capsys, *(arg.format(**values) for arg in argv))
        assert (code, stdout) == ((1, "") if damaged else (2, ""))
        assert err.startswith("lexrag: ") and err.count("\n") == 1, err[:300]
        if damaged:
            assert damaged.format(**values) in err
        else:
            assert err.endswith("/embeddings: response is not JSON\n")


_TEST_DATA = Path(__file__).parent / "data"
_DICT_FIELDS = ("headword", "target", "definition", "part_of_speech", "examples")
_PARALLEL_FIELDS = ("source_text", "target_text", "source_lang", "target_lang", "provenance")
_BLANK = st.text(" \u00a0\u3000", min_size=0, max_size=3)  # empty or whitespace only
_PUNCTUATION = st.text("?!.,'-«»…", min_size=1, max_size=4)
_JSON_VALUES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.text(max_size=3), st.integers()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    _BLANK,
    st.text(" \t\n\r\u2028", min_size=1, max_size=3),
    _PUNCTUATION,
)
_PAIRS = st.one_of(
    st.lists(st.text("ab ", max_size=3), max_size=4).filter(lambda pair: len(pair) != 2),
    st.tuples(_BLANK, st.just("b")).map(list),
    st.tuples(st.just("a"), _BLANK).map(list),
)


class TestDamagedCorpusContract:
    """Whatever one damage does to a dictionary or parallel file, ``index-build``
    either succeeds with an index that loads, or is exit 1 with one ``lexrag:``
    line naming the damaged file.  A byte that is not UTF-8, a tab added or
    removed in a TSV line and a bad dictionary example pair are always exit 1."""

    DAMAGES = {
        "tiny_dict.jsonl": ("cut", "delete", "set", "byte", "pair"),
        "tiny_parallel.jsonl": ("cut", "delete", "set", "byte"),
        "tiny_parallel.tsv": ("cut", "set", "byte", "tab"),
    }

    @settings(max_examples=200, deadline=None)
    @given(
        parallel=st.sampled_from(["tiny_parallel.jsonl", "tiny_parallel.tsv"]),
        target=st.sampled_from([0, 1]),
        data=st.data(),
    )
    def test_exit_0_or_1_naming_the_file(self, parallel, target, data):
        names = ("tiny_dict.jsonl", parallel)
        texts = [(_TEST_DATA / name).read_text(encoding="utf-8") for name in names]
        damage = data.draw(st.sampled_from(self.DAMAGES[names[target]]), label="damage")
        fatal = damage in ("byte", "tab", "pair")
        lines = texts[target].splitlines()
        row = data.draw(st.integers(0, len(lines) - 1), label="line")
        if names[target].endswith(".tsv") and damage == "set":
            columns = lines[row].split("\t")
            columns[data.draw(st.integers(0, 4), label="column")] = data.draw(_BLANK | _PUNCTUATION)
            lines[row] = "\t".join(columns)
        elif damage == "tab":
            line = lines[row]
            if data.draw(st.booleans(), label="add"):
                at = data.draw(st.integers(0, len(line)), label="at")
                lines[row] = line[:at] + "\t" + line[at:]
            else:
                at = data.draw(st.sampled_from([i for i, c in enumerate(line) if c == "\t"]))
                lines[row] = line[:at] + line[at + 1 :]
        elif damage in ("delete", "set", "pair"):
            record = json.loads(lines[row])
            if damage == "delete":
                del record[data.draw(st.sampled_from(sorted(record)), label="key")]
            elif damage == "set":
                key = data.draw(st.sampled_from(_PARALLEL_FIELDS if target else _DICT_FIELDS))
                record[key] = data.draw(_JSON_VALUES, label="value")
            else:
                record["examples"] = [["a", "b"], data.draw(_PAIRS, label="pair")]
            lines[row] = json.dumps(record, ensure_ascii=False)
        raw = [text.encode("utf-8") for text in texts]
        raw[target] = "".join(line + "\n" for line in lines).encode("utf-8")
        if damage == "cut":
            raw[target] = raw[target][: data.draw(st.integers(0, len(raw[target])), label="cut")]
        elif damage == "byte":
            at = data.draw(st.integers(0, len(raw[target])), label="at")
            byte = data.draw(st.sampled_from([b"\x80", b"\xbf", b"\xc0", b"\xf5", b"\xff"]))
            raw[target] = raw[target][:at] + byte + raw[target][at:]

        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp, name) for name in names]
            for path, content in zip(paths, raw):
                path.write_bytes(content)
            config = write_config(Path(tmp, "lexrag.json"))
            out = Path(tmp, "idx")
            argv = ["index-build", "--dict", str(paths[0]), "--parallel", str(paths[1])]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out), "--config", str(config)])
            err = stderr.getvalue()
            if code == 0 and not fatal:
                assert load_index(out).manifest.count > 0
            else:
                assert code == 1, (code, err)
                assert err.startswith("lexrag: error: ") and err.count("\n") == 1, err
                assert str(paths[target]) in err, err


_LONE_SURROGATES = st.text(st.characters(whitelist_categories=["Cs"]), min_size=1, max_size=2)
_INSERTS = [b"\x80", b"\xbf", b"\xc0", b"\xf5", b"\xff", b"\x00", b'"', b"x" * 200_000]
# One damage to a line file: cut at a byte; delete a key, column or line;
# set a field (or a text line) to a JSON value; insert a byte that is not
# UTF-8, a NUL, a stray quote or an over-long field.  Indexes wrap around.
_LINE_DAMAGES = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("delete"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(
        st.just("set"), st.integers(0, 99), st.integers(0, 9), _JSON_VALUES | _LONE_SURROGATES
    ),
    st.tuples(st.just("insert"), st.integers(0, 2**20), st.sampled_from(_INSERTS)),
)


def _damaged_lines(records: list, damage) -> bytes:
    """``records`` (JSON objects, CSV rows as lists of cells, or text lines)
    as the bytes of a line file, with ``damage`` done to them.  A lone
    surrogate is written as a JSON escape, or as the bytes UTF-8 refuses."""
    kind, *args = damage
    records = [copy.copy(record) for record in records]
    if kind in ("delete", "set"):
        row = args[0] % len(records)
        record = records[row]
        value = args[2] if kind == "set" else None
        text = value if isinstance(value, str) else json.dumps(value)
        if isinstance(record, str):  # a text line is its one field
            if kind == "delete":
                del records[row]
            else:
                records[row] = text
        else:
            key = (sorted(record) if isinstance(record, dict) else range(len(record)))[
                args[1] % len(record)
            ]
            if kind == "delete":
                del record[key]
            else:
                record[key] = value if isinstance(record, dict) else text
    lines = [
        json.dumps(record) if isinstance(record, dict)
        else ",".join(record) if isinstance(record, list)
        else record
        for record in records
    ]
    raw = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
    if kind == "cut":
        raw = raw[: args[0] % (len(raw) + 1)]
    elif kind == "insert":
        at = args[0] % (len(raw) + 1)
        raw = raw[:at] + args[1] + raw[at:]
    return raw


def _one_error_line(code: int, stdout: str, err: str) -> None:
    assert code in (1, 65) and stdout == "", (code, err[:300])
    assert err.startswith("lexrag: ") and err.count("\n") == 1, err[:300]


class TestDamagedInputContract:
    """Whatever one damage does to a ``translate --input`` file (JSONL or
    plain text), a ``humaneval`` score sheet, an ``evaluate`` hypothesis or
    reference file or a ``report`` metrics JSON, the command exits 0, 1 or
    65 with no traceback.  Exit 0 means one record per non-blank input line
    (or a score per model, a report of every line pair, a merged table);
    exits 1 and 65 mean exactly one ``lexrag:`` line."""

    SOURCES = (_TEST_DATA / "batch_input.txt").read_text(encoding="utf-8").splitlines()

    def test_translate_input(self, built_index, tmp_path, capsys):
        config = write_config(tmp_path / "mock.json")
        jsonl = [{"id": i if i % 2 else f"s{i}", "source": s} for i, s in enumerate(self.SOURCES)]

        @settings(max_examples=150, deadline=None)
        @given(suffix=st.sampled_from([".jsonl", ".txt"]), damage=_LINE_DAMAGES)
        @example(suffix=".jsonl", damage=("set", 1, 1, "w\ud800"))
        @example(suffix=".jsonl", damage=("set", 2, 0, "\udfff"))
        def check(suffix, damage):
            path = tmp_path / f"in{suffix}"
            raw = _damaged_lines(jsonl if suffix == ".jsonl" else self.SOURCES, damage)
            path.write_bytes(raw)
            argv = ["translate", "--index", str(built_index), "--input", str(path)]
            code, stdout, err = run(capsys, *argv, "--config", str(config))
            if code != 0:
                _one_error_line(code, stdout, err)
                return
            lines = split_lines(raw.decode("utf-8"))
            assert stdout.count("\n") == sum(1 for line in lines if line.strip()), err

        check()

    def test_humaneval_sheet(self, tmp_path, capsys):
        config = write_config(tmp_path / "mock.json")
        text = (_TEST_DATA / "human_scores_tibetan.csv").read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()]

        @settings(max_examples=150, deadline=None)
        @given(damage=_LINE_DAMAGES)
        @example(damage=("insert", len(text) - 3, b"x" * 200_000))
        @example(damage=("set", 1, 1, "m" * 200_000))
        def check(damage):
            path = tmp_path / "scores.csv"
            path.write_bytes(_damaged_lines(rows, damage))
            code, stdout, err = run(capsys, "humaneval", "--scores", str(path), "--config", str(config))
            if code != 0:
                _one_error_line(code, stdout, err)
                return
            assert err == "" and json.loads(stdout), err

        check()

    def test_evaluate_pair_files(self, tmp_path, capsys):
        config = write_config(tmp_path / "mock.json")
        lines = {
            name: (_TEST_DATA / f"metric_fixture_{name}.txt").read_text(encoding="utf-8")
            for name in ("hyps", "refs")
        }

        @settings(max_examples=100, deadline=None)
        @given(target=st.sampled_from(sorted(lines)), damage=_LINE_DAMAGES)
        @example(target="refs", damage=("insert", 40, b"x" * 200_000))
        def check(target, damage):
            for name, text in lines.items():
                raw = _damaged_lines(text.splitlines(), damage) if name == target else text.encode()
                (tmp_path / f"{name}.txt").write_bytes(raw)
            hyp, ref = tmp_path / "hyps.txt", tmp_path / "refs.txt"
            argv = ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--config", str(config)]
            code, stdout, err = run(capsys, *argv)
            if code != 0:
                _one_error_line(code, stdout, err)
                return
            hyps = split_lines(hyp.read_bytes().decode("utf-8"))
            assert err == "" and json.loads(stdout)["n_sentences"] == len(hyps), err

        check()

    def test_report_json(self, tmp_path, capsys):
        config = write_config(tmp_path / "mock.json")
        rows = []
        for name in ("report_machine_alpha.json", "report_machine_beta.json", "report_human.json"):
            data = json.loads((_TEST_DATA / name).read_text(encoding="utf-8"))
            rows += data if isinstance(data, list) else [data]

        @settings(max_examples=150, deadline=None)
        @given(damage=_LINE_DAMAGES)
        @example(damage=("set", 0, 4, "L\ud800"))  # the first row's language
        @example(damage=("set", 3, 2, "\udfff"))  # the last row's model
        def check(damage):
            path = tmp_path / "report.json"
            path.write_bytes(b"[" + b",".join(_damaged_lines(rows, damage).splitlines()) + b"]")
            code, stdout, err = run(capsys, "report", str(path), "--config", str(config))
            if code != 0:
                _one_error_line(code, stdout, err)
                return
            assert err == "" and isinstance(json.loads(stdout), list), err

        check()


_DICT = ("index-build", "--dict", "{tmp}/d.jsonl", "--out", "{tmp}/idx")
_PARALLEL = ("index-build", "--parallel", "{tmp}/p.jsonl", "--out", "{tmp}/idx")
_EVALUATE_AB = ("evaluate", "--hyp", "{tmp}/h.txt", "--ref", "{tmp}/r.txt")
_HUMANEVAL_S = ("humaneval", "--scores", "{tmp}/s.csv")
_BATCH = ("translate", "--index", "{index}", "--input", "{tmp}/in.jsonl")
_TEXT = ("translate", "--index", "{index}", "--text", "water")
_PAIR_FILES = {"h.txt": "a b\n", "r.txt": "a c\n"}
_SHEET_HEADER = "sentence_id,model_id,fluency,grammaticality,faithfulness\n"
_EXAMPLES_MESSAGE = "error: {tmp}/d.jsonl:1: examples must be a list of [source, target] pairs"
_EMPTY_TEXT_MESSAGE = "error: {tmp}/p.jsonl:1: source_text and target_text must be non-empty"


def _dict_line(**fields) -> dict[str, str]:
    return {"d.jsonl": json.dumps({"headword": "a", "target": "b", **fields})}


def _parallel_line(**fields) -> dict[str, str]:
    line = {"source_text": "a", "target_text": "b", "source_lang": "en", "target_lang": "chr"}
    return {"p.jsonl": json.dumps({**line, **fields})}


class TestErrorExits:
    """Each misuse below is its documented exit code and one ``lexrag:`` line
    on stderr, naming the file (and line) at fault; nothing goes to stdout."""

    @pytest.mark.parametrize(
        "argv, files, code, message",
        [
            (
                ("translate", "--text", "water"), {}, 64,
                "error: --index is required (or set index_dir in the config)",
            ),
            (
                ("translate", "--index", "{index}", "--text", "x", "--config", "{tmp}/c.json"),
                {"c.json": '{"template": "absent.json"}'}, 1,
                "error: template file not found: absent.json",
            ),
            (
                ("translate", "--index", "{index}", "--input", "{tmp}/in.txt"),
                {"in.txt": "\n  \n\t\n"}, 1, "error: {tmp}/in.txt: no input sentences",
            ),
            (
                ("translate", "--index", "{index}", "--text", ""), {}, 64,
                "error: --text is blank: give a sentence to translate",
            ),
            (
                ("translate", "--index", "{index}", "--text", "   "), {}, 64,
                "error: --text is blank: give a sentence to translate",
            ),
            (
                ("evaluate", "--hyp", "{tmp}/absent.txt", "--ref", "{tmp}/r.txt"),
                {"r.txt": "a\n"}, 1, "error: file not found: {tmp}/absent.txt",
            ),
            (
                ("report", "{tmp}/absent.json"), {}, 1,
                "error: metrics file not found: {tmp}/absent.json",
            ),
            (
                _DICT, {"d.jsonl": '["water", "x"]'}, 1,
                "error: {tmp}/d.jsonl:1: expected a JSON object",
            ),
            (
                _DICT, _dict_line(definition=5), 1,
                "error: {tmp}/d.jsonl:1: field 'definition' must be a string",
            ),
            (_DICT, _dict_line(target=" "), 1, "error: {tmp}/d.jsonl:1: target is empty"),
            (_DICT, _dict_line(examples="x"), 1, _EXAMPLES_MESSAGE),
            (_DICT, _dict_line(examples=[["x", "y"], ["z"]]), 1, _EXAMPLES_MESSAGE),
            (
                _DICT, _dict_line(examples=[["x", "y"], ["z", " \u3000"]]), 1,
                "error: {tmp}/d.jsonl:1: an example's source and target must be non-empty",
            ),
            (_PARALLEL, _parallel_line(source_text=" "), 1, _EMPTY_TEXT_MESSAGE),
            (_PARALLEL, _parallel_line(target_text=""), 1, _EMPTY_TEXT_MESSAGE),
            (
                _PARALLEL, _parallel_line(provenance=5), 1,
                "error: {tmp}/p.jsonl:1: provenance must be a string",
            ),
            (
                ("report", "{tmp}/m.json"), {"m.json": '{"language": "x", "model": "m", "bl": 1}'},
                65, "validation error: {tmp}/m.json: unknown metric fields ['bl']",
            ),
            (
                _HUMANEVAL_S, {"s.csv": "sentence_id,model_id\n"}, 65,
                "validation error: {tmp}/s.csv: expected header " + _SHEET_HEADER.strip(),
            ),
            (
                _HUMANEVAL_S, {"s.csv": _SHEET_HEADER + "s1,m1,3,4\n"}, 65,
                "validation error: {tmp}/s.csv:2: expected 5 columns",
            ),
            (
                _HUMANEVAL_S, {"s.csv": _SHEET_HEADER + "s1,m1,3,4.5,2\n"}, 65,
                "validation error: {tmp}/s.csv:2: scores must be integers",
            ),
            (
                _HUMANEVAL_S, {"s.csv": _SHEET_HEADER + "s1,m1,3,4,2\ns2," + "x" * 200_000 + ",1,1,1\n"},
                65, "validation error: {tmp}/s.csv:3: field larger than field limit (131072)",
            ),
            (
                _DICT, _dict_line(definition="a\ud800"), 1,
                "error: {tmp}/d.jsonl:1: field 'definition' holds a lone surrogate",
            ),
            (
                _PARALLEL, _parallel_line(target_text="\udc00b"), 1,
                "error: {tmp}/p.jsonl:1: field 'target_text' holds a lone surrogate",
            ),
            (
                _BATCH, {"in.jsonl": '{"id": 1, "source": "water"}\n{"id": 2, "source": "w\\ud800"}\n'},
                1, "error: {tmp}/in.jsonl:2: field 'source' holds a lone surrogate",
            ),
            (
                _BATCH, {"in.jsonl": '{"id": "i\\udfff", "source": "water"}\n'},
                1, "error: {tmp}/in.jsonl:1: field 'id' holds a lone surrogate",
            ),
            (
                (*_TEXT, "--config", "{tmp}/c.json"), {"c.json": '{"source_lang": "E\\ud800"}'},
                65, "validation error: {tmp}/c.json: field 'source_lang' holds a lone surrogate",
            ),
            (
                (*_TEXT, "--config", "{tmp}/c.json"),
                {"c.json": '{"template": "t.json"}', "t.json": '{"preamble": "P\\udfff"}'},
                65, "validation error: t.json: field 'preamble' holds a lone surrogate",
            ),
            (
                ("report", "{tmp}/m.json"),
                {"m.json": '[{"language": "L\\ud800", "model": "m", "bleu": 0.5}]'},
                65, "validation error: {tmp}/m.json: field 'language' holds a lone surrogate",
            ),
            (
                (*_EVALUATE_AB, "--metrics", "bleu,bogus"), _PAIR_FILES, 65,
                "validation error: unknown metrics: ['bogus']",
            ),
            (
                (*_EVALUATE_AB, "--metrics", ""), _PAIR_FILES, 65,
                "validation error: no metrics selected: choose from bleu, rouge, bertscore",
            ),
            (
                (*_EVALUATE_AB, "--metrics", ","), _PAIR_FILES, 65,
                "validation error: no metrics selected: choose from bleu, rouge, bertscore",
            ),
            (
                (*_EVALUATE_AB, "--config", "{tmp}/c.json"),
                {**_PAIR_FILES, "c.json": '{"backend": {"max_in_flight": 0}}'}, 65,
                "validation error: {tmp}/c.json: backend: max_in_flight must be >= 1",
            ),
        ],
        ids=[
            "no-index", "template-missing", "blank-batch", "empty-text", "blank-text",
            "hyp-missing", "report-missing",
            "dict-not-object", "dict-definition-int", "dict-target-empty", "dict-examples-str",
            "dict-example-pair", "dict-example-empty", "parallel-source-empty",
            "parallel-target-empty", "parallel-provenance-int", "report-unknown-field",
            "humaneval-header", "humaneval-columns", "humaneval-score", "humaneval-long-field",
            "dict-surrogate", "parallel-surrogate", "batch-surrogate-source", "batch-surrogate-id",
            "config-surrogate", "template-surrogate", "report-surrogate",
            "evaluate-metric", "evaluate-no-metric", "evaluate-comma-metric", "max-in-flight-0",
        ],
    )
    def test_exit_code_and_one_line(
        self, argv, files, code, message, built_index, tmp_path, capsys
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        values = {"tmp": tmp_path, "index": built_index}
        got, stdout, err = run(capsys, *(arg.format(**values) for arg in argv))
        assert (got, stdout) == (code, "")
        assert err == f"lexrag: {message.format(**values)}\n"

    def test_line_break_in_a_quoted_name_stays_on_the_one_line(
        self, built_index, tmp_path, capsys
    ):
        # Each character str.splitlines breaks at, in a config's template name.
        breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        config = tmp_path / "c.json"
        argv = (
            "translate", "--index", str(built_index), "--text", "water", "--config", str(config)
        )

        names = st.text(st.sampled_from("ab0" + breaks), min_size=1)

        @settings(max_examples=60, deadline=None)
        @given(names.filter(lambda name: set(name) & set(breaks)))
        def check(name):
            plain = "".join("_" if c in breaks else c for c in name)
            config.write_text(json.dumps({"template": plain}), encoding="utf-8")
            expected, _, _ = run(capsys, *argv)
            config.write_text(json.dumps({"template": name}), encoding="utf-8")
            code, stdout, err = run(capsys, *argv)
            assert code == expected == 1 and stdout == ""
            assert err.startswith("lexrag: error: template file not found: ")
            assert len(err.splitlines()) == 1 and err.endswith("\n")

        check()
