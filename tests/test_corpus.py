from __future__ import annotations

import json
import logging
import re
import unicodedata

import pytest

from lexrag.corpus import (
    DictionaryEntry,
    IngestError,
    ParallelExample,
    load_dictionary,
    load_documents,
    load_parallel,
    save_documents,
    to_documents,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDictionary:
    def test_direct_field_mapping(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"water","target":"ᎠᎹ"}\n')
        entries = load_dictionary(path)
        assert entries == [DictionaryEntry(headword="water", target="ᎠᎹ")]

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        path = write(tmp_path, "d.jsonl", "")
        with caplog.at_level(logging.WARNING):
            assert load_dictionary(path) == []
        assert any("no entries" in record.message for record in caplog.records)

    def test_empty_headword_names_line_and_invariant(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"ok","target":"x"}\n{"headword":""}\n')
        with pytest.raises(IngestError, match=r"d\.jsonl:2.*headword"):
            load_dictionary(path)

    def test_missing_target_is_an_error(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"water"}\n')
        with pytest.raises(IngestError, match="target"):
            load_dictionary(path)

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"a","target":"b"}\n{oops\n')
        with pytest.raises(IngestError, match=r":2"):
            load_dictionary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            load_dictionary(tmp_path / "absent.jsonl")

    def test_headword_too_long_for_index(self, tmp_path):
        path = write(
            tmp_path, "d.jsonl", '{"headword":"one two three four five","target":"x"}\n'
        )
        with pytest.raises(IngestError, match="exceeds 4 words"):
            load_dictionary(path)

    def test_order_preserved_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "d.jsonl",
            '{"headword":"a","target":"1"}\n\n{"headword":"b","target":"2"}\n',
        )
        assert [e.headword for e in load_dictionary(path)] == ["a", "b"]

    def test_nfc_normalization_applied(self, tmp_path):
        decomposed = "é"  # e + combining acute
        path = write(tmp_path, "d.jsonl", json.dumps({"headword": decomposed, "target": "x"}))
        entries = load_dictionary(path)
        assert entries[0].headword == unicodedata.normalize("NFC", decomposed) == "é"


class TestLoadParallel:
    def test_tsv_row(self, data_dir):
        examples = load_parallel(data_dir / "tiny_parallel.tsv")
        assert examples[0] == ParallelExample(
            source_text="For God so loved the world",
            target_text="ᎾᏍᎩᏰᏃ ᏂᎦᎥᎩ ᎤᏁᎳᏅᎯ ᎤᎨᏳᏒᎩ ᎡᎶᎯ",
            source_lang="en",
            target_lang="chr",
            provenance="NT",
        )

    def test_jsonl_matches_tsv(self, data_dir):
        tsv = load_parallel(data_dir / "tiny_parallel.tsv")
        jsonl = load_parallel(data_dir / "tiny_parallel.jsonl")
        assert tsv[:2] == jsonl[:2]

    def test_three_line_file_in_order(self, data_dir):
        examples = load_parallel(data_dir / "tiny_parallel.tsv")
        assert len(examples) == 3
        assert examples[2].source_text == "water is good"

    def test_missing_target_text(self, tmp_path):
        path = write(
            tmp_path,
            "p.jsonl",
            '{"source_text":"hi","source_lang":"en","target_lang":"chr"}\n',
        )
        with pytest.raises(IngestError, match="target_text"):
            load_parallel(path)

    def test_tsv_wrong_column_count(self, tmp_path):
        path = write(tmp_path, "p.tsv", "only\ttwo\n")
        with pytest.raises(IngestError, match="5 tab-separated columns"):
            load_parallel(path)

    def test_empty_language_code_rejected(self, tmp_path):
        path = write(tmp_path, "p.tsv", "a\tb\t\tchr\tsrc\n")
        with pytest.raises(IngestError, match="language codes"):
            load_parallel(path)

    def test_tsv_suffix_in_any_case(self, tmp_path):
        path = write(tmp_path, "p.TSV", "a\tb\ten\tchr\tsrc\n")
        assert load_parallel(path) == [ParallelExample("a", "b", "en", "chr", "src")]

    def test_other_suffix_is_jsonl(self, tmp_path):
        record = {
            "source_text": "a",
            "target_text": "b",
            "source_lang": "en",
            "target_lang": "chr",
            "provenance": "src",
        }
        path = write(tmp_path, "p.txt", json.dumps(record) + "\n")
        assert load_parallel(path) == [ParallelExample("a", "b", "en", "chr", "src")]


class TestToDocuments:
    def test_ids_and_kinds(self):
        entries = [DictionaryEntry("water", "ᎠᎹ"), DictionaryEntry("sun", "ᏅᏓ")]
        examples = [ParallelExample("a b", "c", "en", "chr", "p")]
        docs = to_documents(entries, examples)
        assert [d.id for d in docs] == ["d:0", "d:1", "x:0"]
        assert [d.kind for d in docs] == ["dictionary", "dictionary", "example"]

    def test_render_text_without_definition(self):
        docs = to_documents([DictionaryEntry("water", "ᎠᎹ")], [])
        assert docs[0].render_text == "water — ᎠᎹ"

    def test_render_text_with_definition(self):
        docs = to_documents([DictionaryEntry("sun", "ᏅᏓ", definition="day star")], [])
        assert docs[0].render_text == "sun — ᏅᏓ — day star"

    def test_example_render_text(self):
        docs = to_documents([], [ParallelExample("water is good", "ᎠᎹ ᎣᏍᏓ", "en", "chr")])
        assert docs[0].render_text == "water is good ⇒ ᎠᎹ ᎣᏍᏓ"

    def test_deterministic(self, tiny_docs):
        entries = [DictionaryEntry("water", "ᎠᎹ"), DictionaryEntry("sun", "ᏅᏓ")]
        examples = [ParallelExample("a b", "c", "en", "chr", "p")]
        assert to_documents(entries, examples) == to_documents(entries, examples)

    def test_empty_inputs_rejected(self):
        with pytest.raises(IngestError, match="no input"):
            to_documents([], [])

    def test_id_pattern_and_uniqueness(self, tiny_docs):
        ids = [d.id for d in tiny_docs]
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch(r"[dx]:[0-9]+", i) for i in ids)


class TestDocumentRoundTrip:
    def test_save_load_field_equal(self, tiny_docs, tmp_path):
        path = tmp_path / "docs.jsonl"
        save_documents(tiny_docs, path)
        assert load_documents(path) == tiny_docs

    def test_tampered_render_text_rejected(self, tiny_docs, tmp_path):
        """A v2-shaped line, still carrying ``id`` and ``render_text``."""
        path = tmp_path / "docs.jsonl"
        save_documents(tiny_docs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = tiny_docs[1]
        record = {"id": doc.id, **json.loads(lines[1]), "render_text": doc.render_text}
        lines[1] = json.dumps(record, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"docs\.jsonl:2: expected an object with exactly"):
            load_documents(path)

    def test_duplicate_id_rejected(self, tiny_docs, tmp_path):
        path = tmp_path / "docs.jsonl"
        with pytest.raises(IngestError, match="document 1 has id 'd:0'.*gives 'd:1'"):
            save_documents([tiny_docs[0], tiny_docs[0]], path)
        assert not path.exists()

    def test_saved_line_has_exactly_four_keys(self, tiny_docs, tmp_path):
        path = tmp_path / "docs.jsonl"
        save_documents(tiny_docs, path)
        keys = [list(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]
        assert keys == [["kind", "source_text", "target_text", "metadata"]] * len(tiny_docs)
        loaded = load_documents(path)
        assert [d.id for d in loaded] == [d.id for d in tiny_docs]
        assert [d.render_text for d in loaded] == [d.render_text for d in tiny_docs]

    def test_ids_follow_position_per_kind(self, tmp_path):
        lines = [
            {"kind": kind, "source_text": "a", "target_text": "b", "metadata": {}}
            for kind in ("example", "dictionary", "example", "dictionary")
        ]
        path = write(tmp_path, "docs.jsonl", "".join(json.dumps(o) + "\n" for o in lines))
        assert [d.id for d in load_documents(path)] == ["x:0", "d:0", "x:1", "d:1"]

    @pytest.mark.parametrize(
        "damage, message",
        [
            ({"source_text": 5}, "source_text and target_text must be strings"),
            ({"target_text": None}, "source_text and target_text must be strings"),
            ({"metadata": {"definition": 1}}, "metadata must be an object of strings"),
            ({"metadata": ["a"]}, "metadata must be an object of strings"),
            ({"kind": ["dictionary"]}, "unknown document kind"),
            ({"kind": "gloss"}, "unknown document kind"),
            ({"id": "d:0"}, "expected an object with exactly the keys"),
            ({"metadata": None}, "metadata must be an object of strings"),
        ],
        ids=[
            "source-int",
            "target-null",
            "metadata-int-value",
            "metadata-list",
            "kind-list",
            "kind-unknown",
            "extra-id",
            "metadata-null",
        ],
    )
    def test_malformed_field_names_line(self, tiny_docs, tmp_path, damage, message):
        path = tmp_path / "docs.jsonl"
        save_documents(tiny_docs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **damage}, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=rf"docs\.jsonl:3: {message}"):
            load_documents(path)

    @pytest.mark.parametrize("key", ["kind", "source_text", "target_text", "metadata"])
    def test_missing_key_names_line(self, tiny_docs, tmp_path, key):
        path = tmp_path / "docs.jsonl"
        save_documents(tiny_docs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        del record[key]
        lines[0] = json.dumps(record, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"docs\.jsonl:1: expected an object with exactly"):
            load_documents(path)

    def test_non_object_line_names_line(self, tmp_path):
        path = write(tmp_path, "docs.jsonl", "[1, 2]\n")
        with pytest.raises(IngestError, match=r"docs\.jsonl:1: expected a JSON object"):
            load_documents(path)
