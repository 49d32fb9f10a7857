from __future__ import annotations

import json
import logging
import math
import re
import tempfile
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lexrag.corpus import (
    Document,
    IngestError,
    from_json,
    load_dictionary,
    load_documents,
    load_parallel,
    save_documents,
    split_lines,
    to_documents,
)
from lexrag.index import DOCS_FILE


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDictionary:
    def test_direct_field_mapping(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"water","target":"ᎠᎹ"}\n')
        entries = load_dictionary(path)
        assert entries == [("dictionary", "water", "ᎠᎹ", None)]

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        path = write(tmp_path, "d.jsonl", "")
        with caplog.at_level(logging.WARNING):
            assert load_dictionary(path) == []
        assert any("no entries" in record.message for record in caplog.records)

    def test_empty_headword_names_line_and_invariant(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword":"ok","target":"x"}\n{"headword":""}\n')
        with pytest.raises(IngestError, match=r"d\.jsonl:2.*headword"):
            load_dictionary(path)

    @pytest.mark.parametrize("headword", ["?!", "« … »", "'-'"])
    def test_punctuation_only_headword_is_an_error(self, tmp_path, headword):
        # Keyword normalization strips it to nothing, so no lookup could reach it.
        line = json.dumps({"headword": headword, "target": "X"})
        path = write(tmp_path, "d.jsonl", '{"headword":"ok","target":"x"}\n' + line + "\n")
        with pytest.raises(IngestError, match=r"d\.jsonl:2: headword is empty after normalization"):
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
        assert [row[1] for row in load_dictionary(path)] == ["a", "b"]

    def test_escaped_surrogate_pair_loads(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"headword": "w\\ud83d\\ude00", "target": "x"}\n')
        assert load_dictionary(path) == [("dictionary", "w\U0001f600", "x", None)]

    def test_nfc_normalization_applied(self, tmp_path):
        decomposed = "é"  # e + combining acute
        path = write(tmp_path, "d.jsonl", json.dumps({"headword": decomposed, "target": "x"}))
        entries = load_dictionary(path)
        assert entries[0][1] == unicodedata.normalize("NFC", decomposed) == "é"


class TestLoadParallel:
    def test_tsv_row(self, data_dir):
        examples = load_parallel(data_dir / "tiny_parallel.tsv")
        assert examples[0] == (
            "example", "For God so loved the world", "ᎾᏍᎩᏰᏃ ᏂᎦᎥᎩ ᎤᏁᎳᏅᎯ ᎤᎨᏳᏒᎩ ᎡᎶᎯ", None
        )

    def test_jsonl_matches_tsv(self, data_dir):
        tsv = load_parallel(data_dir / "tiny_parallel.tsv")
        jsonl = load_parallel(data_dir / "tiny_parallel.jsonl")
        assert tsv[:2] == jsonl[:2]

    def test_three_line_file_in_order(self, data_dir):
        examples = load_parallel(data_dir / "tiny_parallel.tsv")
        assert len(examples) == 3
        assert examples[2][1] == "water is good"

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
        assert load_parallel(path) == [("example", "a", "b", None)]

    def test_other_suffix_is_jsonl(self, tmp_path):
        record = {
            "source_text": "a",
            "target_text": "b",
            "source_lang": "en",
            "target_lang": "chr",
            "provenance": "src",
        }
        path = write(tmp_path, "p.txt", json.dumps(record) + "\n")
        assert load_parallel(path) == [("example", "a", "b", None)]


class TestSplitLines:
    @given(st.text(alphabet="ab \t\n\r\u00e9\u13a0", max_size=30))
    def test_equals_splitlines_on_other_text(self, text):
        assert split_lines(text) == text.splitlines()

    def test_only_newline_and_carriage_return_end_a_line(self):
        text = "a\u2028b\u2029c\x85d\x0be\x0cf\x1cg\x1dh\x1ei\r\nj\rk\n"
        assert split_lines(text) == ["a\u2028b\u2029c\x85d\x0be\x0cf\x1cg\x1dh\x1ei", "j", "k"]


class TestDictionaryExamples:
    """A dictionary entry's example pairs become example documents, after
    the parallel examples, so no other document changes position."""

    def test_tiny_corpus_gains_one_example_at_the_end(self, tiny_docs):
        assert tiny_docs == [
            Document("d:0", "dictionary", "water", "ᎠᎹ", None),
            Document("d:1", "dictionary", "sun", "ᏅᏓ", "the star that lights the day"),
            Document("d:2", "dictionary", "fire", "ᎠᏥᎳ", None),
            Document("d:3", "dictionary", "dog", "ᎩᏟ", None),
            Document("d:4", "dictionary", "earth", "ᎡᎶᎯ", None),
            Document("d:5", "dictionary", "good", "ᎣᏍᏓ", None),
            Document("d:6", "dictionary", "man", "ᎠᏍᎦᏯ", None),
            Document("d:7", "dictionary", "woman", "ᎠᎨᏯ", None),
            Document(
                "d:8", "dictionary", "mountain lion", "ᏢᏓᏥ", "large wild cat of the uplands"
            ),
            Document("d:9", "dictionary", "bread", "ᎦᏚ", None),
            Document("x:0", "example", "For God so loved the world", "ᎾᏍᎩᏰᏃ ᏂᎦᎥᎩ ᎤᏁᎳᏅᎯ ᎤᎨᏳᏒᎩ ᎡᎶᎯ"),
            Document("x:1", "example", "the man saw the dog", "ᎠᏍᎦᏯ ᎩᏟ ᎤᎪᎮᎢ"),
            Document("x:2", "example", "water is good", "ᎠᎹ ᎣᏍᏓ"),
            Document("x:3", "example", "they baked bread", "ᎦᏚ ᎤᎾᏓᏛᏁᎢ", None),
        ]

    def test_dictionary_then_parallel_then_dictionary_examples(self, tmp_path):
        dictionary = write(
            tmp_path,
            "d.jsonl",
            '{"headword":"a","target":"1","examples":[[" a one ","1 1"]]}\n'
            '{"headword":"b","target":"2"}\n'
            '{"headword":"c","target":"3","examples":[["c\u0301 two","3 2"],["c three","3 3"]]}\n',
        )
        rows = load_dictionary(dictionary)
        assert rows == [
            ("dictionary", "a", "1", None),
            ("dictionary", "b", "2", None),
            ("dictionary", "c", "3", None),
            ("example", "a one", "1 1", None),
            ("example", "\u0107 two", "3 2", None),
            ("example", "c three", "3 3", None),
        ]
        parallel = write(tmp_path, "p.tsv", "p one\tq one\ten\tchr\t\np two\tq two\ten\tchr\t\n")
        docs = to_documents(rows, load_parallel(parallel))
        assert [(d.id, d.source_text) for d in docs] == [
            ("d:0", "a"), ("d:1", "b"), ("d:2", "c"),
            ("x:0", "p one"), ("x:1", "p two"),
            ("x:2", "a one"), ("x:3", "\u0107 two"), ("x:4", "c three"),
        ]


class TestToDocuments:
    def test_only_read_fields_are_kept(self):
        entry = ("dictionary", "sun", "ᏅᏓ", "day star")
        example = ("example", "water is good", "ᎠᎹ ᎣᏍᏓ", None)
        assert to_documents([entry], [example]) == [
            Document("d:0", "dictionary", "sun", "ᏅᏓ", "day star"),
            Document("x:0", "example", "water is good", "ᎠᎹ ᎣᏍᏓ", None),
        ]
        assert list(Document._fields) == [
            "id", "kind", "source_text", "target_text", "definition"
        ]

    def test_ids_and_kinds(self):
        entries = [("dictionary", "water", "ᎠᎹ", None), ("dictionary", "sun", "ᏅᏓ", None)]
        examples = [("example", "a b", "c", None)]
        docs = to_documents(entries, examples)
        assert [d.id for d in docs] == ["d:0", "d:1", "x:0"]
        assert [d.kind for d in docs] == ["dictionary", "dictionary", "example"]

    def test_render_text_without_definition(self):
        docs = to_documents([("dictionary", "water", "ᎠᎹ", None)], [])
        assert docs[0].render_text == "water — ᎠᎹ"

    def test_render_text_with_definition(self):
        docs = to_documents([("dictionary", "sun", "ᏅᏓ", "day star")], [])
        assert docs[0].render_text == "sun — ᏅᏓ — day star"

    def test_example_render_text(self):
        docs = to_documents([], [("example", "water is good", "ᎠᎹ ᎣᏍᏓ", None)])
        assert docs[0].render_text == "water is good ⇒ ᎠᎹ ᎣᏍᏓ"

    def test_deterministic(self, tiny_docs):
        entries = [("dictionary", "water", "ᎠᎹ", None), ("dictionary", "sun", "ᏅᏓ", None)]
        examples = [("example", "a b", "c", None)]
        assert to_documents(entries, examples) == to_documents(entries, examples)

    def test_empty_inputs_rejected(self):
        with pytest.raises(IngestError, match="no input"):
            to_documents([], [])

    def test_id_pattern_and_uniqueness(self, tiny_docs):
        ids = [d.id for d in tiny_docs]
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch(r"[dx]:[0-9]+", i) for i in ids)


class TestDocumentRoundTrip:
    """docs.json is one object: the dictionary count, then three equal-length
    columns.  Errors name the column and the document's position in it, which
    is what the ``line`` of the older test names now stands for."""

    KEYS = ["dictionary_count", "source_text", "target_text", "definition"]

    @staticmethod
    def _damaged(tiny_docs, tmp_path, damage):
        path = tmp_path / DOCS_FILE
        save_documents(tiny_docs, path)
        columns = json.loads(path.read_text(encoding="utf-8"))
        damage(columns)
        path.write_text(json.dumps(columns, ensure_ascii=False), encoding="utf-8")
        return path

    def test_save_load_field_equal(self, tiny_docs, tmp_path):
        path = tmp_path / DOCS_FILE
        save_documents(tiny_docs, path)
        assert load_documents(path) == tiny_docs

    _TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
    _ROW = st.tuples(
        st.sampled_from(["dictionary", "example"]), _TEXT, _TEXT, st.none() | _TEXT
    )

    @given(
        entries=st.lists(_ROW, max_size=6),
        examples=st.lists(_ROW.map(lambda row: ("example", *row[1:])), max_size=6),
        data=st.data(),
    )
    def test_to_documents_round_trips_and_any_other_order_is_refused(
        self, entries, examples, data
    ):
        assume(entries or examples)
        docs = to_documents(entries, examples)
        other = data.draw(st.permutations(docs), label="order")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, DOCS_FILE)
            save_documents(docs, path)
            assert load_documents(path) == docs
            path.unlink()
            if other != docs:
                with pytest.raises(IngestError, match="but its position gives"):
                    save_documents(other, path)
                assert not path.exists()

    def test_tampered_render_text_rejected(self, tiny_docs, tmp_path):
        """A file that also carries ``id`` and ``render_text`` columns."""
        path = self._damaged(
            tiny_docs,
            tmp_path,
            lambda columns: columns.update(
                id=[d.id for d in tiny_docs], render_text=[d.render_text for d in tiny_docs]
            ),
        )
        with pytest.raises(IngestError, match=r"docs\.json: expected an object with exactly"):
            load_documents(path)

    def test_duplicate_id_rejected(self, tiny_docs, tmp_path):
        path = tmp_path / DOCS_FILE
        with pytest.raises(IngestError, match="document 1 has id 'd:0'.*gives 'd:1'"):
            save_documents([tiny_docs[0], tiny_docs[0]], path)
        assert not path.exists()

    def test_saved_line_has_exactly_four_keys(self, tiny_docs, tmp_path):
        path = tmp_path / DOCS_FILE
        save_documents(tiny_docs, path)
        columns = json.loads(path.read_text(encoding="utf-8"))
        assert list(columns) == self.KEYS
        assert columns.pop("dictionary_count") == 10
        assert all(len(column) == len(tiny_docs) for column in columns.values())
        assert columns["definition"][1] == "the star that lights the day"
        assert set(columns["definition"][10:]) == {None}
        loaded = load_documents(path)
        assert [d.id for d in loaded] == [d.id for d in tiny_docs]
        assert [d.render_text for d in loaded] == [d.render_text for d in tiny_docs]

    def test_ids_follow_position_per_kind(self, tmp_path):
        columns = {"source_text": ["a"] * 4, "target_text": ["b"] * 4, "definition": [None] * 4}
        path = write(tmp_path, DOCS_FILE, json.dumps({"dictionary_count": 2, **columns}))
        docs = load_documents(path)
        assert [(d.id, d.kind) for d in docs] == [
            ("d:0", "dictionary"), ("d:1", "dictionary"), ("x:0", "example"), ("x:1", "example")
        ]
        interleaved = [docs[2], docs[0], docs[3], docs[1]]
        message = r"document 0 has id 'x:0' \(example\), but its position gives 'd:0' \(dictionary\)"
        with pytest.raises(IngestError, match=message):
            save_documents(interleaved, tmp_path / "other.json")
        assert not (tmp_path / "other.json").exists()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("source_text", 5, r"source_text\[2\] is not a string"),
            ("target_text", None, r"target_text\[2\] is not a string"),
            ("definition", 1, r"definition\[2\] is not a string or null"),
            ("definition", ["a"], r"definition\[2\] is not a string or null"),
            ("dictionary_count", True, "dictionary_count is not an integer from 0 to 14"),
            ("dictionary_count", 15, "dictionary_count is not an integer from 0 to 14"),
            ("dictionary_count", -1, "dictionary_count is not an integer from 0 to 14"),
            ("dictionary_count", 10.0, "dictionary_count is not an integer from 0 to 14"),
            ("id", "d:0", "expected an object with exactly the keys"),
        ],
        ids=[
            "source-int",
            "target-null",
            "definition-int",
            "definition-list",
            "count-bool",
            "count-over",
            "count-negative",
            "count-float",
            "extra-id",
        ],
    )
    def test_malformed_field_names_line(self, tiny_docs, tmp_path, column, value, message):
        def damage(columns):
            if column == "dictionary_count":
                columns[column] = value
            else:
                columns.setdefault(column, [None] * len(tiny_docs))[2] = value

        path = self._damaged(tiny_docs, tmp_path, damage)
        with pytest.raises(IngestError, match=rf"docs\.json: {message}"):
            load_documents(path)

    def test_null_definition_accepted(self, tmp_path):
        entry = write(tmp_path, "d.jsonl", '{"headword":"water","target":"ᎠᎹ","definition":""}\n')
        docs = to_documents(load_dictionary(entry), [])
        assert docs[0].definition is None
        path = tmp_path / DOCS_FILE
        save_documents(docs, path)
        assert json.loads(path.read_text(encoding="utf-8"))["definition"] == [None]
        assert load_documents(path) == docs

    @pytest.mark.parametrize("key", KEYS)
    def test_missing_key_names_line(self, tiny_docs, tmp_path, key):
        path = self._damaged(tiny_docs, tmp_path, lambda columns: columns.pop(key))
        with pytest.raises(IngestError, match=r"docs\.json: expected an object with exactly"):
            load_documents(path)

    @pytest.mark.parametrize(
        "column, named", [("source_text", "target_text"), ("definition", "definition")]
    )
    def test_columns_of_unequal_length_rejected(self, tiny_docs, tmp_path, column, named):
        path = self._damaged(tiny_docs, tmp_path, lambda columns: columns[column].pop())
        with pytest.raises(IngestError, match=rf"docs\.json: {named} is not an array as long"):
            load_documents(path)

    def test_non_object_line_names_line(self, tmp_path):
        path = write(tmp_path, DOCS_FILE, "[1, 2]\n")
        with pytest.raises(IngestError, match=r"docs\.json: expected an object with exactly"):
            load_documents(path)

    def test_column_that_is_not_an_array_rejected(self, tiny_docs, tmp_path):
        path = self._damaged(tiny_docs, tmp_path, lambda columns: columns.update(target_text="b"))
        with pytest.raises(IngestError, match=r"docs\.json: target_text is not an array as long"):
            load_documents(path)


class _Color(Enum):
    RED = "red"


@dataclass(frozen=True)
class _Inner:
    count: int
    ratio: float = 1.0


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    name: str | None = None
    color: _Color = _Color.RED
    hidden: int = field(default=0, metadata={"json": False})


class TestFromJson:
    """from_json reads a dataclass by its annotations, naming the key path."""

    def test_values_of_each_type(self):
        raw = {"inner": {"count": 2**70, "ratio": 3}, "name": None, "color": "red"}
        outer = from_json(_Outer, raw)
        assert outer == _Outer(_Inner(2**70, 3.0), None, _Color.RED)
        assert type(outer.inner.ratio) is float

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"inner": {"count": True}}, "field 'inner.count' must be an integer, got true"),
            ({"inner": {"count": 1.0}}, "field 'inner.count' must be an integer, got 1.0"),
            ({"inner": {"count": 1, "ratio": False}}, "'inner.ratio' must be a finite number"),
            ({"inner": {"count": 1, "ratio": math.nan}}, "must be a finite number, got NaN"),
            ({"inner": {"count": 1, "ratio": -math.inf}}, "must be a finite number, got -Infinity"),
            ({"inner": {"count": 1, "ratio": 10**400}}, "'inner.ratio' must be a finite number"),
            ({"inner": {"count": 1}, "name": 5}, "field 'name' must be a string or null, got 5"),
            ({"inner": {"count": 1}, "color": "RED"}, "field 'color' must be one of 'red'"),
            ({"inner": {"count": 1}, "color": ["red"]}, "must be one of 'red', got [\"red\"]"),
            ({"inner": {"count": 1}, "name": ["\u2028"]}, "got [\"\\u2028\"]"),
            ({"inner": {"count": 1}, "hidden": 1}, "unknown key 'hidden'"),
            ({"inner": {"count": 1, "size": 2}}, "unknown key 'inner.size'"),
            ({"inner": {}}, "missing field 'inner.count'"),
            ({}, "missing field 'inner'"),
            ({"inner": "x"}, "field 'inner' must be an object, got \"x\""),
            (["inner"], "must be a JSON object"),
        ],
    )
    def test_rejects(self, raw, message):
        with pytest.raises(ValueError) as info:
            from_json(_Outer, raw)
        assert message in str(info.value)
