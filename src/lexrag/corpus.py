"""Ingestion of bilingual dictionaries and parallel examples.

Two input shapes are supported:

* Dictionary JSONL: one object per line with fields ``headword`` (required),
  ``target`` (required), ``definition``, ``part_of_speech`` and ``examples``
  (a list of ``[source, target]`` pairs).
* Parallel JSONL or TSV: fields ``source_text``, ``target_text``,
  ``source_lang``, ``target_lang``, ``provenance`` (TSV columns in that
  order, no header row), told apart by the file's suffix.

All ingested text is NFC-normalized, since syllabary codepoints come in
composed and decomposed variants.  The loaders return document rows
``(kind, source_text, target_text, definition)``: an entry is a dictionary
row, and a parallel example or an entry's example pair an example row.
:func:`to_documents` turns the rows into :class:`Documents`, columns that
build each :class:`Document`, the unit indexes and prompts use, when read.

A row keeps only the fields retrieval and the prompt read; the loaders
validate the other input fields but do not keep them.  Dictionary entries
come first, so a document's kind is its position: saved documents are one
JSON object holding the number of dictionary entries and per-field arrays,
and ids (``d:0 ...``, then ``x:0 ...``) and kinds follow from position.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import sys
import typing
import unicodedata
from collections.abc import Sequence
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import NamedTuple

logger = logging.getLogger(__name__)

# Hard cap on words per headword, and on the phrases the keyword index records.
MAX_PHRASE_LEN = 4

DICTIONARY_KIND = "dictionary"
EXAMPLE_KIND = "example"


class IngestError(Exception):
    """Raised for unreadable files, malformed lines, or invariant violations."""


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


class Document(NamedTuple):
    """Unified retrievable unit.  ``id`` and ``kind`` follow from position
    (``d:<seq>`` for the leading dictionary entries, ``x:<seq>`` for the
    examples after them), and ``render_text``, the text that gets embedded,
    from the other fields.

    A NamedTuple, the cheapest immutable record to build: it is hashable,
    equals a plain tuple of the same values, unpacks, and lists its field
    names in ``_fields``."""

    id: str
    kind: str
    source_text: str
    target_text: str
    definition: str | None = None

    @property
    def render_text(self) -> str:
        # docs.json does not store this text, yet vectors.bin holds its
        # embedding: changing render_dictionary_text or render_example_text
        # requires bumping index.FORMAT_VERSION, so that an index embedded
        # from the old text is rebuilt rather than loaded.
        if self.kind == DICTIONARY_KIND:
            return render_dictionary_text(self.source_text, self.target_text, self.definition)
        return render_example_text(self.source_text, self.target_text)


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise IngestError(f"{where}: field {key!r} missing or not a string")
    return value


def _optional_str(obj: dict, key: str, where: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise IngestError(f"{where}: field {key!r} must be a string")
    return nfc(value)


def _clean_headword(raw: str) -> str:
    return " ".join(nfc(raw).split())


def _strip_punctuation(word: str) -> str:
    # No P* code point is alphanumeric (a test checks), so these ends strip nothing.
    if word[:1].isalnum() and word[-1:].isalnum():
        return word
    start, end = 0, len(word)
    while start < end and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(word[end - 1]).startswith("P"):
        end -= 1
    return word[start:end]


def normalize_keyword(text: str) -> str:
    """NFC + casefold, strip leading/trailing punctuation per word, collapse
    whitespace.  May return an empty string; the caller decides what that means.
    """
    # NFC before casefold composes marks in canonical order ("a\u0345\u0301" -> "áι",
    # not "aί"); NFC after it, because casefold can decompose (U+0390 ΐ).
    text = unicodedata.normalize("NFC", text).casefold()
    text = unicodedata.normalize("NFC", text)
    words = [_strip_punctuation(w) for w in text.split()]
    return " ".join(w for w in words if w)


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, line ends as they are and a leading byte order
    mark dropped; a decode error names the file."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not valid UTF-8: {exc}") from exc


def load_json(path: Path):
    """The parsed JSON of a UTF-8 file; a decode or syntax error, an integer
    over Python's digit limit or nesting too deep names the file."""
    try:
        return json.loads(read_utf8(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, the int-digit limit, deep nesting
        raise IngestError(f"{path}: invalid JSON: {exc}") from exc


# The scalar annotations from_json reads: the JSON value types each takes, and their name.
_JSON_TYPES = {
    int: ({int}, "an integer"),
    float: ({int, float}, "a finite number"),
    str: ({str}, "a string"),
    str | None: ({str, type(None)}, "a string or null"),
}


@functools.cache
def _json_fields(cls) -> tuple[dict, list[str]]:
    """The JSON keys of dataclass ``cls`` with their annotations, and those without a default."""
    hints = typing.get_type_hints(cls)
    keys = [f for f in fields(cls) if f.metadata.get("json", True)]
    required = [f.name for f in keys if f.default is MISSING and f.default_factory is MISSING]
    return {f.name: hints[f.name] for f in keys}, required


def from_json(kind, value, path: str = ""):
    """Parsed JSON ``value`` as a ``kind``.  A dataclass takes an object whose
    keys name fields (not those with metadata ``{"json": False}``) and hold
    every field without a default, each read by its annotation: an ``int``
    takes an integer (not a bool), a ``float`` a finite number, a ``str`` a
    string, a ``str | None`` a string or null and an enum one of its values.
    Else ``ValueError`` names the key path (``path`` is that of ``value``) and
    shows the value as ASCII JSON, so on one line: ``field 'a.b' must be an integer, got 2.5``.
    A ``ValueError`` from the dataclass itself (a value out of range) gets
    the object's key path as a prefix: ``a: b must be >= 1``."""
    if is_dataclass(kind):
        if isinstance(value, dict):
            kinds, required = _json_fields(kind)
            prefix = f"{path}." if path else ""
            for key in [*value, *required]:
                if key not in kinds:
                    raise ValueError(f"unknown key {prefix + key!r}")
                if key not in value:
                    raise ValueError(f"missing field {prefix + key!r}")
            kwargs = {k: from_json(kinds[k], v, prefix + k) for k, v in value.items()}
            try:
                return kind(**kwargs)
            except ValueError as exc:
                if not path:
                    raise
                raise ValueError(f"{path}: {exc}") from exc
        if not path:
            raise ValueError("must be a JSON object")
        expected = "an object"
    elif isinstance(kind, type) and issubclass(kind, Enum):
        options = [member.value for member in kind]
        if type(value) is str and value in options:
            return kind(value)
        expected = "one of " + ", ".join(map(repr, options))
    else:
        types, expected = _JSON_TYPES[kind]
        if type(value) in types and (kind is not float or abs(value) <= sys.float_info.max):
            return float(value) if kind is float else value  # not NaN or infinite
    raise ValueError(f"field {path!r} must be {expected}, got {json.dumps(value)}")


def split_lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r`` only, as text-mode ``open()``
    splits it (``str.splitlines`` also splits at U+2028, U+0085 and others)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def iter_lines(path: str | Path):
    """``(lineno, line)`` for each non-blank line of a UTF-8 text file."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        if line.strip():
            yield lineno, line


# A JSON escape of a UTF-16 surrogate: the only way a line of decoded UTF-8
# text can give a string that holds a lone one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def refuse_lone_surrogates(line: str, obj: dict, where: str) -> None:
    """Refuse ``obj``, parsed from the JSON ``line``, if a field holds a lone
    surrogate such as ``"\\ud800"``, which UTF-8 cannot encode: the error
    names ``where`` and the field.  Only a line with a surrogate escape is
    checked field by field."""
    if _SURROGATE_ESCAPE.search(line):
        for key, value in obj.items():
            try:
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise IngestError(f"{where}: field {key!r} holds a lone surrogate") from None


def _json_object(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, the int-digit limit, deep nesting
        raise IngestError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(obj, dict):
        raise IngestError(f"{where}: expected a JSON object")
    refuse_lone_surrogates(line, obj, where)
    return obj


def load_dictionary(path: str | Path) -> list[tuple]:
    """Document rows from a dictionary JSONL file: one dictionary row per
    entry, in line order, then one example row per pair of the entries'
    ``examples``, also in line order.  ``part_of_speech`` is checked, then
    dropped.

    An empty file yields an empty list (with a warning) so keyword-only or
    example-only corpora remain possible.
    """
    rows: list[tuple] = []
    example_rows: list[tuple] = []
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        obj = _json_object(line, where)
        headword = _clean_headword(_require_str(obj, "headword", where))
        phrase = normalize_keyword(headword)
        if not phrase:
            raise IngestError(f"{where}: headword is empty after normalization")
        if len(phrase.split()) > MAX_PHRASE_LEN:
            raise IngestError(f"{where}: headword {headword!r} exceeds {MAX_PHRASE_LEN} words")
        target = nfc(_require_str(obj, "target", where)).strip()
        if not target:
            raise IngestError(f"{where}: target is empty")

        pairs = obj.get("examples") or []
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
            for pair in pairs
        ):
            raise IngestError(f"{where}: examples must be a list of [source, target] pairs")
        for pair in pairs:
            source, target_text = (nfc(text).strip() for text in pair)
            if not source or not target_text:
                raise IngestError(f"{where}: an example's source and target must be non-empty")
            example_rows.append((EXAMPLE_KIND, source, target_text, None))

        definition = _optional_str(obj, "definition", where) or None
        _optional_str(obj, "part_of_speech", where)
        rows.append((DICTIONARY_KIND, headword, target, definition))
    if not rows:
        logger.warning("dictionary file %s contained no entries", path)
    return rows + example_rows


_PARALLEL_FIELDS = ("source_text", "target_text", "source_lang", "target_lang")


def load_parallel(path: str | Path) -> list[tuple]:
    """Example document rows, one per line, from headerless 5-column TSV if
    the file name ends in ``.tsv`` (any case), and from JSONL otherwise.
    The language codes and ``provenance`` are checked, then dropped."""
    tsv = Path(path).suffix.lower() == ".tsv"
    rows: list[tuple] = []
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        if tsv:
            columns = line.split("\t")
            if len(columns) != 5:
                raise IngestError(f"{where}: expected 5 tab-separated columns, got {len(columns)}")
            fields = columns[:4]
        else:
            obj = _json_object(line, where)
            fields = [_require_str(obj, name, where) for name in _PARALLEL_FIELDS]
            if not isinstance(obj.get("provenance", ""), str):
                raise IngestError(f"{where}: provenance must be a string")
        source, target, source_lang, target_lang = (nfc(text).strip() for text in fields)
        if not source or not target:
            raise IngestError(f"{where}: source_text and target_text must be non-empty")
        if not source_lang or not target_lang:
            raise IngestError(f"{where}: language codes must be non-empty")
        rows.append((EXAMPLE_KIND, source, target, None))
    if not rows:
        logger.warning("parallel file %s contained no examples", path)
    return rows


def render_dictionary_text(headword: str, target: str, definition: str | None) -> str:
    parts = [headword, target]
    if definition:
        parts.append(definition)
    return " — ".join(parts)


def render_example_text(source_text: str, target_text: str) -> str:
    return f"{source_text} ⇒ {target_text}"


# The arrays of docs.json, a Document's fields after its id and kind: what
# each of their values must be, and the types it may have.
_DOC_COLUMNS = {
    "source_text": ("a string", {str}),
    "target_text": ("a string", {str}),
    "definition": ("a string or null", {str, type(None)}),
}
_DOCS_KEYS = ("dictionary_count", *_DOC_COLUMNS)


class DocumentIds(Sequence):
    """The ids of ``count`` documents, the first ``dictionary_count`` of them
    dictionary entries (``d:0, d:1, ...``, then ``x:0, x:1, ...``), made when
    read.  Equal to a list of the same ids, and to a view of the same counts."""

    def __init__(self, dictionary_count: int, count: int) -> None:
        self.dictionary_count, self.count = dictionary_count, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, position):
        position = range(self.count)[position]  # IndexError past either end
        if isinstance(position, range):  # a slice
            return [self[i] for i in position]
        seq = position - self.dictionary_count
        return f"x:{seq}" if seq >= 0 else f"d:{position}"

    def __iter__(self):
        examples = range(self.count - self.dictionary_count)
        return chain(map("d:{}".format, range(self.dictionary_count)), map("x:{}".format, examples))

    def __eq__(self, other):
        if isinstance(other, DocumentIds):
            return (self.dictionary_count, self.count) == (other.dictionary_count, other.count)
        return list(self) == other if isinstance(other, list) else NotImplemented


class Documents(Sequence):
    """Read-only Documents kept as the lists of ``_DOC_COLUMNS``, the first
    ``dictionary_count`` dictionary entries, with their :class:`DocumentIds`.
    A position's Document is built when first read, and that one is handed
    out after it (threads that race build equal ones); ``built`` lists those
    built so far, ``None`` elsewhere.  Equal to a list, or another
    Documents, of the same Documents."""

    def __init__(self, dictionary_count: int, columns: list[list]) -> None:
        self.dictionary_count, self.columns = dictionary_count, columns
        self.ids = DocumentIds(dictionary_count, len(columns[0]))
        self.built: list[Document | None] = [None] * len(columns[0])

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, position):
        position = range(len(self))[position]  # IndexError past either end
        if isinstance(position, range):  # a slice
            return [self[i] for i in position]
        doc = self.built[position]
        if doc is None:
            kind = DICTIONARY_KIND if position < self.dictionary_count else EXAMPLE_KIND
            columns = (column[position] for column in self.columns)
            doc = self.built[position] = Document(self.ids[position], kind, *columns)
        return doc

    def __iter__(self):  # builds each afresh and keeps none, for a build's passes
        kinds = [DICTIONARY_KIND] * self.dictionary_count
        kinds += [EXAMPLE_KIND] * (len(self) - self.dictionary_count)
        return map(Document._make, zip(self.ids, kinds, *self.columns))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Documents)) else NotImplemented


def to_documents(entries: list[tuple], examples: list[tuple]) -> Documents:
    """Documents from the rows of :func:`load_dictionary` (``entries``) and
    :func:`load_parallel` (``examples``), with positional ids: dictionary
    rows first, then the parallel examples, then the dictionary's examples."""
    if not entries and not examples:
        raise IngestError("no input: need at least one dictionary entry or parallel example")
    # A stable sort: dictionary rows move ahead, every other order is kept.
    rows = sorted([*examples, *entries], key=lambda row: row[0] != DICTIONARY_KIND)
    kinds, *columns = zip(*rows)
    return Documents(kinds.count(DICTIONARY_KIND), [list(column) for column in columns])


def save_documents(docs: Sequence[Document], path: str | Path) -> None:
    """Write Documents as one JSON object (UTF-8): the number of dictionary
    entries, then per-field arrays, taken as they are from a
    :class:`Documents`.  Neither ids nor kinds are written, so any other
    sequence that is not its dictionary entries followed by its examples,
    each with the id its position gives, is rejected rather than renumbered."""
    if not isinstance(docs, Documents):
        columns = [[getattr(doc, name) for doc in docs] for name in _DOC_COLUMNS]
        expected = Documents([doc.kind for doc in docs].count(DICTIONARY_KIND), columns)
        for seq, (doc, want) in enumerate(zip(docs, expected)):
            if doc != want:
                raise IngestError(
                    f"document {seq} has id {doc.id!r} ({doc.kind}), but its position gives "
                    f"{want.id!r} ({want.kind})"
                )
        docs = expected
    data = {"dictionary_count": docs.dictionary_count, **dict(zip(_DOC_COLUMNS, docs.columns))}
    text = json.dumps(data, ensure_ascii=False, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_documents(path: str | Path) -> Documents:
    """Reload Documents written by :func:`save_documents`, checking the keys,
    the array lengths, each value and the dictionary count; ids and kinds
    follow from position, and no Document is built.

    Each column is checked in one C-level pass over its value types; only a
    column that fails is scanned value by value, for the position the error
    names."""
    data = load_json(Path(path))
    if not isinstance(data, dict) or data.keys() != set(_DOCS_KEYS):
        raise IngestError(f"{path}: expected an object with exactly the keys {_DOCS_KEYS}")
    columns = [data[name] for name in _DOC_COLUMNS]
    for column, (name, (expected, types)) in zip(columns, _DOC_COLUMNS.items()):
        if not isinstance(column, list) or len(column) != len(columns[0]):
            raise IngestError(f"{path}: {name} is not an array as long as source_text")
        if not set(map(type, column)) <= types:
            position = next(i for i, value in enumerate(column) if type(value) not in types)
            raise IngestError(f"{path}: {name}[{position}] is not {expected}")
    dictionary_count = data["dictionary_count"]
    if type(dictionary_count) is not int or not 0 <= dictionary_count <= len(columns[0]):
        raise IngestError(f"{path}: dictionary_count is not an integer from 0 to {len(columns[0])}")
    return Documents(dictionary_count, columns)
