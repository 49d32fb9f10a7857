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
:func:`to_documents` turns the rows into :class:`Document` records, the unit
that both indexes and the prompt assembler operate on.

A row keeps only the fields retrieval and the prompt read; the loaders
validate the other input fields but do not keep them.  Saved documents are
one JSON object of per-field arrays; ids are positional.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import sys
import typing
import unicodedata
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

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
    """Unified retrievable unit.  ``id`` follows from position and kind
    (``d:<seq>``, ``x:<seq>``), and ``render_text``, the text that gets
    embedded, from the other fields.

    A NamedTuple, so that loading builds each one at the cost of a tuple:
    it is immutable and hashable, equals a plain tuple of the same values,
    unpacks, and lists its field names in ``_fields``."""

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
    """The text of a UTF-8 file, line ends as they are; a decode error names
    the file."""
    try:
        return path.read_bytes().decode("utf-8")
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


def _json_object(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, the int-digit limit, deep nesting
        raise IngestError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(obj, dict):
        raise IngestError(f"{where}: expected a JSON object")
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


_ID_PREFIX = {DICTIONARY_KIND: "d", EXAMPLE_KIND: "x"}

# The arrays of docs.json, a Document's fields after its id: what each of
# their values must be, the types it may have and, for kind, the values.
_DOC_COLUMNS = {
    "kind": ("a document kind", {str}, {DICTIONARY_KIND, EXAMPLE_KIND}),
    "source_text": ("a string", {str}, None),
    "target_text": ("a string", {str}, None),
    "definition": ("a string or null", {str, type(None)}, None),
}


def _valid_column(column: list, types: set[type], values: set | None) -> bool:
    """Whether every value of ``column`` has one of ``types`` and, unless
    ``values`` is None, is one of ``values``: one C-level pass each."""
    return set(map(type, column)) <= types and (values is None or set(column) <= values)


def _positional_ids(kinds: Sequence[str]) -> list[str]:
    """``d:<seq>`` for dictionary entries and ``x:<seq>`` for examples, with
    ``seq`` counted per kind in document order."""
    if not set(kinds) <= _ID_PREFIX.keys():
        unknown = next(kind for kind in kinds if kind not in _ID_PREFIX)
        raise IngestError(f"unknown document kind {unknown!r}")
    seqs = {kind: itertools.count() for kind in _ID_PREFIX}
    return [f"{_ID_PREFIX[kind]}:{next(seqs[kind])}" for kind in kinds]


def _documents(columns: list[Sequence]) -> list[Document]:
    """Documents from the columns of ``_DOC_COLUMNS``, in that order."""
    return list(map(Document._make, zip(_positional_ids(columns[0]), *columns)))


def to_documents(entries: list[tuple], examples: list[tuple]) -> list[Document]:
    """Documents from the rows of :func:`load_dictionary` (``entries``) and
    :func:`load_parallel` (``examples``), with positional ids: dictionary
    rows first, then the parallel examples, then the dictionary's examples."""
    if not entries and not examples:
        raise IngestError("no input: need at least one dictionary entry or parallel example")
    # A stable sort: dictionary rows move ahead, every other order is kept.
    rows = sorted([*examples, *entries], key=lambda row: row[0] != DICTIONARY_KIND)
    return _documents(list(zip(*rows)))


def save_documents(docs: list[Document], path: str | Path) -> None:
    """Write Documents as one JSON object of per-field arrays (UTF-8).  Ids
    are not written, so a document whose id is not the one its position
    gives is rejected rather than renumbered."""
    for seq, (doc, expected) in enumerate(zip(docs, _positional_ids([d.kind for d in docs]))):
        if doc.id != expected:
            raise IngestError(
                f"document {seq} has id {doc.id!r}, but its position gives {expected!r}"
            )
    columns = {name: [getattr(doc, name) for doc in docs] for name in _DOC_COLUMNS}
    text = json.dumps(columns, ensure_ascii=False, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_documents(path: str | Path) -> list[Document]:
    """Reload Documents written by :func:`save_documents`, checking the keys,
    the array lengths and each value; ids follow from position and kind.

    Each column is checked in one C-level pass over its value types (and,
    for ``kind``, its values); only a column that fails is scanned value by
    value, for the position the error names."""
    columns = load_json(Path(path))
    if not isinstance(columns, dict) or columns.keys() != _DOC_COLUMNS.keys():
        raise IngestError(f"{path}: expected an object with exactly the keys {tuple(_DOC_COLUMNS)}")
    for name, (expected, types, values) in _DOC_COLUMNS.items():
        column = columns[name]
        if not isinstance(column, list) or len(column) != len(columns["kind"]):
            raise IngestError(f"{path}: {name} is not an array as long as kind")
        if not _valid_column(column, types, values):
            position = next(
                i for i, value in enumerate(column) if not _valid_column([value], types, values)
            )
            raise IngestError(f"{path}: {name}[{position}] is not {expected}")
    return _documents([columns[name] for name in _DOC_COLUMNS])
