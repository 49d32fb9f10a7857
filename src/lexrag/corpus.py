"""Ingestion of bilingual dictionaries and parallel examples.

Two input shapes are supported:

* Dictionary JSONL: one object per line with fields ``headword`` (required),
  ``target`` (required), ``definition``, ``part_of_speech`` and ``examples``
  (a list of ``[source, target]`` pairs).
* Parallel JSONL or TSV: fields ``source_text``, ``target_text``,
  ``source_lang``, ``target_lang``, ``provenance`` (TSV columns in that
  order, no header row), told apart by the file's suffix.

All ingested text is NFC-normalized, since syllabary codepoints come in
composed and decomposed variants.  Both inputs are flattened into
:class:`Document` records, the unit that both indexes and the prompt
assembler operate on.

Saved documents are JSONL lines with exactly the keys ``kind``,
``source_text``, ``target_text`` and ``metadata``; ids are positional.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)

# Hard cap on words per headword, and on the phrases the keyword index records.
MAX_PHRASE_LEN = 4

DICTIONARY_KIND = "dictionary"
EXAMPLE_KIND = "example"


class IngestError(Exception):
    """Raised for unreadable files, malformed lines, or invariant violations."""


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class DictionaryEntry:
    """One source-language headword with its target-language translation."""

    headword: str
    target: str
    definition: str | None = None
    part_of_speech: str | None = None
    examples: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ParallelExample:
    """An aligned sentence pair used as retrieval context."""

    source_text: str
    target_text: str
    source_lang: str
    target_lang: str
    provenance: str = ""


@dataclass(frozen=True)
class Document:
    """Unified retrievable unit.  ``id`` follows from position and kind
    (``d:<seq>``, ``x:<seq>``), and ``render_text``, the text that gets
    embedded, from the other fields."""

    id: str
    kind: str
    source_text: str
    target_text: str
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def render_text(self) -> str:
        # docs.jsonl does not store this text, yet vectors.bin holds its
        # embedding: changing render_dictionary_text or render_example_text
        # requires bumping index.FORMAT_VERSION, so that an index embedded
        # from the old text is rebuilt rather than loaded.
        if self.kind == DICTIONARY_KIND:
            return render_dictionary_text(
                self.source_text, self.target_text, self.metadata.get("definition")
            )
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


def iter_lines(path: str | Path):
    """``(lineno, line)`` for each non-blank line of a UTF-8 text file."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not valid UTF-8: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield lineno, line


def _json_object(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"{where}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise IngestError(f"{where}: expected a JSON object")
    return obj


def load_dictionary(path: str | Path) -> list[DictionaryEntry]:
    """Read dictionary entries from a JSONL file, preserving line order.

    An empty file yields an empty list (with a warning) so keyword-only or
    example-only corpora remain possible.
    """
    entries: list[DictionaryEntry] = []
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        obj = _json_object(line, where)
        headword = _clean_headword(_require_str(obj, "headword", where))
        if not headword:
            raise IngestError(f"{where}: headword is empty after normalization")
        if len(headword.split()) > MAX_PHRASE_LEN:
            raise IngestError(f"{where}: headword {headword!r} exceeds {MAX_PHRASE_LEN} words")
        target = nfc(_require_str(obj, "target", where)).strip()
        if not target:
            raise IngestError(f"{where}: target is empty")

        raw_examples = obj.get("examples") or []
        if not isinstance(raw_examples, list):
            raise IngestError(f"{where}: examples must be a list of [source, target] pairs")
        examples = []
        for pair in raw_examples:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)
            ):
                raise IngestError(f"{where}: examples must be a list of [source, target] pairs")
            examples.append((nfc(pair[0]), nfc(pair[1])))

        entries.append(
            DictionaryEntry(
                headword=headword,
                target=target,
                definition=_optional_str(obj, "definition", where),
                part_of_speech=_optional_str(obj, "part_of_speech", where),
                examples=tuple(examples),
            )
        )
    if not entries:
        logger.warning("dictionary file %s contained no entries", path)
    return entries


_PARALLEL_FIELDS = ("source_text", "target_text", "source_lang", "target_lang")


def _parallel_from_fields(
    source_text: str,
    target_text: str,
    source_lang: str,
    target_lang: str,
    provenance: str,
    where: str,
) -> ParallelExample:
    source_text = nfc(source_text).strip()
    target_text = nfc(target_text).strip()
    source_lang = nfc(source_lang).strip()
    target_lang = nfc(target_lang).strip()
    if not source_text or not target_text:
        raise IngestError(f"{where}: source_text and target_text must be non-empty")
    if not source_lang or not target_lang:
        raise IngestError(f"{where}: language codes must be non-empty")
    return ParallelExample(
        source_text=source_text,
        target_text=target_text,
        source_lang=source_lang,
        target_lang=target_lang,
        provenance=nfc(provenance).strip(),
    )


def load_parallel(path: str | Path) -> list[ParallelExample]:
    """Read aligned sentence pairs from headerless 5-column TSV if the file
    name ends in ``.tsv`` (any case), and from JSONL otherwise."""
    tsv = Path(path).suffix.lower() == ".tsv"
    examples: list[ParallelExample] = []
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        if tsv:
            columns = line.split("\t")
            if len(columns) != 5:
                raise IngestError(f"{where}: expected 5 tab-separated columns, got {len(columns)}")
            examples.append(_parallel_from_fields(*columns, where=where))
        else:
            obj = _json_object(line, where)
            fields = [_require_str(obj, name, where) for name in _PARALLEL_FIELDS]
            provenance = obj.get("provenance", "")
            if not isinstance(provenance, str):
                raise IngestError(f"{where}: provenance must be a string")
            examples.append(_parallel_from_fields(*fields, provenance, where=where))
    if not examples:
        logger.warning("parallel file %s contained no examples", path)
    return examples


def render_dictionary_text(headword: str, target: str, definition: str | None) -> str:
    parts = [headword, target]
    if definition:
        parts.append(definition)
    return " — ".join(parts)


def render_example_text(source_text: str, target_text: str) -> str:
    return f"{source_text} ⇒ {target_text}"


_ID_PREFIX = {DICTIONARY_KIND: "d", EXAMPLE_KIND: "x"}

# The keys of one docs.jsonl line, in the order save_documents writes them,
# and a Document's fields after its id, as one row.
_DOC_KEYS = ("kind", "source_text", "target_text", "metadata")
_Row = tuple[str, str, str, dict[str, str]]


def _positional_ids(kinds: list[str]) -> list[str]:
    """``d:<seq>`` for dictionary entries and ``x:<seq>`` for examples, with
    ``seq`` counted per kind in document order."""
    seen = dict.fromkeys(_ID_PREFIX, 0)
    ids = []
    for kind in kinds:
        if kind not in seen:
            raise IngestError(f"unknown document kind {kind!r}")
        ids.append(f"{_ID_PREFIX[kind]}:{seen[kind]}")
        seen[kind] += 1
    return ids


def _documents(rows: list[_Row]) -> list[Document]:
    ids = _positional_ids([kind for kind, *_ in rows])
    return [Document(doc_id, *row) for doc_id, row in zip(ids, rows)]


def to_documents(
    entries: list[DictionaryEntry],
    examples: list[ParallelExample],
) -> list[Document]:
    """Flatten entries and examples into Documents, dictionary entries first,
    with positional ids."""
    if not entries and not examples:
        raise IngestError("no input: need at least one dictionary entry or parallel example")
    rows: list[_Row] = []
    for entry in entries:
        metadata: dict[str, str] = {}
        if entry.definition:
            metadata["definition"] = entry.definition
        if entry.part_of_speech:
            metadata["part_of_speech"] = entry.part_of_speech
        if entry.examples:
            metadata["examples"] = json.dumps(
                [list(pair) for pair in entry.examples], ensure_ascii=False
            )
        rows.append((DICTIONARY_KIND, entry.headword, entry.target, metadata))
    for example in examples:
        metadata = {
            "source_lang": example.source_lang,
            "target_lang": example.target_lang,
            "provenance": example.provenance,
        }
        rows.append((EXAMPLE_KIND, example.source_text, example.target_text, metadata))
    return _documents(rows)


def save_documents(docs: list[Document], path: str | Path) -> None:
    """Write Documents as JSONL (one object per line, UTF-8).  Ids are not
    written, so a document whose id is not the one its position gives is
    rejected rather than renumbered."""
    for seq, (doc, expected) in enumerate(zip(docs, _positional_ids([d.kind for d in docs]))):
        if doc.id != expected:
            raise IngestError(
                f"document {seq} has id {doc.id!r}, but its position gives {expected!r}"
            )
    rows = ((doc.kind, doc.source_text, doc.target_text, doc.metadata) for doc in docs)
    lines = [json.dumps(dict(zip(_DOC_KEYS, row)), ensure_ascii=False) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_documents(path: str | Path) -> list[Document]:
    """Reload Documents written by :func:`save_documents`, checking each line's
    keys and value types; ids follow from position and kind."""
    rows: list[_Row] = []
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        obj = _json_object(line, where)
        if obj.keys() != set(_DOC_KEYS):
            raise IngestError(f"{where}: expected an object with exactly the keys {_DOC_KEYS}")
        kind, source_text, target_text, metadata = (obj[key] for key in _DOC_KEYS)
        if kind not in (DICTIONARY_KIND, EXAMPLE_KIND):
            raise IngestError(f"{where}: unknown document kind {kind!r}")
        if not isinstance(source_text, str) or not isinstance(target_text, str):
            raise IngestError(f"{where}: source_text and target_text must be strings")
        if not isinstance(metadata, dict) or not all(isinstance(v, str) for v in metadata.values()):
            raise IngestError(f"{where}: metadata must be an object of strings")
        rows.append((kind, source_text, target_text, metadata))
    return _documents(rows)
