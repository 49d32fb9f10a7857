"""The two index structures behind retrieval, plus their on-disk form.

A corpus is indexed twice: an exact keyword-to-document mapping over
normalized phrases, and a vector store of unit-normalized embeddings queried
by cosine similarity (dot product, since rows are unit vectors).  Top-K is
exact and flat, in two passes.  A float32 product screens every row and
gives the k-th best screen score; its proven error bound then rules out
every block of ``SCORE_BLOCK_ROWS`` rows that cannot reach the k-th float64
score.  Only the remaining blocks are scored in float64, so no query
allocates a float64 copy of the matrix (25 MB at 3,000 x 1,536).  Among
their rows, ``np.partition`` finds the k-th best score, and only the rows
scoring at least that much (ties at the boundary included) are sorted by
(-score, id).  The result, every score bit included, equals a full float64
sort of every row, which is what the tests compare it with.

Index directory layout::

    manifest.json       the fields of IndexManifest: dim / count / embedder_id /
                        created_at / max_phrase_len / version
    keyword_index.json  normalized phrase -> array of document ids, compact
    docs.json           arrays kind / source_text / target_text / definition,
                        one value per document; no ids or render texts
    vectors.bin         binary vector payload (see below)
    cache/embeddings.jsonl   optional embedding cache

``vectors.bin``, little-endian: magic ``LRXV``, version u32 (=4), dim u32,
count u64, then ``count × dim`` float32 values, one row per document in
``docs.json`` order.

``save_index`` deletes ``manifest.json`` first and writes it last, so the
manifest commits the other files: a save that raises or is killed part-way
leaves a directory that ``load_index`` rejects, never one that loads.
Each file is checked by ``load_index``; how they fit together only by
:class:`IndexBundle`, which ``save_index`` builds before writing anything.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import struct
import threading
import unicodedata
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .backends import Embedder
from .corpus import DICTIONARY_KIND, MAX_PHRASE_LEN, Document, from_json
from .corpus import load_documents, save_documents

logger = logging.getLogger(__name__)

MAGIC = b"LRXV"
FORMAT_VERSION = 4  # of both manifest.json and the vectors.bin header
VECTORS_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, count
UNIT_NORM_TOL = 1e-4
EMBED_BATCH_SIZE = 32  # texts per embedding request
SCORE_BLOCK_ROWS = 256  # rows scored in float64 at a time; a multiple of 8

MANIFEST_FILE = "manifest.json"
KEYWORD_FILE = "keyword_index.json"
DOCS_FILE = "docs.json"
VECTORS_FILE = "vectors.bin"
CACHE_FILE = "cache/embeddings.jsonl"


class IndexBuildError(Exception):
    """Embedding or construction failure while building an index."""


class IndexFormatError(Exception):
    """Corrupt or inconsistent on-disk index data."""


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


@dataclass
class KeywordIndex:
    """Exact-match mapping from normalized phrase to sorted document ids."""

    entries: dict[str, list[str]]
    max_phrase_len: int = MAX_PHRASE_LEN


def build_keyword_index(docs: Sequence[Document]) -> KeywordIndex:
    """Index dictionary documents under their normalized headword and example
    documents under each source-text unigram.

    ``max_phrase_len`` records the longest indexed phrase, capped at
    ``MAX_PHRASE_LEN``; longer headwords are still indexed and remain exact-
    lookup reachable.
    """
    if not docs:
        raise ValueError("cannot build a keyword index from zero documents")
    if len({doc.id for doc in docs}) != len(docs):
        raise ValueError("document ids must be unique")
    mapping: dict[str, set[str]] = {}
    longest = 0
    for doc in docs:
        if doc.kind == DICTIONARY_KIND:
            phrases: Iterable[str] = [normalize_keyword(doc.source_text)]
        else:
            phrases = normalize_keyword(doc.source_text).split()
        for phrase in phrases:
            if not phrase:
                continue
            longest = max(longest, len(phrase.split()))
            mapping.setdefault(phrase, set()).add(doc.id)
    entries = {phrase: sorted(ids) for phrase, ids in mapping.items()}
    return KeywordIndex(entries=entries, max_phrase_len=min(max(longest, 1), MAX_PHRASE_LEN))


def keyword_lookup(index: KeywordIndex, phrase: str) -> list[str]:
    """Exact lookup of an already normalized phrase; misses yield an empty
    list.  The index keys and the phrases of ``extract_query_terms`` are both
    ``normalize_keyword`` outputs, so a query is normalized once and each of
    its n-grams is looked up as it is."""
    return list(index.entries.get(phrase, ()))


@dataclass(eq=False)
class VectorIndex:
    """Ordered unit vectors, one float32 row per document.  Construction
    rejects a row whose norm is NaN, infinite or not within
    ``UNIT_NORM_TOL`` of 1; the norms are summed in float64 without a
    float64 copy of the matrix."""

    dim: int
    embedder_id: str
    ids: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape != (len(self.ids), self.dim):
            raise IndexBuildError(
                f"vector payload shape {self.vectors.shape} does not match "
                f"{len(self.ids)} ids x dim {self.dim}"
            )
        if len(set(self.ids)) != len(self.ids):
            raise IndexBuildError("vector index ids must be unique")
        if len(self.ids):
            norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64))
            bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN too
            if bad.size:
                raise IndexBuildError(
                    f"row {bad[0]} (id {self.ids[bad[0]]!r}) has norm {norms[bad[0]]:.6f}, "
                    "expected unit length"
                )

    @property
    def count(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class IndexManifest:
    dim: int
    count: int
    embedder_id: str
    created_at: str
    max_phrase_len: int
    version: int

    @classmethod
    def create(cls, keyword: KeywordIndex, vector: VectorIndex) -> "IndexManifest":
        return cls(
            dim=vector.dim,
            count=vector.count,
            embedder_id=vector.embedder_id,
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            max_phrase_len=keyword.max_phrase_len,
            version=FORMAT_VERSION,
        )


def cache_key(embedder_id: str, text: str) -> str:
    digest = hashlib.sha256(
        embedder_id.encode("utf-8") + b"\x00" + text.encode("utf-8")
    )
    return digest.hexdigest()


# What a cache line that is not an entry raises: OverflowError comes from
# an integer too large for a float.
_BAD_CACHE_LINE = (ValueError, KeyError, TypeError, OverflowError)


class EmbeddingCache:
    """Append-only JSONL cache of raw embedder output, keyed by the SHA-256
    of (embedder_id, text).  Backend calls are billable and slow; the cache
    makes rebuilds reproducible and free after the first run.

    Reads are lock-free once loaded; appends are serialized.  A crash during
    an append can leave a final line without its newline: on load, such a
    line is kept if it is an entry, and otherwise dropped (with a warning)
    and cut from the file, so the next append starts on a line of its own.
    A bad line anywhere else is an ``IndexFormatError``.  An entry is a
    UTF-8 JSON object whose ``key`` is a string, ``dim`` an integer and
    ``vector`` a list of ``dim`` finite numbers (bool is not a number here).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.path.is_file():
            self._load(self.path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        complete = data.rfind(b"\n") + 1
        lines = data[:complete].splitlines()
        for lineno, line in enumerate(lines, 1):
            try:
                self._add_line(line.decode("utf-8"))
            except _BAD_CACHE_LINE as exc:
                raise IndexFormatError(f"{path}:{lineno}: bad cache entry: {exc}") from exc
        tail = data[complete:]
        if not tail:
            return
        try:
            self._add_line(tail.decode("utf-8"))
        except _BAD_CACHE_LINE as exc:
            logger.warning("%s:%d: dropping torn last cache line (%s)", path, len(lines) + 1, exc)
            with path.open("r+b") as fh:
                fh.truncate(complete)
        else:
            with path.open("ab") as fh:
                fh.write(b"\n")

    def _add_line(self, line: str) -> None:
        if not line.strip():
            return
        obj = json.loads(line)
        key, dim, vector = obj["key"], obj["dim"], obj["vector"]
        if type(key) is not str:
            raise ValueError("key must be a string")
        if type(dim) is not int:  # rejects bool too
            raise ValueError("dim must be an integer")
        if type(vector) is not list or not set(map(type, vector)) <= {int, float}:
            raise ValueError("vector must be a list of numbers")
        if len(vector) != dim:
            raise ValueError("dim field disagrees with vector length")
        vector = list(map(float, vector))
        if not all(map(math.isfinite, vector)):  # NaN and Infinity parse as JSON
            raise ValueError("vector must be finite")
        self._entries[key] = vector

    def get(self, embedder_id: str, text: str) -> list[float] | None:
        vector = self._entries.get(cache_key(embedder_id, text))
        if vector is None:
            self.misses += 1
            return None
        self.hits += 1
        return vector

    def put(self, embedder_id: str, text: str, vector: Sequence[float]) -> None:
        key = cache_key(embedder_id, text)
        record = json.dumps(
            {"key": key, "dim": len(vector), "vector": list(map(float, vector))}
        )
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = list(map(float, vector))
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(record + "\n")


def _unit_rows(raw: Sequence[Sequence[float]], ids: Sequence[str], dim: int) -> np.ndarray:
    """``raw`` scaled to unit rows; a zero or non-finite row is an IndexBuildError."""
    matrix = np.asarray(raw, dtype=np.float64)
    if matrix.shape != (len(ids), dim):
        raise IndexBuildError(
            f"embedder returned shape {matrix.shape}, expected ({len(ids)}, {dim})"
        )
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if bad.size:
        fault = "zero" if norms[bad[0]] == 0.0 else "non-finite"
        raise IndexBuildError(
            f"embedder returned a {fault} vector for document {ids[bad[0]]!r}; cannot normalize"
        )
    return (matrix / norms[:, None]).astype(np.float32)


def build_vector_index(
    docs: Sequence[Document],
    embedder: Embedder,
    cache: EmbeddingCache | None = None,
) -> VectorIndex:
    """Embed each document's render_text (in document order), unit-normalize,
    and assemble the vector index, ``EMBED_BATCH_SIZE`` texts per request.
    Texts already in the cache are served from it and never reach the backend.
    """
    if not docs:
        raise ValueError("cannot build a vector index from zero documents")

    texts = [doc.render_text for doc in docs]
    raw: dict[str, list[float]] = {}
    pending: dict[str, str] = {}  # text to embed -> id of its first document
    for doc, text in zip(docs, texts):
        if text in raw or text in pending:
            continue
        cached = cache.get(embedder.embedder_id, text) if cache is not None else None
        if cached is not None:
            raw[text] = cached
        else:
            pending[text] = doc.id

    dim: int | None = None
    queue = list(pending)
    for start in range(0, len(queue), EMBED_BATCH_SIZE):
        batch = queue[start : start + EMBED_BATCH_SIZE]
        vectors = embedder.embed_texts(batch)
        if len(vectors) != len(batch):
            raise IndexBuildError(
                f"embedder returned {len(vectors)} vectors for {len(batch)} texts"
            )
        dim = len(vectors[0]) if dim is None else dim
        for vector in vectors:
            if len(vector) != dim:
                raise IndexBuildError(
                    f"embedding dimension drifted from {dim} to {len(vector)} within one build"
                )
        # Check the batch before caching it, so that a bad vector is never cached.
        _unit_rows(vectors, [pending[text] for text in batch], dim)
        for text, vector in zip(batch, vectors):
            raw[text] = list(map(float, vector))
            if cache is not None:
                cache.put(embedder.embedder_id, text, vector)

    dims = {len(v) for v in raw.values()}
    if len(dims) != 1:
        raise IndexBuildError(f"inconsistent embedding dimensions: {sorted(dims)}")
    dim = dims.pop()

    ids = [doc.id for doc in docs]
    matrix = _unit_rows([raw[text] for text in texts], ids, dim)
    return VectorIndex(dim=dim, embedder_id=embedder.embedder_id, ids=ids, vectors=matrix)


def vector_topk(
    index: VectorIndex, query_vec: Sequence[float], k: int
) -> list[tuple[str, float]]:
    """Exact cosine top-K: score rows by float64 dot product against the unit
    query, rank descending, break score ties by ascending document id.

    Two passes, and no float64 copy of the whole matrix: a float32 product
    screens every row, then only the ``SCORE_BLOCK_ROWS``-row blocks holding
    a row that can reach the k-th score are scored in float64.  Only the rows
    of those blocks scoring at least the k-th best are sorted; every row tied
    at that boundary is among them, so the ranking, scores included, equals
    a float64 sort of all rows.  With ``k >= count`` every block is scored."""
    if k < 0:
        raise ValueError("k must be >= 0")
    query = np.asarray(query_vec, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ValueError(f"query dim {query.shape} does not match index dim {index.dim}")
    norm = float(np.linalg.norm(query))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # also rejects NaN
        raise ValueError(f"query vector norm {norm:.6f} is not unit length")
    if k == 0 or index.count == 0:
        return []
    count = index.count
    # Blocks start on a multiple of 8 rows and end on one or at the last row,
    # so BLAS gives each row the float64 bits of the full product.  A lone
    # last row joins the block before it: numpy scores a one-row block with a
    # dot product, which sums in another order.
    starts = range(0, max(count - 1, 1), SCORE_BLOCK_ROWS)
    spans = list(zip(starts, [*starts[1:], count]))
    if k < count:
        screen = index.vectors @ query.astype(np.float32)
        kth_screen = float(np.partition(screen, count - k)[count - k])
        # A float32 dot product of unit vectors, summed in any order, is
        # within (dim + 1) * 2**-24 of the exact one (to first order, for dim
        # far below 2**24): 2**-24 for rounding the query, dim * 2**-24 for
        # the sum, each times sum|x_i q_i| <= |x| |q| ~ 1.  ``bound`` doubles
        # that, to cover the norm tolerance, second-order terms, underflow
        # and the float64 rounding of the scores.  At least k rows screen at
        # or above kth_screen, so the k-th float64 score is at least
        # kth_screen - bound, and any row that can rank, ties included,
        # screens at or above kth_screen - 2 * bound.  (Comparing in float32
        # drops no block: no float32 lies between that threshold and its
        # rounding up.)
        bound = (index.dim + 2) * 2.0**-23
        block_max = np.maximum.reduceat(screen, starts)
        spans = [spans[i] for i in np.flatnonzero(block_max >= kth_screen - 2 * bound)]
    scores = np.concatenate([index.vectors[s:e].astype(np.float64) @ query for s, e in spans])
    rows = np.concatenate([np.arange(s, e) for s, e in spans])
    if k < scores.size:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)
        scores, rows = scores[keep], rows[keep]
    # Negation is exact, so sorting (-score, id) pairs keeps every score's bits.
    ranked = sorted(zip((-scores).tolist(), [index.ids[row] for row in rows.tolist()]))
    return [(doc_id, -negated) for negated, doc_id in ranked[:k]]


@dataclass
class IndexBundle:
    """One index, as saved and loaded.  Construction checks its parts against
    each other, here only: the manifest describes the vectors, whose rows
    follow the documents, and every keyword id has a document."""

    keyword: KeywordIndex
    vector: VectorIndex
    manifest: IndexManifest
    docs: list[Document]
    doc_map: dict[str, Document] = field(init=False)

    def __post_init__(self) -> None:
        described = (self.manifest.count, self.manifest.dim, self.manifest.embedder_id)
        stored = (self.vector.count, self.vector.dim, self.vector.embedder_id)
        if described != stored:
            raise IndexFormatError(
                f"manifest count, dim, embedder_id {described} does not match vectors {stored}"
            )
        if self.vector.ids != [doc.id for doc in self.docs]:
            raise IndexFormatError("vector index ids do not follow the documents in order")
        self.doc_map = {doc.id: doc for doc in self.docs}
        missing = {i for ids in self.keyword.entries.values() for i in ids} - self.doc_map.keys()
        if missing:
            raise IndexFormatError(f"index refers to unknown document ids: {sorted(missing)[:5]}")


def _write_vectors(path: Path, vector: VectorIndex) -> None:
    with path.open("wb") as fh:
        fh.write(VECTORS_HEADER.pack(MAGIC, FORMAT_VERSION, vector.dim, vector.count))
        fh.write(np.ascontiguousarray(vector.vectors, dtype="<f4").tobytes())


def _read_vectors(path: Path, embedder_id: str, ids: list[str]) -> VectorIndex:
    """The rows of ``vectors.bin``, one per id of ``ids`` (the documents)."""
    data = path.read_bytes()
    if len(data) < VECTORS_HEADER.size:
        raise IndexFormatError("vectors.bin truncated while reading header")
    magic, version, dim, count = VECTORS_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic bytes {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported vectors.bin version {version}")
    expected = VECTORS_HEADER.size + 4 * dim * count
    if len(data) < expected:
        raise IndexFormatError(f"vectors.bin truncated: {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise IndexFormatError("vectors.bin has trailing bytes beyond declared count")
    if count != len(ids):
        raise IndexFormatError(f"vectors.bin has {count} rows for {len(ids)} documents")
    matrix = np.frombuffer(data, dtype="<f4", offset=VECTORS_HEADER.size).reshape(count, dim)
    try:
        return VectorIndex(dim=dim, embedder_id=embedder_id, ids=ids, vectors=matrix)
    except IndexBuildError as exc:
        raise IndexFormatError(f"vectors.bin payload invalid: {exc}") from exc


def save_index(
    keyword: KeywordIndex,
    vector: VectorIndex,
    manifest: IndexManifest,
    docs: Sequence[Document],
    out_dir: str | Path,
) -> None:
    """Persist one index directory: keyword map, docs and vectors, then the
    manifest, which is removed first so that only a finished save loads."""
    IndexBundle(keyword, vector, manifest, list(docs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST_FILE).unlink(missing_ok=True)
    (out / KEYWORD_FILE).write_text(
        json.dumps(keyword.entries, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        + "\n",
        encoding="utf-8",
    )
    save_documents(list(docs), out / DOCS_FILE)
    _write_vectors(out / VECTORS_FILE, vector)
    manifest_text = json.dumps(asdict(manifest), indent=2) + "\n"
    (out / MANIFEST_FILE).write_text(manifest_text, encoding="utf-8")


def load_index(index_dir: str | Path) -> IndexBundle:
    """Load an index directory written by :func:`save_index`, checking each file."""
    root = Path(index_dir)
    manifest_path = root / MANIFEST_FILE
    if not manifest_path.is_file():
        raise IndexFormatError(f"{root} is not an index directory (missing {MANIFEST_FILE})")
    try:
        manifest = from_json(IndexManifest, json.loads(manifest_path.read_text(encoding="utf-8")))
    except ValueError as exc:  # a decode or JSON syntax error too
        raise IndexFormatError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if manifest.max_phrase_len < 1:
        raise IndexFormatError(
            f"{manifest_path}: malformed manifest: field 'max_phrase_len' must be at least 1, "
            f"got {manifest.max_phrase_len}"
        )
    if manifest.version != FORMAT_VERSION:
        raise IndexFormatError(
            f"{root}: unsupported index version {manifest.version} (expected "
            f"{FORMAT_VERSION}); rebuild it with `lexrag index-build`"
        )

    try:
        entries = json.loads((root / KEYWORD_FILE).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"{root / KEYWORD_FILE}: {exc}") from exc
    # Each value must be a list, and each id in one a string: one C-level
    # pass over the values, one over the ids.
    if not (
        isinstance(entries, dict)
        and set(map(type, entries.values())) <= {list}
        and set(map(type, itertools.chain.from_iterable(entries.values()))) <= {str}
    ):
        raise IndexFormatError(f"{root / KEYWORD_FILE}: expected phrase -> [ids] object")
    keyword = KeywordIndex(entries, manifest.max_phrase_len)

    docs = load_documents(root / DOCS_FILE)
    vector = _read_vectors(root / VECTORS_FILE, manifest.embedder_id, [doc.id for doc in docs])
    return IndexBundle(keyword=keyword, vector=vector, manifest=manifest, docs=docs)
