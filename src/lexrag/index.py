"""The two index structures behind retrieval, plus their on-disk form.

A corpus is indexed twice: a :class:`KeywordIndex` from normalized phrase to
ascending document positions, packed in memory as in ``keyword_index.json``
(one uint32 array and one offset per phrase), and a vector store of
unit-normalized embeddings queried by cosine similarity (dot product, since
rows are unit vectors).  The build writes each chunk of embeddings into the
float32 matrix as it arrives, so its peak is about that matrix plus one
chunk of replies.  Top-K is exact and flat, in two passes.
A float32 product screens every row and gives the k-th best screen score;
its proven error bound then rules out every row that cannot reach the k-th
float64 score.  The screen runs on a batch of queries at once, so the matrix
is read once per batch; it holds ``count`` x 4 bytes per query (2.5 MB for
32 queries over 20,000 rows).  The 8-row groups holding a remaining row are
scored in float64, one query at a time and at most ``SCORE_BLOCK_ROWS`` rows
per product, so no query allocates a float64 copy of the matrix (25 MB at
3,000 x 1,536).  They are sorted by (-score, row), a row being a document's
position, as a keyword posting is.  The result, every score bit included,
equals a full float64 sort of every row.

Index directory layout::

    manifest.json       the fields of IndexManifest: dim / count / embedder_id /
                        created_at / max_phrase_len / version
    keyword_index.json  sorted phrases, their posting counts, then every posting
                        (a docs.json index) as base64 of little-endian uint32s
    docs.json           dictionary_count, then arrays source_text / target_text /
                        definition, one value per document: the first
                        dictionary_count documents are dictionary entries,
                        the rest examples; no ids, kinds or render texts
    vectors.bin         binary vector payload (see below)
    cache/embeddings.jsonl   optional embedding cache

``vectors.bin``, little-endian: magic ``LRXV``, version u32 (=7), dim u32,
count u64, then ``count × dim`` float32 values, one row per document in
``docs.json`` order.

``save_index`` deletes ``manifest.json`` first and writes it last, so the
manifest commits the other files: a save that raises or is killed part-way
leaves a directory that ``load_index`` rejects, never one that loads.
Each file is checked by ``load_index``; how the files fit together, the
keyword postings included (one numpy pass), by :class:`IndexBundle`, which
``save_index`` builds before writing anything.
A load keeps the ``docs.json`` columns and builds no Document or id: a
Document is built when its position first reaches a result.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import logging
import struct
import threading
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .backends import Embedder
from .corpus import DICTIONARY_KIND, MAX_PHRASE_LEN, Document, Documents, from_json
from .corpus import load_documents, normalize_keyword, save_documents

logger = logging.getLogger(__name__)

MAGIC = b"LRXV"
FORMAT_VERSION = 7  # of both manifest.json and the vectors.bin header
VECTORS_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, count
UNIT_NORM_TOL = 1e-4
EMBED_BATCH_SIZE = 32  # texts per embedding request
SCORE_BLOCK_ROWS = 256  # most rows one float64 product scores; a multiple of 8

MANIFEST_FILE = "manifest.json"
KEYWORD_FILE = "keyword_index.json"
DOCS_FILE = "docs.json"
VECTORS_FILE = "vectors.bin"
CACHE_FILE = "cache/embeddings.jsonl"


class IndexBuildError(ValueError):
    """An unusable embedder reply, or a failure while building an index."""


class IndexFormatError(Exception):
    """Corrupt or inconsistent on-disk index data."""


def build_keyword_index(docs: Sequence[Document]) -> dict[str, list[int]]:
    """Map each normalized phrase to the ascending positions in ``docs`` of
    the documents it indexes: a dictionary document under its normalized
    headword, an example document under each of its source-text unigrams.
    Documents are visited in order and each adds its position to a phrase
    once, so every posting list is ascending and unique as it is built."""
    if not docs:
        raise ValueError("cannot build a keyword index from zero documents")
    index: dict[str, list[int]] = {}
    for position, doc in enumerate(docs):
        text = normalize_keyword(doc.source_text)
        phrases = [text] if doc.kind == DICTIONARY_KIND else dict.fromkeys(text.split())
        for phrase in phrases:
            if phrase:
                index.setdefault(phrase, []).append(position)
    return index


class KeywordIndex(Mapping):
    """A read-only phrase -> positions map, packed as ``keyword_index.json``
    keeps it: sorted phrases, their posting counts and every posting in one
    uint32 array.  ``rows`` maps a phrase to its row r, whose postings
    ``postings[offsets[r]:offsets[r + 1]]`` a lookup slices into a new list."""

    def __init__(self, phrases: list[str], counts: list[int], postings: np.ndarray) -> None:
        self.phrases, self.counts, self.postings = phrases, counts, postings
        self.offsets = list(itertools.accumulate(counts, initial=0))
        self.rows = dict(zip(phrases, range(len(phrases))))

    @classmethod
    def pack(cls, keyword: Mapping[str, Sequence[int]], count: int) -> KeywordIndex:
        """``keyword`` packed, once its postings are checked to be int
        positions (no bool or float) of ``count`` documents, in three C-level
        passes over their types, ``min`` and ``max``."""
        phrases = sorted(keyword)
        rows = [keyword[phrase] for phrase in phrases]
        flat = list(itertools.chain.from_iterable(rows))
        ints = set(map(type, flat)) <= {int}
        if not (ints and min(flat, default=0) >= 0 and max(flat, default=-1) < count):
            _name_bad_posting(keyword, count)
        return cls(phrases, list(map(len, rows)), np.array(flat, dtype="<u4"))

    def __getitem__(self, phrase: str) -> list[int]:
        row = self.rows[phrase]
        return self.postings[self.offsets[row] : self.offsets[row + 1]].tolist()

    def __iter__(self) -> Iterator[str]:
        return iter(self.phrases)

    def __len__(self) -> int:
        return len(self.phrases)


def keyword_lookup(index: KeywordIndex, phrase: str) -> list[int]:
    """A fresh list of an already normalized phrase's ascending document
    positions; an empty list on a miss.  Index keys and query n-grams are both
    ``normalize_keyword`` outputs, so each n-gram is looked up as it is."""
    return index[phrase] if phrase in index.rows else []


@dataclass(eq=False)
class VectorIndex:
    """Ordered unit vectors, one float32 row per document.  Construction
    rejects a row whose norm is NaN, infinite or not within
    ``UNIT_NORM_TOL`` of 1; the norms are summed in float64 without a
    float64 copy of the matrix."""

    dim: int
    embedder_id: str
    ids: Sequence[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape != (len(self.ids), self.dim):
            raise IndexBuildError(
                f"vector payload shape {self.vectors.shape} does not match "
                f"{len(self.ids)} ids x dim {self.dim}"
            )
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
    def create(cls, keyword: dict[str, list[int]], vector: VectorIndex) -> "IndexManifest":
        """``max_phrase_len`` is the word count of the longest phrase in
        ``keyword``, capped at ``MAX_PHRASE_LEN`` (a longer headword is still
        indexed and reachable by exact lookup) and at least 1."""
        longest = max(map(len, map(str.split, keyword)), default=0)
        return cls(
            dim=vector.dim,
            count=vector.count,
            embedder_id=vector.embedder_id,
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            max_phrase_len=min(max(longest, 1), MAX_PHRASE_LEN),
            version=FORMAT_VERSION,
        )


def cache_key(embedder_id: str, text: str) -> str:
    digest = hashlib.sha256(
        embedder_id.encode("utf-8") + b"\x00" + text.encode("utf-8")
    )
    return digest.hexdigest()


# What a cache line that is not an entry raises: OverflowError comes from
# an integer too large for a float, RecursionError from JSON nested too deep.
_BAD_CACHE_LINE = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


class EmbeddingCache:
    """Append-only JSONL cache of raw embedder output, keyed by the SHA-256
    of (embedder_id, text).  Backend calls are billable and slow; the cache
    makes rebuilds reproducible and free after the first run.  Each entry is
    held as a float64 array (8 bytes a value, not a Python float's 32), and
    :meth:`get` returns it as a list of Python floats.

    Reads are lock-free once loaded; appends are serialized.  A crash during
    an append can leave a final line without its newline: on load, such a
    line is kept if it is an entry, and otherwise dropped (with a warning)
    and cut from the file, so the next append starts on a line of its own.
    A bad line anywhere else is an ``IndexFormatError``.  An entry is a
    UTF-8 JSON object: ``key`` a string, ``dim`` an integer and ``vector`` a
    list of ``dim`` numbers (not bools) whose norm is finite and not zero.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.path.is_file():
            self._load(self.path)

    def _load(self, path: Path) -> None:
        """Read the file a line at a time, so that only the entries are
        held, never the file."""
        complete = 0  # bytes up to the end of the last line read in full
        with path.open("rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    break  # a last line without its newline: checked below
                try:
                    self._add_line(line.decode("utf-8"))
                except _BAD_CACHE_LINE as exc:
                    raise IndexFormatError(f"{path}:{lineno}: bad cache entry: {exc}") from exc
                complete += len(line)
            else:
                return
        try:
            self._add_line(line.decode("utf-8"))
        except _BAD_CACHE_LINE as exc:
            logger.warning("%s:%d: dropping torn last cache line (%s)", path, lineno, exc)
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
        squares = sum(v * v for v in vector)  # the build divides by its square root
        if not squares < np.inf:  # NaN and Infinity parse as JSON; huge values overflow
            raise ValueError("vector must be finite")
        if squares == 0.0:  # all zero, or so small that every square underflows
            raise ValueError("vector must not be zero")
        self._entries[key] = np.array(vector)

    def get(self, embedder_id: str, text: str) -> list[float] | None:
        vector = self._entries.get(cache_key(embedder_id, text))
        if vector is None:
            self.misses += 1
            return None
        self.hits += 1
        return vector.tolist()

    def put(
        self, embedder_id: str, texts: Sequence[str], vectors: Sequence[Sequence[float]]
    ) -> None:
        """Add one reply chunk, ``vectors[i]`` being the embedding of
        ``texts[i]``: the texts not cached yet are appended under one lock,
        with one open and one write of their lines."""
        vectors = np.array(vectors, dtype=np.float64)  # a copy: no caller can change an entry
        keys = [cache_key(embedder_id, text) for text in texts]
        records = [
            json.dumps({"key": key, "dim": len(vector), "vector": vector})
            for key, vector in zip(keys, vectors.tolist())
        ]
        with self._lock:
            new: dict[str, tuple[np.ndarray, str]] = {}
            for key, vector, record in zip(keys, vectors, records):
                if key not in self._entries:
                    new.setdefault(key, (vector, record))
            if not new:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write("".join(record + "\n" for _, record in new.values()))
            self._entries.update((key, vector) for key, (vector, _) in new.items())


def embed_chunks(
    embed: Callable[[list[str]], list[list[float]]], texts: list[str]
) -> Iterator[tuple[list[str], np.ndarray]]:
    """Embed ``texts`` with ``embed``, ``EMBED_BATCH_SIZE`` per request, and
    yield each request's texts with their vectors as float64 rows.  Each
    reply is checked before it is yielded: one vector per text, each as long
    as the first reply's first vector, none zero or non-finite.  A reply that
    fails is an ``IndexBuildError`` naming the fault and, for a bad vector,
    its text."""
    dim = None
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        chunk = texts[start : start + EMBED_BATCH_SIZE]
        reply = embed(chunk)
        if len(reply) != len(chunk):
            raise IndexBuildError(f"embedder returned {len(reply)} vectors for {len(chunk)} texts")
        dim = len(reply[0]) if dim is None else dim
        for vector in reply:
            if len(vector) != dim:
                raise IndexBuildError(f"embedding dimension drifted from {dim} to {len(vector)}")
        vectors = np.asarray(reply, dtype=np.float64)
        with np.errstate(over="ignore"):  # a square past float range is refused below
            norms = np.linalg.norm(vectors, axis=1).tolist()
        bad = next((i for i, norm in enumerate(norms) if not 0.0 < norm < np.inf), None)  # NaN too
        if bad is not None:
            fault = "zero" if norms[bad] == 0.0 else "non-finite"
            raise IndexBuildError(f"embedder returned a {fault} vector for {chunk[bad]!r}")
        yield chunk, vectors


def build_vector_index(
    docs: Sequence[Document],
    embedder: Embedder,
    cache: EmbeddingCache | None = None,
) -> VectorIndex:
    """Embed each document's render_text (in document order) through
    :func:`embed_chunks`, unit-normalize, and assemble the vector index.
    Texts already in the cache are served from it and never reach the
    backend; each checked reply is cached as it arrives, so a failed build
    keeps the replies before the failure.

    The float32 matrix is written chunk by chunk: each distinct text has a
    row, and each chunk of ``EMBED_BATCH_SIZE`` cache hits, then each reply,
    is normalized in float64 and written into its rows as it comes.  So the
    build holds the matrix and one chunk, never a Python float per value or
    a float64 copy of the matrix.  A chunk whose dimension differs from the
    vectors before it stops the build."""
    if not docs:
        raise ValueError("cannot build a vector index from zero documents")

    texts = [doc.render_text for doc in docs]
    rows = dict(zip(dict.fromkeys(texts), itertools.count()))  # distinct text -> its row
    unit = None  # allocated once the first vector gives the dimension

    def place(chunk_rows: list[int], vectors: Sequence[Sequence[float]]) -> None:
        nonlocal unit
        dims = set(map(len, vectors)) | ({unit.shape[1]} if unit is not None else set())
        if len(dims) != 1:
            raise IndexBuildError(f"inconsistent embedding dimensions: {sorted(dims)}")
        if unit is None:
            unit = np.empty((len(rows), dims.pop()), dtype=np.float32)
        matrix = np.asarray(vectors, dtype=np.float64)
        unit[chunk_rows] = matrix / np.linalg.norm(matrix, axis=1)[:, None]

    pending, hit_rows, hits = [], [], []
    for text, row in rows.items():
        vector = cache.get(embedder.embedder_id, text) if cache is not None else None
        if vector is None:
            pending.append(text)
            continue
        hit_rows.append(row)
        hits.append(vector)
        if len(hits) == EMBED_BATCH_SIZE:
            place(hit_rows, hits)
            hit_rows, hits = [], []
    if hits:
        place(hit_rows, hits)
    for chunk, vectors in embed_chunks(embedder.embed_texts, pending):
        if cache is not None:
            cache.put(embedder.embedder_id, chunk, vectors)
        place([rows[text] for text in chunk], vectors)

    if len(rows) < len(texts):  # a text repeats: give each document its text's row
        unit = unit[[rows[text] for text in texts]]
    return VectorIndex(unit.shape[1], embedder.embedder_id, _ids(docs), unit)


def _ids(docs: Sequence[Document]) -> Sequence[str]:
    """The ids of ``docs``; of :class:`Documents`, their view, which makes none."""
    return docs.ids if isinstance(docs, Documents) else [doc.id for doc in docs]


def screen_rows(
    index: VectorIndex, queries: Sequence[Sequence[float]], k: int
) -> list[np.ndarray]:
    """For each of a batch of unit queries, the ascending rows to score in
    float64 for its top ``k``: every row that can rank, ties included, with
    the rest of its 8-row group.  The first pass of :func:`vector_topk`.

    One float32 product screens every row for every query, so the matrix is
    read once per batch; the screen holds ``count`` float32 scores per query.
    With ``k >= count`` every row is kept.  Anything but a non-empty batch
    of unit vectors of the index's dimension is refused."""
    if k < 0:
        raise ValueError("k must be >= 0")
    batch = np.asarray(queries, dtype=np.float64)
    if batch.ndim != 2 or not batch.size:
        raise ValueError("queries must be a non-empty 2-D batch of vectors, one row per query")
    if batch.shape[1] != index.dim:
        raise ValueError(f"query dim {batch.shape[1:]} does not match index dim {index.dim}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = np.linalg.norm(batch, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN too
    if bad.size:
        raise ValueError(f"query vector norm {norms[bad[0]]:.6f} is not unit length")
    count = index.count
    if k == 0 or count == 0:
        return [np.arange(0) for _ in batch]
    if k >= count:
        return [np.arange(count) for _ in batch]
    # The product writes through a transposed view, so that row j, query j's
    # screen scores, is contiguous: taking them as columns of a (count, m)
    # screen made a batch of 32 queries over 20,000 x 64 rows twice as slow.
    screen = np.empty((len(batch), count), dtype=np.float32)
    np.matmul(index.vectors, batch.astype(np.float32).T, out=screen.T)
    # A float32 dot product of unit vectors, summed in any order (so a
    # matrix product may block its sums as it likes), is within
    # (dim + 1) * 2**-24 of the exact one (to first order, for dim far below
    # 2**24): 2**-24 for rounding the query, dim * 2**-24 for the sum, each
    # times sum|x_i q_i| <= |x| |q| ~ 1.  ``bound`` doubles that, to cover
    # the norm tolerance, second-order terms, underflow and the float64
    # rounding of the scores.  At least k rows screen at or above
    # kth_screen, so the k-th float64 score is at least kth_screen - bound,
    # and any row that can rank, ties included, screens at or above
    # kth_screen - 2 * bound.  (Comparing in float32 drops no row: no
    # float32 lies between that threshold and its rounding up.)
    bound = (index.dim + 2) * 2.0**-23
    selected = []
    for scores in screen:
        kth_screen = float(np.partition(scores, count - k)[count - k])
        groups = np.zeros(-(-count // 8), dtype=bool)
        groups[np.flatnonzero(scores >= kth_screen - 2 * bound) // 8] = True
        if count % 8 == 1 and count > 1:  # a lone last row goes with the group before it
            groups[-2:] = groups[-2:].any()
        selected.append(np.flatnonzero(np.repeat(groups, 8)[:count]))
    return selected


def vector_topk(
    index: VectorIndex,
    query_vec: Sequence[float],
    k: int,
    rows: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Exact cosine top-K as (row, score) pairs: float64 dot products with the
    unit query, descending, score ties by ascending row (document position).

    Two passes, and no float64 copy of the whole matrix: a float32 product
    screens every row (:func:`screen_rows`), then only the 8-row groups
    holding a row that can reach the k-th score are scored in float64 and
    sorted.  Every row tied at that boundary is among them, so the ranking,
    scores included, equals a float64 sort of all rows.  ``rows`` is what
    :func:`screen_rows` gave for this query and this k, for a caller that
    screened a whole batch (the query is then taken as that call checked
    it); without them the query is checked and screened here."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if rows is None:
        (rows,) = screen_rows(index, [query_vec], k)
    if k == 0 or not rows.size:  # also an empty index
        return []
    query = np.asarray(query_vec, dtype=np.float64)
    # Each product takes at most SCORE_BLOCK_ROWS rows, in whole 8-row groups
    # but for the last rows of the index, so BLAS gives each row the float64
    # bits of the full product; none takes one row alone (unless the index
    # has one row), which numpy would score with a dot product, summing in
    # another order.
    parts = np.split(rows, range(SCORE_BLOCK_ROWS, rows.size - 1, SCORE_BLOCK_ROWS))
    scores = np.concatenate([index.vectors[part].astype(np.float64) @ query for part in parts])
    order = np.lexsort((rows, -scores))[:k]
    return list(zip(rows[order].tolist(), scores[order].tolist()))


@dataclass
class IndexBundle:
    """One index, as saved and loaded; ``keyword`` is packed as in
    ``keyword_index.json`` (a dict, as a build makes it, is packed here);
    loaded ``docs`` are the columns of ``docs.json``, which build a Document
    when its position first reaches a result.  Construction checks its parts
    against each other, here only: the manifest describes the vectors, whose
    rows follow the documents (at load, two id views compared by their
    counts), and each phrase lists documents in ascending position."""

    keyword: KeywordIndex
    vector: VectorIndex
    manifest: IndexManifest
    docs: Sequence[Document]

    def __post_init__(self) -> None:
        described = (self.manifest.count, self.manifest.dim, self.manifest.embedder_id)
        stored = (self.vector.count, self.vector.dim, self.vector.embedder_id)
        if described != stored:
            raise IndexFormatError(
                f"manifest count, dim, embedder_id {described} does not match vectors {stored}"
            )
        if self.vector.ids != _ids(self.docs):
            raise IndexFormatError("vector index ids do not follow the documents in order")
        if not isinstance(self.keyword, KeywordIndex):
            self.keyword = KeywordIndex.pack(self.keyword, len(self.docs))
        _check_postings(self.keyword, len(self.docs))


def _check_postings(keyword: KeywordIndex, count: int) -> None:
    """One numpy pass over the packed postings: each is below ``count`` (a
    uint32 is never negative), and above the one before it unless it starts
    a row.  Only an index that fails is scanned, for what to name."""
    postings, starts = keyword.postings, np.zeros(keyword.postings.size + 1, dtype=bool)
    starts[keyword.offsets] = True
    rising = (postings[1:] > postings[:-1]) | starts[1:-1]
    if postings.size and not (postings.max() < count and rising.all()):
        _name_bad_posting(keyword, count)


def _name_bad_posting(keyword: Mapping[str, Sequence[int]], count: int) -> None:
    for phrase, positions in keyword.items():
        for before, bad in zip([-1, *positions], positions):
            if type(bad) is not int or not 0 <= bad < count:
                fault = f"{bad!r}, not the position of one of the {count} documents"
            elif bad <= before:
                fault = f"{bad} after {before}, not in strictly ascending order"
            else:
                continue
            raise IndexFormatError(f"{KEYWORD_FILE}: phrase {phrase!r} lists {fault}")


def _write_vectors(path: Path, vector: VectorIndex) -> None:
    with path.open("wb") as fh:
        fh.write(VECTORS_HEADER.pack(MAGIC, FORMAT_VERSION, vector.dim, vector.count))
        fh.write(memoryview(np.ascontiguousarray(vector.vectors, dtype="<f4")))


def _read_vectors(path: Path, embedder_id: str, ids: Sequence[str]) -> VectorIndex:
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
    keyword: Mapping[str, Sequence[int]],
    vector: VectorIndex,
    manifest: IndexManifest,
    docs: Sequence[Document],
    out_dir: str | Path,
) -> None:
    """Persist one index directory: keyword map, docs and vectors, then the
    manifest, which is removed first so that only a finished save loads."""
    packed = IndexBundle(keyword, vector, manifest, docs).keyword
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST_FILE).unlink(missing_ok=True)
    positions = base64.b64encode(packed.postings).decode()
    fields = {"phrases": packed.phrases, "counts": packed.counts, "positions": positions}
    text = json.dumps(fields, ensure_ascii=False, separators=(",", ":"))
    (out / KEYWORD_FILE).write_text(text + "\n", encoding="utf-8")
    save_documents(docs, out / DOCS_FILE)
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
    except (ValueError, RecursionError) as exc:  # a decode or JSON syntax error, or deep nesting
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

    docs = load_documents(root / DOCS_FILE)
    vector = _read_vectors(root / VECTORS_FILE, manifest.embedder_id, docs.ids)
    keyword = _read_keyword(root / KEYWORD_FILE)
    return IndexBundle(keyword, vector, manifest, docs)


def _read_keyword(path: Path) -> KeywordIndex:
    """``keyword_index.json``, its fields checked; the bundle checks the postings."""
    try:
        fields = json.loads(path.read_text(encoding="utf-8"))
        phrases, counts, positions = fields["phrases"], fields["counts"], fields["positions"]
    except (OSError, ValueError, RecursionError) as exc:  # decode, syntax, int-digit limit, depth
        raise IndexFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise IndexFormatError(f"{path}: expected phrases, counts and positions") from exc
    try:
        postings = np.frombuffer(base64.b64decode(positions, validate=True), "<u4")
    except (TypeError, ValueError) as exc:  # not a string, not base64, or a cut uint32
        raise IndexFormatError(f"{path}: positions are not base64 of uint32s: {exc}") from exc
    if not (
        type(phrases) is type(counts) is list and len(phrases) == len(counts)
        and set(map(type, phrases)) <= {str} and set(map(type, counts)) <= {int}  # no bool
        and min(counts, default=0) >= 0
    ):
        raise IndexFormatError(f"{path}: expected string phrases, each with an int count >= 0")
    if sum(counts) != postings.size:
        raise IndexFormatError(f"{path}: counts sum to {sum(counts)}, not {postings.size} postings")
    keyword = KeywordIndex(phrases, counts, postings)
    if len(keyword.rows) != len(phrases):
        repeat = next(a for a, b in itertools.pairwise(sorted(phrases)) if a == b)
        raise IndexFormatError(f"{path}: phrase {repeat!r} repeats")
    return keyword
