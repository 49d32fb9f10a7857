"""Keyword-first retrieval with cosine fallback.

Queries are matched exactly against the keyword index first; the embedding
path runs only when keywords produce nothing (``strict_fallback``, the
default) or when there is room left under the result cap (``fill``).  The
vector query embeds the whole query sentence, not individual terms.

A batch runs the keyword phase for every query first (:func:`prepare_queries`),
so the queries that fall back to the vector phase are embedded together, up to
``EMBED_BATCH_SIZE`` per request, and each request's queries share one float32
screen of the vector matrix (:func:`screen_rows`), which reads the matrix
once for all of them (``count`` x 4 bytes per query: 2.5 MB for 32 queries
over 20,000 rows).  :func:`retrieve` then finishes each query: the float64
pass of :func:`vector_topk` over its screened rows, and the merge.  A single
query is a batch of one.  Both take the whole :class:`IndexBundle`, whose
construction checked that every keyword posting is a document's position and
that vector row i is document i.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .backends import BackendError, Embedder
from .corpus import Document, Documents, normalize_keyword
from .index import EMBED_BATCH_SIZE, IndexBuildError, IndexBundle, embed_chunks
from .index import keyword_lookup, screen_rows, vector_topk

KEYWORD = "keyword"
VECTOR = "vector"

POLICY_STRICT_FALLBACK = "strict_fallback"
POLICY_FILL = "fill"


class RetrievalError(Exception):
    """A query embedding of the wrong dimension, or an index of another embedder."""


@dataclass(frozen=True)
class RetrievalConfig:
    k_vector: int = 5
    k_total: int = 8
    policy: str = POLICY_STRICT_FALLBACK
    max_phrase_len: int = field(default=4, metadata={"json": False})  # each index records its own

    def __post_init__(self) -> None:
        for name in ("k_vector", "k_total", "max_phrase_len"):
            value = getattr(self, name)
            if type(value) is not int:  # rejects bool and float too
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.k_vector <= self.k_total:
            raise ValueError("need 1 <= k_vector <= k_total")
        if self.policy not in (POLICY_STRICT_FALLBACK, POLICY_FILL):
            raise ValueError(f"unknown retrieval policy {self.policy!r}")
        if self.max_phrase_len < 1:
            raise ValueError("max_phrase_len must be >= 1")


class RetrievalResult(NamedTuple):
    """One retrieved document with its score and provenance.  Keyword hits
    score 1.0 (the cosine ceiling); ``matched_phrase`` is set only for them.

    A NamedTuple, the cheapest immutable record to build, which a query does
    up to ``k_total`` times: it equals a plain tuple of the same values,
    unpacks, and lists its field names in ``_fields``."""

    doc: Document
    score: float
    provenance: str
    matched_phrase: str | None = None


def extract_query_terms(query: str, max_phrase_len: int) -> list[str]:
    """All n-grams of the normalized query for n = max_phrase_len..1, longest
    first, left to right within each length, first occurrence kept."""
    tokens = normalize_keyword(query).split()
    seen: set[str] = set()
    phrases: list[str] = []
    for n in range(min(max_phrase_len, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            phrase = " ".join(tokens[start : start + n])
            if phrase not in seen:
                seen.add(phrase)
                phrases.append(phrase)
    return phrases


@dataclass
class PreparedQuery:
    """A query after the keyword phase: its at most ``k_total`` keyword hits
    (position -> first matching phrase, in rank order), the unit embedding
    the vector phase will use (``None`` when it does not run) with the rows
    its screen kept (see :func:`screen_rows`), or the error that stopped
    that phase.  ``prepare_ms`` is the time spent on it, with the whole
    embedding request and the whole screen of its chunk."""

    query: str
    keyword: dict[int, str]
    embedding: np.ndarray | None = None
    rows: np.ndarray | None = None
    error: Exception | None = None
    prepare_ms: float = 0.0


def _keyword_phase(query: str, indexes: IndexBundle, config: RetrievalConfig) -> dict[int, str]:
    """Exact keyword hits in rank order, each document position mapped to the
    first phrase that hit it: the extracted phrases in order, each phrase's
    positions ascending.  The walk ends as soon as it holds ``k_total``,
    however many documents a common word is posted under.  No phrase is
    longer than the index's longest key (``manifest.max_phrase_len``)."""
    matched: dict[int, str] = {}
    max_phrase_len = min(config.max_phrase_len, indexes.manifest.max_phrase_len)
    for phrase in extract_query_terms(query, max_phrase_len):
        for position in keyword_lookup(indexes.keyword, phrase):
            matched.setdefault(position, phrase)
            if len(matched) >= config.k_total:
                return matched
    return matched


def _embed_queries(
    embedder: Embedder, texts: list[str], dim: int
) -> dict[str, np.ndarray | Exception]:
    """Unit embeddings of ``texts`` (at most ``EMBED_BATCH_SIZE``) from one
    request through :func:`embed_chunks`.  If the request fails, or its reply
    fails a check, each text is embedded on its own, so a failure stays with
    the text that caused it.  A reply whose dimension is not the index's is a
    ``RetrievalError`` on every text at once."""
    try:
        ((_, vectors),) = embed_chunks(embedder.embed_texts, texts)
    except (BackendError, IndexBuildError) as exc:
        if len(texts) == 1:
            return {texts[0]: exc}
        return {text: _embed_queries(embedder, [text], dim)[text] for text in texts}
    if vectors.shape[1] != dim:
        error = RetrievalError(f"query dim {vectors.shape[1:]} does not match index dim {dim}")
        return dict.fromkeys(texts, error)
    return {text: row / np.linalg.norm(row) for text, row in zip(texts, vectors)}


def prepare_queries(
    queries: Sequence[str],
    indexes: IndexBundle,
    embedder: Embedder,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[PreparedQuery]:
    """Run the keyword phase on ``indexes`` once per query, then embed the
    distinct queries needing the vector phase, ``EMBED_BATCH_SIZE`` per
    request, and screen each request's queries together (:func:`screen_rows`).

    A query needs the vector phase when it has no keyword hits under
    ``strict_fallback``, or fewer than ``k_total`` under ``fill``, and the
    vector index is not empty; on an index embedded by another embedder it
    gets a ``RetrievalError`` instead.  A failed request or reply is retried
    one query at a time (:func:`_embed_queries`), so errors stay on their query.
    """
    vec_index = indexes.vector
    prepared: list[PreparedQuery] = []
    fallback: dict[str, list[PreparedQuery]] = {}  # query -> its items needing phase 2
    for query in queries:
        started = time.perf_counter()
        item = PreparedQuery(query, _keyword_phase(query, indexes, config))
        run_vector = (
            not item.keyword
            if config.policy == POLICY_STRICT_FALLBACK
            else len(item.keyword) < config.k_total
        )
        if run_vector and vec_index.count:
            if embedder.embedder_id != vec_index.embedder_id:
                item.error = RetrievalError(
                    f"the index was embedded by {vec_index.embedder_id!r}, not by "
                    f"{embedder.embedder_id!r}; use that embedder or rebuild the index"
                )
            else:
                fallback.setdefault(query, []).append(item)
        item.prepare_ms = (time.perf_counter() - started) * 1000.0
        prepared.append(item)

    pending = list(fallback)
    for start in range(0, len(pending), EMBED_BATCH_SIZE):
        started = time.perf_counter()
        embedded = _embed_queries(
            embedder, pending[start : start + EMBED_BATCH_SIZE], vec_index.dim
        )
        vectors = {text: vec for text, vec in embedded.items() if not isinstance(vec, Exception)}
        if vectors:
            screened = screen_rows(vec_index, list(vectors.values()), config.k_vector)
            rows = dict(zip(vectors, screened))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        for text, vector in embedded.items():
            for item in fallback[text]:
                if isinstance(vector, Exception):
                    item.error = vector
                else:
                    item.embedding, item.rows = vector, rows[text]
                item.prepare_ms += elapsed_ms
    return prepared


def retrieve(
    query: str,
    indexes: IndexBundle,
    embedder: Embedder,
    config: RetrievalConfig = RetrievalConfig(),
    prepared: PreparedQuery | None = None,
) -> list[RetrievalResult]:
    """Run the two retrieval phases on ``indexes`` and merge, capped at ``k_total``.

    Phase 1 walks the extracted phrases in order and takes exact keyword
    hits.  Phase 2 embeds the full query and appends the cosine top-K rows
    not already taken; it runs only on zero keyword hits under
    ``strict_fallback``, or whenever the cap is not yet filled under
    ``fill``.  Deterministic for a deterministic embedder.  A position's
    Document is built the first time it reaches a result, then reused.

    ``prepared`` is this query as :func:`prepare_queries` left it, for a
    caller that prepared a whole batch; without it the query is prepared
    here.  An error met while preparing is raised.
    """
    if prepared is None:
        (prepared,) = prepare_queries([query], indexes, embedder, config)
    if prepared.error is not None:
        raise prepared.error
    docs = indexes.docs
    built = docs.built if isinstance(docs, Documents) else docs  # None where not built yet
    results = [
        RetrievalResult(built[row] or docs[row], 1.0, KEYWORD, phrase)
        for row, phrase in prepared.keyword.items()
    ]
    if prepared.embedding is not None:
        ranked = vector_topk(indexes.vector, prepared.embedding, config.k_vector, prepared.rows)
        fresh = [(row, score) for row, score in ranked if row not in prepared.keyword]
        results += [
            RetrievalResult(built[row] or docs[row], score, VECTOR)
            for row, score in fresh[: config.k_total - len(results)]
        ]
    return results
