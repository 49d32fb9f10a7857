"""Keyword-first retrieval with cosine fallback.

Queries are matched exactly against the keyword index first; the embedding
path runs only when keywords produce nothing (``strict_fallback``, the
default) or when there is room left under the result cap (``fill``).  The
vector query embeds the whole query sentence, not individual terms.

A batch runs the keyword phase for every query first (:func:`prepare_queries`),
so the queries that fall back to the vector phase are embedded together, up to
``EMBED_BATCH_SIZE`` per request; :func:`retrieve` then finishes each query.
A single query is a batch of one.  Both take the whole :class:`IndexBundle`,
whose construction checked that every id either index yields has a document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .backends import BackendError, Embedder
from .corpus import Document
from .index import (
    EMBED_BATCH_SIZE,
    IndexBundle,
    keyword_lookup,
    normalize_keyword,
    vector_topk,
)

KEYWORD = "keyword"
VECTOR = "vector"

POLICY_STRICT_FALLBACK = "strict_fallback"
POLICY_FILL = "fill"


class RetrievalError(Exception):
    """Unusable query embedding, or an index embedded by another embedder."""


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
    """A query after the keyword phase: its keyword hits, the unit embedding
    the vector phase will use (``None`` when that phase does not run), or the
    error that stopped that phase.  ``prepare_ms`` is the time spent on it,
    including the whole embedding request that served it."""

    query: str
    results: list[RetrievalResult]
    embedding: list[float] | None = None
    error: Exception | None = None
    prepare_ms: float = 0.0


def _keyword_phase(
    query: str, indexes: IndexBundle, config: RetrievalConfig
) -> list[RetrievalResult]:
    """Walk the extracted phrases in order, appending exact keyword hits
    until ``k_total`` is reached."""
    results: list[RetrievalResult] = []
    included: set[str] = set()
    for phrase in extract_query_terms(query, config.max_phrase_len):
        if len(results) >= config.k_total:
            break
        for doc_id in keyword_lookup(indexes.keyword, phrase):
            if doc_id in included:
                continue
            results.append(RetrievalResult(indexes.doc_map[doc_id], 1.0, KEYWORD, phrase))
            included.add(doc_id)
            if len(results) >= config.k_total:
                break
    return results


def _embed_queries(
    embedder: Embedder, texts: list[str], dim: int
) -> dict[str, list[float] | Exception]:
    """Unit embeddings of ``texts`` from one request.  If the request fails
    with a ``BackendError``, each text is embedded on its own, so a failure
    stays with the text that caused it.  A vector that is not ``dim`` long,
    is zero or is not finite becomes a ``RetrievalError`` on its text."""
    try:
        vectors = embedder.embed_texts(texts)
        if len(vectors) != len(texts):
            raise BackendError(f"embedder returned {len(vectors)} vectors for {len(texts)} queries")
    except BackendError as exc:
        if len(texts) == 1:
            return {texts[0]: exc}
        return {text: _embed_queries(embedder, [text], dim)[text] for text in texts}
    embedded: dict[str, list[float] | Exception] = {}
    for text, vector in zip(texts, vectors):
        query_vec = np.asarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(query_vec))
        if query_vec.shape != (dim,):
            embedded[text] = RetrievalError(
                f"query dim {query_vec.shape} does not match index dim {dim}"
            )
        elif not 0.0 < norm < np.inf:  # NaN too
            fault = "zero" if norm == 0.0 else "non-finite"
            embedded[text] = RetrievalError(f"embedder returned a {fault} vector for the query")
        else:
            embedded[text] = (query_vec / norm).tolist()
    return embedded


def prepare_queries(
    queries: Sequence[str],
    indexes: IndexBundle,
    embedder: Embedder,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[PreparedQuery]:
    """Run the keyword phase on ``indexes`` once per query, then embed the
    distinct queries needing the vector phase, ``EMBED_BATCH_SIZE`` per request.

    A query needs the vector phase when it has no keyword hits under
    ``strict_fallback``, or fewer than ``k_total`` under ``fill``, and the
    vector index is not empty; on an index embedded by another embedder it
    gets a ``RetrievalError`` instead.  Errors stay on their query.
    """
    vec_index = indexes.vector
    prepared: list[PreparedQuery] = []
    fallback: dict[str, list[PreparedQuery]] = {}  # query -> its items needing phase 2
    for query in queries:
        started = time.perf_counter()
        item = PreparedQuery(query, _keyword_phase(query, indexes, config))
        run_vector = (
            not item.results
            if config.policy == POLICY_STRICT_FALLBACK
            else len(item.results) < config.k_total
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
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        for text, vector in embedded.items():
            for item in fallback[text]:
                if isinstance(vector, Exception):
                    item.error = vector
                else:
                    item.embedding = vector
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

    Phase 1 walks the extracted phrases in order and appends exact keyword
    hits.  Phase 2 embeds the full query and appends cosine top-K hits; it
    runs only on zero keyword hits under ``strict_fallback``, or whenever
    the cap is not yet filled under ``fill``.  Already-included documents
    are never duplicated.  Deterministic for a deterministic embedder.

    ``prepared`` is this query as :func:`prepare_queries` left it, for a
    caller that prepared a whole batch; without it the query is prepared
    here.  An error met while preparing is raised.
    """
    if prepared is None:
        (prepared,) = prepare_queries([query], indexes, embedder, config)
    if prepared.error is not None:
        raise prepared.error
    results = list(prepared.results)
    if prepared.embedding is None:
        return results
    included = {result.doc.id for result in results}
    for doc_id, score in vector_topk(indexes.vector, prepared.embedding, config.k_vector):
        if len(results) >= config.k_total:
            break
        if doc_id in included:
            continue
        results.append(RetrievalResult(indexes.doc_map[doc_id], score, VECTOR))
        included.add(doc_id)
    return results
