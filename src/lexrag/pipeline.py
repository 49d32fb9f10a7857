"""Prompt assembly and the end-to-end translate step.

The augmented prompt has a fixed section order: preamble, glossary lines
(dictionary hits), example lines (parallel-sentence hits), directive, then
the query on its own line.  Empty sections are omitted together with their
headers, and rendering is byte-deterministic so prompts can be golden-tested.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from .backends import BackendError, Embedder, Generator
from .corpus import DICTIONARY_KIND, EXAMPLE_KIND
from .index import IndexBundle
from .retrieval import (
    PreparedQuery,
    RetrievalConfig,
    RetrievalError,
    RetrievalResult,
    prepare_queries,
    retrieve,
)

# Threads beyond the HTTP client's ``max_in_flight`` only wait on it, and
# one thread per input line can exhaust the process's threads.
MAX_PARALLELISM = 64


@dataclass(frozen=True)
class PromptTemplate:
    """Text building blocks for the augmented prompt.  ``preamble`` and
    ``directive`` may use the placeholders {source_lang} and {target_lang}."""

    preamble: str = (
        "You are a careful translator working from {source_lang} into {target_lang}. "
        "Use the reference material below when it applies."
    )
    glossary_header: str = "Glossary:"
    example_header: str = "Examples:"
    glossary_line_format: str = "{headword} → {target}"
    example_line_format: str = "{source} ⇒ {target}"
    directive: str = (
        "Translate the following sentence into {target_lang}. "
        "Output only the translation."
    )

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "PromptTemplate":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown template fields: {sorted(unknown)}")
        if not all(isinstance(v, str) for v in raw.values()):
            raise ValueError("template fields must be strings")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplate":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


DEFAULT_TEMPLATE = PromptTemplate()


def _fill(text: str, source_lang: str, target_lang: str) -> str:
    try:
        return text.format(source_lang=source_lang, target_lang=target_lang)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"template references unknown placeholder: {exc}") from exc


def assemble_prompt(
    query: str,
    results: Sequence[RetrievalResult],
    template: PromptTemplate = DEFAULT_TEMPLATE,
    source_lang: str = "English",
    target_lang: str = "Cherokee",
) -> str:
    """Render the augmented prompt; the query appears exactly once, as the
    final line."""
    glossary_lines = [
        template.glossary_line_format.format(
            headword=r.doc.source_text, target=r.doc.target_text
        )
        for r in results
        if r.doc.kind == DICTIONARY_KIND
    ]
    example_lines = [
        template.example_line_format.format(
            source=r.doc.source_text, target=r.doc.target_text
        )
        for r in results
        if r.doc.kind == EXAMPLE_KIND
    ]
    blocks = [_fill(template.preamble, source_lang, target_lang)]
    if glossary_lines:
        blocks.append("\n".join([template.glossary_header, *glossary_lines]))
    if example_lines:
        blocks.append("\n".join([template.example_header, *example_lines]))
    blocks.append(_fill(template.directive, source_lang, target_lang) + "\n" + query)
    return "\n\n".join(blocks)


@dataclass
class TranslationRecord:
    """Full trace of one translation: what was asked, what was retrieved,
    what the model saw, and what it answered."""

    query: str
    results: list[RetrievalResult]
    prompt: str
    output: str
    model_id: str
    retrieval_ms: float = 0.0
    generation_ms: float = 0.0
    error: str | None = None

    def to_dict(self, include_prompt: bool = False) -> dict:
        record = {
            "query": self.query,
            "output": self.output,
            "model_id": self.model_id,
            "error": self.error,
            "results": [
                {
                    "doc_id": r.doc.id,
                    "kind": r.doc.kind,
                    "score": r.score,
                    "provenance": r.provenance,
                    "matched_phrase": r.matched_phrase,
                }
                for r in self.results
            ],
            "retrieval_ms": self.retrieval_ms,
            "generation_ms": self.generation_ms,
        }
        if include_prompt:
            record["prompt"] = self.prompt
        return record


def translate(
    query: str,
    indexes: IndexBundle,
    embedder: Embedder,
    generator: Generator,
    retrieval_config: RetrievalConfig = RetrievalConfig(),
    template: PromptTemplate = DEFAULT_TEMPLATE,
    source_lang: str = "English",
    target_lang: str = "Cherokee",
    prepared: PreparedQuery | None = None,
) -> TranslationRecord:
    """Retrieve, assemble the prompt, generate.  Backend and retrieval
    errors propagate; with mock backends the record is fully deterministic
    apart from timings.  ``prepared`` is passed on to :func:`retrieve`, as
    :func:`batch_translate` does for each of its queries."""
    started = time.perf_counter()
    results = retrieve(query, indexes, embedder, retrieval_config, prepared)
    retrieval_ms = (time.perf_counter() - started) * 1000.0
    if prepared is not None:
        retrieval_ms += prepared.prepare_ms
    prompt = assemble_prompt(query, results, template, source_lang, target_lang)
    started = time.perf_counter()
    generation = generator.generate(prompt)
    generation_ms = (time.perf_counter() - started) * 1000.0
    return TranslationRecord(
        query=query,
        results=list(results),
        prompt=prompt,
        output=generation.text,
        model_id=generation.model_id,
        retrieval_ms=retrieval_ms,
        generation_ms=generation_ms,
    )


def batch_translate(
    queries: Sequence[str],
    indexes: IndexBundle,
    embedder: Embedder,
    generator: Generator,
    retrieval_config: RetrievalConfig = RetrievalConfig(),
    template: PromptTemplate = DEFAULT_TEMPLATE,
    source_lang: str = "English",
    target_lang: str = "Cherokee",
    parallelism: int = 1,
) -> list[TranslationRecord]:
    """Translate a batch, preserving input order regardless of parallelism.

    The keyword phase runs for every query first, and the queries that fall
    back to the vector phase are embedded together, up to
    ``EMBED_BATCH_SIZE`` per request (see :func:`prepare_queries`).  Vector
    top-K, prompt assembly and generation then run per query, on
    ``parallelism`` threads, at most ``MAX_PARALLELISM``.  A backend or
    retrieval failure on one item is recorded on that item (``error`` set,
    empty output) and the batch continues.
    """
    if not queries:
        raise ValueError("batch_translate requires at least one query")
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ValueError(f"parallelism must be between 1 and {MAX_PARALLELISM}")
    prepared = prepare_queries(queries, indexes, embedder, retrieval_config)

    def run_one(item: PreparedQuery) -> TranslationRecord:
        try:
            return translate(
                item.query,
                indexes,
                embedder,
                generator,
                retrieval_config,
                template,
                source_lang,
                target_lang,
                item,
            )
        except (BackendError, RetrievalError) as exc:
            return TranslationRecord(
                query=item.query,
                results=[],
                prompt="",
                output="",
                model_id=getattr(generator, "model_id", ""),
                error=str(exc),
            )

    if parallelism == 1:
        return [run_one(item) for item in prepared]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_one, prepared))
