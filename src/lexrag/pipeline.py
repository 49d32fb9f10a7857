"""Prompt assembly and the end-to-end translate step.

The augmented prompt has a fixed section order: preamble, glossary lines
(dictionary hits), example lines (parallel-sentence hits), directive, then
the query on its own line.  Empty sections are omitted together with their
headers, and rendering is byte-deterministic so prompts can be golden-tested.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from string import Formatter
from typing import Sequence

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

# The placeholders that assemble_prompt fills in each format field of a template.
_PLACEHOLDERS = {
    "preamble": ("source_lang", "target_lang"),
    "glossary_line_format": ("headword", "target"),
    "example_line_format": ("source", "target"),
    "directive": ("source_lang", "target_lang"),
}


@dataclass(frozen=True)
class PromptTemplate:
    """Text building blocks for the augmented prompt.  Construction checks that
    each format field uses only the placeholders ``_PLACEHOLDERS`` gives it."""

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

    def __post_init__(self) -> None:
        # A placeholder nested in a format spec could make the spec valid for
        # one value and not for another, so it is refused too.
        for name, allowed in _PLACEHOLDERS.items():
            text = getattr(self, name)
            try:
                for _, placeholder, spec, _ in Formatter().parse(text):
                    if placeholder is not None and (placeholder not in allowed or "{" in spec):
                        shown = f"{placeholder}:{spec}" if spec else placeholder
                        raise ValueError(f"{{{shown}}} is not one of {allowed}")
                text.format(**dict(zip(allowed, allowed)))  # a bad spec or conversion
            except ValueError as exc:
                raise ValueError(f"template field {name!r}: {exc}") from exc


DEFAULT_TEMPLATE = PromptTemplate()


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
    langs = {"source_lang": source_lang, "target_lang": target_lang}
    blocks = [template.preamble.format(**langs)]
    if glossary_lines:
        blocks.append("\n".join([template.glossary_header, *glossary_lines]))
    if example_lines:
        blocks.append("\n".join([template.example_header, *example_lines]))
    blocks.append(template.directive.format(**langs) + "\n" + query)
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
