"""In-memory span tracing of lexrag's layers, installed from outside.

lexrag's modules import each other's functions by name, so a function is
wrapped under the name its caller resolves: ``retrieve`` as seen from
``lexrag.pipeline``, ``vector_topk`` as seen from ``lexrag.retrieval``,
``evaluate_set`` as seen from ``lexrag.cli``.  Functions the benchmark calls
itself (the index builders, ``translate``, ``cli.main``) are wrapped on
their defining module, and the benchmark calls them through that module.
The layer of a span is its name's prefix, one per package module; the
benchmark's own spans use the prefix ``perfbench``.

Spans are appended to flat arrays (name, start, end, parent, operation id,
size) so a run of a million spans stays within tens of megabytes.  Only the
thread that created the tracer is recorded; the HTTP stub's thread runs the
same mock backends untraced.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from lexrag import backends, cli, index, metrics, pipeline, retrieval
from lexrag import corpus as lexcorpus

LAYERS = ("corpus", "index", "retrieval", "pipeline", "backends", "metrics", "cli")


def _length(result) -> int:
    return len(result)


def _pairs(report) -> int:
    return report.n_sentences


# (owner, attribute, span name, starts a new operation, size of the result)
TARGETS = (
    (cli, "main", "cli.main", True, None),
    (cli, "cmd_evaluate", "cli.evaluate", False, None),
    (cli, "evaluate_set", "metrics.evaluate_set", True, _pairs),
    (lexcorpus, "load_dictionary", "corpus.load_dictionary", False, _length),
    (lexcorpus, "load_parallel", "corpus.load_parallel", False, _length),
    (lexcorpus, "to_documents", "corpus.to_documents", False, _length),
    (index, "build_keyword_index", "index.keyword_build", False, None),
    (index, "build_vector_index", "index.vector_build", False, None),
    (index, "save_index", "index.save", False, None),
    (index, "load_index", "index.load", False, None),
    (retrieval, "keyword_lookup", "index.keyword_lookup", False, _length),
    (retrieval, "vector_topk", "index.vector_topk", False, _length),
    (retrieval, "extract_query_terms", "retrieval.extract_terms", False, _length),
    (pipeline, "retrieve", "retrieval.retrieve", False, _length),
    (pipeline, "batch_translate", "pipeline.batch_translate", False, _length),
    (pipeline, "translate", "pipeline.translate", True, None),
    (pipeline, "assemble_prompt", "pipeline.assemble", False, None),
    (backends.MockEmbedder, "embed_texts", "backends.embed", False, _length),
    (backends.MockEmbedder, "embed_tokens", "backends.embed_tokens", False, _length),
    (backends.MockGenerator, "generate", "backends.generate", False, None),
    (backends.HttpBackend, "embed_texts", "backends.embed", False, _length),
    (backends.HttpBackend, "embed_tokens", "backends.embed_tokens", False, _length),
    (backends.HttpBackend, "generate", "backends.generate", False, None),
    (metrics, "bleu", "metrics.bleu", False, None),
    (metrics, "rouge_l", "metrics.rouge_l", False, None),
    (metrics, "bertscore", "metrics.bertscore", False, None),
)


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._ops = 0
        self._thread = threading.get_ident()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int, new_op: bool) -> int:
        stack = self._stack
        idx = len(self.start)
        parent = stack[-1] if stack else -1
        if new_op:
            self._ops += 1
            op = self._ops
        else:
            op = self.op[parent] if parent >= 0 else 0
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.size.append(-1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, new_op: bool, size):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = self._open(name_id, new_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size is not None:
                self.size[idx] = size(result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, name: str):
        """A span opened by the benchmark itself, starting a new operation."""
        idx = self._open(self._name_id(name), new_op=True)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, new_op, size in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, new_op, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Read-only view of recorded spans with per-layer self time."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.int32)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.op = np.array(tracer.op, dtype=np.int64)
        self.size = np.array(tracer.size, dtype=np.int64)
        self.start = np.array(tracer.start, dtype=np.float64)
        self.end = np.array(tracer.end, dtype=np.float64)
        self.duration = self.end - self.start
        nested = self.parent >= 0
        children = np.bincount(
            self.parent[nested], weights=self.duration[nested], minlength=len(self.start)
        )
        # Children of one span run one after another on one thread, so their
        # durations add up to the part of the parent they cover.
        self.self_time = self.duration - children[: len(self.start)]

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(name) for name in names if name in self.names]
        return np.isin(self.name, ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self.mask(name)]

    def sizes(self, name: str) -> np.ndarray:
        return self.size[self.mask(name)]

    def per_op(self, names: tuple[str, ...], root: str, values: np.ndarray | None = None) -> np.ndarray:
        """Sum of ``values`` (default: durations) over spans with one of
        ``names``, one entry per operation whose root span is ``root``."""
        roots = self.op[self.mask(root)]
        if roots.size == 0:
            return roots.astype(np.float64)
        selected = self.mask(*names)
        weights = (self.duration if values is None else values)[selected]
        totals = np.bincount(self.op[selected], weights=weights, minlength=int(self.op.max()) + 1)
        return totals[roots]

    def layer_self(self, layer: str) -> float:
        names = [n for n in self.names if n.split(".", 1)[0] == layer]
        return float(self.self_time[self.mask(*names)].sum())

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            op=self.op,
            size=self.size,
            start=self.start,
            end=self.end,
        )
