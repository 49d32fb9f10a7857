"""The three workloads, their timing loops and their correctness gates.

Every workload first sets up ``SETUP_REPEATS`` times: it generates its
inputs from the seed, writes the corpus files and builds the index cold
through the library (ingest, keyword build, vector build, save, load).  The
last set-up is the one the workload uses.  The timed window then runs for
the given number of seconds with one client in a closed loop.  Untraced, it
interleaves a throughput loop, a single-operation latency loop and an
index-load loop.  Traced, it interleaves untraced and traced throughput
steps, and the ratio of their rates is the tracing overhead; the set-ups
are traced too, for the index write path.

Every end-to-end time is normalised by the host's speed around it (see
``hostspeed``); the ``info`` record carries the raw wall-time figures too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from lexrag import cli, index, metrics, pipeline
from lexrag import corpus as lexcorpus
from lexrag.backends import BackendConfig, BackendError, HttpBackend, MockEmbedder, MockGenerator
from lexrag.retrieval import KEYWORD, VECTOR, RetrievalConfig, RetrievalError

import corpusgen
from hostspeed import PROBE_EVERY_S, SIDE, HostClock
from spans import LAYERS, Spans, Tracer
from stubserver import StubServer

DIM = 64
SETUP_REPEATS = 3
KEYWORD_POOL, KEYWORD_BATCH = 2000, 500
FALLBACK_POOL, FALLBACK_BATCH = 200, 10
EVAL_SET = 100
EVAL_ORACLE_SAMPLE = 16
LOOP_SHARE = 0.35  # of the run's seconds, for each of the throughput and latency loops
LOAD_SHARE = 0.3  # of the run's seconds, for the index-load loop
INDEX_FILES = (index.MANIFEST_FILE, index.KEYWORD_FILE, index.DOCS_FILE, index.VECTORS_FILE)

# Metric name -> unit.  End-to-end metrics are reported untraced, per-layer
# metrics by the traced run; BENCHMARK.json lists the same names.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "index_load_s": "s",
    "index_bytes_per_doc": "B",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "index.keyword_lookup_us": "us",
    "index.keyword_lookups_per_query": "calls/query",
    "retrieval.keyword_hit_ratio": "ratio",
    "pipeline.assemble_us": "us",
    "pipeline.batch_self_ms": "ms",
    "backends.generate_ms": "ms",
    "retrieval.retrieve_ms": "ms",
    "index.vector_topk_ms": "ms",
    "index.vector_topk_calls": "calls/query",
    "retrieval.vector_path_share": "ratio",
    "backends.embed_ms": "ms",
    "backends.embed_requests_per_query": "requests/query",
    "backends.attempts_per_call": "requests/call",
    "backends.retry_share": "ratio",
    "backends.stub_busy_ms": "ms",
    "corpus.ingest_s": "s",
    "index.keyword_build_s": "s",
    "index.vector_build_s": "s",
    "index.embed_calls": "calls/build",
    "index.save_s": "s",
    "index.load_s": "s",
    "metrics.bleu_s": "s",
    "metrics.rouge_l_s": "s",
    "metrics.bertscore_s": "s",
    "metrics.embed_calls_per_pair": "calls/pair",
    "metrics.tokens_embedded_per_unique": "ratio",
    "cli.evaluate_self_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "tracing.overhead_share": "ratio",
}


class GateError(Exception):
    """An output of lexrag that the benchmark checked is wrong."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    docs: int
    trace: bool
    work: Path
    tracer: Tracer | None = None
    clock: HostClock = field(default_factory=HostClock)


@dataclass
class Outcome:
    metrics: dict[str, float]
    info: dict
    attempted: int
    failed: int
    digest: str
    spans: Spans | None = None
    setup_spans: Spans | None = None


@dataclass
class SetUp:
    """What the last set-up left for the timed window.  The generated
    corpus is not kept: objects the benchmark holds would make every full
    garbage collection in the window slower than in a lexrag process."""

    inputs: object
    index_dir: Path
    bundle: index.IndexBundle | None
    bytes_per_doc: float
    setup_s: list[float]  # normalised
    raw_setup_s: list[float]
    spans: Spans | None


def set_up(ctx: Context, make_inputs) -> SetUp:
    """Generate inputs and cold-build the index ``SETUP_REPEATS`` times,
    timing each repeat; keep the last.  A reference probe runs between
    stages, so each set-up is normalised by the host's speed during it.
    Traced runs trace the set-ups with a tracer of their own."""
    tracer = Tracer() if ctx.trace else None
    probe = ctx.clock.probe
    times, raw, previous = [], [], None
    with tracer.installed() if tracer else contextlib.nullcontext():
        for repeat in range(SETUP_REPEATS):
            root = ctx.work / f"setup-{repeat}"
            with tracer.operation("perfbench.setup") if tracer else contextlib.nullcontext():
                started = perf_counter()
                probe()
                corpus = corpusgen.make_corpus(ctx.seed, ctx.docs)
                inputs = make_inputs(corpus)
                probe()
                dict_path, parallel_path = corpusgen.write_corpus(corpus, root / "input")
                probe()
                docs = lexcorpus.to_documents(
                    lexcorpus.load_dictionary(dict_path), lexcorpus.load_parallel(parallel_path)
                )
                probe()
                keyword = index.build_keyword_index(docs)
                probe()
                vectors = index.build_vector_index(docs, MockEmbedder(DIM))
                probe()
                manifest = index.IndexManifest.create(keyword, vectors)
                index.save_index(keyword, vectors, manifest, docs, root / "index")
                probe()
                bundle = index.load_index(root / "index")
                gc.collect()  # this set-up's garbage, and the last one's
                probe()
                ended = perf_counter()
            raw.append(ended - started)
            times.append(ctx.clock.normalise(ended - started, started, ended))
            if previous is not None:
                shutil.rmtree(previous)
            previous = root
    spans = tracer.spans() if tracer else None
    index_dir = previous / "index"
    bytes_per_doc = index_bytes(index_dir) / bundle.manifest.count
    return SetUp(inputs, index_dir, bundle, bytes_per_doc, times, raw, spans)


def index_bytes(index_dir: Path) -> int:
    return sum((index_dir / name).stat().st_size for name in INDEX_FILES)


def hash_index(digest, index_dir: Path) -> None:
    """Feed the index files into ``digest``, without the manifest's
    creation time."""
    for name in INDEX_FILES:
        data = (index_dir / name).read_bytes()
        if name == index.MANIFEST_FILE:
            manifest = json.loads(data)
            manifest.pop("created_at")
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Step:
    """One step of a loop: what it returned and when it ran."""

    value: object
    started: float
    ended: float


def interleave(seconds: float, loops, clock: HostClock) -> tuple[list[list[Step]], list[float]]:
    """Run several loops in one window of ``seconds``, one step at a time.

    ``loops`` is a list of ``(step, share, minimum)``.  Each turn steps the
    loop that is furthest behind its share of the time spent so far, so
    every loop samples the whole window.  This matters on a shared host
    that alternates between a fast and a slow state every few seconds: loops
    run one after the other would each see a different mix of the two.
    Stops once ``seconds`` have passed and every loop has made ``minimum``
    steps.  ``step(i)`` gets its loop's step count.  Between steps,
    ``clock`` probes the host's speed every ``PROBE_EVERY_S``, and ``SIDE``
    times after a step longer than that.
    Returns the steps and the seconds spent, per loop.
    """
    results: list[list[Step]] = [[] for _ in loops]
    spent = [0.0] * len(loops)
    clock.probe()
    deadline = perf_counter() + seconds

    def priority(k: int):
        _, share, minimum = loops[k]
        return (len(results[k]) >= minimum, spent[k] / share)

    while perf_counter() < deadline or any(
        len(r) < minimum for r, (_, _, minimum) in zip(results, loops)
    ):
        k = min(range(len(loops)), key=priority)
        clock.probe_due(perf_counter())
        started = perf_counter()
        value = loops[k][0](len(results[k]))
        ended = perf_counter()
        results[k].append(Step(value, started, ended))
        spent[k] += ended - started
        if ended - started > PROBE_EVERY_S:  # a long step: probe its end closely
            clock.probe(SIDE)
    clock.probe()
    return results, spent


def normalised(clock: HostClock, steps: list[Step], seconds=lambda value: value) -> list[float]:
    """``seconds(step.value)`` of each step, normalised by the host's speed
    while the step ran."""
    return [clock.normalise(seconds(s.value), s.started, s.ended) for s in steps]


def measure(ctx: Context, throughput, minimum: int, others):
    """The run's timed window.  Untraced: the throughput loop interleaved
    with ``others`` (latency and load loops).  Traced: untraced and traced
    throughput steps interleaved, a third and two thirds of the time.
    Returns (untraced throughput results, traced results, traced seconds,
    results of ``others``)."""
    if not ctx.trace:
        results, _ = interleave(
            ctx.seconds, [(throughput, LOOP_SHARE, minimum), *others], ctx.clock
        )
        return results[0], [], 0.0, results[1:]

    def traced(i: int):
        with ctx.tracer.installed():
            return throughput(i)

    (plain, traced_results), spent = interleave(
        ctx.seconds, [(throughput, 1 / 3, minimum), (traced, 2 / 3, minimum)], ctx.clock
    )
    return plain, traced_results, spent[1], [[] for _ in others]


def load_loop(index_dir: Path):
    """A loop timing ``load_index`` on the set-up index, which every
    ``lexrag translate`` call pays.  Each step drops the loaded index and
    collects the garbage, so the full collection that a discarded index
    sets off is paid here and not by the next operation of another loop."""

    def step(_: int) -> float:
        started = perf_counter()
        index.load_index(index_dir)
        gc.collect()
        return perf_counter() - started

    return (step, LOAD_SHARE, 3)


def timing_metrics(setup_s, ops_per_s: float, latencies_s, loads_s) -> dict:
    return {
        "setup_s": median(setup_s),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": percentile(latencies_s, 50) * 1000.0,
        "latency_p90_ms": percentile(latencies_s, 90) * 1000.0,
        "index_load_s": median(loads_s),
    }


def common_metrics(ctx: Context, setup: SetUp, batches, latencies, loads) -> tuple[dict, dict]:
    """The end-to-end metrics, normalised, and the same timings raw for the
    ``info`` record.  ``batches`` are throughput steps returning a
    ``Batch``; latency and load steps return seconds."""
    clock = ctx.clock
    raw = timing_metrics(
        setup.raw_setup_s,
        batch_rate(batches),
        [s.value for s in latencies],
        [s.value for s in loads],
    )
    metrics = timing_metrics(
        setup.setup_s,
        batch_rate(batches, clock),
        normalised(clock, latencies),
        normalised(clock, loads),
    )
    metrics["index_bytes_per_doc"] = setup.bytes_per_doc
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {"raw": raw, "host_speed": clock.mean_speed(), "probes": len(clock.times)}


# ---------------------------------------------------------------------------
# translate workloads
# ---------------------------------------------------------------------------


def record_key(record: pipeline.TranslationRecord) -> str:
    payload = record.to_dict(include_prompt=True)
    del payload["retrieval_ms"], payload["generation_ms"]
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def check_keyword_record(record, query: str, position: int, headword: str) -> None:
    doc_id = f"d:{position}"
    planted = [
        r for r in record.results
        if r.provenance == KEYWORD and r.doc.id == doc_id and r.matched_phrase == headword
    ]
    gate(bool(planted), f"query {query!r}: planted headword {doc_id} is not a keyword hit")
    gate(
        all(r.provenance == KEYWORD for r in record.results),
        f"query {query!r}: a keyword query reached the vector path",
    )


class BruteForce:
    """Exact top-K over the loaded matrix in numpy: descending score, ties
    by ascending id."""

    def __init__(self, vectors: index.VectorIndex) -> None:
        self.matrix = vectors.vectors.astype(np.float64)
        self.ids = np.array(vectors.ids)
        self.embedder = MockEmbedder(vectors.dim)

    def topk(self, query: str, k: int) -> list[tuple[str, float]]:
        vector = np.asarray(self.embedder.embed_texts([query])[0], dtype=np.float64)
        scores = self.matrix @ (vector / np.linalg.norm(vector))
        order = np.lexsort((self.ids, -scores))[:k]
        return [(str(self.ids[i]), float(scores[i])) for i in order]


def check_vector_record(record, brute: BruteForce, k: int) -> None:
    expected = brute.topk(record.query, k)
    got = [(r.doc.id, r.score) for r in record.results]
    gate(
        all(r.provenance == VECTOR for r in record.results),
        f"query {record.query!r}: an unindexed query produced a keyword hit",
    )
    gate(
        [doc_id for doc_id, _ in got] == [doc_id for doc_id, _ in expected],
        f"query {record.query!r}: vector hits {got} != brute force {expected}",
    )
    gate(
        all(abs(a - b) <= 1e-6 for (_, a), (_, b) in zip(got, expected)),
        f"query {record.query!r}: vector scores {got} != brute force {expected}",
    )


@dataclass
class Batch:
    """One throughput step: ``size`` operations in ``seconds``."""

    size: int
    seconds: float
    number: int = 0
    records: list | None = None  # kept for the first pass over the query pool
    backend: dict[str, float] = field(default_factory=dict)  # stub and client counters


def sum_counters(steps: list[Step]) -> dict[str, float]:
    total: dict[str, float] = {}
    for step in steps:
        for name, value in step.value.backend.items():
            total[name] = total.get(name, 0) + value
    return total


def batch_rate(steps: list[Step], clock: HostClock | None = None) -> float:
    """Operations per second over ``steps`` of ``Batch``: raw, or
    normalised by ``clock``."""
    seconds = lambda batch: batch.seconds  # noqa: E731
    total = sum(normalised(clock, steps, seconds)) if clock else sum(seconds(s.value) for s in steps)
    return sum(s.value.size for s in steps) / total


def translate_workload(ctx: Context, vector_path: bool) -> Outcome:
    if vector_path:
        setup = set_up(
            ctx,
            lambda corpus: [(q, None, None) for q in corpusgen.fallback_queries(ctx.seed, FALLBACK_POOL)],
        )
        batch_size = FALLBACK_BATCH
    else:
        setup = set_up(
            ctx,
            lambda corpus: [
                (q, position, corpus.dictionary[position]["headword"])
                for q, position in corpusgen.keyword_queries(corpus, ctx.seed, KEYWORD_POOL)
            ],
        )
        batch_size = KEYWORD_BATCH
    bundle, planted = setup.bundle, setup.inputs
    queries = [q for q, _, _ in planted]
    batches = [queries[i : i + batch_size] for i in range(0, len(queries), batch_size)]
    config = RetrievalConfig(max_phrase_len=bundle.manifest.max_phrase_len)
    with contextlib.ExitStack() as stack:
        if vector_path:
            stub = stack.enter_context(StubServer(ctx.seed, DIM))
            client = HttpBackend(
                BackendConfig(
                    base_url=stub.base_url,
                    api_key_env="",
                    embed_model_id=bundle.manifest.embedder_id,
                    chat_model_id="mock-gen",
                )
            )
            embedder = generator = client
            counters = lambda: {**stub.counters(), "http_calls": client.calls}  # noqa: E731
        else:
            embedder, generator = MockEmbedder(DIM), MockGenerator()
            counters = dict
        failed = 0
        batch_numbers = itertools.count()  # shared by untraced and traced steps

        def batch_step(_: int) -> Batch:
            nonlocal failed
            n = next(batch_numbers)
            batch = batches[n % len(batches)]
            before = counters()
            started = perf_counter()
            records = pipeline.batch_translate(batch, bundle, embedder, generator, config)
            elapsed = perf_counter() - started
            failed += sum(1 for r in records if r.error)
            delta = {name: value - before[name] for name, value in counters().items()}
            return Batch(len(batch), elapsed, n, records if n < len(batches) else None, delta)

        def single_step(i: int) -> float:
            nonlocal failed
            started = perf_counter()
            try:
                pipeline.translate(queries[i % len(queries)], bundle, embedder, generator, config)
            except (BackendError, RetrievalError):
                failed += 1
            return perf_counter() - started

        single_step(0)  # warm-up, untimed
        plain, traced, wall, (latencies, loads) = measure(
            ctx,
            batch_step,
            1,
            [(single_step, LOOP_SHARE, batch_size), load_loop(setup.index_dir)],
        )

        # Correctness: every record of the first pass over the pool, and
        # single-query translation of the first batch agreeing with it.
        first_pass = [
            r
            for b in sorted((s.value for s in plain + traced), key=lambda b: b.number)
            if b.records
            for r in b.records
        ]
        gate(not any(r.error for r in first_pass), "batch items failed")
        if vector_path:
            brute = BruteForce(bundle.vector)
            for record in first_pass:
                check_vector_record(record, brute, config.k_vector)
        else:
            for record, (query, position, headword) in zip(first_pass, planted):
                check_keyword_record(record, query, position, headword)
        for record in first_pass[:batch_size]:
            single = pipeline.translate(record.query, bundle, embedder, generator, config)
            gate(
                record_key(single) == record_key(record),
                f"query {record.query!r}: batch and single-query translations differ",
            )
        if not vector_path:
            gate(embedder.calls == 0, f"keyword workload made {embedder.calls} embedder calls")

    digest = hashlib.sha256()
    hash_index(digest, setup.index_dir)
    for record in first_pass[:batch_size]:
        digest.update(record_key(record).encode() + b"\n")

    vector_share = sum(any(r.provenance == VECTOR for r in rec.results) for rec in first_pass)
    info = {
        "vector_path_share": vector_share / len(first_pass),
        "batches": len(plain) + len(traced),
        "latency_samples": len(latencies),
        "load_samples": len(loads),
    }
    attempted = sum(s.value.size for s in plain + traced) + len(latencies)
    return finish(ctx, setup, info, attempted, failed, digest, plain, traced, wall,
                  sum_counters(traced), latencies, loads)


def keyword_hits(ctx: Context) -> Outcome:
    return translate_workload(ctx, vector_path=False)


def vector_fallback(ctx: Context) -> Outcome:
    return translate_workload(ctx, vector_path=True)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def load_oracles(root: Path):
    """The test suite's plain-Python metric references, imported unchanged."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_report_against_oracle(hyps, refs, oracles, seed: int) -> None:
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(hyps), size=min(EVAL_ORACLE_SAMPLE, len(hyps)), replace=False))
    sub_h, sub_r = [hyps[i] for i in picked], [refs[i] for i in picked]
    embedder = MockEmbedder(DIM)
    report = metrics.evaluate_set(sub_h, sub_r, metrics.TokenizationPolicy.CODEPOINT, embedder)
    pairs = [
        ([c for c in h if not c.isspace()], [c for c in r if not c.isspace()])
        for h, r in zip(sub_h, sub_r)
    ]
    reference = MockEmbedder(DIM)
    embed = lambda token: reference.embed_texts([token])[0]  # noqa: E731
    rouge = [oracles.oracle_rouge_l(h, r) for h, r in pairs]
    bert = [oracles.oracle_bertscore(h, r, embed) for h, r in pairs]
    expected = {
        "bleu": oracles.oracle_bleu(pairs),
        "rouge_l_p": sum(s[0] for s in rouge) / len(pairs),
        "rouge_l_r": sum(s[1] for s in rouge) / len(pairs),
        "rouge_l_f": sum(s[2] for s in rouge) / len(pairs),
        "bert_p": sum(s[0] for s in bert) / len(pairs),
        "bert_r": sum(s[1] for s in bert) / len(pairs),
        "bert_f1": sum(s[2] for s in bert) / len(pairs),
    }
    for name, value in expected.items():
        got = getattr(report, name)
        gate(abs(got - value) <= 1e-9, f"evaluate: {name} = {got!r}, oracle gives {value!r}")


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def evaluate(ctx: Context) -> Outcome:
    """``lexrag evaluate`` through ``lexrag.cli.main``: the 100-pair set for
    throughput, one pair at a time for latency."""
    setup = set_up(ctx, lambda corpus: corpusgen.eval_pairs(ctx.seed, EVAL_SET))
    setup.bundle = None  # a `lexrag evaluate` process holds no index
    hyps, refs = setup.inputs
    files = ctx.work / "evaluate"
    files.mkdir()
    config = files / "lexrag.json"
    config.write_text(json.dumps({"backend": {"provider": "mock", "embed_dim": DIM}}))
    set_files = (write_lines(files / "hyp.txt", hyps), write_lines(files / "ref.txt", refs))
    pair_files = [
        (write_lines(files / f"hyp-{j}.txt", [h]), write_lines(files / f"ref-{j}.txt", [r]))
        for j, (h, r) in enumerate(zip(hyps, refs))
    ]
    failed = 0

    def run_evaluate(hyp: Path, ref: Path, out: Path) -> float:
        nonlocal failed
        started = perf_counter()
        code = cli.main(
            ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--tokenize", "codepoint",
             "--config", str(config), "--output", str(out)]
        )
        elapsed = perf_counter() - started
        failed += code != 0
        return elapsed

    reports: list[dict] = []

    def set_step(_: int) -> Batch:
        elapsed = run_evaluate(*set_files, files / "report.json")
        report = json.loads((files / "report.json").read_text(encoding="utf-8"))
        if not reports or report != reports[0]:
            reports.append(report)
        return Batch(len(hyps), elapsed)

    def pair_step(i: int) -> float:
        return run_evaluate(*pair_files[i % len(pair_files)], files / "pair.json")

    plain, traced, wall, (latencies, loads) = measure(
        ctx, set_step, 2, [(pair_step, LOOP_SHARE, 10), load_loop(setup.index_dir)]
    )
    gate(len(reports) == 1, "lexrag evaluate gave different reports for the same set")
    policy = metrics.TokenizationPolicy.CODEPOINT
    direct = metrics.evaluate_set(hyps, refs, policy, MockEmbedder(DIM)).to_dict()
    gate(reports[0] == direct, f"lexrag evaluate reported {reports[0]}, evaluate_set {direct}")
    check_report_against_oracle(hyps, refs, load_oracles(ctx.root), ctx.seed)

    tokens = [c for text in hyps + refs for c in text if not c.isspace()]
    digest = hashlib.sha256()
    hash_index(digest, setup.index_dir)
    digest.update(json.dumps(reports[0], sort_keys=True).encode())
    info = {
        "unique_token_ratio": len(set(tokens)) / len(tokens),
        "set_calls": len(plain) + len(traced),
        "latency_samples": len(latencies),
        "load_samples": len(loads),
    }
    attempted = len(plain) + len(traced) + len(latencies)
    extra = {"unique_tokens": len(set(tokens))}
    return finish(ctx, setup, info, attempted, failed, digest, plain, traced, wall, extra,
                  latencies, loads)


def finish(ctx: Context, setup: SetUp, info: dict, attempted: int, failed: int, digest,
           plain, traced, wall: float, extra: dict, latencies, loads) -> Outcome:
    """The run's outcome: per-layer metrics when traced, else end-to-end."""
    outcome = Outcome({}, info, attempted, failed, digest.hexdigest())
    if ctx.trace:
        outcome.spans, outcome.setup_spans = ctx.tracer.spans(), setup.spans
        outcome.metrics = layer_metrics(
            outcome.spans, setup.spans, wall,
            batch_rate(plain, ctx.clock), batch_rate(traced, ctx.clock), extra,
        )
    else:
        outcome.metrics, timings = common_metrics(ctx, setup, plain, latencies, loads)
        info.update(timings)
    return outcome


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Spans, setup: Spans, wall: float, plain_rate: float, traced_rate: float, extra: dict
) -> dict:
    """Every per-layer metric, 0 where the workload does not run the layer.
    ``spans`` come from the timed window, ``setup`` from the set-ups."""
    queries = spans.count("pipeline.translate")
    lookups = spans.sizes("index.keyword_lookup")
    evals = "metrics.evaluate_set"
    http_calls = extra.get("http_calls", 0)
    pairs = float(spans.sizes(evals).sum())
    vector_ops = np.unique(spans.op[spans.mask("index.vector_topk")])
    ingest = ("corpus.load_dictionary", "corpus.load_parallel", "corpus.to_documents")
    out = {
        "index.keyword_lookup_us": _p50(spans.durations("index.keyword_lookup")) * 1e6,
        "index.keyword_lookups_per_query": _ratio(lookups.size, queries),
        "retrieval.keyword_hit_ratio": _ratio(float((lookups > 0).sum()), lookups.size),
        "pipeline.assemble_us": _p50(spans.durations("pipeline.assemble")) * 1e6,
        "pipeline.batch_self_ms": _p50(spans.self_time[spans.mask("pipeline.batch_translate")]) * 1e3,
        "backends.generate_ms": _p50(spans.durations("backends.generate")) * 1e3,
        "retrieval.retrieve_ms": _p50(spans.durations("retrieval.retrieve")) * 1e3,
        "index.vector_topk_ms": _p50(spans.durations("index.vector_topk")) * 1e3,
        "index.vector_topk_calls": _ratio(spans.count("index.vector_topk"), queries),
        "retrieval.vector_path_share": _ratio(vector_ops.size, queries),
        "backends.embed_ms": _p50(spans.durations("backends.embed")) * 1e3,
        "backends.embed_requests_per_query": _ratio(extra.get("embeddings", 0), queries),
        "backends.attempts_per_call": _ratio(extra.get("requests", 0), http_calls),
        "backends.retry_share": _ratio(extra.get("injected", 0), http_calls),
        "backends.stub_busy_ms": _ratio(extra.get("busy_s", 0.0) * 1e3, extra.get("requests", 0)),
        "corpus.ingest_s": _p50(setup.per_op(ingest, "perfbench.setup")),
        "index.keyword_build_s": _p50(setup.durations("index.keyword_build")),
        "index.vector_build_s": _p50(setup.durations("index.vector_build")),
        "index.embed_calls": _p50(
            setup.per_op(("backends.embed",), "perfbench.setup", np.ones(len(setup)))
        ),
        "index.save_s": _p50(setup.durations("index.save")),
        "index.load_s": _p50(setup.durations("index.load")),
        "metrics.bleu_s": _p50(spans.per_op(("metrics.bleu",), evals)),
        "metrics.rouge_l_s": _p50(spans.per_op(("metrics.rouge_l",), evals)),
        "metrics.bertscore_s": _p50(spans.per_op(("metrics.bertscore",), evals)),
        "metrics.embed_calls_per_pair": _ratio(spans.count("backends.embed_tokens"), pairs),
        "metrics.tokens_embedded_per_unique": _ratio(
            float(spans.sizes("backends.embed_tokens").sum()),
            extra.get("unique_tokens", 0) * spans.count(evals),
        ),
        "cli.evaluate_self_ms": _p50(
            spans.per_op(("cli.main", "cli.evaluate"), "cli.main", spans.self_time)
        ) * 1e3,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(spans.layer_self(layer), wall)
    out["tracing.overhead_share"] = _ratio(plain_rate, traced_rate) - 1.0
    return out
