"""Command-line surface: build indexes, translate, evaluate, report.

Exit codes are a stable scripting contract: 0 success, 1 I/O or file-format
problem, 2 backend failure, 64 usage error, 65 data validation error.

Configuration is a single strict JSON file (default ``./lexrag.json``);
unknown keys are rejected so a typo in a retrieval parameter cannot silently
skew an experiment.  With no config file present, built-in defaults apply,
which use the deterministic mock backends and therefore run offline.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .backends import (
    MAX_MOCK_DIM,
    BackendConfig,
    BackendError,
    Embedder,
    Generator,
    HttpBackend,
    MockEmbedder,
    MockGenerator,
)
from .corpus import (
    IngestError,
    from_json,
    iter_lines,
    load_dictionary,
    load_json,
    load_parallel,
    read_utf8,
    refuse_lone_surrogates,
    split_lines,
    to_documents,
)
from .index import (
    CACHE_FILE,
    EmbeddingCache,
    IndexFormatError,
    IndexManifest,
    build_keyword_index,
    build_vector_index,
    load_index,
    save_index,
)
from .metrics import (
    ALL_METRICS,
    MetricReport,
    TokenizationPolicy,
    evaluate_set,
    human_eval_normalize,
    load_human_scores,
)
from .pipeline import DEFAULT_TEMPLATE, MAX_PARALLELISM, PromptTemplate, batch_translate, translate
from .retrieval import RetrievalConfig, RetrievalError

EXIT_OK = 0
EXIT_IO = 1
EXIT_BACKEND = 2
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_CONFIG_PATH = "./lexrag.json"


class UsageError(Exception):
    """Bad command-line invocation (maps to exit 64)."""


def _round3(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _load_json(path: Path):
    """``load_json(path)``, refusing a field that holds a lone surrogate (in
    the object, or in an object of the list, that the file holds) with a
    ``ValueError`` naming the file and the field: output could not encode it."""
    data = load_json(path)
    for obj in data if isinstance(data, list) else [data]:
        if isinstance(obj, dict):
            try:
                refuse_lone_surrogates(json.dumps(obj), obj, str(path))
            except IngestError as exc:
                raise ValueError(str(exc)) from None
    return data


def _load(cls, path: Path):
    """Dataclass ``cls`` from the JSON object in ``path``; a bad value's error names the file."""
    data = _load_json(path)
    try:
        return from_json(cls, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class BackendSettings(BackendConfig):
    """The config's ``backend`` section: the HTTP settings, the provider and the mock's dim."""

    provider: str = "mock"
    embed_dim: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.provider not in ("mock", "http"):
            raise ValueError(f"provider must be 'mock' or 'http', got {self.provider!r}")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.embed_dim > MAX_MOCK_DIM:
            raise ValueError(f"embed_dim must be <= {MAX_MOCK_DIM}")


@dataclass(frozen=True)
class AppConfig:
    backend: BackendSettings = field(default_factory=BackendSettings)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    template: str | None = None
    tokenize: TokenizationPolicy = TokenizationPolicy.WHITESPACE
    index_dir: str | None = None
    report_format: str = "json"
    source_lang: str = "English"
    target_lang: str = "Cherokee"

    def __post_init__(self) -> None:
        if self.report_format not in ("json", "csv", "markdown"):
            raise ValueError(f"report_format must be json, csv or markdown, got {self.report_format!r}")

    def prompt_template(self) -> PromptTemplate:
        if self.template is None:
            return DEFAULT_TEMPLATE
        path = Path(self.template)
        if not path.is_file():
            raise IngestError(f"template file not found: {path}")
        return _load(PromptTemplate, path)


def load_config(path: str | None) -> AppConfig:
    """Read the JSON config; an explicitly given path must exist, while a
    missing default path silently falls back to built-in defaults."""
    config_path = Path(path or DEFAULT_CONFIG_PATH)
    if not config_path.is_file():
        if path is not None:
            raise IngestError(f"config file not found: {config_path}")
        return AppConfig()
    return _load(AppConfig, config_path)


def make_backends(settings: BackendSettings) -> tuple[Embedder, Generator]:
    if settings.provider == "mock":
        return MockEmbedder(settings.embed_dim), MockGenerator()
    client = HttpBackend(settings)
    return client, client


def cmd_index_build(args: argparse.Namespace) -> int:
    if not args.dict and not args.parallel:
        raise UsageError("at least one of --dict or --parallel is required")
    config = load_config(args.config)
    out = Path(args.out)

    entries = load_dictionary(args.dict) if args.dict else []
    examples = load_parallel(args.parallel) if args.parallel else []
    docs = to_documents(entries, examples)

    embedder, _ = make_backends(config.backend)
    cache = EmbeddingCache(out / CACHE_FILE)
    keyword = build_keyword_index(docs)
    vector = build_vector_index(docs, embedder, cache=cache)
    manifest = IndexManifest.create(keyword, vector)
    save_index(keyword, vector, manifest, docs, out)
    print(
        f"indexed {len(docs)} documents -> {out} "
        f"(dim={vector.dim}, cache_hits={cache.hits}, cache_misses={cache.misses})"
    )
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    if (args.text is None) == (args.input is None):
        raise UsageError("exactly one of --text or --input is required")
    if args.text is not None and not args.text.strip():
        raise UsageError("--text is blank: give a sentence to translate")
    if not 1 <= args.parallel <= MAX_PARALLELISM:
        raise UsageError(f"--parallel must be between 1 and {MAX_PARALLELISM}")
    config = load_config(args.config)
    bundle = load_index(args.index or config.index_dir or _missing_index())
    embedder, generator = make_backends(config.backend)
    template = config.prompt_template()
    source_lang = args.source_lang or config.source_lang
    target_lang = args.target_lang or config.target_lang
    setup = (bundle, embedder, generator, config.retrieval, template, source_lang, target_lang)

    if args.text is not None:
        print(translate(args.text, *setup).output)
        return EXIT_OK

    ids, queries = _read_batch_input(Path(args.input))
    records = batch_translate(queries, *setup, parallelism=args.parallel)
    lines = []
    for item_id, record in zip(ids, records):
        payload = record.to_dict(include_prompt=args.trace)
        if item_id is not None:
            payload = {"id": item_id, **payload}
        lines.append(json.dumps(payload, ensure_ascii=False))
    _emit("\n".join(lines) + "\n", args.output)
    failures = sum(1 for record in records if record.error)
    if failures:
        print(f"{failures}/{len(records)} items failed", file=sys.stderr)
        if args.strict:
            return EXIT_BACKEND
    return EXIT_OK


def _missing_index() -> str:
    raise UsageError("--index is required (or set index_dir in the config)")


def _read_batch_input(path: Path) -> tuple[list[str | None], list[str]]:
    ids: list[str | None] = []
    queries: list[str] = []
    jsonl = path.suffix.lower() == ".jsonl"
    for lineno, line in iter_lines(path):
        if not jsonl:
            ids.append(None)
            queries.append(line.strip())
            continue
        try:
            obj = json.loads(line)
            item_id, source = obj["id"], obj["source"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:  # bad JSON, digits, depth
            raise IngestError(f"{path}:{lineno}: expected JSONL with id and source: {exc}") from exc
        if type(item_id) not in (str, int):  # rejects bool too
            raise IngestError(f"{path}:{lineno}: field 'id' must be a string or an integer")
        if not isinstance(source, str):
            raise IngestError(f"{path}:{lineno}: field 'source' must be a string")
        refuse_lone_surrogates(line, obj, f"{path}:{lineno}")
        ids.append(str(item_id))
        queries.append(source)
    if not queries:
        raise IngestError(f"{path}: no input sentences")
    return ids, queries


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the ``--output`` file, or to stdout without one."""
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(fmt: str, payload, header: list[str], rows) -> str:
    """``payload`` as indented JSON, or ``rows`` under ``header`` as CSV
    (cells as ``str`` gives them, quoted where they hold a comma, a quote or
    a line break) or as a markdown table (floats to 3 decimals, ``|`` as
    ``\\|`` so a cell stays one cell).  ``rows`` is consumed only for CSV and
    markdown."""
    if fmt == "json":
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        return out.getvalue()
    table = [header, ["---"] * len(header)]
    table += ([_round3(c) if isinstance(c, float) else str(c) for c in row] for row in rows)
    return "".join("| " + " | ".join(c.replace("|", r"\|") for c in row) + " |\n" for row in table)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    hyps = _read_sentence_lines(Path(args.hyp))
    refs = _read_sentence_lines(Path(args.ref))
    if len(hyps) != len(refs):
        raise ValueError(
            f"line count mismatch: {args.hyp} has {len(hyps)}, {args.ref} has {len(refs)}"
        )
    metrics = tuple(name.strip() for name in args.metrics.split(",") if name.strip())
    policy = TokenizationPolicy(args.tokenize) if args.tokenize else config.tokenize
    embedder = make_backends(config.backend)[0] if "bertscore" in metrics else None
    report = evaluate_set(hyps, refs, policy, embedder, metrics)

    payload: dict = {}
    if args.language:
        payload["language"] = args.language
    if args.model:
        payload["model"] = args.model
    payload.update(report.to_dict())
    fmt = args.format or config.report_format
    _emit(_render(fmt, payload, list(payload), [list(payload.values())]), args.output)
    return EXIT_OK


def _read_sentence_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise IngestError(f"file not found: {path}")
    return split_lines(read_utf8(path))


def cmd_humaneval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    totals = load_human_scores(args.scores)
    models = {model: model for model in totals} if args.per_model else {"all": None}
    rows = [
        {"model": label, "human_eval": human_eval_normalize(totals, model)}
        for label, model in models.items()
    ]
    if args.language:
        rows = [{"language": args.language, **row} for row in rows]

    fmt = args.format or config.report_format
    if fmt == "markdown":
        out = "".join(f"{row['model']}\t{_round3(row['human_eval'])}\n" for row in rows)
    else:
        out = _render(fmt, rows, list(rows[0]), [list(row.values()) for row in rows])
    _emit(out, args.output)
    return EXIT_OK


REPORT_COLUMNS = (
    ("bleu", "BLEU"),
    ("rouge_l_f", "ROUGE-L"),
    ("bert_p", "BERTScore P"),
    ("bert_r", "BERTScore R"),
    ("bert_f1", "BERTScore F1"),
    ("human_eval", "Human Evaluation"),
)
# What ``evaluate`` and ``humaneval`` write, in the key order merged rows keep.
_REPORT_FIELDS = (
    *(f.name for f in fields(MetricReport) if f.name != "n_sentences"),
    "human_eval",
    "n_sentences",
)


def _metric_value(path: Path, name: str, value):
    """``value`` if it is null or a number (bool excluded) that is a finite
    float: NaN, infinities and ints beyond float range are rejected too."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is None or (number and abs(value) <= sys.float_info.max):
        return value
    raise ValueError(f"{path}: field {name!r} must be a finite number or null, got {value!r}")


def cmd_report(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    merged: dict[tuple[str, str], dict] = {}
    for file_name in args.metrics_files:
        path = Path(file_name)
        if not path.is_file():
            raise IngestError(f"metrics file not found: {path}")
        data = _load_json(path)
        rows = data if isinstance(data, list) else [data]
        for row in rows:
            if not isinstance(row, dict) or "language" not in row or "model" not in row:
                raise ValueError(f"{path}: every row needs 'language' and 'model' fields")
            for label in ("language", "model"):
                if not isinstance(row[label], str):
                    raise ValueError(f"{path}: field {label!r} must be a string")
            unknown = set(row) - set(_REPORT_FIELDS) - {"language", "model"}
            if unknown:
                raise ValueError(f"{path}: unknown metric fields {sorted(unknown)}")
            key = (row["language"], row["model"])
            slot = merged.setdefault(key, {})
            for name in _REPORT_FIELDS:
                if name not in row:
                    continue
                if name in slot:
                    raise ValueError(
                        f"duplicate metric {name!r} for (language={key[0]!r}, model={key[1]!r})"
                    )
                slot[name] = _metric_value(path, name, row[name])

    payload = [
        {"language": lang, "model": model, **values} for (lang, model), values in merged.items()
    ]
    header = ["Language", "Model"] + [label for _, label in REPORT_COLUMNS]
    # Rounded to strings here, so CSV rounds too; a generator, so JSON output
    # passes the values through unconverted.
    rows = (
        [lang, model]
        + [
            _round3(float(values[name])) if values.get(name) is not None else "-"
            for name, _ in REPORT_COLUMNS
        ]
        for (lang, model), values in merged.items()
    )
    _emit(_render(args.format or config.report_format, payload, header, rows), args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexrag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index-build", help="ingest corpora and build the index directory")
    p.add_argument("--dict", help="dictionary JSONL file")
    p.add_argument("--parallel", help="parallel examples file (.jsonl or .tsv)")
    p.add_argument("--out", required=True, help="output index directory")
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser("translate", help="translate one sentence or a batch file")
    p.add_argument("--index", help="index directory")
    p.add_argument("--text", help="single sentence to translate")
    p.add_argument("--input", help="batch input: plain text or JSONL with id/source")
    p.add_argument("--output", help="batch output JSONL path (default stdout)")
    p.add_argument("--trace", action="store_true", help="include the prompt in batch records")
    p.add_argument("--strict", action="store_true", help="exit 2 if any batch item failed")
    p.add_argument(
        "--parallel", type=int, default=1, help=f"worker threads, 1 to {MAX_PARALLELISM}"
    )
    p.add_argument("--source-lang", help="source language name override")
    p.add_argument("--target-lang", help="target language name override")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypothesis translations against references")
    p.add_argument("--hyp", required=True, help="hypothesis file, one sentence per line")
    p.add_argument("--ref", required=True, help="reference file, aligned by line number")
    p.add_argument("--metrics", default=",".join(ALL_METRICS), help="comma-separated subset")
    p.add_argument("--tokenize", choices=["whitespace", "codepoint"], help="tokenization policy")
    p.add_argument("--language", help="language label for reports")
    p.add_argument("--model", help="model label for reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("humaneval", help="normalize 0-5 expert score sheets to [0, 1]")
    p.add_argument("--scores", required=True, help="CSV score sheet")
    p.add_argument(
        "--per-model",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="one score per model (default); --no-per-model pools all rows",
    )
    p.add_argument("--language", help="language label for reports")
    p.set_defaults(func=cmd_humaneval)

    p = sub.add_parser("report", help="merge metric JSON files into one table")
    p.add_argument("metrics_files", nargs="+", help="JSON files from evaluate/humaneval")
    p.set_defaults(func=cmd_report)

    for name, p in sub.choices.items():
        if name in ("evaluate", "humaneval", "report"):
            p.add_argument("--format", choices=["json", "csv", "markdown"], help="output format")
            p.add_argument("--output", help="write to file instead of stdout")
        p.add_argument("--config", help=f"config file (default {DEFAULT_CONFIG_PATH})")
    return parser


# Every character str.splitlines breaks at, mapped to its escape, so that an
# error message quoting an outside value stays one ``lexrag:`` line.
_LINE_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"lexrag: {kind}: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail("error", exc, EXIT_USAGE)
    except BackendError as exc:
        return _fail("backend error", exc, EXIT_BACKEND)
    except (IngestError, IndexFormatError, OSError) as exc:
        return _fail("error", exc, EXIT_IO)
    except (ValueError, RetrievalError) as exc:
        return _fail("validation error", exc, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
