"""Translation quality metrics.

* ``bleu``: corpus-level geometric mean of clipped n-gram precisions with a
  brevity penalty.  Orders with no candidate n-grams are skipped; orders with
  candidates but zero matches contribute an epsilon precision, which keeps
  the score defined for short sentences while preserving bleu(x, x) = 1.
  Clipping takes one sort of every token position of the set.
* ``rouge_l``: precision/recall/F1 over the longest common subsequence,
  whose length comes from the bit-parallel recurrence of Allison and Dix
  (as revisited by Hyyrö, 2004): one big-int update per hypothesis token.
* ``bertscore``: greedy max-cosine token matching over a pluggable token
  embedder; no IDF weighting, no baseline rescaling.  ``evaluate_set``
  embeds each distinct token of its scored pairs once, since a token's
  vector does not depend on its sentence, through ``index.embed_chunks``,
  into one vocabulary matrix whose rows each pair gathers.
* ``human_eval_normalize``: mean over sentences of
  (fluency + grammaticality + faithfulness) / 15, mapping 0..5 expert scores
  to [0, 1].

Tokenization is a policy: whitespace splitting by default, or one token per
non-whitespace codepoint for syllabary text where whitespace tokens are
sparse.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from statistics import fmean
from typing import Sequence

import numpy as np

from .backends import Embedder
from .corpus import read_utf8
from .index import embed_chunks

BLEU_EPS = 1e-9
BLEU_MAX_ORDER = 4
MAX_SUBSCORE = 5
DIMENSIONS_PER_SENTENCE = 3
TokenRows = tuple[dict[str, int], np.ndarray]


class TokenizationPolicy(Enum):
    WHITESPACE = "whitespace"
    CODEPOINT = "codepoint"


def tokenize(text: str, policy: TokenizationPolicy = TokenizationPolicy.WHITESPACE) -> list[str]:
    if policy is TokenizationPolicy.WHITESPACE:
        return text.split()
    return [ch for ch in text if not ch.isspace()]


def bleu(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus BLEU over (hypothesis tokens, reference tokens) pairs, with
    n-grams up to ``BLEU_MAX_ORDER``.  One sort of every token position of
    the set, by its pair and then by the ids of its token and the next ones,
    makes each order's equal n-grams of a pair runs, over which clipping sums
    min(hypothesis count, reference count)."""
    for i, (_, ref) in enumerate(pairs):
        if not ref:
            raise ValueError(f"pair {i}: reference must be non-empty")

    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if hyp_len == 0:
        return 0.0

    # Ids start at 3: each hypothesis is followed by 1s and each reference by
    # 2s, so column k of a position holds the id k tokens on, and an n-gram
    # that runs past its sentence's end matches nothing of the other side.
    ids: dict[str, int] = {}
    sentences = [tokens for pair in pairs for tokens in pair]
    flat = [ids.setdefault(token, len(ids) + 3) for tokens in sentences for token in tokens]
    sentence = np.repeat(np.arange(len(sentences)), [len(tokens) for tokens in sentences])
    padded = [len(tokens) + BLEU_MAX_ORDER - 1 for tokens in sentences]
    codes = np.repeat(np.arange(len(sentences)) % 2 + 1, padded)
    at = np.arange(len(flat)) + (BLEU_MAX_ORDER - 1) * sentence
    codes[at] = flat
    columns = [codes[at + k] for k in range(BLEU_MAX_ORDER)]
    # Sorted byte by byte, low byte first: lexsort radix-sorts 8-bit keys, and
    # sorts wider ones several times more slowly.
    shifts = range(0, max(len(ids) + 2, len(pairs)).bit_length(), 8)
    keys = [*reversed(columns), sentence // 2]
    order = np.lexsort([(key >> shift).astype(np.uint8) for key in keys for shift in shifts])
    pair, is_ref = np.divmod(sentence[order], 2)
    sides = 1 - is_ref, is_ref
    change = np.concatenate(([True], pair[1:] != pair[:-1]))
    clipped, candidates = [0] * (BLEU_MAX_ORDER + 1), [0] * (BLEU_MAX_ORDER + 1)
    for n, column in enumerate((column[order] for column in columns), 1):
        change[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(change)
        hyp, ref = (np.add.reduceat(side, starts) for side in sides)
        clipped[n] = int(np.minimum(hyp, ref).sum())
        candidates[n] = sum(max(len(h) - n + 1, 0) for h, _ in pairs)

    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_ORDER + 1):
        if candidates[n] == 0:
            continue
        precision = clipped[n] / candidates[n] if clipped[n] else BLEU_EPS
        log_sum += math.log(precision)
        orders += 1
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum / orders)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel over ``b``.

    Bit j of ``v`` is 0 where the LCS of the prefix of ``a`` read so far
    with ``b[: j + 1]`` grows by one at ``j``, so the LCS is the count of
    zero bits.  Each token of ``a`` updates all of ``b`` in one addition.
    """
    if not a or not b:
        return 0
    matches: dict[str, int] = {}
    for j, token in enumerate(b):
        matches[token] = matches.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & matches.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(hyp: Sequence[str], ref: Sequence[str]) -> tuple[float, float, float]:
    """Sentence-level ROUGE-L (precision, recall, F1)."""
    if not hyp or not ref:
        return (0.0, 0.0, 0.0)
    lcs = lcs_length(hyp, ref)
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    if precision == 0.0 and recall == 0.0:
        return (0.0, 0.0, 0.0)
    return (precision, recall, 2.0 * precision * recall / (recall + precision))


def _unit_token_vectors(tokens: Sequence[str], embedder: Embedder) -> TokenRows:
    """Each distinct token's row number, in first-seen order, and the float64
    matrix whose rows are their unit-normalised embeddings, from the checked
    replies of :func:`~lexrag.index.embed_chunks`."""
    unique = list(dict.fromkeys(tokens))
    chunks = [
        vectors / np.linalg.norm(vectors, axis=1)[:, None]
        for _, vectors in embed_chunks(embedder.embed_tokens, unique)
    ]
    rows = {token: row for row, token in enumerate(unique)}
    return rows, np.concatenate(chunks) if chunks else np.empty((0, 0))


def bertscore(
    hyp_tokens: Sequence[str],
    ref_tokens: Sequence[str],
    token_embedder: Embedder,
    *,
    _vectors: TokenRows | None = None,
) -> tuple[float, float, float]:
    """Greedy-matching similarity (precision, recall, F1): each hypothesis
    token takes its best cosine against any reference token, and vice versa.

    ``_vectors`` (the token rows and unit matrix of ``_unit_token_vectors``)
    lets ``evaluate_set`` share one embedding of its vocabulary across pairs;
    each side's matrix is gathered from it by row number.
    """
    if not hyp_tokens or not ref_tokens:
        raise ValueError("bertscore requires non-empty token lists on both sides")
    if _vectors is None:
        _vectors = _unit_token_vectors([*hyp_tokens, *ref_tokens], token_embedder)
    rows, matrix = _vectors
    hyp_matrix = matrix.take(list(map(rows.__getitem__, hyp_tokens)), axis=0)
    ref_matrix = matrix.take(list(map(rows.__getitem__, ref_tokens)), axis=0)
    similarity = hyp_matrix @ ref_matrix.T
    precision = float(similarity.max(axis=1).mean())
    recall = float(similarity.max(axis=0).mean())
    # The harmonic mean only makes sense for positive agreement; a zero F1
    # otherwise also keeps every output inside [-1, 1].
    if precision <= 0.0 or recall <= 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return (precision, recall, f1)


CSV_HEADER = ["sentence_id", "model_id", "fluency", "grammaticality", "faithfulness"]


def load_human_scores(path: str | Path) -> dict[str, list[int]]:
    """Each model's per-sentence score totals (fluency + grammaticality +
    faithfulness), in row order, from a score sheet CSV with header
    sentence_id,model_id,fluency,grammaticality,faithfulness: integer scores
    0..5, one row per (sentence, model).  Errors name the offending line."""
    totals: dict[str, list[int]] = {}
    keys: list[tuple[str, str]] = []
    reader = csv.reader(io.StringIO(read_utf8(Path(path)), newline=""))
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for record in reader:
            where = f"{path}:{reader.line_num}"
            if not record or record == [""]:
                continue
            if len(record) != len(CSV_HEADER):
                raise ValueError(f"{where}: expected {len(CSV_HEADER)} columns")
            try:
                scores = [int(value) for value in record[2:]]
            except ValueError:
                raise ValueError(f"{where}: scores must be integers") from None
            for name, value in zip(CSV_HEADER[2:], scores):
                if not 0 <= value <= MAX_SUBSCORE:
                    raise ValueError(
                        f"{where}: ({record[0]}, {record[1]}): {name} must be an "
                        f"integer in 0..{MAX_SUBSCORE}, got {value!r}"
                    )
            keys.append((record[0], record[1]))
            totals.setdefault(record[1], []).append(sum(scores))
    except csv.Error as exc:  # a field past csv's size limit, or a NUL before Python 3.11
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not keys:
        raise ValueError(f"{path}: no score rows")
    seen: set[tuple[str, str]] = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{path}: duplicate (sentence_id, model_id) row: {key}")
        seen.add(key)
    return totals


def human_eval_normalize(totals: dict[str, list[int]], model_id: str | None) -> float:
    """Mean over the model's sentences of (fluency + grammaticality +
    faithfulness) / 15; 0 means unusable throughout, 1 means perfect scores.
    ``totals`` is what :func:`load_human_scores` returns; ``model_id=None``
    pools every row of the sheet."""
    if model_id is None:
        rows = [total for model_totals in totals.values() for total in model_totals]
    else:
        rows = totals.get(model_id, [])
    if not rows:
        raise ValueError(f"no rows for model {model_id!r}")
    denominator = MAX_SUBSCORE * DIMENSIONS_PER_SENTENCE
    return fmean(total / denominator for total in rows)


ALL_METRICS = ("bleu", "rouge", "bertscore")


@dataclass(frozen=True)
class MetricReport:
    n_sentences: int
    bleu: float | None = None
    rouge_l_p: float | None = None
    rouge_l_r: float | None = None
    rouge_l_f: float | None = None
    bert_p: float | None = None
    bert_r: float | None = None
    bert_f1: float | None = None

    def to_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in values if value is not None}


def evaluate_set(
    hyps: Sequence[str],
    refs: Sequence[str],
    policy: TokenizationPolicy = TokenizationPolicy.WHITESPACE,
    token_embedder: Embedder | None = None,
    metrics: Sequence[str] = ALL_METRICS,
) -> MetricReport:
    """Tokenize aligned hypothesis/reference sentences and aggregate the
    requested metrics (BLEU is corpus-level; ROUGE-L and BERTScore are
    per-sentence means).  Sentence pairs where the hypothesis tokenizes to
    nothing contribute zeros to the per-sentence means."""
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis count {len(hyps)} != reference count {len(refs)}")
    if not hyps:
        raise ValueError("evaluate_set requires at least one sentence pair")
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    if not metrics:
        raise ValueError(f"no metrics selected: choose from {', '.join(ALL_METRICS)}")
    if "bertscore" in metrics and token_embedder is None:
        raise ValueError("bertscore requires a token embedder")

    pairs = [(tokenize(h, policy), tokenize(r, policy)) for h, r in zip(hyps, refs)]
    for i, (_, ref) in enumerate(pairs):
        if not ref:
            raise ValueError(f"reference sentence {i + 1} tokenizes to nothing")

    report: dict = {"n_sentences": len(pairs)}
    if "bleu" in metrics:
        report["bleu"] = bleu(pairs)
    if "rouge" in metrics:
        rouge_scores = zip(*[rouge_l(h, r) for h, r in pairs])
        report.update(zip(("rouge_l_p", "rouge_l_r", "rouge_l_f"), map(fmean, rouge_scores)))
    if "bertscore" in metrics:
        vocabulary = [t for h, r in pairs if h and r for t in (*h, *r)]
        vectors = _unit_token_vectors(vocabulary, token_embedder)
        bert_scores = [
            bertscore(h, r, token_embedder, _vectors=vectors) if h and r else (0.0, 0.0, 0.0)
            for h, r in pairs
        ]
        report.update(zip(("bert_p", "bert_r", "bert_f1"), map(fmean, zip(*bert_scores))))
    return MetricReport(**report)
