"""Translation quality metrics.

* ``bleu``: corpus-level geometric mean of clipped n-gram precisions with a
  brevity penalty.  Orders with no candidate n-grams are skipped; orders with
  candidates but zero matches contribute an epsilon precision, which keeps
  the score defined for short sentences while preserving bleu(x, x) = 1.
* ``rouge_l``: precision/recall/F1 over the longest common subsequence,
  whose length comes from the bit-parallel recurrence of Allison and Dix
  (as revisited by Hyyrö, 2004): one big-int update per hypothesis token.
* ``bertscore``: greedy max-cosine token matching over a pluggable token
  embedder; no IDF weighting, no baseline rescaling.  ``evaluate_set``
  embeds each distinct token of its scored pairs once, in requests of
  ``EMBED_BATCH_SIZE`` tokens, since a token's vector does not depend on
  its sentence.
* ``human_eval_normalize``: mean over sentences of
  (fluency + grammaticality + faithfulness) / 15, mapping 0..5 expert scores
  to [0, 1].

Tokenization is a policy: whitespace splitting by default, or one token per
non-whitespace codepoint for syllabary text where whitespace tokens are
sparse.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from statistics import fmean
from typing import Sequence

import numpy as np

from .backends import Embedder
from .index import EMBED_BATCH_SIZE

BLEU_EPS = 1e-9
BLEU_MAX_ORDER = 4
MAX_SUBSCORE = 5
DIMENSIONS_PER_SENTENCE = 3


class TokenizationPolicy(Enum):
    WHITESPACE = "whitespace"
    CODEPOINT = "codepoint"


def tokenize(text: str, policy: TokenizationPolicy = TokenizationPolicy.WHITESPACE) -> list[str]:
    if policy is TokenizationPolicy.WHITESPACE:
        return text.split()
    return [ch for ch in text if not ch.isspace()]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus BLEU over (hypothesis tokens, reference tokens) pairs, with
    n-grams up to ``BLEU_MAX_ORDER``."""
    for i, (_, ref) in enumerate(pairs):
        if not ref:
            raise ValueError(f"pair {i}: reference must be non-empty")

    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if hyp_len == 0:
        return 0.0

    clipped = [0] * (BLEU_MAX_ORDER + 1)
    candidates = [0] * (BLEU_MAX_ORDER + 1)
    for hyp, ref in pairs:
        for n in range(1, BLEU_MAX_ORDER + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            candidates[n] += sum(hyp_counts.values())
            clipped[n] += sum((hyp_counts & ref_counts).values())

    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_ORDER + 1):
        if candidates[n] == 0:
            continue
        precision = clipped[n] / candidates[n] if clipped[n] else BLEU_EPS
        log_sum += math.log(precision)
        orders += 1
    if orders == 0:
        return 0.0
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


def _unit_token_vectors(tokens: Sequence[str], embedder: Embedder) -> dict[str, np.ndarray]:
    """Each distinct token's unit-normalised embedding, in first-seen order,
    embedded ``EMBED_BATCH_SIZE`` tokens per request."""
    unique = list(dict.fromkeys(tokens))
    lookup: dict[str, np.ndarray] = {}
    for start in range(0, len(unique), EMBED_BATCH_SIZE):
        chunk = unique[start : start + EMBED_BATCH_SIZE]
        vectors = np.asarray(embedder.embed_tokens(chunk), dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1)
        bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
        if bad.size:
            fault = "zero" if norms[bad[0]] == 0.0 else "non-finite"
            raise ValueError(f"token embedder returned a {fault} vector")
        lookup.update(zip(chunk, vectors / norms[:, None]))
    return lookup


def bertscore(
    hyp_tokens: Sequence[str],
    ref_tokens: Sequence[str],
    token_embedder: Embedder,
    *,
    _vectors: dict[str, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """Greedy-matching similarity (precision, recall, F1): each hypothesis
    token takes its best cosine against any reference token, and vice versa.

    ``_vectors`` (from ``_unit_token_vectors``) lets ``evaluate_set`` share
    one embedding of its vocabulary across pairs.
    """
    if not hyp_tokens or not ref_tokens:
        raise ValueError("bertscore requires non-empty token lists on both sides")
    if _vectors is None:
        _vectors = _unit_token_vectors([*hyp_tokens, *ref_tokens], token_embedder)
    hyp_matrix = np.stack([_vectors[tok] for tok in hyp_tokens])
    ref_matrix = np.stack([_vectors[tok] for tok in ref_tokens])
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


@dataclass(frozen=True)
class HumanScoreRow:
    sentence_id: str
    model_id: str
    fluency: int
    grammaticality: int
    faithfulness: int

    def __post_init__(self) -> None:
        for name in ("fluency", "grammaticality", "faithfulness"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value <= MAX_SUBSCORE:
                raise ValueError(
                    f"({self.sentence_id}, {self.model_id}): {name} must be an "
                    f"integer in 0..{MAX_SUBSCORE}, got {value!r}"
                )


@dataclass
class HumanScoreSheet:
    """Per-sentence 0..5 expert scores for fluency, grammaticality and
    faithfulness, one row per (sentence, model)."""

    rows: list[HumanScoreRow]

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        for row in self.rows:
            key = (row.sentence_id, row.model_id)
            if key in seen:
                raise ValueError(f"duplicate (sentence_id, model_id) row: {key}")
            seen.add(key)

    def model_ids(self) -> list[str]:
        return list(dict.fromkeys(row.model_id for row in self.rows))


CSV_HEADER = [f.name for f in fields(HumanScoreRow)]


def load_human_scores(path: str | Path) -> HumanScoreSheet:
    """Read a score sheet CSV with header sentence_id,model_id,fluency,
    grammaticality,faithfulness.  Errors name the offending row."""
    rows: list[HumanScoreRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, record in enumerate(reader, start=2):
            if not record or record == [""]:
                continue
            if len(record) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} columns")
            try:
                scores = [int(value) for value in record[2:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: scores must be integers") from None
            try:
                rows.append(HumanScoreRow(record[0], record[1], *scores))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no score rows")
    try:
        return HumanScoreSheet(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def human_eval_normalize(sheet: HumanScoreSheet, model_id: str | None) -> float:
    """Mean over the model's sentences of (fluency + grammaticality +
    faithfulness) / 15; 0 means unusable throughout, 1 means perfect scores.
    ``model_id=None`` pools every row of the sheet."""
    totals = [
        row.fluency + row.grammaticality + row.faithfulness
        for row in sheet.rows
        if model_id is None or row.model_id == model_id
    ]
    if not totals:
        raise ValueError(f"no rows for model {model_id!r}")
    denominator = MAX_SUBSCORE * DIMENSIONS_PER_SENTENCE
    return fmean(total / denominator for total in totals)


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
        rouge_scores = [rouge_l(h, r) for h, r in pairs]
        report["rouge_l_p"] = fmean(s[0] for s in rouge_scores)
        report["rouge_l_r"] = fmean(s[1] for s in rouge_scores)
        report["rouge_l_f"] = fmean(s[2] for s in rouge_scores)
    if "bertscore" in metrics:
        vocabulary = [t for h, r in pairs if h and r for t in (*h, *r)]
        vectors = _unit_token_vectors(vocabulary, token_embedder)
        bert_scores = [
            bertscore(h, r, token_embedder, _vectors=vectors) if h and r else (0.0, 0.0, 0.0)
            for h, r in pairs
        ]
        report["bert_p"] = fmean(s[0] for s in bert_scores)
        report["bert_r"] = fmean(s[1] for s in bert_scores)
        report["bert_f1"] = fmean(s[2] for s in bert_scores)
    return MetricReport(**report)
