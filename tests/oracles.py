"""Independent brute-force reference implementations used only by tests.

Everything here is written directly from the metric/search definitions with
plain Python and stdlib math, deliberately avoiding the package's own code
paths (no numpy, no shared helpers).  Tests compare production output against
these, so keep them slow and obvious.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from functools import lru_cache

BLEU_EPS = 1e-9


def _ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_bleu(pairs, max_order=4):
    """Corpus BLEU: clipped n-gram precisions, epsilon floor, brevity penalty."""
    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if hyp_len == 0:
        return 0.0

    log_precisions = []
    for n in range(1, max_order + 1):
        candidates = 0
        clipped = 0
        for hyp, ref in pairs:
            hyp_ngrams = _ngrams(hyp, n)
            ref_ngrams = _ngrams(ref, n)
            candidates += len(hyp_ngrams)
            for gram in set(hyp_ngrams):
                clipped += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
        if candidates == 0:
            continue
        precision = clipped / candidates if clipped > 0 else BLEU_EPS
        log_precisions.append(math.log(precision))

    if not log_precisions:
        return 0.0
    geo_mean = math.exp(sum(log_precisions) / len(log_precisions))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * geo_mean


def oracle_lcs(a, b):
    """LCS length via top-down recursion (distinct from an iterative table)."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    result = rec(0, 0)
    rec.cache_clear()
    return result


def oracle_rouge_l(hyp, ref, beta=1.0):
    if not hyp or not ref:
        return (0.0, 0.0, 0.0)
    lcs = oracle_lcs(hyp, ref)
    p = lcs / len(hyp)
    r = lcs / len(ref)
    if p == 0.0 and r == 0.0:
        return (0.0, 0.0, 0.0)
    f = (1.0 + beta * beta) * p * r / (r + beta * beta * p)
    return (p, r, f)


def _unit(vec):
    norm = math.sqrt(math.fsum(x * x for x in vec))
    return [x / norm for x in vec]


def oracle_bertscore(hyp_tokens, ref_tokens, embed_fn):
    """Greedy max-cosine matching; embed_fn maps one token to a vector."""
    hyp_vecs = [_unit(embed_fn(t)) for t in hyp_tokens]
    ref_vecs = [_unit(embed_fn(t)) for t in ref_tokens]
    sim = [
        [math.fsum(x * y for x, y in zip(h, r)) for r in ref_vecs]
        for h in hyp_vecs
    ]
    p = math.fsum(max(row) for row in sim) / len(hyp_vecs)
    r = math.fsum(max(sim[i][j] for i in range(len(hyp_vecs))) for j in range(len(ref_vecs))) / len(ref_vecs)
    f1 = 0.0 if p <= 0.0 or r <= 0.0 else 2.0 * p * r / (p + r)
    return (p, r, f1)


def oracle_topk(rows, query, k):
    """Full sort of (doc_id, dot(vec, query)) descending, ties by ascending id."""
    scored = []
    for doc_id, vec in rows:
        scored.append((doc_id, math.fsum(x * q for x, q in zip(vec, query))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: max(k, 0)]


def oracle_pack_keyword(keyword):
    """The text of ``keyword_index.json`` for a phrase -> positions dict:
    sorted phrases, their posting counts, and every posting in phrase order
    as base64 of little-endian uint32 values."""
    phrases = sorted(keyword)
    packed = b"".join(struct.pack("<I", p) for phrase in phrases for p in keyword[phrase])
    fields = {
        "phrases": phrases,
        "counts": [len(keyword[phrase]) for phrase in phrases],
        "positions": base64.b64encode(packed).decode("ascii"),
    }
    return json.dumps(fields, ensure_ascii=False, separators=(",", ":")) + "\n"


def oracle_unpack_keyword(text):
    """The phrase -> positions dict of a ``keyword_index.json`` text."""
    fields = json.loads(text)
    packed = base64.b64decode(fields["positions"])
    postings = [value for (value,) in struct.iter_unpack("<I", packed)]
    keyword, start = {}, 0
    for phrase, count in zip(fields["phrases"], fields["counts"]):
        keyword[phrase] = postings[start : start + count]
        start += count
    return keyword
