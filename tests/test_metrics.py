from __future__ import annotations

import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path
from statistics import fmean
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.backends import MockEmbedder
from lexrag.index import EMBED_BATCH_SIZE
from lexrag.metrics import (
    BLEU_EPS,
    BLEU_MAX_ORDER,
    CSV_HEADER,
    TokenizationPolicy,
    bertscore,
    bleu,
    evaluate_set,
    human_eval_normalize,
    lcs_length,
    load_human_scores,
    rouge_l,
    tokenize,
)
from oracles import oracle_bertscore, oracle_bleu, oracle_lcs, oracle_rouge_l

DATA_DIR = Path(__file__).parent / "data"

tokens_st = st.lists(st.sampled_from("a b c d e f g h the cat sat".split()), max_size=12)
nonempty_tokens_st = st.lists(
    st.sampled_from("a b c d e f g h the cat sat".split()), min_size=1, max_size=12
)


class TestTokenize:
    def test_whitespace_syllabary(self):
        assert tokenize("ᎠᎴ ᎤᏁᎳᏅᎯ") == ["ᎠᎴ", "ᎤᏁᎳᏅᎯ"]

    def test_codepoint(self):
        assert tokenize("ᎠᎴ", TokenizationPolicy.CODEPOINT) == ["Ꭰ", "Ꮄ"]

    def test_codepoint_skips_whitespace(self):
        assert tokenize("Ꭰ Ꮄ", TokenizationPolicy.CODEPOINT) == ["Ꭰ", "Ꮄ"]

    def test_empty(self):
        assert tokenize("") == []


class TestBleu:
    def test_identity_is_one(self):
        pairs = [("a b c".split(), "a b c".split()), ("x y".split(), "x y".split())]
        assert bleu(pairs) == pytest.approx(1.0)

    def test_hand_case_four_fifths(self):
        score = bleu([("a b c d e".split(), "a b c d f".split())])
        assert score == pytest.approx(0.668740, abs=5e-7)

    def test_hand_case_brevity_penalty(self):
        score = bleu([("a b".split(), "a b c d".split())])
        assert score == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_disjoint_below_epsilon_threshold(self):
        assert bleu([("a b c".split(), "x y z".split())]) < 1e-6

    def test_empty_hypothesis_corpus(self):
        assert bleu([([], "a b".split())]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            bleu([("a".split(), [])])

    @settings(max_examples=60)
    @given(st.lists(st.tuples(tokens_st, nonempty_tokens_st), min_size=1, max_size=5))
    def test_matches_oracle(self, pairs):
        assert bleu(pairs) == pytest.approx(oracle_bleu(pairs), abs=1e-12)

    @settings(max_examples=30)
    @given(st.lists(st.tuples(nonempty_tokens_st, nonempty_tokens_st), min_size=2, max_size=5))
    def test_permutation_invariant(self, pairs):
        assert bleu(pairs) == pytest.approx(bleu(list(reversed(pairs))), abs=1e-12)


class TestRougeL:
    def test_identity(self):
        assert rouge_l("a b c".split(), "a b c".split()) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        p, r, f = rouge_l("the cat sat on mat".split(), "the cat on the mat".split())
        assert (p, r) == (0.8, 0.8)
        assert f == pytest.approx(0.8)

    def test_empty_hypothesis(self):
        assert rouge_l([], "a b".split()) == (0.0, 0.0, 0.0)

    def test_disjoint_zero(self):
        assert rouge_l("a b".split(), "x y".split()) == (0.0, 0.0, 0.0)

    @settings(max_examples=60)
    @given(nonempty_tokens_st, nonempty_tokens_st)
    def test_lcs_matches_oracle(self, a, b):
        assert lcs_length(a, b) == oracle_lcs(a, b)

    @settings(max_examples=60)
    @given(nonempty_tokens_st, nonempty_tokens_st)
    def test_swap_symmetry(self, hyp, ref):
        p1, r1, f1 = rouge_l(hyp, ref)
        p2, r2, f2 = rouge_l(ref, hyp)
        assert (p1, r1) == (r2, p2)
        assert f1 == pytest.approx(f2, abs=1e-12)

    @settings(max_examples=60)
    @given(nonempty_tokens_st, nonempty_tokens_st)
    def test_matches_oracle(self, hyp, ref):
        assert rouge_l(hyp, ref) == pytest.approx(oracle_rouge_l(hyp, ref), abs=1e-12)


class _FixedVectors:
    """Embedder stub with hand-chosen token vectors."""

    embedder_id = "fixed-vectors"

    def __init__(self, table):
        self.table = table

    def embed_tokens(self, tokens):
        return [list(self.table[t]) for t in tokens]


class TestBertScore:
    def test_identity(self, mock_embedder):
        p, r, f1 = bertscore(["Ꭰ", "Ꮄ"], ["Ꭰ", "Ꮄ"], mock_embedder)
        assert (p, r, f1) == pytest.approx((1.0, 1.0, 1.0), abs=1e-6)

    def test_single_pair_cosine_half(self):
        embedder = _FixedVectors({"a": (1.0, 0.0), "b": (0.5, math.sqrt(3) / 2)})
        p, r, f1 = bertscore(["a"], ["b"], embedder)
        assert (p, r, f1) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_orthogonal_hand_case(self):
        embedder = _FixedVectors(
            {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}
        )
        p, r, f1 = bertscore(["a", "b"], ["a", "c"], embedder)
        assert (p, r, f1) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_empty_side_rejected(self, mock_embedder):
        with pytest.raises(ValueError):
            bertscore([], ["a"], mock_embedder)
        with pytest.raises(ValueError):
            bertscore(["a"], [], mock_embedder)

    @settings(max_examples=40)
    @given(nonempty_tokens_st, nonempty_tokens_st)
    def test_role_symmetry(self, hyp, ref):
        embedder = MockEmbedder(dim=8)
        p_hr, r_hr, _ = bertscore(hyp, ref, embedder)
        p_rh, r_rh, _ = bertscore(ref, hyp, embedder)
        assert p_hr == r_rh
        assert r_hr == p_rh

    def test_non_normalized_embedder_is_normalized(self):
        embedder = _FixedVectors({"a": (3.0, 0.0), "b": (0.0, 7.0)})
        p, r, f1 = bertscore(["a"], ["a"], embedder)
        assert p == pytest.approx(1.0, abs=1e-12)


def _sheet(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scores.csv")
        lines = [",".join(map(str, row)) + "\n" for row in [CSV_HEADER, *rows]]
        path.write_text("".join(lines), encoding="utf-8")
        return load_human_scores(path)


class TestHumanEval:
    def test_reference_sheets(self, data_dir):
        tibetan = load_human_scores(data_dir / "human_scores_tibetan.csv")
        assert human_eval_normalize(tibetan, "gpt-4o-rag") == pytest.approx(22 / 75)
        assert human_eval_normalize(tibetan, "gpt-4o") == pytest.approx(11 / 75)
        assert human_eval_normalize(tibetan, "llama-3.1-405b") == pytest.approx(5 / 75)

        manchu = load_human_scores(data_dir / "human_scores_manchu.csv")
        assert human_eval_normalize(manchu, "gpt-4o") == pytest.approx(13 / 75)
        assert human_eval_normalize(manchu, "llama-3.1-405b") == pytest.approx(3 / 75)
        assert human_eval_normalize(manchu, "gpt-4o-rag") == pytest.approx(29 / 75)

    def test_all_fives_is_one(self):
        sheet = _sheet([(f"s{i}", "m", 5, 5, 5) for i in range(3)])
        assert human_eval_normalize(sheet, "m") == 1.0

    def test_all_zeros_is_zero(self):
        sheet = _sheet([(f"s{i}", "m", 0, 0, 0) for i in range(3)])
        assert human_eval_normalize(sheet, "m") == 0.0

    def test_unknown_model_rejected(self):
        sheet = _sheet([("s1", "m", 1, 2, 3)])
        with pytest.raises(ValueError, match="no rows"):
            human_eval_normalize(sheet, "other")

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0..5"):
            _sheet([("s1", "m", 7, 0, 0)])

    def test_duplicate_row_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _sheet([("s1", "m", 1, 1, 1), ("s1", "m", 2, 2, 2)])

    def test_csv_row_number_in_error(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "sentence_id,model_id,fluency,grammaticality,faithfulness\n"
            "s1,m,1,1,1\n"
            "s2,m,7,0,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=":3"):
            load_human_scores(path)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
            ),
            min_size=1,
            max_size=8,
        ),
        st.data(),
    )
    def test_monotone_in_each_subscore(self, score_rows, data):
        rows = [(f"s{i}", "m", *scores) for i, scores in enumerate(score_rows)]
        base = human_eval_normalize(_sheet(rows), "m")
        idx = data.draw(st.integers(0, len(rows) - 1))
        dim = data.draw(st.integers(0, 2))
        bumped = list(score_rows[idx])
        if bumped[dim] == 5:
            return
        bumped[dim] += 1
        rows[idx] = (f"s{idx}", "m", *bumped)
        assert human_eval_normalize(_sheet(rows), "m") >= base


class TestEvaluateSet:
    def test_identity_corpus(self, mock_embedder):
        sentences = ["ᎠᎹ ᎣᏍᏓ", "ᏅᏓ ᎠᏥᎳ ᎡᎶᎯ"]
        report = evaluate_set(sentences, sentences, token_embedder=mock_embedder)
        assert report.bleu == pytest.approx(1.0)
        assert report.rouge_l_f == pytest.approx(1.0)
        assert report.bert_f1 == pytest.approx(1.0, abs=1e-6)
        assert report.n_sentences == 2

    def test_twenty_pair_fixture_matches_frozen_oracle_values(self, data_dir, mock_embedder):
        hyps = (data_dir / "metric_fixture_hyps.txt").read_text(encoding="utf-8").splitlines()
        refs = (data_dir / "metric_fixture_refs.txt").read_text(encoding="utf-8").splitlines()
        expected = json.loads((data_dir / "metric_fixture_expected.json").read_text())
        report = evaluate_set(hyps, refs, token_embedder=mock_embedder)
        for key, value in expected.items():
            if key == "n_sentences":
                assert report.n_sentences == value
            else:
                assert getattr(report, key) == pytest.approx(value, abs=1e-6), key

    def test_length_mismatch(self, mock_embedder):
        with pytest.raises(ValueError, match="count"):
            evaluate_set(["a"], ["a", "b"], token_embedder=mock_embedder)

    def test_metric_subset_skips_embedder(self):
        report = evaluate_set(["a b"], ["a b"], metrics=("bleu", "rouge"))
        assert report.bleu == pytest.approx(1.0)
        assert report.bert_f1 is None

    def test_bertscore_subset_requires_embedder(self):
        with pytest.raises(ValueError, match="embedder"):
            evaluate_set(["a"], ["a"], metrics=("bertscore",))

    def test_empty_hypothesis_line_contributes_zeros(self, mock_embedder):
        report = evaluate_set(["", "a b"], ["a b", "a b"], token_embedder=mock_embedder)
        assert report.rouge_l_f == pytest.approx(0.5)
        assert report.bert_f1 == pytest.approx(0.5, abs=1e-6)

    def test_empty_reference_rejected(self, mock_embedder):
        with pytest.raises(ValueError, match="reference"):
            evaluate_set(["a"], [""], token_embedder=mock_embedder)


@settings(max_examples=40)
@given(nonempty_tokens_st, nonempty_tokens_st)
def test_outputs_within_declared_ranges(hyp, ref):
    score = bleu([(hyp, ref)])
    assert 0.0 <= score <= 1.0
    p, r, f = rouge_l(hyp, ref)
    assert all(0.0 <= v <= 1.0 for v in (p, r, f))
    bp, br, bf = bertscore(hyp, ref, MockEmbedder(dim=8))
    assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in (bp, br, bf))


# ---------------------------------------------------------------------------
# Each metric's work done once per evaluate_set: shared BERTScore vocabulary,
# bit-parallel LCS.  Reports must keep their exact bits.
# ---------------------------------------------------------------------------

CHEROKEE = [chr(cp) for cp in range(0x13A0, 0x13F5)]  # the 85 letters


def syllabary_pairs(seed: int, count: int = 100) -> tuple[list[str], list[str]]:
    """Seeded (hypotheses, references) of Cherokee-syllabary words.  Each
    hypothesis keeps, drops or alters the reference's words, or adds one;
    every tenth hypothesis is blank."""
    rng = random.Random(seed)
    hyps, refs = [], []
    for i in range(count):
        ref_words = [
            "".join(rng.choices(CHEROKEE, k=rng.randint(2, 6)))
            for _ in range(rng.randint(6, 14))
        ]
        hyp_words = []
        for word in ref_words:
            roll = rng.random()
            if roll < 0.6:
                hyp_words.append(word)
            elif roll < 0.75:
                continue
            elif roll < 0.9:
                at = rng.randrange(len(word))
                hyp_words.append(word[:at] + rng.choice(CHEROKEE) + word[at + 1 :])
            else:
                hyp_words += [word, "".join(rng.choices(CHEROKEE, k=3))]
        refs.append(" ".join(ref_words))
        hyps.append("  " if i % 10 == 7 else " ".join(hyp_words))
    return hyps, refs


GOLDEN_EVALUATE_SET = DATA_DIR / "golden_evaluate_set.json"
GOLDEN_SEED = 20240
GOLDEN_DIM = 64


def golden_reports() -> dict:
    """``evaluate_set(...).to_dict()`` on the golden set under each policy.
    The golden file was written by the implementation that embedded each
    sentence's tokens separately, so equality shows every bit is kept."""
    hyps, refs = syllabary_pairs(GOLDEN_SEED)
    return {
        policy.value: evaluate_set(hyps, refs, policy, MockEmbedder(GOLDEN_DIM)).to_dict()
        for policy in TokenizationPolicy
    }


class _CountingEmbedder:
    """MockEmbedder vectors, recording every embed_tokens request; a token in
    ``zero`` gets the zero vector."""

    embedder_id = "counting"

    def __init__(self, dim: int = 8, zero: frozenset[str] = frozenset()) -> None:
        self.inner = MockEmbedder(dim)
        self.zero = zero
        self.requests: list[list[str]] = []

    def embed_tokens(self, tokens):
        self.requests.append(list(tokens))
        vectors = self.inner.embed_tokens(tokens)
        return [[0.0] * self.inner.dim if t in self.zero else v for t, v in zip(tokens, vectors)]


class _ConstantEmbedder:
    """Every token gets the vector ``[value] * 8``."""

    embedder_id = "constant"

    def __init__(self, value: float) -> None:
        self.value = value

    def embed_tokens(self, tokens):
        return [[self.value] * 8 for _ in tokens]


class _DriftingEmbedder:
    """MockEmbedder vectors cut or padded to ``dims[request][token]`` entries."""

    embedder_id = "drifting"

    def __init__(self, dims: list[list[int]]) -> None:
        self.dims = iter(dims)

    def embed_tokens(self, tokens):
        vectors = MockEmbedder(16).embed_tokens(tokens)
        return [v[:dim] for v, dim in zip(vectors, next(self.dims))]


class TestEvaluateOnce:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=150),
        st.lists(st.sampled_from("abc"), max_size=150),
    )
    def test_long_lcs_matches_oracle(self, a, b):
        assert lcs_length(a, b) == oracle_lcs(a, b)

    def test_lcs_carry_across_word_boundaries(self):
        # 100-200 tokens span several machine words; every carry must propagate.
        assert lcs_length(list("ab" * 100), list("ba" * 100)) == 199
        rng = random.Random(7)
        for _ in range(20):
            a = rng.choices("abc", k=rng.randint(100, 150))
            b = rng.choices("abc", k=rng.randint(100, 150))
            assert lcs_length(a, b) == oracle_lcs(a, b)

    def test_each_distinct_token_embedded_once(self):
        hyps, refs = syllabary_pairs(5)
        embedder = _CountingEmbedder()
        evaluate_set(hyps, refs, TokenizationPolicy.CODEPOINT, embedder)
        scored = [
            (tokenize(h, TokenizationPolicy.CODEPOINT), tokenize(r, TokenizationPolicy.CODEPOINT))
            for h, r in zip(hyps, refs)
        ]
        vocabulary = list(dict.fromkeys(t for h, r in scored if h and r for t in h + r))
        assert len(vocabulary) > 64
        assert len(embedder.requests) == math.ceil(len(vocabulary) / EMBED_BATCH_SIZE)
        assert [t for request in embedder.requests for t in request] == vocabulary
        assert all(len(request) <= EMBED_BATCH_SIZE for request in embedder.requests)

    def test_no_request_without_scored_pairs(self):
        embedder = _CountingEmbedder()
        report = evaluate_set(["", " "], ["a b", "c"], token_embedder=embedder)
        assert embedder.requests == []
        assert (report.bert_p, report.bert_r, report.bert_f1) == (0.0, 0.0, 0.0)

    def test_zero_vector_only_beside_blank_hypothesis_is_never_embedded(self):
        # U+13F5 lies outside the generator's letters, so it occurs only in
        # the reference of pair 3, whose hypothesis is blank.
        hyps, refs = syllabary_pairs(11, count=20)
        hyps[3], refs[3] = "", "Ᏽ" + refs[3]
        plain = evaluate_set(hyps, refs, TokenizationPolicy.CODEPOINT, MockEmbedder(8))
        poisoned = _CountingEmbedder(zero=frozenset("Ᏽ"))
        report = evaluate_set(hyps, refs, TokenizationPolicy.CODEPOINT, poisoned)
        assert report == plain
        assert poisoned.requests
        assert all("Ᏽ" not in request for request in poisoned.requests)

    def test_zero_vector_in_scored_pair_still_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            evaluate_set(["a b"], ["b c"], token_embedder=_CountingEmbedder(zero=frozenset("c")))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vector_rejected(self, value):
        embedder = _ConstantEmbedder(value)
        with pytest.raises(ValueError, match="embedder returned a non-finite vector for 'a'"):
            evaluate_set(["a b"], ["b c"], token_embedder=embedder)

    def test_vector_count_must_match_request(self):
        # An extra vector would shift every later token onto another's row.
        extra = lambda tokens: [*MockEmbedder(8).embed_tokens(tokens), [1.0] * 8]  # noqa: E731
        embedder = SimpleNamespace(embedder_id="extra", embed_tokens=extra)
        with pytest.raises(ValueError, match="returned 4 vectors for 3 texts"):
            evaluate_set(["a b"], ["b c"], token_embedder=embedder)

    @pytest.mark.parametrize(
        "dims, message",
        [
            ([[8] * 32, [16] * 8], "drifted from 8 to 16"),  # between two requests
            ([[8] * 5 + [16] + [8] * 26, [8] * 8], "drifted from 8 to 16"),  # within one
        ],
        ids=["between_requests", "within_one_request"],
    )
    def test_dimension_drift_rejected(self, dims, message):
        hyp = "".join(chr(0x13A0 + i) for i in range(40))
        embedder = _DriftingEmbedder(dims)
        with pytest.raises(ValueError, match=f"embedding dimension {message}$"):
            evaluate_set([hyp], [hyp], TokenizationPolicy.CODEPOINT, embedder)

    def test_direct_bertscore_matches_oracle(self):
        embedder = MockEmbedder(8)
        embed = lambda token: embedder.embed_texts([token])[0]  # noqa: E731
        hyps, refs = syllabary_pairs(3, count=10)
        for h, r in zip(hyps, refs):
            hyp, ref = tokenize(h), tokenize(r)
            if hyp:
                expected = oracle_bertscore(hyp, ref, embed)
                assert bertscore(hyp, ref, embedder) == pytest.approx(expected, abs=1e-12)

    def test_reports_equal_golden(self):
        golden = json.loads(GOLDEN_EVALUATE_SET.read_text(encoding="utf-8"))
        assert golden_reports() == golden


# ---------------------------------------------------------------------------
# The sorted BLEU clipping and the row-gathered BERTScore matrices keep
# every bit of the formulas they replaced, which are kept here as references.
# ---------------------------------------------------------------------------


def counter_min_bleu(pairs) -> float:
    """BLEU clipped with a Counter of each side's n-grams per order, summing
    min(hypothesis count, reference count) over the hypothesis n-grams."""
    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if hyp_len == 0:
        return 0.0
    clipped = [0] * (BLEU_MAX_ORDER + 1)
    candidates = [0] * (BLEU_MAX_ORDER + 1)
    for hyp, ref in pairs:
        for n in range(1, BLEU_MAX_ORDER + 1):
            hyp_counts = Counter(zip(*(hyp[i:] for i in range(n))))
            ref_counts = Counter(zip(*(ref[i:] for i in range(n))))
            candidates[n] += sum(hyp_counts.values())
            clipped[n] += sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
    log_sum, orders = 0.0, 0
    for n in range(1, BLEU_MAX_ORDER + 1):
        if candidates[n]:
            log_sum += math.log(clipped[n] / candidates[n] if clipped[n] else BLEU_EPS)
            orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum / orders)


def stacked_token_vectors(tokens, embedder) -> dict:
    """Each distinct token's unit row, a view into its request's matrix."""
    unique = list(dict.fromkeys(tokens))
    lookup = {}
    for start in range(0, len(unique), EMBED_BATCH_SIZE):
        chunk = unique[start : start + EMBED_BATCH_SIZE]
        vectors = np.asarray(embedder.embed_tokens(chunk), dtype=np.float64)
        lookup.update(zip(chunk, vectors / np.linalg.norm(vectors, axis=1)[:, None]))
    return lookup


def stacked_bertscore(hyp, ref, vectors) -> tuple[float, float, float]:
    """BERTScore over matrices built by ``np.stack`` of one row per token."""
    similarity = np.stack([vectors[t] for t in hyp]) @ np.stack([vectors[t] for t in ref]).T
    precision = float(similarity.max(axis=1).mean())
    recall = float(similarity.max(axis=0).mean())
    if precision <= 0.0 or recall <= 0.0:
        return (precision, recall, 0.0)
    return (precision, recall, 2.0 * precision * recall / (precision + recall))


def reference_report(hyps, refs, policy, embedder) -> dict:
    pairs = [(tokenize(h, policy), tokenize(r, policy)) for h, r in zip(hyps, refs)]
    rouge = [rouge_l(h, r) for h, r in pairs]
    vectors = stacked_token_vectors([t for h, r in pairs if h and r for t in (*h, *r)], embedder)
    bert = [stacked_bertscore(h, r, vectors) if h and r else (0.0, 0.0, 0.0) for h, r in pairs]
    return {
        "n_sentences": len(pairs),
        "bleu": counter_min_bleu(pairs),
        "rouge_l_p": fmean(s[0] for s in rouge),
        "rouge_l_r": fmean(s[1] for s in rouge),
        "rouge_l_f": fmean(s[2] for s in rouge),
        "bert_p": fmean(s[0] for s in bert),
        "bert_r": fmean(s[1] for s in bert),
        "bert_f1": fmean(s[2] for s in bert),
    }


# Words of one to three letters over "abc": repeated tokens under both
# policies, and up to 39 distinct words, so some sets take two requests.
words_st = st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=10)
sentence_st = words_st.map(" ".join)
sentence_pairs_st = st.lists(
    st.tuples(st.one_of(st.sampled_from(["", "  "]), sentence_st), sentence_st),
    min_size=1,
    max_size=8,
)


class TestKernelsKeepReferenceBits:
    @settings(max_examples=150, deadline=None)
    @given(sentence_pairs_st, st.sampled_from(list(TokenizationPolicy)))
    def test_bleu_and_report_equal_references(self, sentence_pairs, policy):
        hyps, refs = (list(side) for side in zip(*sentence_pairs))
        pairs = [(tokenize(h, policy), tokenize(r, policy)) for h, r in sentence_pairs]
        assert bleu(pairs) == counter_min_bleu(pairs)
        report = evaluate_set(hyps, refs, policy, MockEmbedder(8)).to_dict()
        assert report == reference_report(hyps, refs, policy, MockEmbedder(8))

    @settings(max_examples=60, deadline=None)
    @given(sentence_pairs_st, st.sampled_from(list(TokenizationPolicy)))
    def test_direct_bertscore_equals_reference(self, sentence_pairs, policy):
        embedder = MockEmbedder(8)
        for h, r in sentence_pairs:
            hyp, ref = tokenize(h, policy), tokenize(r, policy)
            if hyp:
                expected = stacked_bertscore(hyp, ref, stacked_token_vectors(hyp + ref, embedder))
                assert bertscore(hyp, ref, embedder) == expected


# Tokens of several characters, holding a space or sharing a prefix with
# another, so that only whole-token equality may match.
bleu_token_st = st.one_of(
    st.sampled_from(["a", "ab", "abc", "a b", "b", "ba", " ", "ᎠᎴ", "Ꭰ"]),
    st.text("ab ", min_size=1, max_size=4),
)
bleu_ref_st = st.lists(bleu_token_st, min_size=1, max_size=12)
bleu_hyp_st = st.one_of(
    st.just([]), st.lists(bleu_token_st, min_size=1, max_size=3), bleu_ref_st
)


class TestSortedBleuClipping:
    """``bleu`` clips over one sort of the whole set; the Counter references
    above give the same bits."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(bleu_hyp_st, bleu_ref_st), min_size=1, max_size=40))
    def test_equals_counter_min_bleu(self, pairs):
        assert bleu(pairs) == counter_min_bleu(pairs)

    @pytest.mark.parametrize("policy", list(TokenizationPolicy))
    def test_seeded_syllabary_set(self, policy):
        # 2,000 pairs: pair numbers, and under whitespace tokens the ids,
        # take two bytes of the sort keys.
        hyps, refs = syllabary_pairs(GOLDEN_SEED + 1, 2000)
        pairs = [(tokenize(h, policy), tokenize(r, policy)) for h, r in zip(hyps, refs)]
        assert bleu(pairs) == counter_min_bleu(pairs)

    def test_ids_past_two_bytes(self):
        rng = random.Random(7)
        pairs = []
        for i in range(700):
            ref = [f"{i}.{j}" for j in range(100)]
            at = rng.randrange(90)
            pairs.append((ref[at : at + rng.randint(1, 10)] + ref[:3], ref))
        assert bleu(pairs) == counter_min_bleu(pairs)

    def test_no_ngram_spans_two_sentences(self):
        # Laid end to end, pair A's hypothesis and pair B's would give the
        # bigram "x y", which A's reference holds.  Order 1 matches A's "x"
        # only, and order 2 matches nothing, so it takes the epsilon.
        pairs = [(["w", "x"], ["x", "y"]), (["y", "z"], ["q", "r"])]
        assert bleu(pairs) == math.exp((math.log(1 / 4) + math.log(BLEU_EPS)) / 2)
        assert bleu(pairs) == counter_min_bleu(pairs)
