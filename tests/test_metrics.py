from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.backends import MockEmbedder
from lexrag.index import EMBED_BATCH_SIZE
from lexrag.metrics import (
    HumanScoreRow,
    HumanScoreSheet,
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
    return HumanScoreSheet([HumanScoreRow(*row) for row in rows])


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
        with pytest.raises(ValueError, match="token embedder returned a non-finite vector"):
            evaluate_set(["a b"], ["b c"], token_embedder=embedder)

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
