"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of ``(seed, size)``: the same seed gives
byte-identical corpora, queries and sentence pairs.

Source-language words are built from two disjoint consonant sets.  Corpus
words (headwords, example sentences, definitions) never contain c, j, q, x
or y, and "unindexed" words contain only those consonants, so no n-gram of
an unindexed phrase can match a keyword-index entry.  That is what lets one
workload take the keyword path on every query and another take the vector
path on every query.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CORPUS_CONSONANTS = "bdfghklmnprstvwz"
UNINDEXED_CONSONANTS = "cjqxy"
VOWELS = "aeiou"
SYLLABARY = [chr(cp) for cp in range(0x13A0, 0x13F5)]  # Cherokee letters
PARTS_OF_SPEECH = ("noun", "verb", "adjective", "adverb")
HEADWORD_LENGTHS = (1, 2, 3, 4)
HEADWORD_WEIGHTS = (70, 18, 8, 4)


def _word(rng: random.Random, consonants: str) -> str:
    return "".join(
        rng.choice(consonants) + rng.choice(VOWELS) for _ in range(rng.randint(2, 3))
    )


def unindexed_word(rng: random.Random) -> str:
    return _word(rng, UNINDEXED_CONSONANTS)


def syllabary_text(rng: random.Random, words: int) -> str:
    return " ".join("".join(rng.choices(SYLLABARY, k=rng.randint(2, 5))) for _ in range(words))


@dataclass(frozen=True)
class Corpus:
    """Dictionary entries and parallel examples as JSON-ready records."""

    dictionary: list[dict]
    examples: list[dict]


def make_corpus(seed: int, n_docs: int) -> Corpus:
    """``n_docs // 2`` unique headwords of 1-4 words and the rest as
    parallel examples of 7-9 words."""
    rng = random.Random(f"corpus:{seed}")
    vocab_size = max(64, n_docs * 3 // 10)
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < vocab_size:
        word = _word(rng, CORPUS_CONSONANTS)
        if word not in seen:
            seen.add(word)
            vocab.append(word)

    n_dict = n_docs // 2
    headwords: list[str] = []
    seen.clear()
    while len(headwords) < n_dict:
        n_words = rng.choices(HEADWORD_LENGTHS, HEADWORD_WEIGHTS)[0]
        phrase = " ".join(rng.choices(vocab, k=n_words))
        if phrase not in seen:
            seen.add(phrase)
            headwords.append(phrase)

    dictionary = []
    for headword in headwords:
        entry = {"headword": headword, "target": syllabary_text(rng, rng.randint(1, 3))}
        if rng.random() < 0.3:
            entry["definition"] = " ".join(rng.choices(vocab, k=rng.randint(3, 6)))
        if rng.random() < 0.5:
            entry["part_of_speech"] = rng.choice(PARTS_OF_SPEECH)
        dictionary.append(entry)

    examples = [
        {
            "source_text": " ".join(rng.choices(vocab, k=rng.randint(7, 9))),
            "target_text": syllabary_text(rng, rng.randint(6, 9)),
            "source_lang": "en",
            "target_lang": "chr",
            "provenance": "synthetic",
        }
        for _ in range(n_docs - n_dict)
    ]
    return Corpus(dictionary=dictionary, examples=examples)


def write_corpus(corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    """Write ``dict.jsonl`` and ``parallel.jsonl``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = (directory / "dict.jsonl", directory / "parallel.jsonl")
    for path, records in zip(paths, (corpus.dictionary, corpus.examples)):
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
            encoding="utf-8",
        )
    return paths


def _sentence(words: list[str]) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def keyword_queries(corpus: Corpus, seed: int, n: int) -> list[tuple[str, int]]:
    """``(query, dictionary position)`` pairs: each query is one planted
    headword among unindexed filler words, about 8 words in all."""
    rng = random.Random(f"keyword-queries:{seed}")
    queries = []
    for position in rng.sample(range(len(corpus.dictionary)), min(n, len(corpus.dictionary))):
        headword = corpus.dictionary[position]["headword"]
        words = [unindexed_word(rng) for _ in range(max(1, 8 - len(headword.split())))]
        words.insert(rng.randint(0, len(words)), headword)
        queries.append((_sentence(words), position))
    return queries


def fallback_queries(seed: int, n: int) -> list[str]:
    """Queries of 7-9 unindexed words: none of their phrases is indexed."""
    rng = random.Random(f"fallback-queries:{seed}")
    return [
        _sentence([unindexed_word(rng) for _ in range(rng.randint(7, 9))]) for _ in range(n)
    ]


def eval_pairs(seed: int, n: int) -> tuple[list[str], list[str]]:
    """Aligned (hypotheses, references) in the Cherokee syllabary.  Each
    reference has about 60 letters; each hypothesis is its reference with
    seeded substitutions, deletions and insertions."""
    rng = random.Random(f"eval-pairs:{seed}")
    hyps, refs = [], []
    for _ in range(n):
        words, letters = [], 0
        while letters < 60:
            word = "".join(rng.choices(SYLLABARY, k=rng.randint(3, 6)))
            words.append(word)
            letters += len(word)
        ref = " ".join(words)
        hyp = []
        for ch in ref:
            draw = rng.random()
            if ch == " " or draw >= 0.2:
                hyp.append(ch)
            elif draw < 0.12:
                hyp.append(rng.choice(SYLLABARY))
            elif draw < 0.16:
                continue
            else:
                hyp.append(ch + rng.choice(SYLLABARY))
        hyps.append("".join(hyp))
        refs.append(ref)
    return hyps, refs
