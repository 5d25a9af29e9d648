"""Seeded, paper-shaped synthetic corpora for the benchmark.

Every record's headline carries one to three cardinals written as digits.
A record is congruent exactly when its headline numbers appear in the
body; an incongruent body carries different numbers in the same places,
so the label is learnable and validation loss moves with training.

Record *shapes* (sentence counts, sentence lengths, cardinals per
headline, and the length of any tail past the caps) come from a fixed
template per corpus, so the work in a run does not depend on the seed.
The seed draws everything else: the words, the numbers, the order of
sentences inside a record and where the numbers sit.  Labels alternate,
congruent first.  The generator also records, per record, the token
counts the package's tokenizer must produce, so derivation can be checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from poshan.text import ABBREVIATIONS, NUMBER_WORDS

CAPS_SENTENCES = 35
CAPS_WORDS = 45

# Seed of the shape template; the workload seed never touches shapes.
TEMPLATE_SEED = 20211105

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
FUNCTION_WORDS = ("the", "of", "in", "and", "to", "was", "for", "with", "a", "on")
FUNCTION_SHARE = 0.25


def pseudo_word(rank: int) -> str:
    """Distinct consonant-vowel word for each rank, at least two syllables."""
    n = rank + len(_SYLLABLES)
    parts = []
    while n:
        n, digit = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[digit])
    return "".join(reversed(parts))


def word_list(types: int) -> list[str]:
    """The first ``types`` pseudo-words the rule tagger reads as plain words:
    no number words, nothing that ends a sentence as an abbreviation."""
    words = []
    rank = 0
    while len(words) < types:
        w = pseudo_word(rank)
        rank += 1
        if w in NUMBER_WORDS or f"{w}." in ABBREVIATIONS:
            continue
        words.append(w)
    return words


@dataclass(frozen=True)
class Shape:
    """One record's shape: words per body sentence, headline cardinals, and
    how many vocabulary words a tail at the end of the last sentence lists."""

    sentence_words: tuple
    cardinals: int
    tail_words: int = 0


@dataclass(frozen=True)
class CorpusSpec:
    """A corpus: its shape template and vocabulary."""

    shapes: tuple
    vocabulary: int
    zipf_exponent: float
    headline_words: int = 8


@dataclass
class GeneratedRecord:
    """A raw record plus the token counts the tokenizer must produce."""

    id: str
    headline: str
    body: str
    label: str
    headline_tokens: int
    sentence_tokens: list
    cardinals: int

    def raw_json(self) -> dict:
        return {"id": self.id, "headline": self.headline, "body": self.body,
                "label": self.label}


def _lognormal_quantiles(n: int, median: float, sigma: float) -> np.ndarray:
    """n stratified draws: the lognormal's quantiles at (i + 0.5) / n."""
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return median * np.exp(sigma * z)


def caps_spec(records: int, short_records: int) -> CorpusSpec:
    """``records`` bodies beyond the 35x45 caps (36-38 sentences of 46-50
    words) followed by ``short_records`` of 3 equal sentences of 6-10 words,
    so nothing needs padding; one cardinal per headline, a small
    vocabulary."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    shapes = [Shape(tuple(int(w) for w in rng.integers(46, 51, int(rng.integers(36, 39)))), 1)
              for _ in range(records)]
    shapes += [Shape((int(rng.integers(6, 11)),) * 3, 1) for _ in range(short_records)]
    return CorpusSpec(tuple(shapes), vocabulary=120, zipf_exponent=0.6)


def ragged_spec(records: int, sentence_median: float, word_median: float,
                vocabulary: int, no_cardinal_every: int = 0, tail: bool = False,
                past_sentence_cap: bool = True,
                sentence_sigma: float = 0.7, word_sigma: float = 0.55) -> CorpusSpec:
    """Long-tailed bodies with 1-3 cardinals per headline.

    Sentence counts and lengths are stratified lognormal draws with the
    given medians and log-space spreads; the longest sentences exceed the
    45-word cap, and with ``past_sentence_cap`` the longest record exceeds
    the 35-sentence cap.  With ``no_cardinal_every`` = k, every k-th
    record has no headline number, so derivation drops it.  With ``tail``,
    the longest record comes first and its last sentence goes on to list
    every vocabulary word once, past the word cap: the embedding table
    then holds the whole vocabulary while the encoder's work stays within
    the caps.
    """
    rng = np.random.default_rng(TEMPLATE_SEED + 1)
    counts = np.maximum(1, np.round(_lognormal_quantiles(records, sentence_median, sentence_sigma)))
    counts = [int(c) for c in rng.permutation(counts)]
    longest = int(np.argmax(counts))
    if past_sentence_cap:
        counts[longest] = max(max(counts), CAPS_SENTENCES + 3)
    if tail:
        counts.insert(0, counts.pop(longest))
    # at least three words, so even a one-sentence body has room for three numbers
    lengths = np.maximum(3, np.round(_lognormal_quantiles(sum(counts), word_median, word_sigma)))
    lengths = [int(w) for w in rng.permutation(lengths)]
    lengths[int(np.argmax(lengths))] = max(max(lengths), CAPS_WORDS + 8)
    cardinal_cycle = (1, 2, 1, 3, 2, 1, 2)
    shapes = []
    start = 0
    for i, c in enumerate(counts):
        cardinals = cardinal_cycle[i % len(cardinal_cycle)]
        if no_cardinal_every and i % no_cardinal_every == no_cardinal_every - 1:
            cardinals = 0
        shapes.append(Shape(tuple(lengths[start:start + c]), cardinals,
                            vocabulary if tail and i == 0 else 0))
        start += c
    return CorpusSpec(tuple(shapes), vocabulary=vocabulary, zipf_exponent=1.05)


def generate(spec: CorpusSpec, seed: int, prefix: str) -> list[GeneratedRecord]:
    """Records of the given shapes; the same seed gives the same records."""
    rng = np.random.default_rng(seed)
    words = word_list(spec.vocabulary)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -spec.zipf_exponent)
    cdf /= cdf[-1]
    # labels alternate, congruent first, as part of the template: every two
    # consecutive records (and so every even-sized split) are balanced, as
    # a stratified split would make them, and a split's label mix is the
    # same on every seed
    labels = ["congruent" if i % 2 == 0 else "incongruent" for i in range(len(spec.shapes))]

    def draw(count: int) -> list[str]:
        picks = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), len(words) - 1)
        fn = rng.random(count) < FUNCTION_SHARE
        fw = rng.integers(len(FUNCTION_WORDS), size=count)
        return [FUNCTION_WORDS[fw[j]] if fn[j] else words[picks[j]] for j in range(count)]

    records = []
    for i, shape in enumerate(spec.shapes):
        numbers = [int(v) for v in rng.choice(np.arange(2, 5000), size=2 * shape.cardinals, replace=False)]
        headline_numbers, distractors = numbers[:shape.cardinals], numbers[shape.cardinals:]
        congruent = labels[i] == "congruent"
        body_numbers = headline_numbers if congruent else distractors

        headline = draw(spec.headline_words)
        slots = rng.choice(spec.headline_words, size=shape.cardinals, replace=False)
        for slot, num in zip(sorted(int(s) for s in slots), headline_numbers):
            headline[slot] = str(num)

        lengths = [shape.sentence_words[int(j)] for j in rng.permutation(len(shape.sentence_words))]
        sentences = [draw(w) for w in lengths]
        # numbers sit inside the caps, so truncation never hides them
        slots = [(s, p) for s in range(min(len(sentences), CAPS_SENTENCES))
                 for p in range(min(len(sentences[s]), CAPS_WORDS - 1))]
        for k, num in zip(rng.choice(len(slots), size=len(body_numbers), replace=False), body_numbers):
            s, p = slots[int(k)]
            sentences[s][p] = str(num)
        # truncation to CAPS_WORDS keeps at most the tail's first words
        if shape.tail_words:
            sentences[-1] += [words[int(j)] for j in rng.permutation(len(words))[:shape.tail_words]]

        records.append(GeneratedRecord(
            id=f"{prefix}{i}",
            headline=" ".join(headline),
            body=" ".join(" ".join(s) + "." for s in sentences),
            label=labels[i],
            headline_tokens=len(headline),
            sentence_tokens=[len(s) + 1 for s in sentences],
            cardinals=shape.cardinals,
        ))
    return records


def write_raw_jsonl(records, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.raw_json(), sort_keys=True) + "\n")
