"""Embedding tables for words and cardinal POS patterns, and the three
query vectors (pattern, cardinal phrase, headline) that condition the
attention scorers.

Row 0 of the word table is the padding/sentinel row: always zero, never
on any gradient path.  Row 1 is the unknown-word row.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from .grad import Parameter, Tensor, constant, gather, mean_axis, sum_axis
from .text import (
    BOS_TOKEN,
    CONGRUENT,
    EOS_TOKEN,
    INCONGRUENT,
    DataError,
    DatasetRecord,
)

PAD_TOKEN = "<pad>"
PAD_INDEX = 0
UNK_INDEX = 1
UNK_PATTERN = "<unk>"

MODE_PRELOADED_FROZEN = "preloaded-frozen"
MODE_PRELOADED_TRAINABLE = "preloaded-trainable"
MODE_RANDOM_TRAINABLE = "random-trainable"

INIT_RANGE = 0.05
PATTERN_DIM = 100

_SENTINELS = frozenset({PAD_TOKEN, BOS_TOKEN, EOS_TOKEN})


def _nested_indices(index, keys):
    """Row indices of a key, or of a (nested) sequence of keys, keeping
    the nesting, which ``gather`` reads as the index array's shape."""
    if isinstance(keys, str):
        return index(keys)
    return [_nested_indices(index, k) for k in keys]


class WordEmbeddingTable:
    """Token to row-index map over a single embedding matrix.

    Sentinel tokens resolve to the zero padding row; unseen tokens resolve
    to the unknown row.  Lookups of the padding row read zeros and pass no
    gradient back, so no gradient can ever reach it.  The table gives its
    matrix the per-row ``active`` flags (see ``grad.Parameter``), so the
    optimizer touches only rows that have had a gradient.
    """

    def __init__(self, vocab: dict, matrix: Parameter, mode: str):
        self.vocab = vocab
        self.matrix = matrix
        self.mode = mode
        matrix.active = np.zeros(len(matrix.data), dtype=bool)

    @property
    def dim(self) -> int:
        return self.matrix.data.shape[1]

    def index(self, token: str) -> int:
        if token in _SENTINELS:
            return PAD_INDEX
        return self.vocab.get(token, UNK_INDEX)

    def lookup(self, tokens) -> Tensor:
        """Embedding rows of a token, (D,), or of a (nested) sequence of
        tokens, e.g. (N, T, D) for N padded sentences, as one gather."""
        return gather(self.matrix, _nested_indices(self.index, tokens), pad=PAD_INDEX)


def build_vocab(corpus: Sequence[DatasetRecord], min_count: int = 1,
                dim: int = 64, seed: int = 0) -> WordEmbeddingTable:
    """Random-trainable table over all corpus tokens seen at least
    ``min_count`` times, in sorted token order."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for rec in corpus:
        for tok in rec.headline:
            counts[tok.text] = counts.get(tok.text, 0) + 1
        for sent in rec.sentences:
            for tok in sent:
                counts[tok.text] = counts.get(tok.text, 0) + 1
    kept = sorted(t for t, c in counts.items() if c >= min_count)
    vocab = {t: i + 2 for i, t in enumerate(kept)}
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(len(kept) + 2, dim))
    matrix[PAD_INDEX] = 0.0
    param = Parameter("word_embeddings", matrix)
    return WordEmbeddingTable(vocab, param, MODE_RANDOM_TRAINABLE)


class PatternEmbeddingTable:
    """Cardinal POS pattern strings to trainable rows; index 0 is the
    unknown-pattern row.  Like the word table, it gives its matrix the
    per-row ``active`` flags."""

    def __init__(self, patterns: dict, matrix: Parameter):
        self.patterns = patterns
        self.matrix = matrix
        matrix.active = np.zeros(len(matrix.data), dtype=bool)

    @property
    def dim(self) -> int:
        return self.matrix.data.shape[1]

    def index(self, key: str) -> int:
        return self.patterns.get(key, 0)

    def lookup(self, keys) -> Tensor:
        """Embedding rows of a pattern key or a sequence of keys."""
        return gather(self.matrix, _nested_indices(self.index, keys))

    @classmethod
    def build(cls, corpus: Iterable[DatasetRecord], dim: int = PATTERN_DIM,
              seed: int = 0) -> "PatternEmbeddingTable":
        keys = sorted({p.key for rec in corpus for p in rec.patterns})
        patterns = {k: i + 1 for i, k in enumerate(keys)}
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(len(keys) + 1, dim))
        param = Parameter("pattern_embeddings", matrix)
        return cls(patterns, param)


# ---------------------------------------------------------------------------
# Query vectors


def headline_vector(tokens: Sequence[str], table: WordEmbeddingTable) -> Tensor:
    """Sum of the embeddings of all headline tokens (padding excluded)."""
    kept = [t for t in tokens if table.index(t) != PAD_INDEX]
    if not kept:
        warnings.warn("empty headline: query vector is zero", RuntimeWarning)
        return constant(np.zeros(table.dim))
    return sum_axis(table.lookup(kept))


def pattern_query(record: DatasetRecord, table: PatternEmbeddingTable) -> Tensor:
    """Pattern query vector: the mean of the embeddings of the record's
    cardinal patterns.  A training unit holds one cardinal (see
    ``replicate_for_training``), so its query is that pattern's row."""
    return mean_axis(table.lookup([p.key for p in record.patterns]))


def phrase_query(record: DatasetRecord, table: WordEmbeddingTable) -> Tensor:
    """Cardinal phrase query vector: per cardinal phrase the sum of its
    three words' embeddings (sentinel tokens read the zero row), then the
    mean over the record's phrases."""
    rows = table.lookup([[p.prev, p.num, p.next] for p in record.phrases])
    return mean_axis(sum_axis(rows, 1))


# ---------------------------------------------------------------------------
# Exports


def export_pattern_embeddings(patterns: dict, matrix: np.ndarray, path) -> None:
    """TSV: pattern string followed by its embedding row, the rows of
    ``matrix`` in ``patterns``' index order; unknown row first."""
    ordered = [(UNK_PATTERN, 0)] + sorted(patterns.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for key, idx in ordered:
            row = "\t".join(repr(float(v)) for v in matrix[idx])
            fh.write(f"{key}\t{row}\n")


def pattern_label_counts(records: Iterable[DatasetRecord]) -> dict:
    """Per pattern: [congruent count, incongruent count] over the records."""
    counts: dict[str, list[int]] = {}
    for rec in records:
        col = 0 if rec.label == CONGRUENT else 1
        for p in rec.patterns:
            counts.setdefault(p.key, [0, 0])[col] += 1
    return counts


def export_pattern_majority(counts: dict, path) -> None:
    """TSV: pattern, majority label, congruent count, incongruent count.

    Ties resolve to congruent.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pattern\tmajority_label\tcongruent\tincongruent\n")
        for key in sorted(counts):
            c, i = counts[key]
            majority = INCONGRUENT if i > c else CONGRUENT
            fh.write(f"{key}\t{majority}\t{c}\t{i}\n")
