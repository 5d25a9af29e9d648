"""Embedding tables for words and cardinal POS patterns, and the three
query vectors (pattern, cardinal phrase, headline) that condition the
attention scorers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .grad import Parameter, Tensor, gather, mean_axis, placeholder, sum_axis
from .text import CONGRUENT, INCONGRUENT, RESERVED_TOKENS, DatasetRecord

UNK_PATTERN = "<unk>"

MODE_PRELOADED_FROZEN = "preloaded-frozen"
MODE_PRELOADED_TRAINABLE = "preloaded-trainable"
MODE_RANDOM_TRAINABLE = "random-trainable"
WORD_MODES = (MODE_PRELOADED_FROZEN, MODE_PRELOADED_TRAINABLE, MODE_RANDOM_TRAINABLE)

INIT_RANGE = 0.05
PATTERN_DIM = 100


def _nested_indices(index, keys):
    """Row indices of a key, or of a (nested) sequence of keys, keeping
    the nesting, which ``gather`` reads as the index array's shape."""
    if isinstance(keys, str):
        return index(keys)
    return [_nested_indices(index, k) for k in keys]


class _EmbeddingTable:
    """Key strings to the rows of one embedding matrix, the parameter
    ``NAME``.  Its first ``FIRST_KEY_ROW`` rows are reserved: an unknown
    key reads ``UNK_ROW``, and ``PAD_ROW``, if set, reads zeros and passes
    no gradient back.  The table gives its matrix the per-row ``active``
    flags (see ``grad.Parameter``), so the optimizer touches only rows
    that have had a gradient."""

    NAME: str
    FIRST_KEY_ROW: int
    UNK_ROW: int
    PAD_ROW: int | None = None

    def __init__(self, matrix: Parameter):
        self.matrix = matrix
        matrix.active = np.zeros(len(matrix.data), dtype=bool)

    @classmethod
    def create(cls, keys: dict, dim: int, seed: int | None):
        """The table of ``keys`` (key to row): the reserved rows and a row
        per key, ``dim`` wide, drawn uniformly from +-INIT_RANGE by
        ``default_rng(seed)`` with the pad row zeroed, or with seed None a
        ``grad.placeholder``."""
        shape = (cls.FIRST_KEY_ROW + len(keys), dim)
        if seed is None:
            matrix = placeholder(shape)
        else:
            matrix = np.random.default_rng(seed).uniform(-INIT_RANGE, INIT_RANGE, size=shape)
            if cls.PAD_ROW is not None:
                matrix[cls.PAD_ROW] = 0.0
        return cls(keys, Parameter(cls.NAME, matrix))

    @property
    def dim(self) -> int:
        return self.matrix.data.shape[1]

    def lookup(self, keys) -> Tensor:
        """Embedding rows of a key, (D,), or of a (nested) sequence of
        keys, e.g. (N, T, D) for N padded sentences, as one gather."""
        return gather(self.matrix, _nested_indices(self.index, keys), pad=self.PAD_ROW)


class WordEmbeddingTable(_EmbeddingTable):
    """Tokens to word rows: every reserved token (``text.RESERVED_TOKENS``)
    reads the pad row, an unseen token the unknown row.  Its matrix is
    trained, so ``mode`` is ``random-trainable``; other ``WORD_MODES`` only label checkpoints."""

    NAME = "word_embeddings"
    PAD_ROW, UNK_ROW, FIRST_KEY_ROW = 0, 1, 2
    mode = MODE_RANDOM_TRAINABLE

    def __init__(self, vocab: dict, matrix: Parameter):
        super().__init__(matrix)
        self.vocab = vocab

    def index(self, token: str) -> int:
        return self.PAD_ROW if token in RESERVED_TOKENS else self.vocab.get(token, self.UNK_ROW)


def build_vocab(corpus: Sequence[DatasetRecord], min_count: int = 1,
                dim: int = 64, seed: int = 0) -> WordEmbeddingTable:
    """Random-trainable table over all corpus tokens seen at least
    ``min_count`` times, in sorted token order."""
    counts: dict[str, int] = {}
    for rec in corpus:
        for tok in rec.headline:
            counts[tok.text] = counts.get(tok.text, 0) + 1
        for sent in rec.sentences:
            for tok in sent:
                counts[tok.text] = counts.get(tok.text, 0) + 1
    kept = sorted(t for t, c in counts.items() if c >= min_count)
    vocab = {t: i + WordEmbeddingTable.FIRST_KEY_ROW for i, t in enumerate(kept)}
    return WordEmbeddingTable.create(vocab, dim, seed)


class PatternEmbeddingTable(_EmbeddingTable):
    """Cardinal POS pattern keys to pattern rows; an unseen pattern reads
    the unknown-pattern row."""

    NAME = "pattern_embeddings"
    UNK_ROW, FIRST_KEY_ROW = 0, 1

    def __init__(self, patterns: dict, matrix: Parameter):
        super().__init__(matrix)
        self.patterns = patterns

    def index(self, key: str) -> int:
        return self.patterns.get(key, self.UNK_ROW)

    @classmethod
    def build(cls, corpus: Iterable[DatasetRecord], dim: int,
              seed: int) -> "PatternEmbeddingTable":
        keys = sorted({key for rec in corpus for key in rec.patterns})
        return cls.create({k: i + cls.FIRST_KEY_ROW for i, k in enumerate(keys)}, dim, seed)


# ---------------------------------------------------------------------------
# Query vectors


def headline_vector(tokens: Sequence[str], table: WordEmbeddingTable) -> Tensor:
    """Sum of the embeddings of all headline tokens."""
    return sum_axis(table.lookup(tokens))


def pattern_query(record: DatasetRecord, table: PatternEmbeddingTable) -> Tensor:
    """Pattern query vector: the mean of the embeddings of the record's
    cardinal patterns.  A training unit holds one cardinal (see
    ``replicate_for_training``), so its query is that pattern's row."""
    return mean_axis(table.lookup(record.patterns))


def phrase_query(record: DatasetRecord, table: WordEmbeddingTable) -> Tensor:
    """Cardinal phrase query vector: per cardinal phrase the sum of its
    three words' embeddings (``<bos>`` and ``<eos>`` read the zero row),
    then the mean over the record's phrases."""
    rows = table.lookup(record.phrases)
    return mean_axis(sum_axis(rows, 1))


# ---------------------------------------------------------------------------
# Exports


def export_pattern_embeddings(patterns: dict, matrix: np.ndarray, path) -> None:
    """TSV: pattern string followed by its embedding row, the rows of
    ``matrix`` in ``patterns``' index order; unknown row first."""
    unknown = (UNK_PATTERN, PatternEmbeddingTable.UNK_ROW)
    ordered = [unknown] + sorted(patterns.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for key, idx in ordered:
            row = "\t".join(repr(float(v)) for v in matrix[idx])
            fh.write(f"{key}\t{row}\n")


def pattern_label_counts(records: Iterable[DatasetRecord]) -> dict:
    """Per pattern: [congruent count, incongruent count] over the records."""
    counts: dict[str, list[int]] = {}
    for rec in records:
        col = 0 if rec.label == CONGRUENT else 1
        for key in rec.patterns:
            counts.setdefault(key, [0, 0])[col] += 1
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
