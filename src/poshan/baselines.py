"""The two self-contained baselines: a Bi-LSTM over the concatenated
headline and body token sequence, and the POS-category-guided attention
variant that scales each word embedding by a learned per-category weight
before encoding.
"""

from __future__ import annotations

import numpy as np

from .attention import PaddedRecord
from .embeddings import WordEmbeddingTable
from .encoder import CELL_LSTM_BI, SequenceEncoder
from .grad import (
    Parameter,
    ShapeError,
    Tensor,
    affine,
    constant,
    hadamard,
    relu_elem,
)
from .model import Classifier, ClassifierHead
from .text import DatasetRecord

# hidden size of the concat baseline's reference configuration
DEFAULT_HIDDEN = 200

POS_CATEGORIES = ("noun", "verb", "adjective", "pronoun", "adverb",
                  "cardinal", "other")
OTHER_CATEGORY = len(POS_CATEGORIES) - 1

_CATEGORY_TAGS = {
    "noun": frozenset({"NN", "NNS", "NNP", "NNPS"}),
    "verb": frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"}),
    "adjective": frozenset({"JJ", "JJR", "JJS"}),
    "pronoun": frozenset({"WP"}),
    "adverb": frozenset({"WRB"}),
    "cardinal": frozenset({"CD"}),
}


def pos_category_index(tag: str) -> int:
    """Total map from a POS tag to one of the seven category indices."""
    for i, cat in enumerate(POS_CATEGORIES[:-1]):
        if tag in _CATEGORY_TAGS[cat]:
            return i
    return OTHER_CATEGORY


def flatten_record(record: DatasetRecord, max_words=None,
                   max_sentences=None) -> list:
    """Headline tokens followed by body tokens, truncated to the limits."""
    tagged = list(record.headline)
    sentences = record.sentences
    if max_sentences is not None:
        sentences = sentences[:max_sentences]
    for sent in sentences:
        tagged.extend(sent if max_words is None else sent[:max_words])
    return tagged


class LstmConcatModel(Classifier):
    """Single bidirectional encoder over [headline || body]; the final
    encoder state feeds the classifier head."""

    def __init__(self, word_table: WordEmbeddingTable,
                 hidden_size: int = DEFAULT_HIDDEN, cell: str = CELL_LSTM_BI,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.word_table = word_table
        self.encoder = SequenceEncoder("concat_enc", in_dim=word_table.dim,
                                       hidden=hidden_size, cell=cell, rng=rng)
        self.head = ClassifierHead("classifier", self.encoder.out_dim, rng)
        self._init_inputs(rng)

    def _init_inputs(self, rng: np.random.Generator) -> None:
        """Draw the input layer's own parameters: none beyond the table."""

    def inputs(self, tagged) -> Tensor:
        """Encoder inputs (L, D): the word embeddings of the tagged tokens."""
        return self.word_table.lookup([t.text for t in tagged])

    def forward(self, padded: PaddedRecord) -> Tensor:
        tagged = flatten_record(padded.record, padded.max_words,
                                padded.max_sentences)
        final = self.encoder.final_state(self.inputs(tagged), [True] * len(tagged))
        return self.head.logits(final)

    def parameters(self) -> list:
        return [self.word_table.matrix, *self.encoder.parameters(),
                *self.head.parameters()]


class PosAtModel(LstmConcatModel):
    """Concat encoder whose word embeddings are scaled by a learned
    scalar per POS category before encoding.

    Each category weight is a one-unit rectified-linear dense over the
    one-hot category vector, initialized near zero: weights are drawn
    from [0, 0.01].
    """

    def _init_inputs(self, rng: np.random.Generator) -> None:
        self.theta_weight = Parameter(
            "posat.theta_w", rng.uniform(0.0, 0.01, (1, len(POS_CATEGORIES))))
        self.theta_bias = Parameter("posat.theta_b", np.zeros(1))

    def inputs(self, tagged) -> Tensor:
        return self.scaled_inputs([t.text for t in tagged], [t.pos for t in tagged])

    def scaled_inputs(self, tokens, tags) -> Tensor:
        """Word embeddings (L, D), each row scaled by its category's
        theta = relu(theta_w . onehot(category) + theta_b)."""
        if len(tokens) != len(tags):
            raise ShapeError(
                f"{len(tokens)} tokens vs {len(tags)} tags")
        onehot = np.zeros((len(tags), len(POS_CATEGORIES)))
        onehot[np.arange(len(tags)), [pos_category_index(t) for t in tags]] = 1.0
        theta = relu_elem(affine(constant(onehot), self.theta_weight.value,
                                 self.theta_bias.value))
        return hadamard(self.word_table.lookup(tokens), theta)

    # in the class's own namespace, where the benchmark's tracing wraps it
    forward = LstmConcatModel.forward

    def parameters(self) -> list:
        return [*super().parameters(), self.theta_weight, self.theta_bias]
