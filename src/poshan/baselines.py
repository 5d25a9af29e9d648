"""The two self-contained baselines: a Bi-LSTM over the concatenated
headline and body token sequence, and the POS-category-guided attention
variant that scales each word embedding by a learned per-category weight
before encoding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .attention import PaddedRecord
from .embeddings import PatternEmbeddingTable, WordEmbeddingTable
from .encoder import SequenceEncoder
from .grad import (
    Tensor,
    affine,
    constant,
    hadamard,
    relu_elem,
)
from .model import Classifier

if TYPE_CHECKING:
    from .train import TrainConfig

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


_CATEGORY_OF_TAG = {tag: i for i, cat in enumerate(POS_CATEGORIES[:-1])
                    for tag in _CATEGORY_TAGS[cat]}


def pos_category_index(tag: str) -> int:
    """Total map from a POS tag to one of the seven category indices."""
    return _CATEGORY_OF_TAG.get(tag, OTHER_CATEGORY)


def flatten_record(padded: PaddedRecord) -> list:
    """Headline tokens followed by the body tokens the padding kept."""
    tagged = list(padded.record.headline)
    for sent, kept in zip(padded.record.sentences, padded.sentences):
        tagged.extend(sent[:sum(kept.mask)])
    return tagged


class LstmConcatModel(Classifier):
    """Single bidirectional encoder over [headline || body]; the final
    encoder state feeds the classifier head.  It reads no pattern table."""

    def __init__(self, config: TrainConfig, word_table: WordEmbeddingTable,
                 pattern_table: Optional[PatternEmbeddingTable], seed: Optional[int]):
        super().__init__(seed, word_table)
        self.word_table = word_table
        self.encoder = SequenceEncoder("concat_enc", in_dim=word_table.dim,
                                       hidden=config.hidden_size, cell=config.cell,
                                       params=self.params)
        self.head = self._create_head(self.encoder.out_dim)

    def inputs(self, tagged) -> Tensor:
        """Encoder inputs (L, D): the word embeddings of the tagged tokens."""
        return self.word_table.lookup([t.text for t in tagged])

    def forward(self, padded: PaddedRecord) -> Tensor:
        final = self.encoder.final_state(self.inputs(flatten_record(padded)))
        return self.logits(final)


class PosAtModel(LstmConcatModel):
    """Concat encoder whose word embeddings are scaled by a learned
    scalar per POS category before encoding.

    Each category weight is a one-unit rectified-linear dense over the
    one-hot category vector, ``theta``, the ``(w, b)`` that ``affine``
    takes: ``posat.theta_w`` (1, 7) is drawn from [0, 0.01] after the
    encoder and the head, and ``posat.theta_b`` starts at zero.
    """

    def __init__(self, config: TrainConfig, word_table: WordEmbeddingTable,
                 pattern_table: Optional[PatternEmbeddingTable], seed: Optional[int]):
        super().__init__(config, word_table, pattern_table, seed)
        self.theta = (self.params.uniform("posat.theta_w", (1, len(POS_CATEGORIES)), 0.0, 0.01),
                      self.params.zeros("posat.theta_b", 1))

    def inputs(self, tagged) -> Tensor:
        """Word embeddings (L, D), each row scaled by its category's
        theta = relu(theta_w . onehot(category) + theta_b)."""
        onehot = np.zeros((len(tagged), len(POS_CATEGORIES)))
        onehot[np.arange(len(tagged)), [pos_category_index(t.pos) for t in tagged]] = 1.0
        theta = relu_elem(affine(constant(onehot), *self.theta))
        return hadamard(super().inputs(tagged), theta)

    # in the class's own namespace, where the benchmark's tracing wraps it
    forward = LstmConcatModel.forward
