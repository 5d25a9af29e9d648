"""Full model assembly: embedding tables, word- and sentence-level
encoders, the six attention parameter sets, and the classifier head."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .attention import (
    QUERY_HEADLINE,
    QUERY_TYPES,
    DocumentTrace,
    HierarchicalAttention,
    PaddedRecord,
    document_forward,
    document_trace,
)
from .embeddings import PatternEmbeddingTable, WordEmbeddingTable
from .encoder import SequenceEncoder
from .grad import (
    Parameter,
    Tensor,
    affine,
    concat,
    no_grad,
    softmax_cross_entropy_with_logits,
    softmax_probs,
)
from .text import label_index


class ClassifierHead:
    """Linear map from a document vector to the two class logits."""

    def __init__(self, name: str, in_dim: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(in_dim)
        self.weight = Parameter(f"{name}.w",
                                rng.uniform(-bound, bound, (2, in_dim)))
        self.bias = Parameter(f"{name}.b", np.zeros(2))

    def logits(self, d: Tensor) -> Tensor:
        return affine(d, self.weight, self.bias)

    def parameters(self) -> list:
        return [self.weight, self.bias]


class Classifier:
    """The interface the three models share: a subclass defines
    ``forward(padded)``, returning the two class logits, and
    ``parameters()``; the loss and the probabilities are built on
    ``forward``.  Prediction records no graph."""

    def loss(self, padded: PaddedRecord) -> Tensor:
        return softmax_cross_entropy_with_logits(
            self.forward(padded), label_index(padded.record.label))

    def predict_probs(self, padded: PaddedRecord) -> np.ndarray:
        with no_grad():
            return softmax_probs(self.forward(padded))


class PoshanModel(Classifier):
    """Cardinal-pattern-guided hierarchical attention classifier.

    The optional headline-encoder variant disables headline attention and
    instead concatenates the headline's final encoder state to the
    document vector before the classifier head.
    """

    def __init__(self, word_table: WordEmbeddingTable,
                 pattern_table: PatternEmbeddingTable, hidden_size: int,
                 attention_size: Optional[int], cell: str,
                 disable_pattern_att: bool, disable_phrase_att: bool,
                 replace_headline_att: bool, seed: int):
        rng = np.random.default_rng(seed)
        self.word_table = word_table
        self.pattern_table = pattern_table
        disabled = (disable_pattern_att, disable_phrase_att, replace_headline_att)
        self.query_types = tuple(q for q, off in zip(QUERY_TYPES, disabled) if not off)

        self.word_encoder = SequenceEncoder("word_enc", in_dim=word_table.dim,
                                            hidden=hidden_size, cell=cell,
                                            rng=rng)
        self.sentence_encoder = SequenceEncoder(
            "sent_enc", in_dim=self.word_encoder.out_dim, hidden=hidden_size,
            cell=cell, rng=rng)
        att_dim = (attention_size if attention_size is not None
                   else self.word_encoder.out_dim)
        self.attention = HierarchicalAttention(
            "att", word_hs_dim=self.word_encoder.out_dim,
            sent_hs_dim=self.sentence_encoder.out_dim,
            word_dim=word_table.dim, pattern_dim=pattern_table.dim,
            att_dim=att_dim, rng=rng)
        head_in = self.sentence_encoder.out_dim
        if replace_headline_att:
            head_in += self.word_encoder.out_dim
        self.head = ClassifierHead("classifier", head_in, rng)

    def _document(self, padded: PaddedRecord) -> tuple:
        return document_forward(
            padded, self.word_table, self.pattern_table, self.word_encoder,
            self.sentence_encoder, self.attention, self.query_types)

    def forward(self, padded: PaddedRecord) -> Tensor:
        """Class logits for one padded record."""
        d, _ = self._document(padded)
        if QUERY_HEADLINE not in self.query_types:
            d = concat(d, self.word_encoder.final_state(self.word_table.lookup(
                [t.text for t in padded.record.headline])))
        return self.head.logits(d)

    def attention_trace(self, padded: PaddedRecord) -> DocumentTrace:
        """Word and sentence attention weights of one padded record."""
        with no_grad():
            _, weights = self._document(padded)
            return document_trace(padded, weights)

    # in the class's own namespace, where the benchmark's tracing wraps it
    loss = Classifier.loss

    def parameters(self) -> list:
        return [self.word_table.matrix, self.pattern_table.matrix,
                *self.word_encoder.parameters(),
                *self.sentence_encoder.parameters(),
                *self.attention.parameters(), *self.head.parameters()]
