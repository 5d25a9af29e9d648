"""Full model assembly: embedding tables, word- and sentence-level
encoders, the six attention parameter sets, and the classifier head."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .attention import (
    QUERY_HEADLINE,
    QUERY_TYPES,
    HierarchicalAttention,
    PaddedRecord,
    document_forward,
)
from .embeddings import PatternEmbeddingTable, WordEmbeddingTable
from .encoder import SequenceEncoder
from .grad import (
    ParameterList,
    Tensor,
    affine,
    concat,
    no_grad,
    softmax_cross_entropy_with_logits,
    softmax_probs,
)
from .text import label_index


def _weights_at(level: str, weights: dict, position) -> dict:
    """One position's ``alpha`` or ``beta`` weights from the weights that
    ``document_forward`` returns: ``<level>_<type>`` for every query type,
    None for a type not in use, and ``<level>_fused``."""
    used = weights[level]
    row = {f"{level}_{q}": float(used[q].data[position]) if q in used else None
           for q in QUERY_TYPES}
    row[f"{level}_fused"] = float(weights[f"{level}_fused"].data[position])
    return row


class ClassifierHead:
    """Linear map from a document vector to the two class logits."""

    def __init__(self, name: str, in_dim: int, params: ParameterList):
        bound = 1.0 / math.sqrt(in_dim)
        self.weight = params.uniform(f"{name}.w", bound, (2, in_dim))
        self.bias = params.add(f"{name}.b", np.zeros(2))

    def logits(self, d: Tensor) -> Tensor:
        return affine(d, self.weight, self.bias)


class Classifier:
    """The interface the three models share.

    A subclass calls ``__init__`` with its seed and embedding tables
    first, then creates its parts on ``self.params``, and defines
    ``forward(padded)``, returning the two class logits; the loss and the
    probabilities are built on ``forward``.  Prediction records no graph.
    """

    def __init__(self, seed: int, *tables):
        self.params = ParameterList(seed)
        self.params.extend(table.matrix for table in tables)

    def parameters(self) -> list:
        """Every parameter, tables first, in the order it was created."""
        return self.params

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
        super().__init__(seed, word_table, pattern_table)
        self.word_table = word_table
        self.pattern_table = pattern_table
        disabled = (disable_pattern_att, disable_phrase_att, replace_headline_att)
        self.query_types = tuple(q for q, off in zip(QUERY_TYPES, disabled) if not off)

        self.word_encoder = SequenceEncoder("word_enc", in_dim=word_table.dim,
                                            hidden=hidden_size, cell=cell,
                                            params=self.params)
        self.sentence_encoder = SequenceEncoder(
            "sent_enc", in_dim=self.word_encoder.out_dim, hidden=hidden_size,
            cell=cell, params=self.params)
        att_dim = (attention_size if attention_size is not None
                   else self.word_encoder.out_dim)
        self.attention = HierarchicalAttention(
            "att", word_hs_dim=self.word_encoder.out_dim,
            sent_hs_dim=self.sentence_encoder.out_dim,
            word_dim=word_table.dim, pattern_dim=pattern_table.dim,
            att_dim=att_dim, params=self.params)
        head_in = self.sentence_encoder.out_dim
        if replace_headline_att:
            head_in += self.word_encoder.out_dim
        self.head = ClassifierHead("classifier", head_in, self.params)

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

    def attention_trace(self, padded: PaddedRecord) -> dict:
        """The word and sentence attention weights of one padded record, as
        ``dump-attention`` writes them: the query types in use, per
        sentence one entry per real token, and one entry per sentence."""
        with no_grad():
            _, weights = self._document(padded)
        sentences = [[{"token": token, **_weights_at("alpha", weights, (i, t))}
                      for t, token in enumerate(sent.tokens) if sent.mask[t]]
                     for i, sent in enumerate(padded.sentences)]
        return {"record_id": padded.record.id, "query_types": list(weights["alpha"]),
                "sentences": sentences,
                "betas": [_weights_at("beta", weights, i) for i in range(len(sentences))]}

    # in the class's own namespace, where the benchmark's tracing wraps it
    loss = Classifier.loss
