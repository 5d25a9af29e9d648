"""Full model assembly: embedding tables, word- and sentence-level
encoders, the six attention scorers, and the classifier head."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .attention import (
    QUERY_HEADLINE,
    QUERY_PATTERN,
    QUERY_PHRASE,
    QUERY_TYPES,
    PaddedRecord,
    document_forward,
    scorer,
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

if TYPE_CHECKING:
    from .train import TrainConfig


def _weights_at(level: str, weights: dict, position) -> dict:
    """One position's ``alpha`` or ``beta`` weights from the weights that
    ``document_forward`` returns: ``<level>_<type>`` for every query type,
    None for a type not in use, and ``<level>_fused``."""
    used = weights[level]
    row = {f"{level}_{q}": float(used[q].data[position]) if q in used else None
           for q in QUERY_TYPES}
    row[f"{level}_fused"] = float(weights[f"{level}_fused"].data[position])
    return row


class Classifier:
    """The interface the three models share.

    Each model is built as ``Model(config, word_table, pattern_table,
    seed)`` and reads its settings from ``config``, a ``train.TrainConfig``.
    A subclass calls ``__init__`` with its seed (None: its parameters
    hold placeholders, see ``grad.ParameterList``) and embedding tables
    first, then creates its parts on ``self.params``, its head with
    ``_create_head``, and defines ``forward(padded)``, returning the
    ``logits`` of its document vector; the loss and the probabilities are
    built on ``forward``.  Prediction records no graph.
    """

    def __init__(self, seed: Optional[int], *tables):
        self.params = ParameterList(seed)
        self.params.extend(table.matrix for table in tables)

    def _create_head(self, in_dim: int) -> tuple:
        """The head that maps an ``in_dim`` document vector to the two
        class logits, as the ``(w, b)`` that ``affine`` takes:
        ``classifier.w`` (2, in_dim) drawn uniformly from
        +-1/sqrt(in_dim), and a zero bias ``classifier.b``."""
        bound = 1.0 / math.sqrt(in_dim)
        return (self.params.uniform("classifier.w", (2, in_dim), -bound, bound),
                self.params.zeros("classifier.b", 2))

    def logits(self, d: Tensor) -> Tensor:
        """The two class logits of a document vector: ``affine(d, *self.head)``."""
        return affine(d, *self.head)

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

    def __init__(self, config: TrainConfig, word_table: WordEmbeddingTable,
                 pattern_table: PatternEmbeddingTable, seed: Optional[int]):
        super().__init__(seed, word_table, pattern_table)
        self.word_table = word_table
        self.pattern_table = pattern_table
        disabled = (config.disable_pattern_att, config.disable_phrase_att,
                    config.replace_headline_att)
        self.query_types = tuple(q for q, off in zip(QUERY_TYPES, disabled) if not off)

        self.word_encoder = SequenceEncoder("word_enc", in_dim=word_table.dim,
                                            hidden=config.hidden_size, cell=config.cell,
                                            params=self.params)
        self.sentence_encoder = SequenceEncoder(
            "sent_enc", in_dim=self.word_encoder.out_dim, hidden=config.hidden_size,
            cell=config.cell, params=self.params)
        att_dim = (config.attention_size if config.attention_size is not None
                   else self.word_encoder.out_dim)
        query_dims = {QUERY_PATTERN: pattern_table.dim, QUERY_PHRASE: word_table.dim,
                      QUERY_HEADLINE: word_table.dim}

        def scorers(level: str, hs_dim: int) -> dict:
            return {q: scorer(f"att.{level}.{q}", hs_dim, query_dims[q], att_dim,
                              self.params) for q in QUERY_TYPES}

        self.word_attention = scorers("word", self.word_encoder.out_dim)
        self.sentence_attention = scorers("sentence", self.sentence_encoder.out_dim)
        head_in = self.sentence_encoder.out_dim
        if config.replace_headline_att:
            head_in += self.word_encoder.out_dim
        self.head = self._create_head(head_in)

    def forward(self, padded: PaddedRecord) -> Tensor:
        """Class logits for one padded record."""
        d, _ = document_forward(self, padded)
        if QUERY_HEADLINE not in self.query_types:
            d = concat(d, self.word_encoder.final_state(self.word_table.lookup(
                [t.text for t in padded.record.headline])))
        return self.logits(d)

    def attention_trace(self, padded: PaddedRecord) -> dict:
        """The word and sentence attention weights of one padded record, as
        ``dump-attention`` writes them: the query types in use, per
        sentence one entry per real token, and one entry per sentence."""
        with no_grad():
            _, weights = document_forward(self, padded)
        sentences = [[{"token": token, **_weights_at("alpha", weights, (i, t))}
                      for t, token in enumerate(sent.tokens) if sent.mask[t]]
                     for i, sent in enumerate(padded.sentences)]
        return {"record_id": padded.record.id, "query_types": list(weights["alpha"]),
                "sentences": sentences,
                "betas": [_weights_at("beta", weights, i) for i in range(len(sentences))]}

    # in the class's own namespace, where the benchmark's tracing wraps it
    loss = Classifier.loss
