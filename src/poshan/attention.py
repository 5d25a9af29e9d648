"""Additive tanh-scored attention at the word and sentence levels, fusion
of the per-query weight vectors, and the hierarchical document forward.

Each of the three query types (cardinal POS pattern, cardinal phrase,
whole headline) gets its own scorer parameters at each level, six sets in
all.  Fusion is the per-position arithmetic mean of the available weight
vectors; the fused word weights produce the sentence representations that
feed the sentence encoder, and the fused sentence weights produce the
document vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    PatternEmbeddingTable,
    WordEmbeddingTable,
    headline_vector,
    pattern_query,
    phrase_query,
)
from .grad import (
    ParameterList,
    ShapeError,
    Tensor,
    additive_scores,
    masked_softmax,
    mean_fold,
    weighted_sum,
)
from .text import PAD_TOKEN, DatasetRecord

QUERY_PATTERN = "pattern"
QUERY_PHRASE = "phrase"
QUERY_HEADLINE = "headline"
QUERY_TYPES = (QUERY_PATTERN, QUERY_PHRASE, QUERY_HEADLINE)


class MaskMismatchError(ValueError):
    """Weight vectors being fused disagree about the mask."""


def scorer(prefix: str, hs_dim: int, query_dim: int, att_dim: int,
           params: ParameterList) -> tuple:
    """Scorer parameters for one (level, query type) pair, as the
    ``(v, w_h, w_q, b)`` tuple that :func:`additive_scores` takes:
    ``{prefix}.v`` (A,), ``.w_h`` (A, S) and ``.w_q`` (A, Q) drawn
    uniformly from +-1/sqrt(A) in that order, and a zero bias ``.b``."""
    bound = 1.0 / math.sqrt(att_dim)
    return (params.uniform(f"{prefix}.v", att_dim, -bound, bound),
            params.uniform(f"{prefix}.w_h", (att_dim, hs_dim), -bound, bound),
            params.uniform(f"{prefix}.w_q", (att_dim, query_dim), -bound, bound),
            params.zeros(f"{prefix}.b", att_dim))


def attend(states: Tensor, mask, query: Tensor, scorer: tuple) -> Tensor:
    """Attention weights: the masked softmax along the last axis of the
    additive scores v . tanh(W_h s + W_q query + b) of every state row s,
    for one sequence (T, S) or a block of sequences (N, T, S) with a mask
    of the same leading shape."""
    return masked_softmax(additive_scores(states, query, *scorer), mask)


def fuse_weights(*weight_vectors: Tensor, mask) -> Tensor:
    """Per-position mean of one to three attention weight tensors sharing
    a mask; the result is a simplex over the same mask."""
    if not 1 <= len(weight_vectors) <= 3:
        raise ValueError(
            f"expected 1 to 3 weight vectors, got {len(weight_vectors)}")
    m = np.asarray(mask, dtype=bool)
    for w in weight_vectors:
        if w.shape != m.shape:
            raise ShapeError(f"weight vector {w.shape} vs mask {m.shape}")
    for w in weight_vectors:
        if np.any(w.data[~m] != 0.0):
            raise MaskMismatchError(
                "weight vector carries mass on a masked position")
    return mean_fold(weight_vectors)


# ---------------------------------------------------------------------------
# Padded document representation


@dataclass
class PaddedSentence:
    tokens: list
    mask: list


@dataclass
class PaddedRecord:
    record: DatasetRecord
    sentences: list


def pad_record(record: DatasetRecord, max_words: int,
               max_sentences: int) -> PaddedRecord:
    """Truncate to the word/sentence limits and pad sentences to the
    record's longest kept sentence."""
    texts = [[t.text for t in sent[:max_words]] for sent in record.sentences[:max_sentences]]
    width = max(len(ts) for ts in texts)
    sentences = []
    for ts in texts:
        n = len(ts)
        sentences.append(PaddedSentence(
            tokens=ts + [PAD_TOKEN] * (width - n),
            mask=[True] * n + [False] * (width - n)))
    return PaddedRecord(record=record, sentences=sentences)


# ---------------------------------------------------------------------------
# Document forward


def build_queries(record: DatasetRecord, word_table: WordEmbeddingTable,
                  pattern_table: PatternEmbeddingTable, types: tuple) -> dict:
    """Query vectors of the given types, in their order; every record
    that reaches the model has a cardinal, so every type has its query."""
    build = {QUERY_PATTERN: lambda: pattern_query(record, pattern_table),
             QUERY_PHRASE: lambda: phrase_query(record, word_table),
             QUERY_HEADLINE: lambda: headline_vector(
                 [t.text for t in record.headline], word_table)}
    return {q: build[q]() for q in types}


def _attention_level(states: Tensor, mask, queries: dict, scorers: dict) -> tuple:
    """One attention level: the weights of each query type, their fusion,
    and the fused weighted sum of the states."""
    weights = {q: attend(states, mask, query, scorers[q])
               for q, query in queries.items()}
    fused = fuse_weights(*weights.values(), mask=mask)
    return weighted_sum(fused, states), weights, fused


def document_forward(model, padded: PaddedRecord) -> tuple:
    """Word encoding and word-level attention over all sentences as one
    block, fusion, sentence encoding, sentence-level attention, fusion;
    returns (document vector, weights).

    ``model`` supplies the ``word_table`` and ``pattern_table``, the
    ``word_encoder`` and ``sentence_encoder``, the ``word_attention`` and
    ``sentence_attention`` scorers of each query type, and the
    ``query_types`` in use.  ``weights`` maps ``alpha`` and ``beta`` to
    the word and sentence weights of each query type used, and
    ``alpha_fused`` and ``beta_fused`` to their fusions."""
    queries = build_queries(padded.record, model.word_table, model.pattern_table,
                            model.query_types)
    tokens = [sent.tokens for sent in padded.sentences]
    mask = np.array([sent.mask for sent in padded.sentences])
    states = model.word_encoder.encode(model.word_table.lookup(tokens),
                                       mask.ravel().tolist())
    sentence_vectors, alpha, alpha_fused = _attention_level(
        states, mask, queries, model.word_attention)
    sent_mask = [True] * len(padded.sentences)
    sent_states = model.sentence_encoder.encode(sentence_vectors, sent_mask)
    document, beta, beta_fused = _attention_level(
        sent_states, sent_mask, queries, model.sentence_attention)
    return document, {"alpha": alpha, "alpha_fused": alpha_fused,
                      "beta": beta, "beta_fused": beta_fused}
