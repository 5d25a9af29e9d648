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
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    PAD_TOKEN,
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
from .text import DataError, DatasetRecord

QUERY_PATTERN = "pattern"
QUERY_PHRASE = "phrase"
QUERY_HEADLINE = "headline"
QUERY_TYPES = (QUERY_PATTERN, QUERY_PHRASE, QUERY_HEADLINE)


class MaskMismatchError(ValueError):
    """Weight vectors being fused disagree about the mask."""


class AttentionParams:
    """Scorer parameters for one (level, query type) pair."""

    def __init__(self, prefix: str, hs_dim: int, query_dim: int, att_dim: int,
                 params: ParameterList):
        bound = 1.0 / math.sqrt(att_dim)
        self.score_vec = params.uniform(f"{prefix}.v", bound, att_dim)
        self.state_proj = params.uniform(f"{prefix}.w_h", bound, (att_dim, hs_dim))
        self.query_proj = params.uniform(f"{prefix}.w_q", bound, (att_dim, query_dim))
        self.bias = params.add(f"{prefix}.b", np.zeros(att_dim))


def score(states: Tensor, query: Tensor, params: AttentionParams) -> Tensor:
    """Additive scores v . tanh(W_h s + W_q query + b) of every state row
    s: states (..., T, S) give scores (..., T)."""
    return additive_scores(states, query, params.score_vec, params.state_proj,
                           params.query_proj, params.bias)


def attend(states: Tensor, mask, query: Tensor,
           params: AttentionParams) -> Tensor:
    """Attention weights: the masked softmax of the scores along the last
    axis, for one sequence (T, S) or a block of sequences (N, T, S) with
    a mask of the same leading shape."""
    return masked_softmax(score(states, query, params), mask)


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
    kept = record.sentences[:max_sentences]
    if not kept:
        raise DataError(f"record {record.id!r} has no body sentences")
    texts = [[t.text for t in sent[:max_words]] for sent in kept]
    width = max(len(ts) for ts in texts)
    sentences = []
    for ts in texts:
        n = len(ts)
        sentences.append(PaddedSentence(
            tokens=ts + [PAD_TOKEN] * (width - n),
            mask=[True] * n + [False] * (width - n)))
    return PaddedRecord(record=record, sentences=sentences)


# ---------------------------------------------------------------------------
# Hierarchical attention parameters


class HierarchicalAttention:
    """The six scorer parameter sets: two levels by three query types."""

    def __init__(self, name: str, word_hs_dim: int, sent_hs_dim: int,
                 word_dim: int, pattern_dim: int, att_dim: int,
                 params: ParameterList):
        query_dims = {QUERY_PATTERN: pattern_dim, QUERY_PHRASE: word_dim,
                      QUERY_HEADLINE: word_dim}
        self.word = {
            q: AttentionParams(f"{name}.word.{q}", word_hs_dim, query_dims[q],
                               att_dim, params)
            for q in QUERY_TYPES}
        self.sentence = {
            q: AttentionParams(f"{name}.sentence.{q}", sent_hs_dim,
                               query_dims[q], att_dim, params)
            for q in QUERY_TYPES}


# ---------------------------------------------------------------------------
# Document forward


def build_queries(record: DatasetRecord, word_table: WordEmbeddingTable,
                  pattern_table: PatternEmbeddingTable, types: tuple) -> dict:
    """Query vectors of the given types, in their order.

    A record without cardinal features drops the pattern and phrase
    queries, with a warning; a record left with no query type raises
    DataError.
    """
    kept = [q for q in types if record.patterns or q == QUERY_HEADLINE]
    if not kept:
        raise DataError(
            f"record {record.id!r}: every attention query type is disabled "
            "or unavailable")
    if len(kept) < len(types):
        warnings.warn(
            f"record {record.id!r} has no cardinal feature; "
            "falling back to headline-only attention", RuntimeWarning)
    build = {QUERY_PATTERN: lambda: pattern_query(record, pattern_table),
             QUERY_PHRASE: lambda: phrase_query(record, word_table),
             QUERY_HEADLINE: lambda: headline_vector(
                 [t.text for t in record.headline], word_table)}
    return {q: build[q]() for q in kept}


def _attention_level(states: Tensor, mask, queries: dict, params: dict) -> tuple:
    """One attention level: the weights of each query type, their fusion,
    and the fused weighted sum of the states."""
    weights = {q: attend(states, mask, query, params[q])
               for q, query in queries.items()}
    fused = fuse_weights(*weights.values(), mask=mask)
    return weighted_sum(fused, states), weights, fused


def document_forward(padded: PaddedRecord, word_table: WordEmbeddingTable,
                     pattern_table: PatternEmbeddingTable, word_encoder,
                     sentence_encoder, attention: HierarchicalAttention,
                     types: tuple) -> tuple:
    """Word encoding and word-level attention over all sentences as one
    block, fusion, sentence encoding, sentence-level attention, fusion;
    returns (document vector, weights).  ``weights`` maps ``alpha`` and
    ``beta`` to the word and sentence weights of each query type used,
    and ``alpha_fused`` and ``beta_fused`` to their fusions."""
    queries = build_queries(padded.record, word_table, pattern_table, types)
    tokens = [sent.tokens for sent in padded.sentences]
    mask = np.array([sent.mask for sent in padded.sentences])
    states = word_encoder.encode(word_table.lookup(tokens), mask.ravel().tolist())
    sentence_vectors, alpha, alpha_fused = _attention_level(
        states, mask, queries, attention.word)
    sent_mask = [True] * len(padded.sentences)
    sent_states = sentence_encoder.encode(sentence_vectors, sent_mask)
    document, beta, beta_fused = _attention_level(
        sent_states, sent_mask, queries, attention.sentence)
    return document, {"alpha": alpha, "alpha_fused": alpha_fused,
                      "beta": beta, "beta_fused": beta_fused}
