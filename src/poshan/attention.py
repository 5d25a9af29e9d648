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
from dataclasses import dataclass, field
from typing import Optional

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
    Parameter,
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
                 rng: np.random.Generator):
        bound = 1.0 / math.sqrt(att_dim)
        self.score_vec = Parameter(f"{prefix}.v",
                                   rng.uniform(-bound, bound, att_dim))
        self.state_proj = Parameter(f"{prefix}.w_h",
                                    rng.uniform(-bound, bound, (att_dim, hs_dim)))
        self.query_proj = Parameter(f"{prefix}.w_q",
                                    rng.uniform(-bound, bound, (att_dim, query_dim)))
        self.bias = Parameter(f"{prefix}.b", np.zeros(att_dim))

    def parameters(self) -> list:
        return [self.score_vec, self.state_proj, self.query_proj, self.bias]


def score(states: Tensor, query: Tensor, params: AttentionParams) -> Tensor:
    """Additive scores v . tanh(W_h s + W_q query + b) of every state row
    s: states (..., T, S) give scores (..., T)."""
    return additive_scores(states, query, params.score_vec.value,
                           params.state_proj.value, params.query_proj.value,
                           params.bias.value)


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
    max_words: Optional[int] = None
    max_sentences: Optional[int] = None


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
    return PaddedRecord(record=record, sentences=sentences,
                        max_words=max_words, max_sentences=max_sentences)


# ---------------------------------------------------------------------------
# Hierarchical attention parameters


class HierarchicalAttention:
    """The six scorer parameter sets: two levels by three query types."""

    def __init__(self, name: str, word_hs_dim: int, sent_hs_dim: int,
                 word_dim: int, pattern_dim: int, att_dim: int,
                 rng: np.random.Generator):
        query_dims = {QUERY_PATTERN: pattern_dim, QUERY_PHRASE: word_dim,
                      QUERY_HEADLINE: word_dim}
        self.word = {
            q: AttentionParams(f"{name}.word.{q}", word_hs_dim, query_dims[q],
                               att_dim, rng)
            for q in QUERY_TYPES}
        self.sentence = {
            q: AttentionParams(f"{name}.sentence.{q}", sent_hs_dim,
                               query_dims[q], att_dim, rng)
            for q in QUERY_TYPES}

    def parameters(self) -> list:
        params = []
        for level in (self.word, self.sentence):
            for q in QUERY_TYPES:
                params.extend(level[q].parameters())
        return params


# ---------------------------------------------------------------------------
# Document forward


@dataclass
class SentenceTrace:
    tokens: list
    mask: list
    alpha: dict
    alpha_fused: np.ndarray


@dataclass
class DocumentTrace:
    record_id: str
    query_types: list
    sentences: list = field(default_factory=list)
    beta: dict = field(default_factory=dict)
    beta_fused: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        def weight(arr, i):
            return None if arr is None else float(arr[i])

        sentences = []
        for st in self.sentences:
            sentences.append([
                {"token": tok,
                 "alpha_pattern": weight(st.alpha.get(QUERY_PATTERN), i),
                 "alpha_phrase": weight(st.alpha.get(QUERY_PHRASE), i),
                 "alpha_headline": weight(st.alpha.get(QUERY_HEADLINE), i),
                 "alpha_fused": float(st.alpha_fused[i])}
                for i, tok in enumerate(st.tokens) if st.mask[i]])
        betas = [
            {"beta_pattern": weight(self.beta.get(QUERY_PATTERN), j),
             "beta_phrase": weight(self.beta.get(QUERY_PHRASE), j),
             "beta_headline": weight(self.beta.get(QUERY_HEADLINE), j),
             "beta_fused": float(self.beta_fused[j])}
            for j in range(len(self.sentences))]
        return {"record_id": self.record_id,
                "query_types": list(self.query_types),
                "sentences": sentences, "betas": betas}


def build_queries(record: DatasetRecord, word_table: WordEmbeddingTable,
                  pattern_table: PatternEmbeddingTable,
                  disable_pattern: bool = False,
                  disable_phrase: bool = False,
                  disable_headline: bool = False) -> dict:
    """Query vectors by type, honoring ablation flags.

    Records without cardinal features degrade to the headline query alone,
    with a warning; at least one query type must remain.
    """
    queries = {}
    has_cardinal = bool(record.patterns)
    if not has_cardinal and not (disable_pattern and disable_phrase):
        warnings.warn(
            f"record {record.id!r} has no cardinal feature; "
            "falling back to headline-only attention", RuntimeWarning)
    if has_cardinal and not disable_pattern:
        queries[QUERY_PATTERN] = pattern_query(record, pattern_table)
    if has_cardinal and not disable_phrase:
        queries[QUERY_PHRASE] = phrase_query(record, word_table)
    if not disable_headline:
        queries[QUERY_HEADLINE] = headline_vector(
            [t.text for t in record.headline], word_table)
    if not queries:
        raise ValueError(
            f"record {record.id!r}: every attention query type is disabled "
            "or unavailable")
    return queries


def document_forward(padded: PaddedRecord, word_table: WordEmbeddingTable,
                     pattern_table: PatternEmbeddingTable, word_encoder,
                     sentence_encoder, attention: HierarchicalAttention,
                     disable_pattern: bool = False, disable_phrase: bool = False,
                     disable_headline: bool = False) -> tuple:
    """Word encoding and word-level attention over all sentences as one
    block, fusion, sentence encoding, sentence-level attention, fusion;
    returns (document vector, trace)."""
    record = padded.record
    queries = build_queries(record, word_table, pattern_table, disable_pattern,
                            disable_phrase, disable_headline)
    types = [q for q in QUERY_TYPES if q in queries]
    trace = DocumentTrace(record_id=record.id, query_types=types)

    tokens = [sent.tokens for sent in padded.sentences]
    mask = np.array([sent.mask for sent in padded.sentences])
    states = word_encoder.encode(word_table.lookup(tokens), mask.ravel().tolist())
    weights = {q: attend(states, mask, queries[q], attention.word[q])
               for q in types}
    fused = fuse_weights(*(weights[q] for q in types), mask=mask)
    sentence_vectors = weighted_sum(fused, states)
    for i, sent in enumerate(padded.sentences):
        trace.sentences.append(SentenceTrace(
            tokens=list(sent.tokens), mask=list(sent.mask),
            alpha={q: weights[q].data[i].copy() for q in types},
            alpha_fused=fused.data[i].copy()))

    sent_mask = [True] * len(padded.sentences)
    sent_states = sentence_encoder.encode(sentence_vectors, sent_mask)
    weights = {q: attend(sent_states, sent_mask, queries[q],
                         attention.sentence[q])
               for q in types}
    fused = fuse_weights(*(weights[q] for q in types), mask=sent_mask)
    document = weighted_sum(fused, sent_states)
    trace.beta = {q: weights[q].data.copy() for q in types}
    trace.beta_fused = fused.data.copy()
    return document, trace
