"""Independent reference computations the test suite checks the package
against: brute-force metric oracles, a straight-line transcription of
the full document forward, and character-loop references for the
tokenizer and the sentence splitter.

Everything here reads parameter data as plain numpy arrays and
recomputes results from first principles, without calling the package's
graph operations or its regular expressions.
"""

import re
import string
from functools import reduce

import numpy as np

from poshan.text import ABBREVIATIONS

CLASSES = ("congruent", "incongruent")
POSITIVE = "incongruent"


def oracle_macro_f1(predictions, labels):
    """Macro F1 from a fully enumerated confusion matrix."""
    matrix = {(y, p): 0 for y in CLASSES for p in CLASSES}
    for p, y in zip(predictions, labels):
        matrix[(y, p)] += 1
    f1s = []
    for c in CLASSES:
        tp = matrix[(c, c)]
        fp = sum(matrix[(y, c)] for y in CLASSES if y != c)
        fn = sum(matrix[(c, p)] for p in CLASSES if p != c)
        f1s.append(0.0 if tp + fp + fn == 0
                   else 2.0 * tp / (2.0 * tp + fp + fn))
    return (f1s[0] + f1s[1]) / 2.0


def oracle_roc_auc(scores, labels):
    """AUC by exhaustive enumeration of positive/negative pairs."""
    wins = 0.0
    pairs = 0
    for i in range(len(scores)):
        if labels[i] != POSITIVE:
            continue
        for j in range(len(scores)):
            if labels[j] == POSITIVE:
                continue
            pairs += 1
            if scores[i] > scores[j]:
                wins += 1.0
            elif scores[i] == scores[j]:
                wins += 0.5
    return wins / pairs


def rank_auc(scores, labels):
    """AUC via the tie-averaged rank statistic; agrees exactly with pair
    counting because all intermediate values are multiples of one half."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: scores[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    pos = [i for i in range(n) if labels[i] == POSITIVE]
    n_pos, n_neg = len(pos), n - len(pos)
    rank_sum = sum(ranks[i] for i in pos)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Straight-line document forward


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _word_row(table, token):
    if token in ("<pad>", "<bos>", "<eos>"):
        return np.zeros(table.matrix.data.shape[1])
    return table.matrix.data[table.vocab.get(token, 1)]


def _lstm_direction(cell, xs):
    h = np.zeros(cell.hidden)
    c = np.zeros(cell.hidden)
    outs = []
    for x in xs:
        i = _sigmoid((cell.w_i.data @ x + cell.b_i.data) + cell.u_i.data @ h)
        f = _sigmoid((cell.w_f.data @ x + cell.b_f.data) + cell.u_f.data @ h)
        o = _sigmoid((cell.w_o.data @ x + cell.b_o.data) + cell.u_o.data @ h)
        g = np.tanh((cell.w_g.data @ x + cell.b_g.data) + cell.u_g.data @ h)
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h)
    return outs


def _gru_direction(cell, xs):
    h = np.zeros(cell.hidden)
    outs = []
    for x in xs:
        z = _sigmoid((cell.w_z.data @ x + cell.b_z.data) + cell.u_z.data @ h)
        r = _sigmoid((cell.w_r.data @ x + cell.b_r.data) + cell.u_r.data @ h)
        n = np.tanh((cell.w_n.data @ x + cell.b_n.data) + cell.u_n.data @ (r * h))
        h = (1.0 - z) * n + z * h
        outs.append(h)
    return outs


def _encode(encoder, xs, mask):
    """Per-position states of one sequence, zero past its real prefix;
    the backward direction reads the real prefix last to first."""
    direction = _gru_direction if encoder.cell_kind == "gru-bi" else _lstm_direction
    real = sum(1 for m in mask if m)
    states = direction(encoder.fwd, xs[:real])
    if encoder.bwd is not None:
        bwd = list(reversed(direction(encoder.bwd, list(reversed(xs[:real])))))
        states = [np.concatenate([f, b]) for f, b in zip(states, bwd)]
    width = states[0].shape[0]
    return states + [np.zeros(width)] * (len(xs) - real)


def _score(params, hs, query):
    inner = ((params.state_proj.data @ hs) + (params.query_proj.data @ query)
             + params.bias.data)
    return params.score_vec.data @ np.tanh(inner)


def _masked_softmax(scores, mask):
    out = np.zeros(len(scores))
    idx = [i for i, m in enumerate(mask) if m]
    top = max(scores[i] for i in idx)
    exps = {i: np.exp(scores[i] - top) for i in idx}
    total = sum(exps[i] for i in idx)
    for i in idx:
        out[i] = exps[i] / total
    return out


def _mean(rows):
    return reduce(np.add, rows) / len(rows)


def straight_line_poshan_forward(model, padded):
    """Document vector recomputed from the model's raw parameter arrays."""
    rec = padded.record
    wt, pt = model.word_table, model.pattern_table

    def pattern_row(p):
        return pt.matrix.data[pt.patterns.get(p.key, 0)]

    def phrase_vec(p):
        return (_word_row(wt, p.prev) + _word_row(wt, p.num)
                + _word_row(wt, p.next))

    pp = _mean([pattern_row(p) for p in rec.patterns])
    cp = _mean([phrase_vec(p) for p in rec.phrases])
    h = reduce(np.add, [_word_row(wt, t.text) for t in rec.headline])
    queries = {"pattern": pp, "phrase": cp, "headline": h}
    types = ("pattern", "phrase", "headline")

    sentence_vectors = []
    for sent in padded.sentences:
        xs = [_word_row(wt, tok) for tok in sent.tokens]
        states = _encode(model.word_encoder, xs, sent.mask)
        scores = {
            q: [(_score(model.attention.word[q], s, queries[q]) if m else 0.0)
                for s, m in zip(states, sent.mask)]
            for q in types}
        alphas = [_masked_softmax(scores[q], sent.mask) for q in types]
        fused = _mean(alphas)
        sentence_vectors.append(
            reduce(np.add, [w * s for w, s in zip(fused, states)]))

    sent_mask = [True] * len(sentence_vectors)
    states = _encode(model.sentence_encoder, sentence_vectors, sent_mask)
    scores = {q: [_score(model.attention.sentence[q], s, queries[q])
                  for s in states]
              for q in types}
    betas = [_masked_softmax(scores[q], sent_mask) for q in types]
    fused = _mean(betas)
    return reduce(np.add, [w * s for w, s in zip(fused, states)])


# ---------------------------------------------------------------------------
# Tokenizer and sentence splitter, one character at a time


_PUNCT = frozenset(string.punctuation)
# digits with optional comma grouping and optional decimal part
_NUMBER_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")


def _is_number(s: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(s))


def _split_chunk(chunk: str) -> list[str]:
    if _is_number(chunk):
        return [chunk]
    leading: list[str] = []
    while chunk and chunk[0] in _PUNCT:
        leading.append(chunk[0])
        chunk = chunk[1:]
        if _is_number(chunk):
            return leading + [chunk]
    trailing: list[str] = []
    while chunk and chunk[-1] in _PUNCT:
        trailing.append(chunk[-1])
        chunk = chunk[:-1]
        if _is_number(chunk):
            break
    parts = leading
    if chunk:
        parts.append(chunk)
    parts.extend(reversed(trailing))
    return parts


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, then peel edge punctuation off each
    chunk one character at a time, keeping numbers whole."""
    tokens: list[str] = []
    for chunk in text.lower().split():
        tokens.extend(_split_chunk(chunk))
    return tokens


_TERMINATORS = ".!?"


def _ends_abbreviation(text: str, i: int) -> bool:
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j:i + 1].lower() in ABBREVIATIONS


def oracle_split_sentences(body: str) -> list[str]:
    """Split after every '.', '!' or '?' followed by whitespace or the end,
    unless the word it ends is an abbreviation; empty pieces are dropped."""
    sentences: list[str] = []
    start = 0
    n = len(body)
    for i, ch in enumerate(body):
        if ch in _TERMINATORS and (i + 1 == n or body[i + 1].isspace()):
            if ch == "." and _ends_abbreviation(body, i):
                continue
            piece = body[start:i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = body[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences
