"""Independent reference computations the test suite checks the package
against: brute-force metric oracles, straight-line transcriptions of
the full document forward and of both baselines, the head and the loss,
character-loop references for the tokenizer and the sentence splitter,
the rule tagger's earlier rule chain, and a per-direction recurrent
kernel.

Everything here but the last reads parameter data as plain numpy arrays
(the attention scorers, the PosAt gate and the head by their checkpoint
names) and
recomputes results from first principles, without calling the
package's graph operations or its regular expressions.  The recurrent
kernel is the earlier one-direction-per-call implementation, kept
verbatim: the joint kernel in :func:`poshan.grad.recurrent` must give
exactly its bits, direction by direction.
"""

import re
import string
from functools import reduce
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from poshan.grad import ShapeError, Tensor, _result, _tracked, accumulate_grad
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


def _logistic(x):
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
        i = _logistic((cell.w_i.data @ x + cell.b_i.data) + cell.u_i.data @ h)
        f = _logistic((cell.w_f.data @ x + cell.b_f.data) + cell.u_f.data @ h)
        o = _logistic((cell.w_o.data @ x + cell.b_o.data) + cell.u_o.data @ h)
        g = np.tanh((cell.w_g.data @ x + cell.b_g.data) + cell.u_g.data @ h)
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h)
    return outs


def _gru_direction(cell, xs):
    h = np.zeros(cell.hidden)
    outs = []
    for x in xs:
        z = _logistic((cell.w_z.data @ x + cell.b_z.data) + cell.u_z.data @ h)
        r = _logistic((cell.w_r.data @ x + cell.b_r.data) + cell.u_r.data @ h)
        n = np.tanh((cell.w_n.data @ x + cell.b_n.data) + cell.u_n.data @ (r * h))
        h = (1.0 - z) * n + z * h
        outs.append(h)
    return outs


# each recurrence's gates, in the order a direction lists their weights
_GATES = {"lstm": "ifog", "gru": "zrn"}


def _cell(encoder, weights):
    """One direction's ``(w, u, b, reverse)`` as named parameters
    ``w_<gate>``, ``u_<gate>`` and ``b_<gate>``, with its ``hidden`` size."""
    named = {f"{kind}_{gate}": p
             for kind, params in zip("wub", weights[:3])
             for gate, p in zip(_GATES[encoder.cell], params, strict=True)}
    return SimpleNamespace(hidden=encoder.hidden, **named)


def _encode(encoder, xs, mask):
    """Per-position states of one sequence, zero past its real prefix;
    the backward direction reads the real prefix last to first."""
    direction = _gru_direction if encoder.cell == "gru" else _lstm_direction
    real = sum(1 for m in mask if m)
    fwd, *bwd = [_cell(encoder, weights) for weights in encoder.directions]
    states = direction(fwd, xs[:real])
    if bwd:
        bwd = list(reversed(direction(bwd[0], list(reversed(xs[:real])))))
        states = [np.concatenate([f, b]) for f, b in zip(states, bwd)]
    width = states[0].shape[0]
    return states + [np.zeros(width)] * (len(xs) - real)


def _final_state(encoder, xs):
    """Summary state of one all-real sequence: the last forward state,
    then the backward state that has read the whole sequence."""
    states = _encode(encoder, xs, [True] * len(xs))
    return np.concatenate([states[-1][:encoder.hidden], states[0][encoder.hidden:]])


def _scorer(named, level, query_type):
    """One scorer's raw arrays, read by their checkpoint names."""
    return SimpleNamespace(**{key: named[f"att.{level}.{query_type}.{key}"]
                              for key in ("v", "w_h", "w_q", "b")})


def _score(params, hs, query):
    inner = ((params.w_h @ hs) + (params.w_q @ query) + params.b)
    return params.v @ np.tanh(inner)


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


QUERY_ORDER = ("pattern", "phrase", "headline")


def straight_line_poshan_forward(model, padded, types=QUERY_ORDER):
    """Document vector recomputed from the model's raw parameter arrays,
    attending with the query ``types`` (a subsequence of QUERY_ORDER)."""
    rec = padded.record
    wt, pt = model.word_table, model.pattern_table
    named = {p.name: p.data for p in model.parameters()}

    def pattern_row(p):
        return pt.matrix.data[pt.patterns.get(p, 0)]

    def phrase_vec(p):
        return (_word_row(wt, p.prev) + _word_row(wt, p.num)
                + _word_row(wt, p.next))

    pp = _mean([pattern_row(p) for p in rec.patterns])
    cp = _mean([phrase_vec(p) for p in rec.phrases])
    h = reduce(np.add, [_word_row(wt, t.text) for t in rec.headline])
    queries = {"pattern": pp, "phrase": cp, "headline": h}

    sentence_vectors = []
    for sent in padded.sentences:
        xs = [_word_row(wt, tok) for tok in sent.tokens]
        states = _encode(model.word_encoder, xs, sent.mask)
        scores = {
            q: [(_score(_scorer(named, "word", q), s, queries[q]) if m else 0.0)
                for s, m in zip(states, sent.mask)]
            for q in types}
        alphas = [_masked_softmax(scores[q], sent.mask) for q in types]
        fused = _mean(alphas)
        sentence_vectors.append(
            reduce(np.add, [w * s for w, s in zip(fused, states)]))

    sent_mask = [True] * len(sentence_vectors)
    states = _encode(model.sentence_encoder, sentence_vectors, sent_mask)
    scores = {q: [_score(_scorer(named, "sentence", q), s, queries[q])
                  for s in states]
              for q in types}
    betas = [_masked_softmax(scores[q], sent_mask) for q in types]
    fused = _mean(betas)
    return reduce(np.add, [w * s for w, s in zip(fused, states)])


def straight_line_poshan_logits(model, padded, types=QUERY_ORDER):
    """Class logits from the raw arrays: without headline attention the
    headline's final word-encoder state follows the document vector."""
    named = {p.name: p.data for p in model.parameters()}
    d = straight_line_poshan_forward(model, padded, types)
    if "headline" not in types:
        xs = [_word_row(model.word_table, t.text) for t in padded.record.headline]
        d = np.concatenate([d, _final_state(model.word_encoder, xs)])
    return named["classifier.w"] @ d + named["classifier.b"]


# the tags of each POS category of the PosAt baseline, in its category
# order; every other tag is the seventh category, "other"
_POS_CATEGORY_TAGS = (
    ("NN", "NNS", "NNP", "NNPS"),               # noun
    ("VB", "VBD", "VBG", "VBN", "VBP", "VBZ"),  # verb
    ("JJ", "JJR", "JJS"),                       # adjective
    ("WP",),                                    # pronoun
    ("WRB",),                                   # adverb
    ("CD",),                                    # cardinal
)


def _pos_category(tag):
    for category, tags in enumerate(_POS_CATEGORY_TAGS):
        if tag in tags:
            return category
    return len(_POS_CATEGORY_TAGS)


def straight_line_baseline_logits(model, record, max_words, max_sentences):
    """``lstm`` or ``posat`` class logits from the raw arrays: the headline
    tokens, then the first ``max_words`` tokens of each of the first
    ``max_sentences`` sentences, as one sequence of word rows; for
    ``posat`` each row scaled by relu(theta_w[category] + theta_b) of its
    tag's category; then the encoder's final state and the head."""
    named = {p.name: p.data for p in model.parameters()}
    tagged = list(record.headline)
    for sent in record.sentences[:max_sentences]:
        tagged.extend(sent[:max_words])
    xs = [_word_row(model.word_table, t.text) for t in tagged]
    if "posat.theta_w" in named:
        w, b = named["posat.theta_w"], named["posat.theta_b"]
        xs = [x * max(0.0, w[0, _pos_category(t.pos)] + b[0]) for x, t in zip(xs, tagged)]
    d = _final_state(model.encoder, xs)
    return named["classifier.w"] @ d + named["classifier.b"]


def oracle_probs_and_loss(logits, label):
    """Class probabilities and the cross-entropy of the ``label`` string."""
    exps = np.exp(logits - max(logits))
    probs = exps / exps.sum()
    return probs, -np.log(probs[CLASSES.index(label)])


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


# ---------------------------------------------------------------------------
# Rule tagger, one rule at a time (the earlier rule chain, kept verbatim)


ORACLE_NUMBER_WORDS = frozenset("""
one two three four five six seven eight nine ten eleven twelve thirteen
fourteen fifteen sixteen seventeen eighteen nineteen twenty thirty forty
fifty sixty seventy eighty ninety hundred thousand million billion
""".split())

ORACLE_WORD_TAGS: dict[str, str] = {}
for _w in ("the", "a", "an", "this", "that", "these", "those"):
    ORACLE_WORD_TAGS[_w] = "DT"
for _w in ("i", "he", "she", "it", "we", "they", "you", "him", "her", "them", "us"):
    ORACLE_WORD_TAGS[_w] = "PRP"
for _w in ("who", "whom", "what"):
    ORACLE_WORD_TAGS[_w] = "WP"
for _w in ("when", "where", "why", "how"):
    ORACLE_WORD_TAGS[_w] = "WRB"
for _w in ("of", "in", "on", "at", "by", "for", "with", "from", "about",
           "into", "over", "after", "before", "against", "between", "during",
           "under", "than", "as"):
    ORACLE_WORD_TAGS[_w] = "IN"
for _w in ("and", "or", "but", "nor"):
    ORACLE_WORD_TAGS[_w] = "CC"
for _w in ("will", "would", "can", "could", "shall", "should", "may",
           "might", "must"):
    ORACLE_WORD_TAGS[_w] = "MD"
for _w in ("not", "n't", "very", "also", "now", "just", "here", "there"):
    ORACLE_WORD_TAGS[_w] = "RB"
ORACLE_WORD_TAGS.update({
    "to": "TO", "is": "VBZ", "was": "VBD", "has": "VBZ", "does": "VBZ",
    "are": "VBP", "were": "VBD", "am": "VBP", "do": "VBP", "have": "VBP",
    "had": "VBD", "did": "VBD", "be": "VB", "been": "VBN", "being": "VBG",
})

ORACLE_SUFFIX_TAGS = (
    ("ing", "VBG", 5),
    ("ed", "VBD", 4),
    ("ly", "RB", 4),
    ("est", "JJS", 5),
    ("ous", "JJ", 5),
    ("ful", "JJ", 5),
    ("ive", "JJ", 5),
    ("ble", "JJ", 5),
    ("ic", "JJ", 5),
    ("tion", "NN", 6),
    ("ment", "NN", 6),
    ("ness", "NN", 6),
    ("ity", "NN", 5),
    ("ship", "NN", 6),
    ("er", "NN", 5),
    ("s", "NNS", 4),
)

ORACLE_PUNCT_TAGS = {".": ".", "!": ".", "?": ".", ",": ",", "$": "$", "#": "#",
                     "(": "(", ")": ")", "'": "''", '"': "''"}


def oracle_tag_token(token: str) -> str:
    """Numbers and number words are CD, then the lexicon, then tokens of
    punctuation only, then the first suffix rule the token is long enough
    for, then NN."""
    if _NUMBER_RE.fullmatch(token) or token in ORACLE_NUMBER_WORDS:
        return "CD"
    if token in ORACLE_WORD_TAGS:
        return ORACLE_WORD_TAGS[token]
    if all(c in _PUNCT for c in token):
        return ORACLE_PUNCT_TAGS.get(token, ":")
    for suffix, tag, min_len in ORACLE_SUFFIX_TAGS:
        if len(token) >= min_len and token.endswith(suffix):
            if suffix == "s" and token.endswith("ss"):
                continue
            return tag
    return "NN"


# ---------------------------------------------------------------------------
# Per-direction recurrent kernel (one direction per call, bit-exact reference)


def _split_rows(a: np.ndarray, parts: int) -> list:
    """``a`` cut into ``parts`` equal blocks along its first axis."""
    size = a.shape[0] // parts
    return [a[k * size:(k + 1) * size] for k in range(parts)]


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # (1 + tanh(z / 2)) / 2: one transcendental call, no overflow in exp
    out = np.tanh(0.5 * z, out=out)
    out *= 0.5
    out += 0.5
    return out


def _lstm_steps(a: np.ndarray, u: list, keep: bool):
    """LSTM recurrence over time-major gate pre-activations ``a`` (T, N, 4H),
    input projection and bias already added; gates in i, f, o, g order.

    Returns the hidden states (T, N, H) and, with ``keep``, a function from
    their gradient to the pre-activation gradient and the ``u`` gradients.
    """
    steps, n, width = a.shape
    hid = width // 4
    rec = np.concatenate(u)
    acts = np.empty_like(a)
    cells = np.empty((steps, n, hid))
    tcs = np.empty((steps, n, hid))
    hs = np.empty((steps, n, hid))
    h = np.zeros((n, hid))
    c = np.zeros((n, hid))
    for t in range(steps):
        z = a[t] + h @ rec.T
        act = acts[t]
        _sigmoid(z[:, :3 * hid], out=act[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=act[:, 3 * hid:])
        c = np.multiply(act[:, hid:2 * hid], c, out=cells[t])
        c += act[:, :hid] * act[:, 3 * hid:]
        h = np.multiply(act[:, 2 * hid:3 * hid], np.tanh(c, out=tcs[t]), out=hs[t])
    if not keep:
        return hs, None

    def back(dhs: np.ndarray):
        i, f, o, g = (acts[..., k * hid:(k + 1) * hid] for k in range(4))
        c_prev = np.concatenate((np.zeros((1, n, hid)), cells[:-1]))
        h_prev = np.concatenate((np.zeros((1, n, hid)), hs[:-1]))
        slope = acts * (1.0 - acts)
        slope[..., 3 * hid:] = 1.0 - g * g
        # d(pre-activation) = (dc, dc, dh, dc) * coef, gate by gate
        coef = np.concatenate((g, c_prev, tcs, i), axis=2) * slope
        o_dtc = o * (1.0 - tcs * tcs)
        da = np.empty_like(acts)
        dh_next = np.zeros((n, hid))
        dc_next = np.zeros((n, hid))
        for t in reversed(range(steps)):
            dh = dhs[t] + dh_next
            dc = dh * o_dtc[t] + dc_next
            np.multiply(np.concatenate((dc, dc, dh, dc), axis=1), coef[t], out=da[t])
            dc_next = dc * f[t]
            dh_next = da[t] @ rec
        du = da.reshape(-1, width).T @ h_prev.reshape(-1, hid)
        return da, _split_rows(du, 4)

    return hs, back


def _gru_steps(a: np.ndarray, u: list, keep: bool):
    """GRU recurrence over time-major pre-activations ``a`` (T, N, 3H) in
    z, r, n order: h = (1 - z) * n + z * h_prev with
    n = tanh(x_n + U_n (r * h_prev)).  Same contract as :func:`_lstm_steps`.
    """
    steps, n, width = a.shape
    hid = width // 3
    u_zr = np.concatenate(u[:2])
    u_n = u[2]
    zr = np.empty((steps, n, 2 * hid))
    cand = np.empty((steps, n, hid))
    rhs = np.empty((steps, n, hid))
    hs = np.empty((steps, n, hid))
    h = np.zeros((n, hid))
    for t in range(steps):
        gates = _sigmoid(a[t, :, :2 * hid] + h @ u_zr.T, out=zr[t])
        z, r = gates[:, :hid], gates[:, hid:]
        rh = np.multiply(r, h, out=rhs[t])
        nt = np.tanh(a[t, :, 2 * hid:] + rh @ u_n.T, out=cand[t])
        h = np.add((1.0 - z) * nt, z * h, out=hs[t])
    if not keep:
        return hs, None

    def back(dhs: np.ndarray):
        z, r = zr[..., :hid], zr[..., hid:]
        h_prev = np.concatenate((np.zeros((1, n, hid)), hs[:-1]))
        dn_coef = (1.0 - z) * (1.0 - cand * cand)
        dz_coef = (h_prev - cand) * z * (1.0 - z)
        dr_coef = h_prev * r * (1.0 - r)
        da = np.empty((steps, n, width))
        dh_next = np.zeros((n, hid))
        for t in reversed(range(steps)):
            dh = dhs[t] + dh_next
            dan = dh * dn_coef[t]
            drh = dan @ u_n
            dzr = da[t, :, :2 * hid]
            np.multiply(dh, dz_coef[t], out=dzr[:, :hid])
            np.multiply(drh, dr_coef[t], out=dzr[:, hid:])
            da[t, :, 2 * hid:] = dan
            dh_next = dh * z[t] + drh * r[t] + dzr @ u_zr
        flat = da.reshape(-1, width)
        du_zr = flat[:, :2 * hid].T @ h_prev.reshape(-1, hid)
        du_n = flat[:, 2 * hid:].T @ rhs.reshape(-1, hid)
        return da, [*_split_rows(du_zr, 2), du_n]

    return hs, back


def _recurrent_layer(op: str, steps_fn, x: Tensor, lengths, w: Sequence[Tensor],
                     u: Sequence[Tensor], b: Sequence[Tensor], reverse: bool) -> Tensor:
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"{op}: input must be (N, T, D) or (T, D), got shape {x.shape}")
    xs = x.data if x.data.ndim == 3 else x.data[None]
    n, steps, dim = xs.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > steps):
        raise ShapeError(f"{op}: lengths {lengths.tolist()} do not fit input shape {x.shape}")
    w_all = np.concatenate([p.data for p in w])
    b_all = np.concatenate([p.data for p in b])
    if w_all.shape[1] != dim:
        raise ShapeError(f"{op}: input weight {w[0].shape} does not conform to input {x.shape}")

    times = np.arange(steps)
    real = times < lengths[:, None]                       # (N, T)
    # pos[n, s] is the position read at step s; an involution per row
    pos = (np.where(real, lengths[:, None] - 1 - times, times) if reverse
           else np.broadcast_to(times, (n, steps)))
    rows = np.arange(n)
    x_steps = xs[rows, pos.T]                             # (T, N, D)
    a = (x_steps.reshape(-1, dim) @ w_all.T + b_all).reshape(steps, n, -1)
    parents = (x, *w, *u, *b)
    hs, steps_back = steps_fn(a, [p.data for p in u], _tracked(parents))
    states = hs[pos, rows[:, None]] * real[..., None]     # (N, T, H)
    out = _result(states if x.data.ndim == 3 else states[0], parents, op)
    if out.requires_grad:
        def back():
            g = out.grad if x.data.ndim == 3 else out.grad[None]
            da, du = steps_back(g[rows, pos.T] * real.T[..., None])
            flat = da.reshape(-1, da.shape[-1])
            for p, gp in zip(w, _split_rows(flat.T @ x_steps.reshape(-1, dim), len(w))):
                accumulate_grad(p, gp)
            for p, gp in zip(b, _split_rows(flat.sum(axis=0), len(b))):
                accumulate_grad(p, gp)
            for p, gp in zip(u, du):
                accumulate_grad(p, gp)
            if x.requires_grad:
                dx = (flat @ w_all).reshape(steps, n, dim)[pos, rows[:, None]]
                accumulate_grad(x, dx.reshape(x.shape))

        out._backward = back
    return out
