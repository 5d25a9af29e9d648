"""Attention tests: scorer arithmetic, masked attention invariants, weight
fusion, padding, and the hierarchical document forward."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poshan.attention import (
    QUERY_HEADLINE,
    QUERY_PATTERN,
    QUERY_PHRASE,
    QUERY_TYPES,
    MaskMismatchError,
    PaddedSentence,
    attend,
    build_queries,
    document_forward,
    fuse_weights,
    pad_record,
    scorer,
)
from poshan.embeddings import PatternEmbeddingTable, build_vocab
from poshan.encoder import CELL_LSTM_BI, SequenceEncoder
from poshan.grad import (
    EmptyAttentionError,
    ParameterList,
    ShapeError,
    Tensor,
    additive_scores,
    constant,
    finite_difference_check,
    gather,
    weighted_sum,
)
from toy_ops import dot
from poshan.model import PoshanModel
from poshan.text import DataError, RawRecord, RuleTagger, featurize, replicate_for_training


def scalar_params():
    p = scorer("t", hs_dim=1, query_dim=1, att_dim=1, params=ParameterList(0))
    v, w_h, w_q, b = p
    v.data[...] = 1.0
    w_h.data[...] = 1.0
    w_q.data[...] = 1.0
    b.data[...] = 0.0
    return p


# ---------------------------------------------------------------------------
# scores


class TestScore:
    def test_zero_score_vec_gives_zero(self):
        p = scorer("t", hs_dim=3, query_dim=2, att_dim=4, params=ParameterList(1))
        p[0].data[...] = 0.0  # the score vector v
        s = additive_scores(constant(np.random.default_rng(2).normal(size=(4, 3))),
                            constant(np.random.default_rng(3).normal(size=2)), *p)
        assert np.array_equal(s.data, np.zeros(4))

    def test_scalar_hand_value(self):
        s = additive_scores(constant(np.array([[0.5]])), constant(np.array([0.5])),
                            *scalar_params())
        assert s.shape == (1,)
        assert s.data[0] == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        p = scorer("t", hs_dim=3, query_dim=2, att_dim=4, params=ParameterList(1))
        with pytest.raises(ShapeError):
            additive_scores(constant(np.zeros((1, 5))), constant(np.zeros(2)), *p)

    def test_gradients(self):
        params = ParameterList(4)
        p = scorer("t", hs_dim=2, query_dim=3, att_dim=2, params=params)
        hs = constant(np.random.default_rng(5).normal(size=(1, 2)))
        q = constant(np.random.default_rng(6).normal(size=3))
        report = finite_difference_check(lambda: gather(additive_scores(hs, q, *p), 0), params)
        assert report.passed, report.to_tsv()


# ---------------------------------------------------------------------------
# attend


class TestAttend:
    def test_identical_states_uniform(self):
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=3, params=ParameterList(7))
        state = np.array([0.4, -0.9])
        states = constant(np.tile(state, (3, 1)))
        weights = attend(states, [True] * 3, constant(np.ones(2)), p)
        w = weights.data
        assert w[0] == w[1] == w[2]
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(weighted_sum(weights, states).data, state,
                                   atol=1e-12)

    def test_zero_score_vec_uniform(self):
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=3, params=ParameterList(8))
        p[0].data[...] = 0.0  # the score vector v
        rng = np.random.default_rng(9)
        states = constant(rng.normal(size=(4, 2)))
        w = attend(states, [True] * 4, constant(np.ones(2)), p).data
        assert np.all(w == w[0])

    def test_two_state_scalar_oracle(self):
        # state 0.5 scores tanh(1), state -0.5 scores tanh(0) = 0
        states = constant(np.array([[0.5], [-0.5]]))
        weights = attend(states, [True, True], constant(np.array([0.5])),
                         scalar_params())
        w0 = 1.0 / (1.0 + math.exp(-math.tanh(1.0)))
        assert weights.data[0] == pytest.approx(w0, abs=1e-12)
        assert weights.data[1] == pytest.approx(1.0 - w0, abs=1e-12)
        expected = w0 * 0.5 + (1.0 - w0) * -0.5
        context = weighted_sum(weights, states)
        assert context.data[0] == pytest.approx(expected, abs=1e-12)

    def test_masked_positions_get_zero_weight(self):
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=2, params=ParameterList(10))
        rng = np.random.default_rng(11)
        states = constant(rng.normal(size=(3, 2)))
        w = attend(states, [True, True, False], constant(np.ones(2)), p).data
        assert w[2] == 0.0
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)

    def test_all_masked_rejected(self):
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=2, params=ParameterList(12))
        with pytest.raises(EmptyAttentionError):
            attend(constant(np.zeros((1, 2))), [False], constant(np.ones(2)), p)

    def test_gradients_through_attend(self):
        params = ParameterList(13)
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=2, params=params)
        rng = np.random.default_rng(14)
        states = constant(rng.normal(size=(3, 2)))
        q = constant(rng.normal(size=2))

        def forward():
            weights = attend(states, [True, True, True], q, p)
            return dot(weighted_sum(weights, states), constant(np.ones(2)))

        report = finite_difference_check(forward, params)
        assert report.passed, report.to_tsv()

    def test_block_rows_match_single_sequences(self):
        p = scorer("t", hs_dim=2, query_dim=2, att_dim=3, params=ParameterList(15))
        rng = np.random.default_rng(16)
        states = rng.normal(size=(3, 4, 2))
        mask = np.array([[True] * 4, [True, False, False, False],
                         [True, True, True, False]])
        states[~mask] = 0.0
        q = constant(rng.normal(size=2))
        block = attend(constant(states), mask, q, p).data
        for n in range(3):
            row = attend(constant(states[n]), mask[n], q, p).data
            np.testing.assert_allclose(block[n], row, rtol=0, atol=1e-15)
        assert np.all(block[~mask] == 0.0)
        context = weighted_sum(constant(block), constant(states))
        assert context.shape == (3, 2)


# ---------------------------------------------------------------------------
# fuse_weights


def tensor(vals):
    return Tensor(np.asarray(vals, dtype=np.float64))


class TestFuseWeights:
    def test_idempotent_on_identical_vectors(self):
        v = tensor([0.25, 0.75])
        fused = fuse_weights(v, tensor([0.25, 0.75]), tensor([0.25, 0.75]),
                             mask=[True, True])
        assert np.array_equal(fused.data, [0.25, 0.75])

    def test_hand_mean(self):
        fused = fuse_weights(tensor([1.0, 0.0]), tensor([0.0, 1.0]),
                             tensor([1.0, 0.0]), mask=[True, True])
        assert np.array_equal(fused.data, [2.0 / 3.0, 1.0 / 3.0])

    def test_single_vector_identity(self):
        v = tensor([0.3, 0.7])
        assert np.array_equal(fuse_weights(v, mask=[True, True]).data,
                              [0.3, 0.7])

    def test_two_vector_mean(self):
        fused = fuse_weights(tensor([1.0, 0.0]), tensor([0.0, 1.0]),
                             mask=[True, True])
        assert np.array_equal(fused.data, [0.5, 0.5])

    def test_simplex_preserved(self):
        fused = fuse_weights(tensor([0.2, 0.8, 0.0]), tensor([0.6, 0.4, 0.0]),
                             tensor([0.5, 0.5, 0.0]),
                             mask=[True, True, False])
        assert float(np.sum(fused.data)) == pytest.approx(1.0, abs=1e-12)
        assert fused.data[2] == 0.0

    def test_mask_mismatch_rejected(self):
        with pytest.raises(MaskMismatchError):
            fuse_weights(tensor([0.5, 0.5]), tensor([1.0, 0.0]),
                         tensor([1.0, 0.0]), mask=[True, False])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fuse_weights(tensor([0.5, 0.5]), tensor([1.0]), tensor([1.0]),
                         mask=[True, False])

    def test_block_of_rows(self):
        mask = [[True, True], [True, False]]
        a = tensor([[0.5, 0.5], [1.0, 0.0]])
        b = tensor([[0.25, 0.75], [1.0, 0.0]])
        fused = fuse_weights(a, b, mask=mask)
        assert np.array_equal(fused.data, [[0.375, 0.625], [1.0, 0.0]])
        with pytest.raises(MaskMismatchError):
            fuse_weights(a, tensor([[0.5, 0.5], [0.5, 0.5]]), mask=mask)
        with pytest.raises(ShapeError):
            fuse_weights(a, mask=[True, True])

    def test_vector_count_bounds(self):
        with pytest.raises(ValueError):
            fuse_weights(mask=[True])
        v = tensor([1.0])
        with pytest.raises(ValueError):
            fuse_weights(v, v, v, v, mask=[True])

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=6),
           st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_permutation_equivariance(self, perm_seed_raw, seed):
        k = len(perm_seed_raw)
        rng = np.random.default_rng(seed)
        vs = []
        for _ in range(3):
            raw = rng.uniform(0.1, 1.0, k)
            vs.append(raw / raw.sum())
        perm = rng.permutation(k)
        fused = fuse_weights(*(tensor(v) for v in vs), mask=[True] * k)
        fused_perm = fuse_weights(*(tensor(v[perm]) for v in vs),
                                  mask=[True] * k)
        assert np.array_equal(fused.data[perm], fused_perm.data)


# ---------------------------------------------------------------------------
# pad_record


def make_record(headline="Loan hits 1 million",
                body="He got 1 million. A big win."):
    return featurize(RawRecord(id="r0", headline=headline, body=body,
                               label="congruent"), RuleTagger())


class TestPadRecord:
    def test_pads_to_longest_sentence(self):
        padded = pad_record(make_record(body="One two three four. No."),
                            max_words=45, max_sentences=35)
        widths = {len(s.tokens) for s in padded.sentences}
        assert widths == {5}
        short = padded.sentences[1]
        assert short.mask == [True, True, False, False, False]
        assert short.tokens[2:] == ["<pad>"] * 3

    def test_truncates_words(self):
        body = " ".join(["word"] * 60) + "."
        padded = pad_record(make_record(body=body), max_words=45,
                            max_sentences=35)
        assert len(padded.sentences[0].tokens) == 45
        assert all(padded.sentences[0].mask)

    def test_truncates_sentences(self):
        body = " ".join(f"Sentence {i} here." for i in range(40))
        padded = pad_record(make_record(body=body), max_words=45,
                            max_sentences=35)
        assert len(padded.sentences) == 35

    def test_empty_body_rejected(self):
        rec = make_record()
        rec.sentences = []
        with pytest.raises(DataError, match="r0"):
            pad_record(rec, 45, 35)


# ---------------------------------------------------------------------------
# document_forward


class Setup:
    def __init__(self, seed=0, word_dim=3, hidden=2, att_dim=2,
                 pattern_dim=4, headline="Loan hits 1 million",
                 body="He won 2 big. No."):
        self.params = ParameterList(seed)
        self.record = make_record(headline=headline, body=body)
        self.word_table = build_vocab([self.record], min_count=1,
                                      dim=word_dim, seed=seed)
        self.pattern_table = PatternEmbeddingTable.build([self.record],
                                                         dim=pattern_dim,
                                                         seed=seed)
        self.word_encoder = SequenceEncoder("word_enc", in_dim=word_dim,
                                            hidden=hidden, cell=CELL_LSTM_BI,
                                            params=self.params)
        self.sentence_encoder = SequenceEncoder("sent_enc", in_dim=2 * hidden,
                                                hidden=hidden, cell=CELL_LSTM_BI,
                                                params=self.params)
        query_dims = {QUERY_PATTERN: pattern_dim, QUERY_PHRASE: word_dim,
                      QUERY_HEADLINE: word_dim}
        self.word_attention, self.sentence_attention = (
            {q: scorer(f"att.{level}.{q}", 2 * hidden, query_dims[q], att_dim, self.params)
             for q in QUERY_TYPES}
            for level in ("word", "sentence"))
        self.query_types = QUERY_TYPES
        self.padded = pad_record(self.record, max_words=45, max_sentences=35)

    def forward(self, types=QUERY_TYPES):
        self.query_types = types
        return document_forward(self, self.padded)


class TestDocumentForward:
    def test_singleton_document_weights_forced_to_one(self):
        s = Setup(body="Won")
        doc, weights = s.forward()
        assert len(s.padded.sentences) == 1
        for q, alpha in weights["alpha"].items():
            assert np.array_equal(alpha.data[0], [1.0])
        assert np.array_equal(weights["alpha_fused"].data[0], [1.0])
        assert np.array_equal(weights["beta_fused"].data, [1.0])
        # D equals the single sentence-level hidden state exactly
        embedded = s.word_table.lookup(s.padded.sentences[0].tokens)
        word_states = s.word_encoder.encode(embedded,
                                            s.padded.sentences[0].mask)
        sent_states = s.sentence_encoder.encode(gather(word_states, [0]), [True])
        assert np.array_equal(doc.data, sent_states.data[0])

    def test_trace_simplex_invariants(self):
        s = Setup()
        _, weights = s.forward()
        assert len(s.padded.sentences) == 2
        for n, sent in enumerate(s.padded.sentences):
            vectors = [w.data[n] for w in weights["alpha"].values()]
            for w in vectors + [weights["alpha_fused"].data[n]]:
                assert np.all(w >= 0.0)
                assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-6)
                for i, m in enumerate(sent.mask):
                    if not m:
                        assert w[i] == 0.0
        for w in [w.data for w in weights["beta"].values()] + [weights["beta_fused"].data]:
            assert np.all(w >= 0.0)
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-6)

    def test_fused_equals_mean_of_components(self):
        s = Setup()
        _, weights = s.forward()
        alpha, beta = weights["alpha"], weights["beta"]
        for n in range(len(s.padded.sentences)):
            stack = np.array([alpha[q].data[n] for q in alpha])
            assert np.array_equal(weights["alpha_fused"].data[n], stack.sum(axis=0) / 3.0)
        stack = np.array([beta[q].data for q in beta])
        assert np.array_equal(weights["beta_fused"].data, stack.sum(axis=0) / 3.0)

    def test_headline_only_ablation_reduces_to_headline_weights(self):
        s = Setup()
        _, weights = s.forward((QUERY_HEADLINE,))
        assert list(weights["alpha"]) == [QUERY_HEADLINE]
        assert np.array_equal(weights["alpha_fused"].data,
                              weights["alpha"][QUERY_HEADLINE].data)
        assert np.array_equal(weights["beta_fused"].data,
                              weights["beta"][QUERY_HEADLINE].data)

    def test_disable_single_type_fuses_remaining_two(self):
        s = Setup()
        _, weights = s.forward((QUERY_PATTERN, QUERY_HEADLINE))
        alpha = weights["alpha"]
        assert list(alpha) == [QUERY_PATTERN, QUERY_HEADLINE]
        for n in range(len(s.padded.sentences)):
            expected = (alpha[QUERY_PATTERN].data[n]
                        + alpha[QUERY_HEADLINE].data[n]) / 2.0
            assert np.array_equal(weights["alpha_fused"].data[n], expected)

    def test_record_without_cardinals_degrades_with_warning(self):
        s = Setup(headline="Dog bites man")
        with pytest.warns(RuntimeWarning, match="no cardinal"):
            _, weights = s.forward()
        assert list(weights["alpha"]) == [QUERY_HEADLINE]

    def test_all_types_disabled_rejected(self):
        s = Setup()
        with pytest.raises(ValueError, match="disabled"):
            s.forward(())

    def test_active_mode_uses_replicated_index(self):
        s = Setup()
        copies = replicate_for_training(s.record)
        tr = []
        for copy in copies:
            padded = pad_record(copy, 45, 35)
            doc, _ = document_forward(s, padded)
            tr.append(doc.data.copy())
        # the two cardinal copies condition on different patterns/phrases
        assert not np.array_equal(tr[0], tr[1])

    def test_deterministic(self):
        a = Setup(seed=3).forward()[0].data
        b = Setup(seed=3).forward()[0].data
        assert np.array_equal(a, b)

    def test_trace_json_export(self):
        s = Setup()
        model = PoshanModel(s.word_table, s.pattern_table, hidden_size=2, attention_size=2,
                            cell=CELL_LSTM_BI, disable_pattern_att=False,
                            disable_phrase_att=True, replace_headline_att=False, seed=0)
        obj = model.attention_trace(s.padded)
        assert obj["record_id"] == "r0"
        assert obj["query_types"] == [QUERY_PATTERN, QUERY_HEADLINE]
        first_sentence = obj["sentences"][0]
        # padded positions are omitted; real tokens carry all four weights
        assert len(first_sentence) == sum(s.padded.sentences[0].mask)
        entry = first_sentence[0]
        assert set(entry) == {"token", "alpha_pattern", "alpha_phrase",
                              "alpha_headline", "alpha_fused"}
        assert entry["alpha_phrase"] is None
        assert isinstance(entry["alpha_fused"], float)
        assert len(obj["betas"]) == len(s.padded.sentences)

    def test_gradients_attention_and_tables(self):
        s = Setup(word_dim=2, hidden=2, att_dim=2, pattern_dim=3,
                  body="He won 2. No.")
        params = ([p for p in s.params if p.name.startswith("att.")]
                  + [s.word_table.matrix, s.pattern_table.matrix])

        def forward():
            doc, _ = s.forward()
            return dot(doc, constant(np.ones(4)))

        report = finite_difference_check(forward, params)
        assert report.passed, report.to_tsv()


class TestBuildQueries:
    def test_all_three_types_present(self):
        s = Setup()
        queries = build_queries(s.record, s.word_table, s.pattern_table,
                                QUERY_TYPES)
        assert set(queries) == {QUERY_PATTERN, QUERY_PHRASE, QUERY_HEADLINE}
        assert queries[QUERY_PATTERN].shape == (4,)
        assert queries[QUERY_PHRASE].shape == (3,)
        assert queries[QUERY_HEADLINE].shape == (3,)

    def test_headline_query_is_token_sum(self):
        s = Setup()
        queries = build_queries(s.record, s.word_table, s.pattern_table,
                                QUERY_TYPES)
        table = s.word_table
        rows = [table.matrix.data[table.index(t.text)] for t in s.record.headline]
        expected = rows[0].copy()
        for row in rows[1:]:
            expected += row
        assert np.array_equal(queries[QUERY_HEADLINE].data, expected)

    def test_ablated_cardinal_record_no_warning(self):
        s = Setup(headline="Dog bites man")
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            queries = build_queries(s.record, s.word_table, s.pattern_table,
                                    (QUERY_HEADLINE,))
        assert set(queries) == {QUERY_HEADLINE}
