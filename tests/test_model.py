"""Model assembly tests: classifier head arithmetic, parameter wiring,
variant configurations, and the end-to-end gradient check."""

import numpy as np
import pytest

from poshan.attention import QUERY_HEADLINE, QUERY_PATTERN, QUERY_PHRASE, pad_record
from poshan.embeddings import PatternEmbeddingTable, build_vocab
from poshan.encoder import CELL_GRU_BI, CELL_LSTM_UNI
from poshan.grad import (
    Tensor,
    backward,
    collect_gradients,
    constant,
    finite_difference_check,
    softmax_probs,
)
from poshan.model import ClassifierHead, PoshanModel
from poshan.text import INCONGRUENT, RawRecord, RuleTagger, featurize, replicate_for_training
from poshan.train import Adam


def make_records():
    raws = [
        RawRecord(id="r0", headline="Loan hits 1 million",
                  body="He won 2 big. The rest was small.", label="congruent"),
        RawRecord(id="r1", headline="5 ways to save 100 now",
                  body="Save money fast. Spend 100 less. Done.",
                  label=INCONGRUENT),
    ]
    return [featurize(r, RuleTagger()) for r in raws]


def make_model(records=None, **kwargs):
    records = records if records is not None else make_records()
    kwargs.setdefault("hidden_size", 2)
    kwargs.setdefault("attention_size", 2)
    word_table = build_vocab(records, min_count=1, dim=3, seed=0)
    pattern_table = PatternEmbeddingTable.build(records, dim=4, seed=0)
    return PoshanModel(word_table, pattern_table, **kwargs), records


def classify(d, head):
    """Class probabilities of a document vector, as ``predict_probs``
    computes them from the head's logits."""
    return softmax_probs(head.logits(d))


class TestClassify:
    def test_zero_head_gives_even_split(self):
        head = ClassifierHead("h", in_dim=3, rng=np.random.default_rng(0))
        head.weight.value.data[...] = 0.0
        probs = classify(constant(np.array([1.0, -2.0, 3.0])), head)
        assert np.array_equal(probs, [0.5, 0.5])

    def test_bias_dominated_probabilities(self):
        head = ClassifierHead("h", in_dim=2, rng=np.random.default_rng(0))
        head.weight.value.data[...] = 0.0
        head.bias.value.data[...] = [10.0, -10.0]
        probs = classify(constant(np.zeros(2)), head)
        assert probs[0] == pytest.approx(1.0, abs=1e-8)
        assert probs[1] == pytest.approx(2.061e-9, rel=1e-3)

    def test_probabilities_sum_to_one(self):
        head = ClassifierHead("h", in_dim=4, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = classify(constant(rng.normal(size=4)), head)
            assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0.0)


class TestModelAssembly:
    def test_parameter_names_unique(self):
        model, _ = make_model()
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))
        # 2 tables + 2 encoders x 24 + 6 attention sets x 4 + head w/b
        assert len(names) == 2 + 48 + 24 + 2

    def test_head_dimension_matches_sentence_encoder(self):
        model, _ = make_model()
        assert model.head.weight.data.shape == (2, model.sentence_encoder.out_dim)

    def test_forward_shapes_and_trace(self):
        model, records = make_model()
        padded = pad_record(records[0], 45, 35)
        logits = model.forward(padded)
        trace = model.attention_trace(padded)
        assert logits.shape == (2,)
        assert trace.query_types == [QUERY_PATTERN, QUERY_PHRASE,
                                     QUERY_HEADLINE]

    def test_loss_is_finite_scalar(self):
        model, records = make_model()
        padded = pad_record(records[1], 45, 35)
        loss = model.loss(padded)
        assert loss.shape == ()
        assert np.isfinite(loss.data)
        assert float(loss.data) > 0.0

    def test_predict_probs(self):
        model, records = make_model()
        padded = pad_record(records[0], 45, 35)
        probs = model.predict_probs(padded)
        assert probs.shape == (2,)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)

    def test_predict_deterministic(self):
        model, records = make_model()
        padded = pad_record(records[0], 45, 35)
        assert np.array_equal(model.predict_probs(padded),
                              model.predict_probs(padded))

    def test_trainable_excludes_frozen_table(self):
        model, records = make_model()
        model.word_table.matrix.trainable = False
        model.word_table.matrix.value.requires_grad = False
        trainable = Adam(model.parameters(), learning_rate=0.1).params
        assert model.word_table.matrix not in trainable
        assert model.pattern_table.matrix in trainable
        backward(model.loss(pad_record(records[0], 45, 35)), ())
        grads = collect_gradients(model.parameters())
        assert model.word_table.matrix.name not in grads
        assert model.pattern_table.matrix.name in grads


class TestVariants:
    def test_headline_encoder_variant_widens_head(self):
        model, records = make_model(replace_headline_att=True)
        expected = model.sentence_encoder.out_dim + model.word_encoder.out_dim
        assert model.head.weight.data.shape == (2, expected)
        padded = pad_record(records[0], 45, 35)
        assert model.forward(padded).shape == (2,)
        trace = model.attention_trace(padded)
        assert trace.query_types == [QUERY_PATTERN, QUERY_PHRASE]

    def test_pattern_ablation_drops_query_type(self):
        model, records = make_model(disable_pattern_att=True)
        padded = pad_record(records[0], 45, 35)
        trace = model.attention_trace(padded)
        assert trace.query_types == [QUERY_PHRASE, QUERY_HEADLINE]

    def test_gru_cell_variant(self):
        model, records = make_model(cell=CELL_GRU_BI)
        padded = pad_record(records[0], 45, 35)
        loss = model.loss(padded)
        assert np.isfinite(loss.data)

    def test_unidirectional_variant(self):
        model, records = make_model(cell=CELL_LSTM_UNI)
        assert model.word_encoder.out_dim == 2
        padded = pad_record(records[0], 45, 35)
        loss = model.loss(padded)
        assert np.isfinite(loss.data)

    def test_same_seed_same_init(self):
        m1, _ = make_model(seed=9)
        m2, _ = make_model(seed=9)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.name == p2.name
            assert np.array_equal(p1.data, p2.data)


class TestEndToEndGradients:
    def test_all_parameter_groups(self):
        model, records = make_model()
        units = replicate_for_training(records[0])
        assert len(units) == 2
        for rec in [records[0], *units]:
            padded = pad_record(rec, 45, 35)
            report = finite_difference_check(lambda: model.loss(padded),
                                             model.parameters())
            assert report.passed, report.to_tsv()
            assert len(report.entries) == len(model.parameters())

    def test_headline_encoder_variant_gradients(self):
        model, records = make_model(replace_headline_att=True)
        units = replicate_for_training(records[1])
        assert len(units) == 2
        for rec in [records[1], *units]:
            padded = pad_record(rec, 45, 35)
            report = finite_difference_check(lambda: model.loss(padded),
                                             model.parameters())
            assert report.passed, report.to_tsv()


class TestGraphSize:
    def test_tensor_constructions_per_capped_record(self, monkeypatch):
        """One loss + backward on a record at the 35x45 caps, with the
        default dimensions, builds layer-sized nodes, not one per scalar."""
        from poshan import grad

        words = " ".join(f"w{i}" for i in range(45))
        body = " ".join(f"{words} 3 more." for _ in range(36))
        records = [featurize(RawRecord(id="cap", headline="Loan hits 1 million",
                                       body=body, label="congruent"), RuleTagger())]
        word_table = build_vocab(records, min_count=1, dim=64, seed=0)
        pattern_table = PatternEmbeddingTable.build(records, dim=100, seed=0)
        model = PoshanModel(word_table, pattern_table, hidden_size=16)
        units = replicate_for_training(records[0])
        assert len(units) == 2
        init = grad.Tensor.__init__

        def counted(self, *args, **kwargs):
            nonlocal count
            count += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(grad.Tensor, "__init__", counted)
        for rec in [records[0], *units]:
            padded = pad_record(rec, 45, 35)
            assert len(padded.sentences) == 35
            assert all(len(s.tokens) == 45 for s in padded.sentences)
            count = 0
            backward(model.loss(padded), ())
            assert 0 < count <= 2000
