"""Model assembly tests: classifier head arithmetic, parameter wiring,
variant configurations, and the end-to-end gradient check."""

import itertools
import json

import numpy as np
import pytest

from poshan.attention import (
    QUERY_HEADLINE,
    QUERY_PATTERN,
    QUERY_PHRASE,
    document_forward,
    pad_record,
)
from poshan.embeddings import PatternEmbeddingTable, build_vocab
from poshan.encoder import CELL_GRU_BI, CELL_LSTM_UNI, CELLS
from poshan.grad import (
    Parameter,
    Tensor,
    affine,
    backward,
    constant,
    finite_difference_check,
    no_grad,
    softmax_probs,
)
from poshan.model import Classifier, PoshanModel
from poshan.text import INCONGRUENT, RawRecord, RuleTagger, featurize, replicate_for_training
from poshan.train import MODEL_KINDS, Adam, TrainConfig, build_model, build_tables


def make_records():
    raws = [
        RawRecord(id="r0", headline="Loan hits 1 million",
                  body="He won 2 big. The rest was small.", label="congruent"),
        RawRecord(id="r1", headline="5 ways to save 100 now",
                  body="Save money fast. Spend 100 less. Done.",
                  label=INCONGRUENT),
    ]
    return [featurize(r, RuleTagger()) for r in raws]


def make_model(records=None, seed=0, **settings):
    records = records if records is not None else make_records()
    config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4, **settings)
    word_table = build_vocab(records, min_count=1, dim=3, seed=0)
    pattern_table = PatternEmbeddingTable.build(records, dim=4, seed=0)
    return PoshanModel(config, word_table, pattern_table, seed), records


def make_head(in_dim, seed):
    """A classifier head ``(w, b)``, created as a model creates its own."""
    return Classifier(seed)._create_head(in_dim)


def classify(d, head):
    """Class probabilities of a document vector, as ``predict_probs``
    computes them from the head's logits."""
    return softmax_probs(affine(d, *head))


class TestClassify:
    def test_zero_head_gives_even_split(self):
        head = make_head(3, seed=0)
        head[0].data[...] = 0.0
        probs = classify(constant(np.array([1.0, -2.0, 3.0])), head)
        assert np.array_equal(probs, [0.5, 0.5])

    def test_bias_dominated_probabilities(self):
        head = make_head(2, seed=0)
        w, b = head
        w.data[...] = 0.0
        b.data[...] = [10.0, -10.0]
        probs = classify(constant(np.zeros(2)), head)
        assert probs[0] == pytest.approx(1.0, abs=1e-8)
        assert probs[1] == pytest.approx(2.061e-9, rel=1e-3)

    def test_probabilities_sum_to_one(self):
        head = make_head(4, seed=1)
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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("flags", [f for f in itertools.product((False, True), repeat=3)
                                       if not all(f)])
    def test_parameters_are_listed_in_creation_order(self, kind, cell, flags, monkeypatch):
        # the clip's sum of squares and the gradient check run in this
        # order, and a parameter missing from it is never trained or saved
        records = make_records()
        config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4,
                             cell=cell, disable_pattern_att=flags[0],
                             disable_phrase_att=flags[1], replace_headline_att=flags[2])
        word_table, pattern_table = build_tables(records, config)
        created = []
        init = Parameter.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Parameter, "__init__", recording_init)
        model = build_model(kind, config, word_table, pattern_table)
        tables = [word_table.matrix] + ([pattern_table.matrix] if kind == "poshan" else [])
        assert model.parameters() == tables + created  # the same objects, in order

    def test_head_dimension_matches_sentence_encoder(self):
        model, _ = make_model()
        assert model.head[0].data.shape == (2, model.sentence_encoder.out_dim)

    def test_forward_shapes_and_trace(self):
        model, records = make_model()
        padded = pad_record(records[0], 45, 35)
        logits = model.forward(padded)
        trace = model.attention_trace(padded)
        assert logits.shape == (2,)
        assert trace["query_types"] == [QUERY_PATTERN, QUERY_PHRASE,
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

    def test_every_parameter_is_trained(self):
        model, records = make_model()
        assert Adam(model.parameters(), learning_rate=0.1).params == model.parameters()
        backward(model.loss(pad_record(records[0], 45, 35)))
        assert model.word_table.matrix.grad is not None
        assert model.pattern_table.matrix.grad is not None


class TestVariants:
    def test_headline_encoder_variant_widens_head(self):
        model, records = make_model(replace_headline_att=True)
        expected = model.sentence_encoder.out_dim + model.word_encoder.out_dim
        assert model.head[0].data.shape == (2, expected)
        padded = pad_record(records[0], 45, 35)
        assert model.forward(padded).shape == (2,)
        trace = model.attention_trace(padded)
        assert trace["query_types"] == [QUERY_PATTERN, QUERY_PHRASE]

    def test_pattern_ablation_drops_query_type(self):
        model, records = make_model(disable_pattern_att=True)
        padded = pad_record(records[0], 45, 35)
        trace = model.attention_trace(padded)
        assert trace["query_types"] == [QUERY_PHRASE, QUERY_HEADLINE]

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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("cell", CELLS)
    def test_prediction_equals_the_recorded_forward(self, kind, cell):
        # prediction runs each recurrence without keeping its states for a
        # backward pass; the values must still be the recorded forward's
        records = make_records()
        config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4,
                             cell=cell)
        model = build_model(kind, config, *build_tables(records, config))
        for record in records:
            padded = pad_record(record, 45, 35)
            logits = model.forward(padded)
            assert logits.requires_grad
            assert np.array_equal(model.predict_probs(padded), softmax_probs(logits))

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
        config = TrainConfig()
        model = build_model("poshan", config, *build_tables(records, config))
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
            backward(model.loss(padded))
            assert 0 < count <= 2000


class TestTraceOnRequest:
    def test_loss_prediction_and_validation_build_no_trace(self, monkeypatch):
        from poshan import model as model_module
        from poshan.train import _mean_val_loss

        def refuse(*args, **kwargs):
            raise AssertionError("an attention trace was built")

        monkeypatch.setattr(model_module, "_weights_at", refuse)
        model, records = make_model()
        padded = [pad_record(r, 45, 35) for r in records]
        backward(model.loss(padded[0]))
        model.predict_probs(padded[1])
        _mean_val_loss(model, padded)
        with pytest.raises(AssertionError, match="trace was built"):
            model.attention_trace(padded[0])

    def test_trace_holds_the_document_weights_of_real_tokens(self):
        model, records = make_model(disable_phrase_att=True)
        padded = pad_record(records[0], 45, 35)
        trace = model.attention_trace(padded)
        with no_grad():
            _, weights = document_forward(model, padded)
        alpha, beta = weights["alpha"], weights["beta"]
        assert trace["record_id"] == "r0"
        assert trace["query_types"] == [QUERY_PATTERN, QUERY_HEADLINE]
        assert trace["sentences"] == [
            [{"token": token, "alpha_pattern": alpha[QUERY_PATTERN].data[n, t],
              "alpha_phrase": None, "alpha_headline": alpha[QUERY_HEADLINE].data[n, t],
              "alpha_fused": weights["alpha_fused"].data[n, t]}
             for t, token in enumerate(sent.tokens) if sent.mask[t]]
            for n, sent in enumerate(padded.sentences)]
        assert trace["betas"] == [
            {"beta_pattern": beta[QUERY_PATTERN].data[n], "beta_phrase": None,
             "beta_headline": beta[QUERY_HEADLINE].data[n],
             "beta_fused": weights["beta_fused"].data[n]}
            for n in range(len(padded.sentences))]
        assert json.loads(json.dumps(trace)) == trace


class TestGraphLifetime:
    def test_backward_frees_the_loss_graph_without_the_cycle_collector(self):
        """backward drops each node's closure, which refers to the node, so
        the graph dies with the last reference to the loss even with the
        cycle collector off; a weakref to each node's own array shows it."""
        import gc
        import weakref

        from poshan.grad import _topo_order

        model, records = make_model()
        padded = pad_record(records[0], 45, 35)
        gc.disable()
        try:
            loss = model.loss(padded)
            refs = [weakref.ref(node.data) for node in _topo_order(loss)]
            backward(loss)
            del loss
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert len(refs) > 10
        assert alive == 0
