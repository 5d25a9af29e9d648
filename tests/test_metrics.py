"""Metric tests: hand-computed scores, brute-force oracle equivalence,
and evaluation report assembly."""

import dataclasses
import json
import warnings
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from oracles import oracle_macro_f1, oracle_roc_auc, rank_auc
from poshan.embeddings import PatternEmbeddingTable, build_vocab
from poshan.metrics import (
    EVAL_REPORT_SCHEMA,
    EvalReport,
    build_report,
    evaluate_model,
    roc_auc,
)
from poshan.model import PoshanModel
from poshan.text import (
    CONGRUENT,
    INCONGRUENT,
    LABELS,
    DataError,
    RawRecord,
    RuleTagger,
    featurize,
)
from poshan.train import TrainConfig

C, I = CONGRUENT, INCONGRUENT


def macro_f1(predictions, labels):
    """The report's macro F1 for hard predictions, given to build_report
    as one-hot probabilities."""
    records = [SimpleNamespace(id=f"r{i}", label=y) for i, y in enumerate(labels)]
    return build_report(records, [np.eye(2)[LABELS.index(p)] for p in predictions]).macro_f1


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([I, C, I], [I, C, I]) == 1.0

    def test_hand_confusion_example(self):
        got = macro_f1([I, C, C, C], [I, I, C, C])
        # F1 incongruent 2/3, F1 congruent 0.8
        assert got == pytest.approx(0.73333, abs=1e-5)
        assert got == (2.0 / 3.0 + 0.8) / 2.0

    def test_single_class_predictions_on_balanced_set(self):
        labels = [I, I, C, C]
        assert macro_f1([C, C, C, C], labels) == pytest.approx(1.0 / 3.0,
                                                              abs=1e-12)

    def test_absent_class_warns(self):
        with pytest.warns(RuntimeWarning, match="single-class"), \
                pytest.warns(RuntimeWarning, match="incongruent"):
            got = macro_f1([C, C], [C, C])
        assert got == 0.5

    def test_warnings_come_per_absent_class_then_for_auc(self):
        for kind, absent in ((C, I), (I, C)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert macro_f1([kind] * 3, [kind] * 3) == 0.5
            assert [str(w.message) for w in caught] == [
                f"class {absent!r} absent from predictions and labels; its F1 counts as 0",
                "single-class test labels: AUC is undefined"]


class TestRocAuc:
    def test_all_scores_equal(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [I, C, I, C]) == 0.5

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.4, 0.6, 0.2], [I, C, I, C]) == 1.0

    def test_partial_rankings(self):
        scores = [0.9, 0.4, 0.6, 0.2]
        assert roc_auc(scores, [C, C, I, I]) == 0.25
        assert roc_auc(scores, [C, I, I, C]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            roc_auc([0.1, 0.9], [C, C])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1], [C, I])


class TestOracleEquivalence:
    def random_case(self, rng):
        n = int(rng.integers(2, 12))
        labels = [I, C] + [(I if rng.random() < 0.5 else C)
                           for _ in range(n - 2)]
        preds = [(I if rng.random() < 0.5 else C) for _ in range(n)]
        # coarse grid so score ties actually occur
        scores = [float(rng.integers(0, 5)) / 4.0 for _ in range(n)]
        return preds, scores, labels

    def test_macro_f1_matches_oracle_exactly(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            preds, _, labels = self.random_case(rng)
            assert macro_f1(preds, labels) == oracle_macro_f1(preds, labels)

    def test_roc_auc_matches_oracles_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            _, scores, labels = self.random_case(rng)
            got = roc_auc(scores, labels)
            assert got == oracle_roc_auc(scores, labels)
            assert got == rank_auc(scores, labels)

    def test_roc_auc_matches_oracles_exactly_on_a_large_tied_case(self):
        rng = np.random.default_rng(102)
        n = 2400
        labels = [I if rng.random() < 0.3 else C for _ in range(n)]
        # long runs of ties on a coarse grid, both zeros, and distinct scores
        scores = [float(rng.integers(0, 41)) / 40.0 for _ in range(n // 2)]
        scores += [0.0, -0.0] * 100 + list(rng.random(n // 2 - 200))
        assert len(set(scores)) < n - 1000
        got = roc_auc(scores, labels)
        assert got == oracle_roc_auc(scores, labels)
        assert got == rank_auc(scores, labels)


# ---------------------------------------------------------------------------
# Evaluation reports


def tiny_model_and_records():
    raws = [
        RawRecord(id="r0", headline="Loan hits 1 million",
                  body="He won 2 big. Fine.", label=C),
        RawRecord(id="r1", headline="Save 100 now",
                  body="Spend 100 less. Done.", label=I),
        RawRecord(id="r2", headline="Win 7 today",
                  body="Try 7 times. Go.", label=I),
    ]
    records = [featurize(r, RuleTagger()) for r in raws]
    word_table = build_vocab(records, min_count=1, dim=3, seed=0)
    pattern_table = PatternEmbeddingTable.build(records, dim=4, seed=0)
    config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4)
    model = PoshanModel(config, word_table, pattern_table, 0)
    return model, records


# the padding caps of a default TrainConfig
CAPS = dict(max_words=45, max_sentences=35)


class TestEvaluateModel:
    def test_report_invariants(self):
        model, records = tiny_model_and_records()
        report = evaluate_model(model, records, **CAPS)
        assert report.tp + report.fp + report.tn + report.fn == len(records)
        assert 0.0 <= report.macro_f1 <= 1.0
        assert report.auc is None or 0.0 <= report.auc <= 1.0
        assert len(report.predictions) == len(records)
        for p in report.predictions:
            assert p.p_congruent + p.p_incongruent == pytest.approx(1.0,
                                                                    abs=1e-9)

    def test_report_deterministic(self):
        model, records = tiny_model_and_records()
        a = evaluate_model(model, records, **CAPS).to_json()
        b = evaluate_model(model, records, **CAPS).to_json()
        assert a == b

    def test_report_json_schema(self):
        model, records = tiny_model_and_records()
        obj = json.loads(json.dumps(evaluate_model(model, records, **CAPS).to_json()))
        jsonschema.validate(obj, EVAL_REPORT_SCHEMA)

    def test_single_class_labels_drop_auc(self):
        model, records = tiny_model_and_records()
        for rec in records:
            rec.label = C
        with pytest.warns(RuntimeWarning, match="single-class"):
            report = evaluate_model(model, records, **CAPS)
        assert report.auc is None

    def test_empty_records_rejected(self):
        model, _ = tiny_model_and_records()
        with pytest.raises(DataError):
            evaluate_model(model, [], **CAPS)

    @pytest.mark.parametrize("headline, body, empty_sentences", [
        ("Dog bites man", "He ran.", []),
        ("Loan hits 1 million", "", []),
        ("Loan hits 1 million", "He ran.", [[]]),
    ])
    def test_a_record_derive_drops_is_rejected(self, headline, body, empty_sentences):
        model, records = tiny_model_and_records()
        dropped = featurize(RawRecord(id="dropped", headline=headline, body=body, label=C),
                            RuleTagger())
        dropped = dataclasses.replace(dropped, sentences=[*dropped.sentences, *empty_sentences])
        with pytest.raises(DataError, match="evaluation record 'dropped'"):
            evaluate_model(model, [*records, dropped], **CAPS)

    def test_schema_rejects_bad_report(self):
        bad = EvalReport(macro_f1=1.5, auc=None, tp=0, fp=0, tn=0,
                         fn=0).to_json()
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, EVAL_REPORT_SCHEMA)
