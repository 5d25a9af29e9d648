"""Baseline model tests: POS category mapping, the concat encoder
baseline, and the category-scaled attention variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poshan.attention import pad_record
from poshan.baselines import (
    OTHER_CATEGORY,
    POS_CATEGORIES,
    LstmConcatModel,
    PosAtModel,
    flatten_record,
    pos_category_index,
)
from poshan.embeddings import build_vocab
from poshan.grad import ShapeError, finite_difference_check
from poshan.text import INCONGRUENT, RawRecord, RuleTagger, featurize
from poshan.train import TrainConfig


def make_record(headline="Loan hits 1 million",
                body="He won 2 big. The rest was small.", label="congruent"):
    return featurize(RawRecord(id="r0", headline=headline, body=body,
                               label=label), RuleTagger())


def make_pair(cls=LstmConcatModel, seed=0):
    rec = make_record()
    table = build_vocab([rec], min_count=1, dim=3, seed=0)
    model = cls(TrainConfig(word_dim=3, hidden_size=2), table, None, seed)
    return model, pad_record(rec, 45, 35)


class TestPosCategoryMap:
    def test_reference_tags(self):
        assert pos_category_index("NN") == 0
        assert pos_category_index("NNPS") == 0
        assert pos_category_index("VBD") == 1
        assert pos_category_index("JJR") == 2
        assert pos_category_index("WP") == 3
        assert pos_category_index("WRB") == 4
        assert pos_category_index("CD") == 5

    def test_unlisted_tags_map_to_other(self):
        for tag in ("DT", "IN", "TO", "MD", ".", "BOS"):
            assert pos_category_index(tag) == OTHER_CATEGORY

    @given(st.text(min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_total_over_arbitrary_tags(self, tag):
        idx = pos_category_index(tag)
        assert 0 <= idx < len(POS_CATEGORIES)


class TestFlattenRecord:
    def test_headline_then_body_order(self):
        rec = make_record(body="A b. C d.")
        tokens = [t.text for t in flatten_record(pad_record(rec, 45, 35))]
        head_len = len(rec.headline)
        assert tokens[:head_len] == [t.text for t in rec.headline]
        assert tokens[head_len:] == ["a", "b", ".", "c", "d", "."]

    def test_truncation_limits(self):
        rec = make_record(body="One two three four five. Six seven.")
        tokens = flatten_record(pad_record(rec, max_words=3, max_sentences=1))
        assert len(tokens) == len(rec.headline) + 3


class TestLstmConcat:
    def test_zero_weights_give_even_split(self):
        model, padded = make_pair()
        for p in model.parameters():
            p.data[...] = 0.0
        assert np.array_equal(model.predict_probs(padded), [0.5, 0.5])

    def test_probs_sum_to_one(self):
        model, padded = make_pair(seed=4)
        probs = model.predict_probs(padded)
        assert probs.shape == (2,)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)

    def test_loss_finite(self):
        model, padded = make_pair(seed=5)
        assert np.isfinite(model.loss(padded).data)

    def test_empty_record_rejected(self):
        model, padded = make_pair()
        padded.record.headline = []
        padded.record.sentences = []
        with pytest.raises(ShapeError):
            model.forward(padded)

    def test_same_seed_same_probs(self):
        m1, p1 = make_pair(seed=8)
        m2, p2 = make_pair(seed=8)
        assert np.array_equal(m1.predict_probs(p1), m2.predict_probs(p2))

    def test_gradients_four_token_toy(self):
        rec = make_record(headline="Won 1", body="Big win")
        table = build_vocab([rec], min_count=1, dim=2, seed=0)
        model = LstmConcatModel(TrainConfig(word_dim=2, hidden_size=2), table, None, 1)
        padded = pad_record(rec, 45, 35)

        report = finite_difference_check(lambda: model.loss(padded),
                                         model.parameters())
        assert report.passed, report.to_tsv()


class TestPosAt:
    def test_near_zero_init_range(self):
        model, _ = make_pair(cls=PosAtModel)
        w, b = model.theta
        assert np.all(w.data >= 0.0) and np.all(w.data <= 0.01)
        assert np.array_equal(b.data, [0.0])

    def test_unit_theta_matches_concat_baseline_bitwise(self):
        lstm, padded = make_pair(seed=11)
        posat, _ = make_pair(cls=PosAtModel, seed=11)
        w, b = posat.theta
        w.data[...] = 0.0
        b.data[...] = 1.0  # every theta = relu(1) = 1
        assert np.array_equal(posat.forward(padded).data,
                              lstm.forward(padded).data)

    def test_zero_cardinal_theta_annihilates_cardinal_embeddings(self):
        posat, padded = make_pair(cls=PosAtModel, seed=12)
        cardinal = POS_CATEGORIES.index("cardinal")
        w, b = posat.theta
        w.data[...] = 0.0
        w.data[0, cardinal] = -1.0
        b.data[...] = 1.0
        before = posat.forward(padded).data.copy()
        # rewriting the embedding rows of cardinal tokens changes nothing
        for tok in ("1", "2", "million"):
            posat.word_table.matrix.data[
                posat.word_table.index(tok)] = 77.0
        after = posat.forward(padded).data
        assert np.array_equal(before, after)

    def test_gradients_four_token_toy(self):
        rec = make_record(headline="Won 1", body="Big win")
        table = build_vocab([rec], min_count=1, dim=2, seed=0)
        model = PosAtModel(TrainConfig(word_dim=2, hidden_size=2), table, None, 2)
        padded = pad_record(rec, 45, 35)

        report = finite_difference_check(lambda: model.loss(padded),
                                         model.parameters())
        assert report.passed, report.to_tsv()
