"""Embedding table and query vector tests."""

import numpy as np
import pytest

from poshan.embeddings import (
    MODE_PRELOADED_FROZEN,
    MODE_RANDOM_TRAINABLE,
    PatternEmbeddingTable,
    WordEmbeddingTable,
    build_vocab,
    export_pattern_embeddings,
    export_pattern_majority,
    headline_vector,
    pattern_label_counts,
    pattern_query,
    phrase_query,
)
from poshan.grad import Parameter, backward, zero_gradients
from poshan.grad import constant as gconst
from poshan.text import (
    BOS_TOKEN,
    CONGRUENT,
    EOS_TOKEN,
    INCONGRUENT,
    RESERVED_TOKENS,
    CardinalPhrase,
    DataError,
    DatasetRecord,
    TaggedToken,
    replicate_for_training,
)
from toy_ops import dot

PAD_ROW, UNK_ROW = WordEmbeddingTable.PAD_ROW, WordEmbeddingTable.UNK_ROW


def word_table(rows: dict, dim: int) -> WordEmbeddingTable:
    vocab = {t: i + 2 for i, t in enumerate(rows)}
    m = np.zeros((len(rows) + 2, dim))
    for i, v in enumerate(rows.values()):
        m[i + 2] = v
    m[UNK_ROW] = 9.0
    return WordEmbeddingTable(vocab, Parameter("word_embeddings", m),
                              MODE_RANDOM_TRAINABLE)


def pattern_table(rows: dict, dim: int) -> PatternEmbeddingTable:
    patterns = {k: i + 1 for i, k in enumerate(rows)}
    m = np.zeros((len(rows) + 1, dim))
    for i, v in enumerate(rows.values()):
        m[i + 1] = v
    m[0] = -1.0
    return PatternEmbeddingTable(patterns, Parameter("pattern_embeddings", m))


def record_with_patterns(keys):
    return DatasetRecord(id="r0", headline=[], sentences=[], label=CONGRUENT,
                         patterns=list(keys), phrases=[])


def headline_record(rid, tokens, label=CONGRUENT):
    tagged = [TaggedToken(text=t, pos="NN") for t in tokens]
    return DatasetRecord(id=rid, headline=tagged, sentences=[], label=label,
                         patterns=[], phrases=[])


# ---------------------------------------------------------------------------
# build_vocab


class TestBuildVocab:
    def test_min_count_filters(self):
        table = build_vocab([headline_record("r0", ["a", "a", "b"])],
                            min_count=2, dim=4, seed=0)
        assert set(table.vocab) == {"a"}
        assert table.matrix.data.shape[0] == 3
        assert table.index("b") == UNK_ROW

    def test_sorted_token_order(self):
        table = build_vocab([headline_record("r0", ["c", "a", "b"])],
                            min_count=1, dim=4, seed=0)
        assert table.vocab == {"a": 2, "b": 3, "c": 4}

    def test_counts_include_body_sentences(self):
        rec = headline_record("r0", ["a"])
        rec.sentences = [[TaggedToken("b", "NN")], [TaggedToken("b", "NN")]]
        table = build_vocab([rec], min_count=2, dim=4, seed=0)
        assert set(table.vocab) == {"b"}

    def test_same_seed_same_matrix(self):
        recs = [headline_record("r0", ["a", "b", "c"])]
        t1 = build_vocab(recs, min_count=1, dim=8, seed=5)
        t2 = build_vocab(recs, min_count=1, dim=8, seed=5)
        assert np.array_equal(t1.matrix.data, t2.matrix.data)

    def test_pad_row_zero_and_rows_in_range(self):
        table = build_vocab([headline_record("r0", ["a", "b"])],
                            min_count=1, dim=16, seed=1)
        assert np.array_equal(table.matrix.data[PAD_ROW], np.zeros(16))
        assert np.all(np.abs(table.matrix.data[1:]) <= 0.05)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], min_count=1, dim=4, seed=0)

    def test_bad_min_count_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([headline_record("r0", ["a"])], min_count=0)

    def test_mode_and_trainable(self):
        table = build_vocab([headline_record("r0", ["a"])], min_count=1)
        assert table.mode == MODE_RANDOM_TRAINABLE
        assert table.matrix.requires_grad


def test_create_without_seed_holds_a_placeholder_and_frozen_mode_is_not_trained():
    word = WordEmbeddingTable.create({"b": 2, "a": 3}, 4, None, MODE_PRELOADED_FROZEN)
    pattern = PatternEmbeddingTable.create({"NN:CD:NN": 1}, 5, None)
    assert word.matrix.shape == (4, 4) and pattern.matrix.shape == (2, 5)
    for table in (word, pattern):
        assert np.isnan(table.matrix.data).all() and not table.matrix.data.flags.writeable
        assert table.matrix.active.shape == (len(table.matrix.data),)
    assert not word.matrix.requires_grad and pattern.matrix.requires_grad


# ---------------------------------------------------------------------------
# Lookup semantics


class TestLookup:
    def test_sentinels_resolve_to_zero_row(self):
        table = word_table({"a": [1, 1]}, dim=2)
        assert RESERVED_TOKENS == {BOS_TOKEN, EOS_TOKEN, "<pad>"}
        for tok in RESERVED_TOKENS:
            assert table.index(tok) == PAD_ROW
            vec = table.lookup(tok)
            assert np.array_equal(vec.data, [0.0, 0.0])
            assert not vec.requires_grad

    def test_unknown_token_uses_unk_row(self):
        table = word_table({"a": [1, 1]}, dim=2)
        assert np.array_equal(table.lookup("zzz").data, [9.0, 9.0])

    def test_known_token_row(self):
        table = word_table({"a": [1, 2], "b": [3, 4]}, dim=2)
        assert np.array_equal(table.lookup("b").data, [3.0, 4.0])


# ---------------------------------------------------------------------------
# Query vectors


class TestHeadlineVector:
    def test_single_token_identity(self):
        table = word_table({"a": [1.5, -2.0]}, dim=2)
        assert np.array_equal(headline_vector(["a"], table).data, [1.5, -2.0])

    def test_hand_sum(self):
        table = word_table({"a": [1, 0], "b": [0, 2]}, dim=2)
        assert np.array_equal(headline_vector(["a", "b"], table).data, [1.0, 2.0])

    def test_permutation_invariant(self):
        table = word_table({"a": [1, 2], "b": [3, 4], "c": [5, 6]}, dim=2)
        v1 = headline_vector(["a", "b", "c"], table)
        v2 = headline_vector(["c", "a", "b"], table)
        assert np.array_equal(v1.data, v2.data)

    def test_unknown_tokens_contribute_unk(self):
        table = word_table({"a": [1, 1]}, dim=2)
        assert np.array_equal(headline_vector(["zzz"], table).data, [9.0, 9.0])

    def test_pad_gradient_stays_zero(self):
        table = word_table({"a": [1, 1], "b": [2, 2]}, dim=2)
        loss = dot(headline_vector(["a", BOS_TOKEN, "b"], table),
                   gconst(np.ones(2)))
        backward(loss)
        grad = table.matrix.grad
        assert np.array_equal(grad[PAD_ROW], [0.0, 0.0])
        assert np.array_equal(grad[table.index("a")], [1.0, 1.0])
        zero_gradients([table.matrix])


def phrase_vector(phrase, table):
    """The phrase query of a record whose one cardinal has ``phrase``."""
    rec = DatasetRecord(id="r0", headline=[], sentences=[], label=CONGRUENT,
                        patterns=["NN:CD:NN"],
                        phrases=[phrase])
    return phrase_query(rec, table)


class TestCardinalPhraseVector:
    def test_sentinel_contributes_zero(self):
        table = word_table({"five": [1, 2], "ways": [10, 20]}, dim=2)
        phrase = CardinalPhrase(prev=BOS_TOKEN, num="five", next="ways")
        assert np.array_equal(phrase_vector(phrase, table).data,
                              [11.0, 22.0])

    def test_sum_of_three_rows(self):
        table = word_table({"loan": [1, 0], "1": [0, 1], "million": [2, 2]}, dim=2)
        phrase = CardinalPhrase(prev="loan", num="1", next="million")
        assert np.array_equal(phrase_vector(phrase, table).data,
                              [3.0, 3.0])

    def test_trailing_sentinel(self):
        table = word_table({"1": [4, 4], "million": [1, 1]}, dim=2)
        phrase = CardinalPhrase(prev="1", num="million", next=EOS_TOKEN)
        assert np.array_equal(phrase_vector(phrase, table).data,
                              [5.0, 5.0])


class TestPatternQuery:
    def test_single_pattern_modes_agree(self):
        table = pattern_table({"NN:CD:CD": [7.0, 8.0]}, dim=2)
        rec = record_with_patterns(["NN:CD:CD"])
        (unit,) = replicate_for_training(rec)
        assert np.array_equal(pattern_query(unit, table).data, [7.0, 8.0])
        assert np.array_equal(pattern_query(rec, table).data, [7.0, 8.0])

    def test_meanpool_hand_mean(self):
        table = pattern_table({"NN:CD:CD": [2.0, 4.0], "CD:CD:EOS": [0.0, 0.0]},
                              dim=2)
        rec = record_with_patterns(["NN:CD:CD", "CD:CD:EOS"])
        got = pattern_query(rec, table)
        assert np.array_equal(got.data, [1.0, 2.0])

    def test_active_picks_indexed_pattern(self):
        table = pattern_table({"NN:CD:CD": [1.0], "CD:CD:EOS": [2.0]}, dim=1)
        units = replicate_for_training(record_with_patterns(["NN:CD:CD", "CD:CD:EOS"]))
        assert [pattern_query(u, table).data[0] for u in units] == [1.0, 2.0]

    def test_meanpool_of_identical_patterns_is_that_embedding(self):
        table = pattern_table({"NN:CD:CD": [0.3, -0.7, 0.1]}, dim=3)
        rec = record_with_patterns(["NN:CD:CD"] * 3)
        got = pattern_query(rec, table)
        np.testing.assert_array_almost_equal_nulp(got.data,
                                                  np.array([0.3, -0.7, 0.1]),
                                                  nulp=2)

    def test_unseen_pattern_uses_unk_row(self):
        table = pattern_table({"NN:CD:CD": [5.0]}, dim=1)
        rec = record_with_patterns(["JJ:CD:VB"])
        assert pattern_query(rec, table).data[0] == -1.0

    def test_gradients_touch_only_queried_rows(self):
        table = pattern_table({"NN:CD:CD": [1.0, 1.0], "CD:CD:EOS": [2.0, 2.0],
                               "JJ:CD:NN": [3.0, 3.0]}, dim=2)
        rec = record_with_patterns(["NN:CD:CD", "CD:CD:EOS"])
        loss = dot(pattern_query(rec, table), gconst(np.ones(2)))
        backward(loss)
        grad = table.matrix.grad
        assert np.all(grad[table.index("NN:CD:CD")] != 0.0)
        assert np.all(grad[table.index("CD:CD:EOS")] != 0.0)
        assert np.array_equal(grad[table.index("JJ:CD:NN")], [0.0, 0.0])
        assert np.array_equal(grad[0], [0.0, 0.0])
        zero_gradients([table.matrix])


class TestPatternTableBuild:
    def test_collects_sorted_unique_keys(self):
        recs = [record_with_patterns(["NN:CD:CD", "CD:CD:EOS"]),
                record_with_patterns(["NN:CD:CD"])]
        table = PatternEmbeddingTable.build(recs, dim=10, seed=0)
        assert table.patterns == {"CD:CD:EOS": 1, "NN:CD:CD": 2}
        assert table.matrix.data.shape[0] == 3
        assert table.dim == 10
        assert np.all(np.abs(table.matrix.data) <= 0.05)

    def test_same_seed_same_matrix(self):
        recs = [record_with_patterns(["NN:CD:CD"])]
        t1 = PatternEmbeddingTable.build(recs, dim=6, seed=3)
        t2 = PatternEmbeddingTable.build(recs, dim=6, seed=3)
        assert np.array_equal(t1.matrix.data, t2.matrix.data)


# ---------------------------------------------------------------------------
# Exports


class TestExports:
    def test_pattern_embedding_tsv(self, tmp_path):
        table = pattern_table({"NN:CD:CD": [0.25, -0.5]}, dim=2)
        out = tmp_path / "patterns.tsv"
        export_pattern_embeddings(table.patterns, table.matrix.data, out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "<unk>"
        parsed = lines[1].split("\t")
        assert parsed[0] == "NN:CD:CD"
        assert [float(x) for x in parsed[1:]] == [0.25, -0.5]

    def test_pattern_label_counts(self):
        recs = [record_with_patterns(["NN:CD:CD", "CD:CD:EOS"]),
                record_with_patterns(["NN:CD:CD"])]
        recs[1].label = INCONGRUENT
        counts = pattern_label_counts(recs)
        assert counts == {"NN:CD:CD": [1, 1], "CD:CD:EOS": [1, 0]}

    def test_majority_export(self, tmp_path):
        out = tmp_path / "majority.tsv"
        export_pattern_majority({"A:CD:B": [1, 3], "C:CD:D": [2, 2]}, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "pattern\tmajority_label\tcongruent\tincongruent"
        assert lines[1] == f"A:CD:B\t{INCONGRUENT}\t1\t3"
        # ties resolve to congruent
        assert lines[2] == f"C:CD:D\t{CONGRUENT}\t2\t2"
