"""Tests for configuration, batching, optimization, the training loop,
and checkpoint round-trips."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poshan.attention import pad_record
from poshan.baselines import LstmConcatModel, PosAtModel
from poshan.embeddings import MODE_PRELOADED_FROZEN, MODE_PRELOADED_TRAINABLE
from poshan.grad import NonFiniteError, Parameter, constant
from poshan.model import PoshanModel
from poshan import train as train_module
from poshan.text import DataError, RawRecord, RuleTagger, featurize
from poshan.train import (
    Adam,
    Checkpoint,
    MODEL_KINDS,
    MODEL_LSTM,
    MODEL_POSAT,
    MODEL_POSHAN,
    TrainConfig,
    build_model,
    build_tables,
    clip_global_norm,
    load_checkpoint,
    make_batches,
    model_from_checkpoint,
    parse_config,
    predict,
    save_checkpoint,
    stratified_split,
    train,
)

_TAGGER = RuleTagger()


def make_record(ident, label, headline, body):
    return featurize(RawRecord(id=ident, headline=headline, body=body, label=label), _TAGGER)


def toy_corpus(n=24, seed=7):
    """Records where the label is whether the headline number matches the body."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        value = int(rng.integers(1, 9))
        if i % 2 == 0:
            records.append(make_record(
                f"r{i}", "congruent", f"Team wins {value} games",
                f"The team won {value} games. Fans cheered loudly."))
        else:
            records.append(make_record(
                f"r{i}", "incongruent", f"Team wins {value} games",
                f"The team won {value + 10} games. Critics were not happy."))
    return records


def tiny_config(**overrides):
    base = dict(learning_rate=0.05, batch_size=8, max_epochs=4, word_dim=6,
                hidden_size=3, pattern_dim=4, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# TrainConfig


def test_default_hyperparameters():
    config = TrainConfig()
    assert config.learning_rate == 0.003
    assert config.batch_size == 128
    assert config.grad_clip == 6.0
    assert config.max_epochs == 50
    assert config.early_stop_patience == 5
    assert config.max_words_per_sentence == 45
    assert config.max_sentences == 35
    assert config.pattern_dim == 100


def test_default_config_is_valid():
    TrainConfig().validate()


@pytest.mark.parametrize("overrides,fragment", [
    (dict(learning_rate=0.0), "learning-rate"),
    (dict(grad_clip=-1.0), "grad-clip"),
    (dict(batch_size=0), "batch-size"),
    (dict(max_epochs=0), "max-epochs"),
    (dict(attention_size=0), "attention-size"),
    (dict(cell="transformer"), "cell"),
])
def test_config_validation_errors(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        TrainConfig(**overrides).validate()


def test_config_round_trip(tmp_path):
    config = TrainConfig(learning_rate=0.01, batch_size=16, attention_size=7,
                         disable_phrase_att=True, cell="gru-bi", seed=9)
    path = tmp_path / "run.cfg"
    path.write_text("learning-rate=0.01\nbatch-size=16\nattention-size=7\n"
                    "disable-phrase-att=true\ncell=gru-bi\nseed=9\n")
    assert parse_config(path) == config


def test_config_file_uses_kebab_case_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning-rate=0.003\nbatch-size=128\ngrad-clip=6.0\n"
                    "early-stop-patience=5\nmax-words-per-sentence=45\n")
    assert parse_config(path) == TrainConfig()
    path.write_text("learning_rate=0.003\n")
    with pytest.raises(DataError, match="unknown key 'learning_rate'"):
        parse_config(path)


def test_config_file_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nlearning-rate=0.5\nbatch-size=4\n")
    config = parse_config(path)
    assert config.learning_rate == 0.5
    assert config.batch_size == 4
    assert config.max_epochs == 50


def test_config_file_none_attention_size(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("attention-size=none\n")
    assert parse_config(path).attention_size is None
    path.write_text("attention-size=12\n")
    assert parse_config(path).attention_size == 12


def test_config_file_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch-size=4\nmomentum=0.9\n")
    with pytest.raises(DataError, match="line 2.*momentum"):
        parse_config(path)


def test_config_file_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch-size=soon\n")
    with pytest.raises(DataError, match="line 1"):
        parse_config(path)


def test_config_file_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch-size 4\n")
    with pytest.raises(DataError, match="key=value"):
        parse_config(path)


def test_config_file_parses_booleans(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("disable-pattern-att=true\nreplace-headline-att=false\n")
    config = parse_config(path)
    assert config.disable_pattern_att is True
    assert config.replace_headline_att is False
    path.write_text("disable-pattern-att=1\n")
    with pytest.raises(DataError, match="line 1"):
        parse_config(path)


# ---------------------------------------------------------------------------
# Gradient clipping


def test_clip_scales_to_threshold():
    grads = {"a": np.array([8.0]), "b": np.array([6.0])}
    clipped = clip_global_norm(grads, 6.0)
    assert clipped["a"] == pytest.approx([4.8])
    assert clipped["b"] == pytest.approx([3.6])


def test_clip_no_op_below_threshold():
    grads = {"a": np.array([[1.0, 2.0]]), "b": np.array([2.0])}
    clipped = clip_global_norm(grads, 100.0)
    for name in grads:
        np.testing.assert_array_equal(clipped[name], grads[name])
        assert clipped[name] is not grads[name]


def test_clip_zero_gradients():
    clipped = clip_global_norm({"a": np.zeros((2, 2))}, 6.0)
    np.testing.assert_array_equal(clipped["a"], np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_rejects_non_finite_norm(bad):
    grads = {"a": np.ones(2), "b": np.array([1.0, bad])}
    with pytest.raises(NonFiniteError, match="'b'"):
        clip_global_norm(grads, 6.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=5),
                min_size=1, max_size=4),
       st.floats(min_value=1e-3, max_value=50.0))
def test_clip_norm_bounded_and_direction_kept(rows, threshold):
    grads = {f"g{i}": np.array(row) for i, row in enumerate(rows)}
    clipped = clip_global_norm(grads, threshold)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert norm <= threshold + 1e-9
    original = math.sqrt(sum(float(np.sum(np.array(r) ** 2)) for r in rows))
    if original > 0:
        scale = min(1.0, threshold / original)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(clipped[f"g{i}"], np.array(row) * scale, rtol=1e-12)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_matches_hand_formula():
    p = Parameter("w", np.array([1.0]))
    opt = Adam([p], learning_rate=0.1)
    g = np.array([0.5])
    opt.step({"w": g})
    m_hat = 0.05 / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert p.data[0] == pytest.approx(expected, rel=0, abs=1e-15)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(0)
    p = Parameter("w", rng.standard_normal(4))
    reference = p.data.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    opt = Adam([p], learning_rate=0.01)
    for t in range(1, 6):
        g = rng.standard_normal(4)
        opt.step({"w": g.copy()})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        reference -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p.data, reference, rtol=1e-12)


def test_adam_skips_frozen_and_missing():
    frozen = Parameter("f", np.array([1.0]), trainable=False)
    loose = Parameter("w", np.array([1.0]))
    opt = Adam([frozen, loose], learning_rate=0.1)
    opt.step({"f": np.array([5.0])})
    assert frozen.data[0] == 1.0
    assert loose.data[0] == 1.0


# ---------------------------------------------------------------------------
# Batching


def padded_units(records):
    return [pad_record(r, max_words=45, max_sentences=35) for r in records]


def test_make_batches_300_records():
    units = padded_units(toy_corpus(6)) * 50
    batches = make_batches(units, TrainConfig().batch_size, seed=None)
    assert [len(b) for b in batches] == [128, 128, 44]


def test_make_batches_preserves_order_without_seed():
    units = padded_units(toy_corpus(10))
    batches = make_batches(units, 4, seed=None)
    assert [p for b in batches for p in b] == units


def test_make_batches_shuffle_is_seeded_permutation():
    records = toy_corpus(20)
    units = padded_units(records)
    first = [p.record.id for b in make_batches(units, 6, seed=5) for p in b]
    second = [p.record.id for b in make_batches(units, 6, seed=5) for p in b]
    other = [p.record.id for b in make_batches(units, 6, seed=6) for p in b]
    assert first == second
    assert sorted(first) == sorted(r.id for r in records)
    assert first != other


# ---------------------------------------------------------------------------
# Model construction


def test_build_model_kinds():
    records = toy_corpus(8)
    config = tiny_config()
    word_table, pattern_table = build_tables(records, config)
    assert isinstance(build_model(MODEL_POSHAN, config, word_table, pattern_table), PoshanModel)
    assert isinstance(build_model(MODEL_LSTM, config, word_table), LstmConcatModel)
    assert isinstance(build_model(MODEL_POSAT, config, word_table), PosAtModel)


def test_build_model_poshan_needs_pattern_table():
    records = toy_corpus(8)
    config = tiny_config()
    word_table, _ = build_tables(records, config)
    with pytest.raises(ValueError, match="pattern table"):
        build_model(MODEL_POSHAN, config, word_table, None)


def test_build_model_unknown_kind():
    records = toy_corpus(8)
    config = tiny_config()
    word_table, pattern_table = build_tables(records, config)
    with pytest.raises(ValueError, match="bert"):
        build_model("bert", config, word_table, pattern_table)


# ---------------------------------------------------------------------------
# Splitting


def test_stratified_split_sizes_per_label():
    records = toy_corpus(40)
    train_set, val_set, test_set = stratified_split(records, seed=3)
    # 20 records per label: 14 train, 2 val, 4 test each.
    for split, expected in ((train_set, 28), (val_set, 4), (test_set, 8)):
        assert len(split) == expected
        labels = [r.label for r in split]
        assert labels.count("congruent") == labels.count("incongruent")
    all_ids = sorted(r.id for r in records)
    split_ids = sorted(r.id for s in (train_set, val_set, test_set) for r in s)
    assert split_ids == all_ids


def test_stratified_split_ignores_input_order():
    records = toy_corpus(30)
    shuffled = list(reversed(records))
    a = stratified_split(records, seed=11)
    b = stratified_split(shuffled, seed=11)
    for left, right in zip(a, b):
        assert {r.id for r in left} == {r.id for r in right}


def test_stratified_split_depends_on_seed():
    records = toy_corpus(40)
    a = stratified_split(records, seed=1)
    b = stratified_split(records, seed=2)
    assert {r.id for r in a[0]} != {r.id for r in b[0]}


def test_stratified_split_bad_fractions():
    with pytest.raises(ValueError, match="sum to 1"):
        stratified_split(toy_corpus(4), seed=0, fractions=(0.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# Training loop


@pytest.fixture(scope="module")
def splits():
    records = toy_corpus(24)
    train_set = records[:16]
    val_set = records[16:20]
    test_set = records[20:]
    return train_set, val_set, test_set


@pytest.fixture(scope="module")
def trained(splits):
    train_set, val_set, _ = splits
    return train(tiny_config(), train_set, val_set, model_kind=MODEL_POSHAN)


def test_train_loss_decreases(trained):
    losses = trained.checkpoint.val_losses
    assert len(losses) == trained.epochs_run
    assert losses[-1] < losses[0]


def test_train_log_format(trained):
    header, *rows = trained.log_lines
    assert header == "epoch\ttrain-loss\tval-loss\tval-macro-f1"
    assert len(rows) == trained.epochs_run
    for i, row in enumerate(rows):
        epoch, train_loss, val_loss, macro = row.split("\t")
        assert int(epoch) == i
        for value in (train_loss, val_loss, macro):
            assert math.isfinite(float(value))


def test_train_writes_log_file(splits, tmp_path):
    train_set, val_set, _ = splits
    path = tmp_path / "train.tsv"
    result = train(tiny_config(max_epochs=2), train_set, val_set,
                   model_kind=MODEL_LSTM, log_path=path)
    assert path.read_text().splitlines() == result.log_lines


def test_train_is_deterministic(splits):
    train_set, val_set, _ = splits
    config = tiny_config(max_epochs=2)
    a = train(config, train_set, val_set, model_kind=MODEL_POSHAN)
    b = train(config, train_set, val_set, model_kind=MODEL_POSHAN)
    assert a.log_lines == b.log_lines
    assert sorted(a.checkpoint.params) == sorted(b.checkpoint.params)
    for name, value in a.checkpoint.params.items():
        np.testing.assert_array_equal(value, b.checkpoint.params[name])


def test_train_early_stops_when_nothing_improves(splits):
    train_set, val_set, _ = splits
    # A step size this small cannot move the loss by more than the
    # improvement threshold, so only the first epoch counts as progress.
    config = tiny_config(learning_rate=1e-12, max_epochs=50, early_stop_patience=2)
    result = train(config, train_set, val_set, model_kind=MODEL_LSTM)
    assert result.stopped_early
    assert result.epochs_run == 3
    assert result.checkpoint.best_epoch == 0


def test_train_restores_best_parameters(splits):
    train_set, val_set, _ = splits
    result = train(tiny_config(), train_set, val_set, model_kind=MODEL_POSHAN)
    checkpoint = result.checkpoint
    best = checkpoint.best_epoch
    assert checkpoint.val_losses[best] == min(checkpoint.val_losses)
    model = model_from_checkpoint(checkpoint)
    config = checkpoint.config
    total = 0.0
    for record in splits[1]:
        padded = pad_record(record, max_words=config.max_words_per_sentence,
                            max_sentences=config.max_sentences)
        total += float(model.loss(padded).data)
    assert total / len(splits[1]) == checkpoint.val_losses[best]


def test_train_rejects_empty_splits(splits):
    train_set, val_set, _ = splits
    with pytest.raises(DataError, match="training"):
        train(tiny_config(), [], val_set)
    with pytest.raises(DataError, match="validation"):
        train(tiny_config(), train_set, [])


def test_train_rejects_unknown_model_kind(splits):
    train_set, val_set, _ = splits
    with pytest.raises(ValueError, match="cnn"):
        train(tiny_config(), train_set, val_set, model_kind="cnn")


def test_train_aborts_on_non_finite_loss(splits, monkeypatch):
    train_set, val_set, _ = splits
    monkeypatch.setattr(PoshanModel, "loss",
                        lambda self, padded: constant(np.array(np.nan)))
    with pytest.raises(NonFiniteError, match="epoch 0 batch 0"):
        train(tiny_config(), train_set, val_set, model_kind=MODEL_POSHAN)


def test_train_constant_label_set_approaches_zero_loss():
    records = [make_record(f"c{i}", "congruent", f"Team wins {i + 1} games",
                           f"The team won {i + 1} games. Fans cheered.")
               for i in range(8)]
    config = tiny_config(batch_size=4, max_epochs=30, learning_rate=0.2,
                         early_stop_patience=30)
    result = train(config, records, records, model_kind=MODEL_POSHAN)
    # All labels equal: the optimum is certainty, entropy zero.
    assert min(result.checkpoint.val_losses) < 0.05


def test_train_pads_each_record_once_within_limits(splits, monkeypatch):
    train_set, val_set, _ = splits
    padded = []

    def counting_pad(record, max_words, max_sentences):
        padded.append(pad_record(record, max_words, max_sentences))
        return padded[-1]

    monkeypatch.setattr(train_module, "pad_record", counting_pad)
    config = tiny_config(max_epochs=3, max_words_per_sentence=3, max_sentences=1)
    train(config, train_set, val_set, model_kind=MODEL_LSTM)
    assert sorted(p.record.id for p in padded) == sorted(r.id for r in [*train_set, *val_set])
    for unit in padded:
        assert len(unit.sentences) == 1
        assert all(len(s.tokens) <= 3 for s in unit.sentences)


def test_train_validates_with_one_forward_per_record(splits, monkeypatch):
    train_set, val_set, _ = splits
    calls = []
    forward = LstmConcatModel.forward

    def counting_forward(self, padded):
        calls.append(padded.record.id)
        return forward(self, padded)

    monkeypatch.setattr(LstmConcatModel, "forward", counting_forward)
    train(tiny_config(max_epochs=2), train_set, val_set, model_kind=MODEL_LSTM)
    # one forward per training record for the loss, one per validation record
    assert len(calls) == 2 * (len(train_set) + len(val_set))


def test_train_validation_warnings(splits):
    train_set, _, _ = splits
    congruent = [r for r in train_set if r.label == "congruent"][:2]
    no_cardinal = make_record("nc", "congruent", "Team wins games",
                              "The team won games. Fans cheered loudly.")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train(tiny_config(max_epochs=1), train_set, [*congruent, no_cardinal],
              model_kind=MODEL_POSHAN)
    messages = [str(w.message) for w in caught]
    # the record's own warning surfaces; the single-class report's do not
    assert any("'nc' has no cardinal feature" in m for m in messages)
    assert not any("AUC" in m or "F1 counts as 0" in m for m in messages)


def test_train_all_model_kinds_run(splits):
    train_set, val_set, _ = splits
    for kind in MODEL_KINDS:
        result = train(tiny_config(max_epochs=1), train_set, val_set, model_kind=kind)
        assert result.checkpoint.model_kind == kind
        assert result.epochs_run == 1


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_preserves_everything(trained, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained.checkpoint, path)
    loaded = load_checkpoint(path)
    original = trained.checkpoint
    assert loaded.model_kind == original.model_kind
    assert loaded.config == original.config
    assert loaded.vocab == original.vocab
    assert loaded.word_mode == original.word_mode
    assert loaded.patterns == original.patterns
    assert loaded.pattern_label_counts == original.pattern_label_counts
    assert loaded.best_epoch == original.best_epoch
    assert loaded.val_losses == original.val_losses
    assert sorted(loaded.params) == sorted(original.params)
    for name, value in original.params.items():
        np.testing.assert_array_equal(loaded.params[name], value)


def test_checkpoint_bytes_are_stable(trained, tmp_path):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(trained.checkpoint, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_data(trained, tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(trained.checkpoint, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_model_from_checkpoint_reproduces_predictions(trained, splits, tmp_path):
    _, _, test_set = splits
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained.checkpoint, path)
    loaded = load_checkpoint(path)
    model = model_from_checkpoint(trained.checkpoint)
    restored = model_from_checkpoint(loaded)
    config = trained.checkpoint.config
    for record in test_set:
        padded = pad_record(record, max_words=config.max_words_per_sentence,
                            max_sentences=config.max_sentences)
        np.testing.assert_array_equal(model.predict_probs(padded),
                                      restored.predict_probs(padded))


def test_checkpoint_reader_keeps_the_preloaded_word_modes(trained, splits, tmp_path):
    # no code path writes these modes any more, but v1 files that carry
    # them must still load, with a frozen table where the mode says so
    config = trained.checkpoint.config
    padded = [pad_record(r, max_words=config.max_words_per_sentence,
                         max_sentences=config.max_sentences) for r in splits[2]]
    reference = model_from_checkpoint(trained.checkpoint)
    for mode, trainable in ((MODE_PRELOADED_FROZEN, False), (MODE_PRELOADED_TRAINABLE, True)):
        path = tmp_path / f"{mode}.ckpt"
        save_checkpoint(dataclasses.replace(trained.checkpoint, word_mode=mode), path)
        model = model_from_checkpoint(load_checkpoint(path))
        table = model.word_table.matrix
        assert model.word_table.mode == mode
        assert table.trainable is trainable
        optimized = Adam(model.parameters(), learning_rate=0.1).params
        assert any(p is table for p in optimized) is trainable
        for p in padded:
            np.testing.assert_array_equal(model.predict_probs(p), reference.predict_probs(p))


def test_model_from_checkpoint_missing_param(trained):
    crippled = dataclasses.replace(
        trained.checkpoint,
        params={k: v for k, v in trained.checkpoint.params.items() if k != "classifier.b"})
    with pytest.raises(DataError, match="classifier.b"):
        model_from_checkpoint(crippled)


def test_model_from_checkpoint_shape_mismatch(trained):
    params = dict(trained.checkpoint.params)
    params["classifier.b"] = np.zeros(3)
    bad = dataclasses.replace(trained.checkpoint, params=params)
    with pytest.raises(DataError, match="shape"):
        model_from_checkpoint(bad)


def test_predict_reports_on_all_records(trained, splits):
    _, _, test_set = splits
    report = predict(trained.checkpoint, test_set)
    assert len(report.predictions) == len(test_set)
    assert report.tp + report.fp + report.tn + report.fn == len(test_set)
    assert 0.0 <= report.macro_f1 <= 1.0
