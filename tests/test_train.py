"""Tests for configuration, batching, optimization, the training loop,
and checkpoint round-trips."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poshan.attention import QUERY_HEADLINE, QUERY_PATTERN, QUERY_PHRASE, QUERY_TYPES, pad_record
from poshan.baselines import LstmConcatModel, PosAtModel
from poshan.embeddings import MODE_PRELOADED_FROZEN, MODE_PRELOADED_TRAINABLE
from poshan.encoder import CELL_GRU_BI, CELL_LSTM_BI, CELL_LSTM_UNI, CELLS
from poshan.grad import NonFiniteError, Parameter, backward, constant, zero_gradients
from poshan.model import PoshanModel
from poshan import train as train_module
from poshan.text import DataError, RawRecord, RuleTagger, featurize, replicate_for_training
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
    (dict(disable_pattern_att=True, disable_phrase_att=True, replace_headline_att=True),
     "no attention query type"),
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
    with pytest.raises(DataError, match=r"run\.cfg:2: unknown key 'momentum'"):
        parse_config(path)


def test_config_file_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch-size=soon\n")
    with pytest.raises(DataError, match=r"run\.cfg:1: bad value 'soon'"):
        parse_config(path)


def test_config_file_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch-size 4\n")
    with pytest.raises(DataError, match=r"run\.cfg:1: expected key=value"):
        parse_config(path)


def test_config_file_parses_booleans(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("disable-pattern-att=true\nreplace-headline-att=false\n")
    config = parse_config(path)
    assert config.disable_pattern_att is True
    assert config.replace_headline_att is False
    path.write_text("disable-pattern-att=1\n")
    with pytest.raises(DataError, match=r"run\.cfg:1: bad value '1'"):
        parse_config(path)


# ---------------------------------------------------------------------------
# Gradient clipping


def params_with_grads(**grads):
    """Parameters named by the keywords, each holding that gradient."""
    params = []
    for name, g in grads.items():
        p = Parameter(name, np.zeros(np.shape(g)))
        p.grad = np.array(g, dtype=np.float64)
        params.append(p)
    return params


def test_clip_scales_to_threshold():
    a, b = params_with_grads(a=[8.0], b=[6.0])
    assert clip_global_norm([a, b], 6.0) == 10.0
    assert a.grad == pytest.approx([4.8])
    assert b.grad == pytest.approx([3.6])


def test_clip_no_op_below_threshold():
    a, b = params_with_grads(a=[[1.0, 2.0]], b=[2.0])
    assert clip_global_norm([a, b], 100.0) == 3.0
    np.testing.assert_array_equal(a.grad, [[1.0, 2.0]])
    np.testing.assert_array_equal(b.grad, [2.0])


def test_clip_zero_gradients():
    (a,) = params_with_grads(a=np.zeros((2, 2)))
    assert clip_global_norm([a], 6.0) == 0.0
    np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_rejects_non_finite_norm(bad):
    params = params_with_grads(a=np.ones(2), b=[1.0, bad])
    with pytest.raises(NonFiniteError, match="'b'"):
        clip_global_norm(params, 6.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=5),
                min_size=1, max_size=4),
       st.floats(min_value=1e-3, max_value=50.0))
def test_clip_norm_bounded_and_direction_kept(rows, threshold):
    params = params_with_grads(**{f"g{i}": row for i, row in enumerate(rows)})
    before = clip_global_norm(params, threshold)
    norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    assert norm <= threshold + 1e-9
    original = math.sqrt(sum(float(np.sum(np.array(r) ** 2)) for r in rows))
    assert before == original
    if original > 0:
        scale = min(1.0, threshold / original)
        for p, row in zip(params, rows):
            np.testing.assert_allclose(p.grad, np.array(row) * scale, rtol=1e-12)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_matches_hand_formula():
    p = Parameter("w", np.array([1.0]))
    opt = Adam([p], learning_rate=0.1)
    p.grad = np.array([0.5])
    opt.step()
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
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        reference -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p.data, reference, rtol=1e-12)


def test_adam_skips_frozen_and_missing():
    """A frozen parameter is not optimized; one off the loss path holds a
    zero gradient and does not move on the first step."""
    frozen = Parameter("f", np.array([1.0]), requires_grad=False)
    loose = Parameter("w", np.array([1.0]))
    opt = Adam([frozen, loose], learning_rate=0.1)
    assert opt.params == [loose]
    frozen.grad = np.array([5.0])
    loose.grad = np.zeros(1)
    opt.step()
    assert frozen.data[0] == 1.0
    assert loose.data[0] == 1.0


# ---------------------------------------------------------------------------
# Batching


def padded_units(records):
    return [pad_record(r, max_words=45, max_sentences=35) for r in records]


def test_make_batches_300_records():
    units = padded_units(toy_corpus(6)) * 50
    batches = make_batches(units, TrainConfig().batch_size, seed=0)
    assert [len(b) for b in batches] == [128, 128, 44]


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
    assert isinstance(build_model(MODEL_LSTM, config, word_table, None), LstmConcatModel)
    assert isinstance(build_model(MODEL_POSAT, config, word_table, None), PosAtModel)


# pairwise distinct sizes, also against a bidirectional encoder's width 2 *
# hidden-size, so that any two swapped size arguments change some shape
WIRING = dict(word_dim=7, hidden_size=3, attention_size=5, pattern_dim=4)
GATES = {CELL_LSTM_BI: "ifog", CELL_GRU_BI: "zrn", CELL_LSTM_UNI: "ifog"}
ABLATIONS = {"disable_pattern_att": QUERY_PATTERN, "disable_phrase_att": QUERY_PHRASE,
             "replace_headline_att": QUERY_HEADLINE}


def wired_model(kind, **overrides):
    config = tiny_config(**{**WIRING, **overrides})
    word_table, pattern_table = build_tables(toy_corpus(8), config)
    return build_model(kind, config, word_table, pattern_table), config


def expected_encoder_shapes(name, in_dim, hidden, cell):
    directions = ("fwd",) if cell == CELL_LSTM_UNI else ("fwd", "bwd")
    return {f"{name}.{d}.{kind}_{gate}": shape
            for d in directions for gate in GATES[cell]
            for kind, shape in (("w", (hidden, in_dim)), ("u", (hidden, hidden)),
                                ("b", (hidden,)))}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_build_model_wires_sizes_and_cell(kind, cell):
    model, config = wired_model(kind, cell=cell)
    shapes = {p.name: p.data.shape for p in model.parameters()}
    h, d, a, q = config.hidden_size, config.word_dim, config.attention_size, config.pattern_dim
    width = h if cell == CELL_LSTM_UNI else 2 * h
    assert shapes.pop("word_embeddings")[1] == d
    assert shapes.pop("classifier.w") == (2, width)
    assert shapes.pop("classifier.b") == (2,)
    if kind == MODEL_POSHAN:
        assert model.query_types == QUERY_TYPES
        assert shapes.pop("pattern_embeddings")[1] == q
        expected = {**expected_encoder_shapes("word_enc", d, h, cell),
                    **expected_encoder_shapes("sent_enc", width, h, cell)}
        query_dims = {QUERY_PATTERN: q, QUERY_PHRASE: d, QUERY_HEADLINE: d}
        for level in ("word", "sentence"):
            for query, query_dim in query_dims.items():
                prefix = f"att.{level}.{query}"
                expected.update({f"{prefix}.v": (a,), f"{prefix}.w_h": (a, width),
                                 f"{prefix}.w_q": (a, query_dim), f"{prefix}.b": (a,)})
    else:
        expected = expected_encoder_shapes("concat_enc", d, h, cell)
        if kind == MODEL_POSAT:
            expected.update({"posat.theta_w": (1, 7), "posat.theta_b": (1,)})
    assert shapes == expected
    # and in this order, which the clip's sum of squares follows
    assert list(shapes) == list(expected)


@pytest.mark.parametrize("cell", CELLS)
def test_build_model_attention_size_none_is_word_encoder_width(cell):
    model, _ = wired_model(MODEL_POSHAN, cell=cell, attention_size=None)
    width = model.word_encoder.out_dim
    assert width == (3 if cell == CELL_LSTM_UNI else 6)
    assert {p.data.shape[0] for p in model.parameters() if p.name.startswith("att.")} == {width}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_build_model_wires_seed(kind, cell):
    """Another seed redraws every parameter that is not zero-initialized."""
    first, _ = wired_model(kind, cell=cell, seed=1)
    second, _ = wired_model(kind, cell=cell, seed=2)
    unchanged = [a.name for a, b in zip(first.parameters(), second.parameters())
                 if np.array_equal(a.data, b.data)]
    assert unchanged == [p.name for p in first.parameters() if not p.data.any()]
    assert len(unchanged) < len(first.parameters())


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("flag", sorted(ABLATIONS))
def test_build_model_wires_each_ablation_flag(flag, cell):
    model, _ = wired_model(MODEL_POSHAN, cell=cell, **{flag: True})
    assert model.query_types == tuple(q for q in QUERY_TYPES if q != ABLATIONS[flag])
    width = model.sentence_encoder.out_dim
    if flag == "replace_headline_att":
        width += model.word_encoder.out_dim
    assert model.head[0].data.shape == (2, width)


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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_one_clipped_step_equals_straight_line_reference(splits, kind):
    """One epoch of one batch, clipped: the trained parameters equal, bit
    for bit, per-record backward into shared buffers, the batch mean, a
    global-norm clip in parameter order and one Adam step."""
    train_set, val_set, _ = splits
    config = tiny_config(max_epochs=1, batch_size=8, grad_clip=1e-3)
    records = train_set[:3]
    result = train(config, records, val_set, model_kind=kind)

    word_table, pattern_table = build_tables(records, config)
    model = build_model(kind, config, word_table, pattern_table)
    units = [u for r in records for u in replicate_for_training(r)] if kind == MODEL_POSHAN else records
    (batch,) = make_batches(padded_units(units), config.batch_size, seed=config.seed)
    assert len(batch) >= 2
    params = [p for p in model.parameters() if p.requires_grad]
    for padded in batch:
        backward(model.loss(padded))
    grads = [(np.zeros_like(p.data) if p.grad is None else p.grad) * (1.0 / len(batch))
             for p in params]
    norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads))
    assert norm > config.grad_clip
    for p, g in zip(params, grads):
        g = g * (config.grad_clip / norm)
        m = 0.9 * np.zeros_like(g) + (1.0 - 0.9) * g
        v = 0.999 * np.zeros_like(g) + (1.0 - 0.999) * g * g
        m_hat, v_hat = m / (1.0 - 0.9), v / (1.0 - 0.999)
        p.data[...] = p.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)

    assert result.checkpoint.best_epoch == 0
    assert list(result.checkpoint.params) == [p.name for p in model.parameters()]
    for p in model.parameters():
        assert np.array_equal(result.checkpoint.params[p.name], p.data), p.name


def dense_adam_reference(kind, config, records):
    """The parameters after one epoch of ``config.batch_size`` batches, from
    a loop that updates every row of every parameter with the dense Adam
    formula; also the batch at which each word-table row first had a
    nonzero gradient, and the number of batches the clip fired in."""
    word_table, pattern_table = build_tables(records, config)
    model = build_model(kind, config, word_table, pattern_table)
    units = [u for r in records for u in replicate_for_training(r)] if kind == MODEL_POSHAN else records
    params = [p for p in model.parameters() if p.requires_grad]
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    first_batch = {}
    clipped = 0
    batches = make_batches(padded_units(units), config.batch_size, seed=config.seed)
    for t, batch in enumerate(batches, start=1):
        for p in params:
            p.grad = None
        for padded in batch:
            backward(model.loss(padded))
        grads = [(np.zeros_like(p.data) if p.grad is None else p.grad) * (1.0 / len(batch))
                 for p in params]
        norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads))
        if norm > config.grad_clip:
            grads = [g * (config.grad_clip / norm) for g in grads]
            clipped += 1
        for p, g, (m, v) in zip(params, grads, moments):
            if p.name == "word_embeddings":
                for row in np.flatnonzero(np.any(g != 0.0, axis=1)):
                    first_batch.setdefault(int(row), t)
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat, v_hat = m / (1.0 - 0.9 ** t), v / (1.0 - 0.999 ** t)
            p.data[...] = p.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return model, first_batch, clipped, len(batches)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_equals_dense_adam_reference_over_several_clipped_batches(splits, kind):
    """Adam updates only table rows that have had a gradient; over batches
    in which rows first get a gradient late, the trained parameters still
    equal, bit for bit, the dense reference."""
    train_set, val_set, _ = splits
    config = tiny_config(max_epochs=1, batch_size=2, grad_clip=1e-2)
    records = train_set[:7]
    result = train(config, records, val_set, model_kind=kind)

    model, first_batch, clipped, n_batches = dense_adam_reference(kind, config, records)
    assert n_batches >= 3 and clipped == n_batches
    assert max(first_batch.values()) > 1
    assert len(first_batch) < len(model.word_table.matrix.data)
    for p in model.parameters():
        assert np.array_equal(result.checkpoint.params[p.name], p.data), p.name


def test_a_table_row_never_gathered_keeps_its_bytes_and_zero_moments(splits, monkeypatch):
    train_set, val_set, _ = splits
    # "zebra" lies past the word cap, so it is in the vocabulary but never gathered
    config = tiny_config(max_epochs=2, batch_size=4, max_words_per_sentence=6)
    records = train_set[:6] + [make_record("z0", "congruent", "Team wins 3 games",
                                           "The team won 3 games and a zebra.")]
    made = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_module, "Adam", RecordingAdam)
    result = train(config, records, val_set, model_kind=MODEL_POSHAN)

    initial, _ = build_tables(records, config)
    row = initial.vocab["zebra"]
    trained_table = result.checkpoint.params["word_embeddings"]
    assert trained_table[row].tobytes() == initial.matrix.data[row].tobytes()
    assert not np.array_equal(trained_table, initial.matrix.data)
    (optimizer,) = made
    (k,) = [k for k, p in enumerate(optimizer.params) if p.name == "word_embeddings"]
    table = optimizer.params[k]
    assert not table.active[row] and table.active.any()
    assert not optimizer._m[k][row].any() and not optimizer._v[k][row].any()


def test_a_frozen_preloaded_word_table_is_not_changed(trained, splits, tmp_path):
    path = tmp_path / "frozen.ckpt"
    save_checkpoint(dataclasses.replace(trained.checkpoint, word_mode=MODE_PRELOADED_FROZEN), path)
    model = model_from_checkpoint(load_checkpoint(path))
    table = model.word_table.matrix
    before = table.data.tobytes()
    optimizer = Adam(model.parameters(), learning_rate=0.1)
    config = trained.checkpoint.config
    for batch in make_batches(padded_units(splits[0]), 4, seed=0):
        zero_gradients(optimizer.params)
        for padded in batch:
            backward(model.loss(padded))
        clip_global_norm(optimizer.params, config.grad_clip)
        optimizer.step()
    assert table.data.tobytes() == before
    assert table.grad is None and not table.active.any()
    pattern = model.pattern_table.matrix
    assert not np.array_equal(pattern.data, trained.checkpoint.params["pattern_embeddings"])


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
        assert table.requires_grad is trainable
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
