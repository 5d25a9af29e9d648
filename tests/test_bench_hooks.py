"""The traced benchmark (perfbench.spans.instrument) wraps the package's
layer boundaries by looking each one up in its owner's own namespace.  A
renamed or moved boundary then fails here, not in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import SpanRecorder, instrument  # noqa: E402
from poshan import attention, baselines, metrics, model, train  # noqa: E402

HOOKS = [
    (train, "_mean_val_loss"),
    (train, "evaluate_model"),
    (train, "make_batches"),
    (metrics, "evaluate_model"),
    (model.PoshanModel, "forward"),
    (model.PoshanModel, "loss"),
    (baselines.LstmConcatModel, "forward"),
    (baselines.PosAtModel, "forward"),
]


def test_instrument_wraps_and_restores_layer_boundaries():
    originals = [owner.__dict__[attr] for owner, attr in HOOKS]
    patches = instrument(SpanRecorder())
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in HOOKS]
    finally:
        patches.undo()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [owner.__dict__[attr] for owner, attr in HOOKS] == originals
    assert train._mean_val_loss is originals[0]


def _ragged_records():
    """Bodies of one to three sentences of different lengths, one to two
    headline numbers, both labels, and one sentence past the word cap."""
    from poshan.text import RawRecord, RuleTagger, featurize

    raws = [
        RawRecord(id="b0", headline="Team wins 3 games", label="congruent",
                  body="The team won 3 games. Fans cheered for hours after the match ended."),
        RawRecord(id="b1", headline="5 ways to save 100 now", label="incongruent",
                  body="Save money. Spend 100 less on every single thing you buy today. Done."),
        RawRecord(id="b2", headline="City adds 2 jobs", label="incongruent",
                  body="The city cut 7 jobs."),
        RawRecord(id="b3", headline="Club sells 4 seats", label="congruent",
                  body="The club sold 4 seats. Reports came in late."),
    ]
    return [featurize(raw, RuleTagger()) for raw in raws]


def _real_tokens(records, config):
    return sum(sum(sent.mask)
               for rec in records
               for sent in attention.pad_record(rec, config.max_words_per_sentence,
                                                config.max_sentences).sentences)


def test_traced_training_and_evaluation_record_every_layer():
    from poshan.text import replicate_for_training

    records = _ragged_records()
    train_records, val_records = records[:3], records[3:]
    config = train.TrainConfig(word_dim=4, hidden_size=2, attention_size=2, pattern_dim=3,
                               max_epochs=1, batch_size=2, max_words_per_sentence=8)
    recorder = SpanRecorder()
    patches = instrument(recorder)
    try:
        result = train.train(config, train_records, val_records, model_kind="poshan")
        poshan = train.model_from_checkpoint(result.checkpoint)
        word_table, pattern_table = train.build_tables(train_records, config)
        models = [poshan] + [train.build_model(kind, config, word_table, pattern_table)
                             for kind in ("lstm", "posat")]
        for model in models:
            metrics.evaluate_model(model, records, max_words=config.max_words_per_sentence,
                                   max_sentences=config.max_sentences)
    finally:
        patches.undo()

    # every span this run reaches: a call that bypasses a wrapped global
    # drops its name here
    assert set(recorder.names) == {
        "attention.attend", "attention.document", "attention.fuse", "attention.pad",
        "baselines.forward", "embeddings.query", "encoder.sentence", "encoder.word",
        "grad.backward", "metrics.evaluate", "model.forward", "model.loss", "train.adam",
        "train.checkpoint_io", "train.clip", "train.make_batches", "train.validation"}
    assert not recorder._stack
    units = [u for rec in train_records for u in replicate_for_training(rec)]
    # word-level encodes: each training unit, each validation record, and
    # each record evaluated by the hierarchical model
    expected = (_real_tokens(units, config) + _real_tokens(val_records, config)
                + _real_tokens(records, config))
    assert recorder.counters["encoder.word_steps"] == expected
