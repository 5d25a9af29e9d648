"""Checkpoint files pinned to bytes.

For each benchmark workload's seed-1 corpus, the ``poshan``, ``lstm`` and
``posat`` checkpoints that the benchmark's set-up writes, before any
training, must keep the sha256 they had before the header keys were
derived from the ``Checkpoint`` fields.  Their bytes come only from the
seeded initial draws and the header, so they do not depend on BLAS.  A
load and save round trip must give the same bytes back."""

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import KINDS, WORKLOADS  # noqa: E402
from poshan.embeddings import MODE_PRELOADED_FROZEN, pattern_label_counts  # noqa: E402
from poshan.text import RuleTagger, derive_dataset  # noqa: E402
from poshan.train import (  # noqa: E402
    MODEL_POSHAN,
    Checkpoint,
    build_model,
    build_tables,
    load_checkpoint,
    save_checkpoint,
)
from test_derive_golden import _raws  # noqa: E402

CHECKPOINT_SHA256 = {
    "train-caps": {
        "poshan": "09f655975546361b003644f5eab0ef92a4c76355a31c240f1d66a6735b507d68",
        "lstm": "9bfced5bbbc1e607be9b63e615e6293d2cd4de7eecdf56f849ca7ff6d403218a",
        "posat": "cd94aefd31be4678730eb1d77a5f1f99173434579af1ec2cefca591c3b724219",
    },
    "train-ragged": {
        "poshan": "ad4e218cab23268592dfbf1b224846208856d1c6ba9d5bdeea107ab3883b2370",
        "lstm": "c7a37fcf5e7e1b9638f551d0923b288c0fe0f743e66e8b47aa9798fcae67b422",
        "posat": "958eecd4618bdf3cde6b2df0f0a7cbf4c5cbcf847b00da8a019b3049b441589f",
    },
    "ingest-eval": {
        "poshan": "9b88634091d332f0ca862f44832067b68afb980385f4b6d79aa94da498a7192a",
        "lstm": "38237ab26ddbf99b3311be81c9e0ddf8c535740a56deb984f9c232a0ff3c2f3b",
        "posat": "ed94ca71bca5714a17e283d0ad26a9a7b472b771ef6037eca688c1dbe8339c0e",
    },
}


def setup_checkpoints(name: str) -> dict:
    """The workload's untrained checkpoint of each model kind, as its
    benchmark set-up builds them."""
    derived, _ = derive_dataset(_raws(name), RuleTagger())
    config = WORKLOADS[name].config()
    word_table, pattern_table = build_tables(derived, config)
    checkpoints = {}
    for kind in KINDS:
        model = build_model(kind, config, word_table, pattern_table)
        poshan = kind == MODEL_POSHAN
        checkpoints[kind] = Checkpoint(
            model_kind=kind, config=config, vocab=dict(word_table.vocab),
            word_mode=word_table.mode,
            patterns=dict(pattern_table.patterns) if poshan else None,
            pattern_label_counts=pattern_label_counts(derived) if poshan else None,
            params={p.name: p.data.copy() for p in model.parameters()},
            best_epoch=0, val_losses=[])
    return checkpoints


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CHECKPOINT_SHA256))
def test_setup_checkpoint_bytes_are_pinned(name, tmp_path):
    digests = {}
    for kind, checkpoint in setup_checkpoints(name).items():
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(checkpoint, path)
        digests[kind] = _sha256(path)
    assert digests == CHECKPOINT_SHA256[name]


@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_gives_the_same_bytes(kind, tmp_path):
    trained = dataclasses.replace(setup_checkpoints("train-caps")[kind],
                                  best_epoch=1, val_losses=[0.7, 1 / 3])
    for variant in (trained, dataclasses.replace(trained, word_mode=MODE_PRELOADED_FROZEN)):
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(variant, first)
        loaded = load_checkpoint(first)
        assert loaded.word_mode == variant.word_mode
        save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()
