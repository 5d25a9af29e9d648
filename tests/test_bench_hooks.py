"""The traced benchmark (perfbench.spans.instrument) wraps the package's
layer boundaries by looking each one up in its owner's own namespace.  A
renamed or moved boundary then fails here, not in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import SpanRecorder, instrument  # noqa: E402
from poshan import baselines, metrics, model, train  # noqa: E402

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
