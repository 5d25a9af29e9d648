"""Evaluation: macro F1, exact rank ROC AUC, and report assembly.

The positive class throughout is Incongruent: AUC ranks its predicted
probability, and the confusion counts treat predicted-incongruent as
positive.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .attention import pad_record
from .text import CONGRUENT, INCONGRUENT, LABELS, DataError, check_kept

POSITIVE_CLASS = INCONGRUENT


def _f1(cls: str, tp: int, fp: int, fn: int) -> float:
    """F1 of one class from its counts; a class absent from both
    predictions and labels counts as 0, with a warning."""
    if tp + fp + fn == 0:
        warnings.warn(f"class {cls!r} absent from predictions and labels; "
                      "its F1 counts as 0", RuntimeWarning)
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Probability that a positive outranks a negative, ties at half: the
    tie-averaged rank statistic.  Every rank and partial sum is a multiple
    of 1/2, so it equals the count over all positive/negative pairs
    exactly."""
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores vs {len(labels)} labels")
    positive = np.array([y == POSITIVE_CLASS for y in labels], dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if not n_pos or not n_neg:
        raise ValueError(
            "AUC is undefined when only one class is present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # the mean 1-based rank of each distinct score, which its ties share
    mean_rank = np.cumsum(counts) - (counts - 1) / 2.0
    wins = mean_rank[inverse][positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(wins / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# Prediction and reports


@dataclass
class RecordPrediction:
    id: str
    label: str
    predicted: str
    p_congruent: float
    p_incongruent: float


@dataclass
class EvalReport:
    macro_f1: float
    auc: Optional[float]
    tp: int
    fp: int
    tn: int
    fn: int
    predictions: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "auc": self.auc,
            "positive_class": POSITIVE_CLASS,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn,
                          "fn": self.fn},
            "predictions": list(map(asdict, self.predictions)),
        }


EVAL_REPORT_SCHEMA = {
    "type": "object",
    "required": ["macro_f1", "auc", "positive_class", "confusion",
                 "predictions"],
    "additionalProperties": False,
    "properties": {
        "macro_f1": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "auc": {"type": ["number", "null"], "minimum": 0.0, "maximum": 1.0},
        "positive_class": {"const": POSITIVE_CLASS},
        "confusion": {
            "type": "object",
            "required": ["tp", "fp", "tn", "fn"],
            "additionalProperties": False,
            "properties": {k: {"type": "integer", "minimum": 0}
                           for k in ("tp", "fp", "tn", "fn")},
        },
        "predictions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "label", "predicted", "p_congruent",
                             "p_incongruent"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "label": {"enum": list(LABELS)},
                    "predicted": {"enum": list(LABELS)},
                    "p_congruent": {"type": "number"},
                    "p_incongruent": {"type": "number"},
                },
            },
        },
    },
}


def build_report(records, probs) -> EvalReport:
    """Assemble the evaluation report from each record's class
    probabilities (congruent, incongruent).

    AUC is reported as None with a warning when the labels are
    single-class.
    """
    predictions = [
        RecordPrediction(id=rec.id, label=rec.label,
                         predicted=LABELS[int(np.argmax(p))],
                         p_congruent=float(p[0]), p_incongruent=float(p[1]))
        for rec, p in zip(records, probs)]
    flags = [(p.predicted == POSITIVE_CLASS, p.label == POSITIVE_CLASS) for p in predictions]
    tp, fp, fn = map(flags.count, ((True, True), (True, False), (False, True)))
    tn = len(predictions) - tp - fp - fn
    # the congruent class's tp, fp and fn are the positive class's tn, fn and fp
    score = (_f1(CONGRUENT, tn, fn, fp) + _f1(POSITIVE_CLASS, tp, fp, fn)) / 2
    labels = [p.label for p in predictions]
    if len(set(labels)) < 2:
        warnings.warn("single-class test labels: AUC is undefined",
                      RuntimeWarning)
        auc = None
    else:
        auc = roc_auc([p.p_incongruent for p in predictions], labels)
    return EvalReport(macro_f1=score, auc=auc, tp=tp, fp=fp, tn=tn, fn=fn,
                      predictions=predictions)


def evaluate_model(model, records, max_words: int, max_sentences: int) -> EvalReport:
    """Predict every record and assemble the evaluation report; a record
    that ``text.drop_reason`` rejects raises DataError naming it."""
    if not records:
        raise DataError("cannot evaluate an empty record list")
    check_kept(records, "evaluation")
    return build_report(records, [
        model.predict_probs(pad_record(rec, max_words, max_sentences))
        for rec in records])
