"""Evaluation: macro F1, exact pairwise ROC AUC, and report assembly.

The positive class throughout is Incongruent: AUC ranks its predicted
probability, and the confusion counts treat predicted-incongruent as
positive.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .attention import pad_record
from .text import DataError, INCONGRUENT, LABELS

POSITIVE_CLASS = INCONGRUENT


def _confusion(predictions: Sequence[str], labels: Sequence[str]) -> Counter:
    """Count of each (predicted, true) label pair, in one pass."""
    if not labels:
        raise ValueError("cannot score an empty prediction list")
    return Counter(zip(predictions, labels))


def _class_counts(pairs: Counter, cls: str) -> tuple:
    """(tp, fp, fn) of one class, read off the pair counts."""
    tp = fp = fn = 0
    for (p, y), n in pairs.items():
        if p == cls and y == cls:
            tp += n
        elif p == cls:
            fp += n
        elif y == cls:
            fn += n
    return tp, fp, fn


def _macro_f1(pairs: Counter) -> float:
    """Unweighted mean of per-class F1 over the two classes.

    A class absent from both predictions and labels contributes F1 = 0
    with a warning.
    """
    f1s = []
    for cls in LABELS:
        tp, fp, fn = _class_counts(pairs, cls)
        if tp + fp + fn == 0:
            warnings.warn(
                f"class {cls!r} absent from predictions and labels; "
                "its F1 counts as 0", RuntimeWarning)
            f1s.append(0.0)
        else:
            f1s.append(2.0 * tp / (2.0 * tp + fp + fn))
    return sum(f1s) / len(f1s)


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Probability that a positive outranks a negative, ties at half,
    counted exactly over all positive/negative pairs."""
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores vs {len(labels)} labels")
    pos = [s for s, y in zip(scores, labels) if y == POSITIVE_CLASS]
    neg = [s for s, y in zip(scores, labels) if y != POSITIVE_CLASS]
    if not pos or not neg:
        raise ValueError(
            "AUC is undefined when only one class is present")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


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
            "predictions": [
                {"id": p.id, "label": p.label, "predicted": p.predicted,
                 "p_congruent": p.p_congruent,
                 "p_incongruent": p.p_incongruent}
                for p in self.predictions],
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
    true_labels = [p.label for p in predictions]
    pairs = _confusion([p.predicted for p in predictions], true_labels)
    score = _macro_f1(pairs)
    if len(set(true_labels)) < 2:
        warnings.warn("single-class test labels: AUC is undefined",
                      RuntimeWarning)
        auc = None
    else:
        auc = roc_auc([p.p_incongruent for p in predictions], true_labels)
    tp, fp, fn = _class_counts(pairs, POSITIVE_CLASS)
    return EvalReport(macro_f1=score, auc=auc, tp=tp, fp=fp,
                      tn=len(predictions) - tp - fp - fn, fn=fn,
                      predictions=predictions)


def evaluate_model(model, records, max_words: int, max_sentences: int) -> EvalReport:
    """Predict every record and assemble the evaluation report."""
    if not records:
        raise DataError("cannot evaluate an empty record list")
    return build_report(records, [
        model.predict_probs(pad_record(rec, max_words, max_sentences))
        for rec in records])
