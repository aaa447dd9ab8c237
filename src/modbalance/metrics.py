"""Evaluation metrics: accuracy, weighted F1, and trace diagnostics.

All utterances are pooled across conversations before scoring (micro
pooling at utterance level). F1 of a class with an empty precision+recall
denominator is defined as 0 so runs that never predict some class remain
comparable.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeError


def _check_inputs(preds, labels):
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ShapeError(
            f"predictions {preds.shape} and labels {labels.shape} must be "
            "equal-length vectors")
    if preds.size == 0:
        raise ShapeError("cannot score an empty prediction set")
    return preds, labels


def accuracy(preds, labels):
    """Fraction of exact matches."""
    preds, labels = _check_inputs(preds, labels)
    return float((preds == labels).mean())


def confusion_matrix(preds, labels, num_classes):
    """Counts[true, predicted]; row sums are the class supports."""
    preds, labels = _check_inputs(preds, labels)
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


def per_class_stats(confusion):
    """Precision/recall/F1/support per class from a confusion matrix."""
    stats = []
    for c in range(confusion.shape[0]):
        tp = int(confusion[c, c])
        support = int(confusion[c].sum())
        predicted = int(confusion[:, c].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall > 0.0 else 0.0)
        stats.append({"class": c, "precision": precision, "recall": recall,
                      "f1": f1, "support": support})
    return stats


def logit_trace(modality_logits, labels):
    """Batch-mean true-class logit per modality (dominance diagnostic)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ShapeError("cannot trace an empty batch")
    trace = {}
    for m, logits in modality_logits.items():
        logits = np.asarray(logits)
        trace[m] = float(logits[np.arange(len(labels)), labels].mean())
    return trace


@dataclass
class EvalReport:
    accuracy: float
    weighted_f1: float
    per_class: list
    confusion: list

    @classmethod
    def from_predictions(cls, preds, labels, num_classes):
        """Scores, with weighted F1 the support-weighted mean of per-class F1."""
        confusion = confusion_matrix(preds, labels, num_classes)
        stats = per_class_stats(confusion)
        total = len(np.asarray(labels))
        wf1 = float(sum(s["support"] / total * s["f1"] for s in stats))
        return cls(accuracy=accuracy(preds, labels), weighted_f1=wf1,
                   per_class=stats, confusion=confusion.tolist())

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
