"""The three training losses and their unweighted sum.

Classification loss is per-utterance-mean cross-entropy on the classifier
outputs; the modality balance loss is the same cross-entropy applied
directly to the fused cosine logits (before the classifier); the feature
loss is an L1 alignment between each modality's attention map and its
mapper prediction, normalized per utterance so conversation length does
not change the scale.

Cross-entropy is one graph node: the log-sum-exp of each row minus its
true-class logit, whose gradient is ``(softmax - onehot) / N``. It stays
finite for any finite logits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ShapeError
from .tensor import Tensor, accumulate


@dataclass
class LossBreakdown:
    """Scalar record of one step's loss terms; main is their exact sum."""

    cls: float
    feature: float
    modal: float
    main: float

    @classmethod
    def from_parts(cls, cls_term, feature_term, modal_term):
        return cls(cls=cls_term, feature=feature_term, modal=modal_term,
                   main=cls_term + feature_term + modal_term)


def _cross_entropy(logits, labels):
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"label outside [0, {num_classes}): {labels.min()}..{labels.max()}")
    rows = np.arange(n)
    peak = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - peak
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = (np.log(total[:, 0]) - shifted[rows, labels]).sum() * (1.0 / n)

    def backward(g):
        grad = e / total  # the row softmax
        grad[rows, labels] -= 1.0
        accumulate(logits, grad * (g * (1.0 / n)))

    return Tensor._op(loss, (logits,), backward)


def cls_loss(outputs, labels):
    """Mean cross-entropy of the classifier outputs against the labels."""
    return _cross_entropy(outputs, labels)


def modal_loss(fused, labels):
    """Mean cross-entropy applied directly to the fused cosine logits."""
    return _cross_entropy(fused, labels)


def feature_loss(attention, mapped):
    """Per-utterance mean of the summed L1 gap, over all modalities.

    Zero exactly when every attention map equals its prediction; symmetric
    in its two arguments.
    """
    total = None
    rows = None
    for m in attention:
        att = attention[m]
        hat = mapped[m]
        if att.shape != hat.shape:
            raise ShapeError(
                f"modality {m!r} attention {att.shape} does not match "
                f"prediction {hat.shape}")
        if rows is None:
            rows = att.shape[0]
        term = (att - hat).abs().sum()
        total = term if total is None else total + term
    if total is None:
        raise ShapeError("feature loss needs at least one modality")
    return total * (1.0 / rows)


def main_loss(cls_term, feature_term, modal_term):
    """Unweighted sum; raises naming the term if any part is non-finite."""
    for name, term in (("cls", cls_term), ("feature", feature_term),
                       ("modal", modal_term)):
        value = term.item() if isinstance(term, Tensor) else float(term)
        if not np.isfinite(value):
            raise DivergenceError(f"{name} loss is not finite: {value}")
    return cls_term + feature_term + modal_term
