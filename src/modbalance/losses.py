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

The rows are a pack of one or more conversations (``tensor.Segments``;
without one, the rows are a single conversation), and each loss is a
vector of one value per conversation, each conversation's rows weighted by
one over its own length, so the pack's total is the sum of what each
conversation alone would give. ``main_loss`` is one node: it adds the
three vectors and sums them into the pack's scalar total.
"""

import numpy as np

from .errors import ShapeError
from .tensor import Segments, Tensor, accumulate

TERMS = ("cls", "feature", "modal")  # the order of main_loss's arguments


def _cross_entropy(logits, labels, segments=None):
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"label outside [0, {num_classes}): {labels.min()}..{labels.max()}")
    segments = segments or Segments([n])
    rows = np.arange(n)
    peak = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - peak
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    per_row = np.log(total[:, 0]) - shifted[rows, labels]

    def backward(g):
        grad = e / total  # the row softmax
        grad[rows, labels] -= 1.0
        accumulate(logits, grad * segments.row_weights(g))

    return Tensor._op(segments.sums(per_row) * segments.inv_lengths,
                      (logits,), backward)


def cls_loss(outputs, labels, segments=None):
    """Mean cross-entropy of the classifier outputs against the labels."""
    return _cross_entropy(outputs, labels, segments)


def modal_loss(fused, labels, segments=None):
    """Mean cross-entropy applied directly to the fused cosine logits."""
    return _cross_entropy(fused, labels, segments)


def feature_loss(attention, mapped, segments=None):
    """Per-utterance mean of the summed L1 gap, over all modalities, as one
    node.

    Zero exactly when every attention map equals its prediction; symmetric
    in its two arguments.
    """
    parents = [t for m in attention for t in (attention[m], mapped[m])]
    segments = segments or Segments([parents[0].shape[0]])
    gaps = [att.data - hat.data for att, hat in zip(parents[::2],
                                                    parents[1::2])]
    loss = 0.0
    for gap in gaps:
        loss = loss + segments.sums(np.abs(gap))

    def backward(g):
        weights = segments.row_weights(g)
        for att, hat, gap in zip(parents[::2], parents[1::2], gaps):
            g_gap = weights * np.sign(gap)
            accumulate(att, g_gap)
            accumulate(hat, -g_gap)

    return Tensor._op(loss * segments.inv_lengths, parents, backward)


def main_loss(cls_term, feature_term, modal_term):
    """The unweighted total of the three terms, as one 0-d node: the sum,
    over the conversations of a pack, of each conversation's three terms
    (or of three 0-d terms). In training, ``training._pack_losses`` has
    already refused a non-finite term, naming its conversation."""
    terms = (cls_term, feature_term, modal_term)

    def backward(g):
        for term in terms:
            accumulate(term, np.broadcast_to(g, term.shape))

    return Tensor._op((cls_term.data + feature_term.data
                       + modal_term.data).sum(), terms, backward)
