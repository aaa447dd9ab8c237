"""Modality-level balancing: cosine-normalized fusion into class logits.

Each modality contributes, per class, the cosine between its feature row
and the class column of its output matrix, so no modality can dominate the
fused logits by sheer feature or weight magnitude. Contributions are summed
over the active modalities and a single shared bias is added afterwards.
A small ReLU classifier maps the fused logits to the final predictions.

Each modality's cosine term is one graph node with a hand-written
backward. A feature row or weight column whose norm is below
``NORM_FLOOR`` is divided by the floor instead, and its gradient is the
plain ``1 / floor`` scaling, so it stays finite.
"""

import logging

import numpy as np

from .dataset import MODALITIES
from .tensor import Tensor, accumulate, feed_forward

logger = logging.getLogger(__name__)

NORM_FLOOR = 1e-12


class FusionHead:
    """Per-modality output matrices (h x |E|) and one shared bias, made by
    ``new`` (a ``tensor.Parameters``) under ``prefix`` in this order."""

    def __init__(self, hidden, num_classes, new, prefix):
        self.weights = {m: new(f"{prefix}.{m}.w", (hidden, num_classes),
                               hidden)
                        for m in MODALITIES}
        self.bias = new(f"{prefix}.b", (num_classes,), "zeros")


class ClassifierParams:
    """ReLU MLP |E| -> hidden -> |E| on top of the fused logits, made by
    ``new`` (a ``tensor.Parameters``) under ``prefix`` in this order."""

    def __init__(self, num_classes, hidden, new, prefix):
        self.w1 = new(f"{prefix}.w1", (num_classes, hidden), num_classes)
        self.b1 = new(f"{prefix}.b1", (hidden,), "zeros")
        self.w2 = new(f"{prefix}.w2", (hidden, num_classes), hidden)
        self.b2 = new(f"{prefix}.b2", (num_classes,), "zeros")


def _floored_norm(x, axis, what):
    """Euclidean norms of ``x`` along ``axis`` (kept as a size-1 axis),
    raised to ``NORM_FLOOR``; logs how many were raised. A slice whose sum
    of squares overflows (an entry past about 1.3e154) is divided by its
    largest |entry| first; every other slice is summed as it is."""
    with np.errstate(over="ignore"):
        norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    huge = np.isinf(norm)
    if huge.any():
        peak = np.where(huge, np.abs(x).max(axis=axis, keepdims=True), 1.0)
        rescaled = np.sqrt(((x / peak) ** 2).sum(axis=axis, keepdims=True))
        norm = np.where(huge, peak * rescaled, norm)
    degenerate = int((norm <= NORM_FLOOR).sum())
    if degenerate:
        logger.warning(
            "%d zero-norm %s hit the %g floor during cosine fusion",
            degenerate, what, NORM_FLOOR)
    return np.maximum(norm, NORM_FLOOR)


def _normalize_vjp(unit, norm, g, axis):
    """Gradient at ``x`` of ``unit = x / norm``, given ``g`` at ``unit``.

    Above the floor the norm is ``|x|`` and the gradient removes the radial
    part of ``g``; at the floor the norm is a constant.
    """
    radial = (g * unit).sum(axis=axis, keepdims=True) * (norm > NORM_FLOOR)
    return (g - unit * radial) / norm


def _cosine_logits(z, w, m):
    """Cosine of each row of ``z`` (N x h) with each column of ``w``
    (h x |E|), as one graph node; ``m`` names the modality in warnings."""
    z_norm = _floored_norm(z.data, axis=1, what=f"{m} feature rows")
    w_norm = _floored_norm(w.data, axis=0, what=f"{m} weight columns")
    zn = z.data / z_norm
    wn = w.data / w_norm

    def backward(g):
        if z.requires_grad:
            accumulate(z, _normalize_vjp(zn, z_norm, g @ wn.T, axis=1))
        accumulate(w, _normalize_vjp(wn, w_norm, zn.T @ g, axis=0))

    return Tensor._op(zn @ wn, (z, w), backward)


def fuse_modalities(features, head, active=MODALITIES, normalized=True):
    """Fuse per-modality features into class logits.

    Returns ``(logits, contributions)`` where ``contributions[m]`` is the
    bias-free (N x |E|) term of modality ``m``. With ``normalized`` each
    entry is a cosine in [-1, 1]; without it the fusion degrades to a plain
    linear map (the no-normalization ablation).
    """
    contributions = {}
    logits = None
    for m in active:
        z = features[m]
        w = head.weights[m]
        if normalized:
            contrib = _cosine_logits(z, w, m)
        else:
            contrib = z @ w
        contributions[m] = contrib
        logits = contrib if logits is None else logits + contrib
    return logits + head.bias, contributions


def classify(fused, params):
    """Final prediction logits; argmax over the last axis picks the class."""
    return feed_forward(fused, params.w1, params.b1, params.w2, params.b2)


def weight_norm_trace(head, active=MODALITIES):
    """Column norms ||W_k^m|| as an (M x |E|) diagnostic matrix."""
    return np.stack([
        np.linalg.norm(head.weights[m].data, axis=0) for m in active
    ])
