"""Modality-level balancing: cosine-normalized fusion into class logits.

Each modality contributes, per class, the cosine between its feature row
and the class column of its output matrix, so no modality can dominate the
fused logits by sheer feature or weight magnitude. Contributions are summed
over the active modalities and a single shared bias is added afterwards.
A small ReLU classifier maps the fused logits to the final predictions.

The whole fusion (every modality's cosine term and the bias) is one graph
node with a hand-written backward. A feature row or weight column whose
norm is at or below ``NORM_FLOOR`` is divided by the floor instead and
gets a zero gradient, so a missing (all-zero) modality stays finite and
adds a constant 0 to every cosine logit.
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
    part of ``g``. At the floor ``x`` is taken as missing: its gradient is
    zero, so a zero feature row or weight column neither learns nor blows
    up (``g / NORM_FLOOR`` would be a factor of 1e12).
    """
    radial = (g * unit).sum(axis=axis, keepdims=True)
    return (g - unit * radial) / norm * (norm > NORM_FLOOR)


def fuse_modalities(features, head, active=MODALITIES, normalized=True):
    """Fuse per-modality features into class logits, as one graph node.

    Returns ``(logits, contributions)`` where ``contributions[m]`` is the
    bias-free (N x |E|) array of modality ``m``'s term. With ``normalized``
    each entry is the cosine of a feature row of ``m`` with a column of its
    output matrix, in [-1, 1]; without it the fusion degrades to a plain
    linear map ``z @ w`` (the no-normalization ablation). The terms are
    summed in ``active`` order and the shared bias is added last.
    """
    contributions, parts, parents = {}, [], []
    logits = None
    for m in active:
        z, w = features[m], head.weights[m]
        if normalized:
            z_norm = _floored_norm(z.data, axis=1, what=f"{m} feature rows")
            w_norm = _floored_norm(w.data, axis=0, what=f"{m} weight columns")
            zn, wn = z.data / z_norm, w.data / w_norm
        else:
            z_norm = w_norm = None
            zn, wn = z.data, w.data
        contributions[m] = zn @ wn
        logits = (contributions[m] if logits is None
                  else logits + contributions[m])
        parts.append((z, w, zn, wn, z_norm, w_norm))
        parents += (z, w)

    def backward(g):
        for z, w, zn, wn, z_norm, w_norm in parts:
            g_z, g_w = g @ wn.T, zn.T @ g
            if normalized:
                g_z = _normalize_vjp(zn, z_norm, g_z, axis=1)
                g_w = _normalize_vjp(wn, w_norm, g_w, axis=0)
            accumulate(z, g_z)
            accumulate(w, g_w)
        accumulate(head.bias, g.sum(axis=0))

    return (Tensor._op(logits + head.bias.data, (*parents, head.bias),
                       backward), contributions)


def classify(fused, params):
    """Final prediction logits; argmax over the last axis picks the class."""
    return feed_forward(fused, params.w1, params.b1, params.w2, params.b2)


def weight_norm_trace(head, active=MODALITIES):
    """Column norms ||W_k^m|| as an (M x |E|) diagnostic matrix."""
    return np.stack([
        np.linalg.norm(head.weights[m].data, axis=0) for m in active
    ])
