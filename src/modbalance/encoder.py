"""Per-modality transformer encoders over utterance sequences, run stacked.

Each modality gets its own encoder: an input projection to the shared
hidden size followed by post-norm transformer blocks (multi-head
self-attention, two-layer feed-forward, residuals, layer norm). These are
the parameter blocks the balance optimizer modulates, so they are kept
cleanly separable from the fusion parameters.

The layer blocks of every modality have the same shapes, and the model
lays each modality's out in one row of a (3, layers * layer size) matrix,
so one block of a subset of modalities is a strided (M, *shape) view
(``layer_views``). ``EncoderStack`` holds those views as leaves, and
``encode`` runs the layers of all M active modalities as one computation
over (M, n, h) arrays: one set of numpy calls instead of M.

Multi-head self-attention is one graph node with a hand-written backward,
the feed-forward network is one ``feed_forward`` node, and each residual
add is part of the ``layer_norm_rows`` node after it, so a layer adds four
nodes to the graph whatever the number of heads and of modalities. A
forward adds the M in-projections, one node that stacks them and one per
modality that hands its (n, h) rows on. The rows are a pack of one or more
conversations (``tensor.Segments``): every node but self-attention works
on the rows alone; self-attention projects the whole pack in one matmul
and attends within each conversation. Each node can write each
conversation's gradient of its parameters into that conversation's row of
``segments.grads``, which is how training gets the per-conversation
encoder gradients its noise estimate needs.
"""

import math

import numpy as np

from .tensor import (
    Tensor,
    accumulate,
    accumulate_params,
    affine_grads,
    feed_forward,
    layer_norm_rows,
    linear,
    softmax_vjp,
)


def layer_blocks(config):
    """(key, shape, init) of each block of one encoder layer, in order."""
    h, f = config.hidden, config.ffn
    return (("wq", (h, h), h),
            ("wk", (h, h), h),
            ("wv", (h, h), h),
            ("wo", (h, h), h),
            ("bo", (h,), "zeros"),
            ("ln1_g", (h,), "ones"),
            ("ln1_b", (h,), "zeros"),
            ("w1", (h, f), h),
            ("b1", (f,), "zeros"),
            ("w2", (f, h), f),
            ("b2", (h,), "zeros"),
            ("ln2_g", (h,), "ones"),
            ("ln2_b", (h,), "zeros"))


def layer_views(rows, config):
    """Each layer's blocks, key -> view, of ``rows``: an (..., layers *
    layer size) array whose last axis holds one modality's layer blocks in
    the order they are made. A block of shape ``shape`` is an
    ``rows.shape[:-1] + shape`` view."""
    views, start = [], 0
    for _ in range(config.layers):
        block = {}
        for key, shape, _ in layer_blocks(config):
            stop = start + math.prod(shape)
            block[key] = rows[..., start:stop].reshape(rows.shape[:-1] + shape)
            start = stop
        views.append(block)
    return views


class EncoderParams:
    """Weights for one modality's encoder, shaped by a
    ``model.ModelConfig``, made by ``new`` (a ``tensor.Parameters``) under
    ``prefix`` in this order."""

    def __init__(self, input_dim, config, new, prefix):
        h = config.hidden
        self.w_in = new(f"{prefix}.in_proj.w", (input_dim, h), input_dim)
        self.b_in = new(f"{prefix}.in_proj.b", (h,), "zeros")
        layer = layer_blocks(config)
        new.check_total(f"{prefix}.layers", (
            config.layers, sum(math.prod(shape) for _, shape, _ in layer)))
        self.blocks = [
            {key: new(f"{prefix}.block{i}.{key}", shape, init)
             for key, shape, init in layer}
            for i in range(config.layers)]


class EncoderStack:
    """The encoder parameters of the modality subset ``active``: each
    modality's in-projection ``(w_in, b_in)`` from ``encoders`` and, for
    each layer, its blocks as (M, *shape) leaves. A leaf's ``data`` and
    ``grad`` are views of ``theta_rows`` and ``grad_rows``, (M, layers *
    layer size) views of the active modalities' rows of the layer matrix,
    so a step through them updates the model's own blocks."""

    def __init__(self, active, encoders, config, theta_rows, grad_rows):
        self.modalities = active
        self.heads = config.heads
        self.in_proj = [(encoders[m].w_in, encoders[m].b_in) for m in active]
        self.blocks = []
        for data, grad in zip(layer_views(theta_rows, config),
                              layer_views(grad_rows, config)):
            block = {}
            for key, value in data.items():
                leaf = block[key] = Tensor(value, requires_grad=True)
                leaf.grad = grad[key]
            self.blocks.append(block)


def _self_attention(x, block, heads, segments):
    """Multi-head scaled dot-product self-attention over the rows of each
    matrix of ``x``, an (M, n, h) stack, with its output projection, as
    one graph node; matrix i uses the weights of ``block`` at index i.

    The query, key and value weights stay separate parameters; they are
    joined column-wise here so one matmul projects all three. Each
    conversation of ``segments`` attends only to its own rows. Queries,
    keys and values are head-major (M, heads, n, head_dim) views, so a
    conversation's rows of each are one slice, and ``matmul`` writes its
    attended values straight into its rows of the (M, n, heads, head_dim)
    output. Its softmax runs in place in its score buffer, so a
    conversation keeps one (M, heads, rows, rows) array.
    """
    wq, wk, wv, wo, bo = (block[k] for k in ("wq", "wk", "wv", "wo", "bo"))
    m, n, h = x.shape
    head_dim = h // heads
    scale = 1.0 / np.sqrt(head_dim)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=-1)
    # (M, n, 3h) -> a (3, M, heads, n, head_dim) view
    qkv = (x.data @ w_qkv).reshape(m, n, 3, heads, head_dim).transpose(
        2, 0, 3, 1, 4)
    mixed = np.empty((m, n, heads, head_dim))
    attention = []
    for rows in segments.slices:
        q, k, v = qkv[:, :, :, rows]
        weights = np.matmul(q, k.swapaxes(-1, -2))
        weights *= scale
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        np.matmul(weights, v, out=mixed[:, rows].transpose(0, 2, 1, 3))
        attention.append(weights)
    mixed = mixed.reshape(m, n, h)

    def backward(g):
        accumulate_params((wo, bo), affine_grads, (mixed, g), segments)
        g_mixed = (g @ wo.data.swapaxes(-1, -2)).reshape(m, n, heads,
                                                        head_dim)
        g_mixed = g_mixed.transpose(0, 2, 1, 3)
        g_qkv = np.empty((3, m, heads, n, head_dim))
        for rows, weights in zip(segments.slices, attention):
            q, k, v = qkv[:, :, :, rows]
            g_q, g_k, g_v = g_qkv[:, :, :, rows]
            g_heads = g_mixed[:, :, rows]
            g_scores = softmax_vjp(
                weights, np.matmul(g_heads, v.swapaxes(-1, -2)), axis=-1)
            g_scores *= scale
            np.matmul(g_scores, k, out=g_q)
            np.matmul(g_scores.swapaxes(-1, -2), q, out=g_k)
            np.matmul(weights.swapaxes(-1, -2), g_heads, out=g_v)
        g_qkv = g_qkv.transpose(1, 3, 0, 2, 4).reshape(m, n, 3 * h)

        def qkv_grads(xs, gs):
            g_w = xs.swapaxes(-1, -2) @ gs
            return g_w[..., :h], g_w[..., h:2 * h], g_w[..., 2 * h:]

        accumulate_params((wq, wk, wv), qkv_grads, (x.data, g_qkv), segments)
        accumulate(x, g_qkv @ w_qkv.swapaxes(-1, -2))

    return Tensor._op(mixed @ wo.data + bo.data[:, None], (x, wq, wk, wv, wo,
                                                          bo), backward)


def _stack(parts):
    """The (M, n, h) stack of M (n, h) tensors, as one graph node."""

    def backward(g):
        for part, g_part in zip(parts, g):
            accumulate(part, g_part)

    return Tensor._op(np.stack([p.data for p in parts]), tuple(parts),
                      backward)


def _row(z, i):
    """Matrix ``i`` of the (M, n, h) tensor ``z``, a view, as one graph
    node. The rows of ``encode``'s output are the only consumers of ``z``,
    one per matrix, so each writes its gradient into ``z.grad`` whole."""

    def backward(g):
        if z.grad is None:
            z.grad = np.zeros(z.shape)
        z.grad[i] = g

    return Tensor._op(z.data[i], (z,), backward)


def encode(features, stack, segments):
    """Map each active modality's raw utterance features (N x d_m) to
    hidden states (N x h): a dict in ``stack.modalities`` order.

    ``stack`` is the ``EncoderStack`` of the active modalities and
    ``segments`` marks the conversations of the rows (see the module
    note). The caller (``Model.forward``) checks the shapes of
    ``features``.
    """
    z = _stack([linear(Tensor(features[m]), w, b, segments)
                for m, (w, b) in zip(stack.modalities, stack.in_proj)])
    for block in stack.blocks:
        attn = _self_attention(z, block, stack.heads, segments)
        z = layer_norm_rows(z, block["ln1_g"], block["ln1_b"],
                            segments=segments, residual=attn)
        ff = feed_forward(z, block["w1"], block["b1"], block["w2"],
                          block["b2"], segments)
        z = layer_norm_rows(z, block["ln2_g"], block["ln2_b"],
                            segments=segments, residual=ff)
    return {m: _row(z, i) for i, m in enumerate(stack.modalities)}
