"""Per-modality transformer encoders over utterance sequences.

Each modality gets its own encoder: an input projection to the shared
hidden size followed by post-norm transformer blocks (multi-head
self-attention, two-layer feed-forward, residuals, layer norm). These are
the parameter blocks the balance optimizer modulates, so they are kept
cleanly separable from the fusion parameters.

Multi-head self-attention is one graph node with a hand-written backward,
the feed-forward network is one ``feed_forward`` node, and each residual
add is part of the ``layer_norm_rows`` node after it, so a layer adds four
nodes to the graph whatever the number of heads. The rows are a pack of
one or more conversations (``tensor.Segments``): every node but
self-attention works on the rows alone; self-attention projects the whole
pack in one matmul and attends within each conversation. Each node can
write each conversation's gradient of its parameters into that
conversation's row of ``segments.grads``, which is how training gets the
per-conversation encoder gradients its noise estimate needs.
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
    softmax_array,
    softmax_vjp,
)


class EncoderParams:
    """Weights for one modality's encoder, shaped by a
    ``model.ModelConfig``, made by ``new`` (a ``tensor.Parameters``) under
    ``prefix`` in this order."""

    def __init__(self, input_dim, config, new, prefix):
        h, f = config.hidden, config.ffn
        self.heads = config.heads
        self.w_in = new(f"{prefix}.in_proj.w", (input_dim, h), input_dim)
        self.b_in = new(f"{prefix}.in_proj.b", (h,), "zeros")
        layer = (("wq", (h, h), h),
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
        new.check_total(f"{prefix}.layers", (
            config.layers, sum(math.prod(shape) for _, shape, _ in layer)))
        self.blocks = [
            {key: new(f"{prefix}.block{i}.{key}", shape, init)
             for key, shape, init in layer}
            for i in range(config.layers)]


def _self_attention(x, block, heads, segments):
    """Multi-head scaled dot-product self-attention over the rows of ``x``,
    with its output projection, as one graph node.

    The query, key and value weights stay separate parameters; they are
    joined column-wise here so one matmul projects all three. Each
    conversation of ``segments`` attends only to its own rows. Queries,
    keys and values are head-major (heads, n, head_dim) views, so a
    conversation's rows of each are one slice, and ``matmul`` writes its
    attended values straight into its rows of the (n, heads, head_dim)
    output.
    """
    wq, wk, wv, wo, bo = (block[k] for k in ("wq", "wk", "wv", "wo", "bo"))
    n, h = x.shape
    head_dim = h // heads
    scale = 1.0 / np.sqrt(head_dim)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    # (n, 3h) -> a (3, heads, n, head_dim) view
    qkv = (x.data @ w_qkv).reshape(n, 3, heads, head_dim).transpose(
        1, 2, 0, 3)
    mixed = np.empty((n, heads, head_dim))
    attention = []
    for rows in segments.slices:
        q, k, v = qkv[:, :, rows]
        weights = softmax_array(np.matmul(q, k.swapaxes(1, 2)) * scale, axis=2)
        np.matmul(weights, v, out=mixed[rows].transpose(1, 0, 2))
        attention.append(weights)
    mixed = mixed.reshape(n, h)

    def backward(g):
        accumulate_params((wo, bo), affine_grads, (mixed, g), segments)
        g_mixed = (g @ wo.data.T).reshape(n, heads, head_dim)
        g_mixed = g_mixed.transpose(1, 0, 2)
        g_qkv = np.empty((3, heads, n, head_dim))
        for rows, weights in zip(segments.slices, attention):
            q, k, v = qkv[:, :, rows]
            g_q, g_k, g_v = g_qkv[:, :, rows]
            g_heads = g_mixed[:, rows]
            g_scores = softmax_vjp(
                weights, np.matmul(g_heads, v.swapaxes(1, 2)), axis=2)
            g_scores *= scale
            np.matmul(g_scores, k, out=g_q)
            np.matmul(g_scores.swapaxes(1, 2), q, out=g_k)
            np.matmul(weights.swapaxes(1, 2), g_heads, out=g_v)
        g_qkv = g_qkv.transpose(2, 0, 1, 3).reshape(n, 3 * h)

        def qkv_grads(xs, gs):
            g_w = xs.swapaxes(-1, -2) @ gs
            return g_w[..., :h], g_w[..., h:2 * h], g_w[..., 2 * h:]

        accumulate_params((wq, wk, wv), qkv_grads, (x.data, g_qkv), segments)
        accumulate(x, g_qkv @ w_qkv.T)

    return Tensor._op(mixed @ wo.data + bo.data, (x, wq, wk, wv, wo, bo),
                      backward)


def encode(x, params, segments):
    """Map raw utterance features (N x d_m) to hidden states (N x h).

    ``segments`` marks the conversations of the rows (see the module note).
    The caller (``Model.forward``) checks the shape of ``x``.
    """
    z = linear(Tensor(x), params.w_in, params.b_in, segments)
    for block in params.blocks:
        attn = _self_attention(z, block, params.heads, segments)
        z = layer_norm_rows(z, block["ln1_g"], block["ln1_b"],
                            segments=segments, residual=attn)
        ff = feed_forward(z, block["w1"], block["b1"], block["w2"],
                          block["b2"], segments)
        z = layer_norm_rows(z, block["ln2_g"], block["ln2_b"],
                            segments=segments, residual=ff)
    return z
