"""Per-modality transformer encoders over utterance sequences.

Each modality gets its own encoder: an input projection to the shared
hidden size followed by post-norm transformer blocks (multi-head
self-attention, two-layer feed-forward, residuals, layer norm). These are
the parameter blocks the balance optimizer modulates, so they are kept
cleanly separable from the fusion parameters.

Multi-head self-attention is one graph node with a hand-written backward,
and each projection is one ``linear`` node, so a layer adds eight nodes to
the graph whatever the number of heads. The rows are a pack of one or more
conversations (``tensor.Segments``): every node but self-attention works
on the rows alone; self-attention projects the whole pack in one matmul
and attends within each conversation. Each node can write each
conversation's gradient of its parameters into that conversation's row of
``segments.grads``, which is how training gets the per-conversation
encoder gradients its noise estimate needs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    accumulate,
    accumulate_params,
    affine_grads,
    layer_norm_rows,
    linear,
    softmax_array,
    softmax_vjp,
)


@dataclass
class EncoderConfig:
    hidden: int = 32
    layers: int = 2
    heads: int = 4
    ffn: int = 64
    dropout: float = 0.0

    def validate(self):
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden size {self.hidden} not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if min(self.hidden, self.layers, self.heads, self.ffn) < 1:
            raise ConfigError("encoder dimensions must be positive")
        return self


def uniform_init(rng, shape, fan_in):
    """Seeded uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    scale = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape):
    return Tensor(np.ones(shape), requires_grad=True)


class EncoderParams:
    """Weights for one modality's encoder; creation order is fixed."""

    def __init__(self, input_dim, config, rng):
        config.validate()
        h, f = config.hidden, config.ffn
        self.input_dim = input_dim
        self.config = config
        self.w_in = uniform_init(rng, (input_dim, h), input_dim)
        self.b_in = zeros_param((h,))
        self.blocks = []
        for _ in range(config.layers):
            self.blocks.append({
                "wq": uniform_init(rng, (h, h), h),
                "wk": uniform_init(rng, (h, h), h),
                "wv": uniform_init(rng, (h, h), h),
                "wo": uniform_init(rng, (h, h), h),
                "bo": zeros_param((h,)),
                "ln1_g": ones_param((h,)),
                "ln1_b": zeros_param((h,)),
                "w1": uniform_init(rng, (h, f), h),
                "b1": zeros_param((f,)),
                "w2": uniform_init(rng, (f, h), f),
                "b2": zeros_param((h,)),
                "ln2_g": ones_param((h,)),
                "ln2_b": zeros_param((h,)),
            })

    def named_parameters(self, prefix):
        yield f"{prefix}.in_proj.w", self.w_in
        yield f"{prefix}.in_proj.b", self.b_in
        for i, block in enumerate(self.blocks):
            for key, value in block.items():
                yield f"{prefix}.block{i}.{key}", value


def _dropout(x, rate, rng):
    if rng is None or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def _self_attention(x, block, heads, segments):
    """Multi-head scaled dot-product self-attention over the rows of ``x``,
    with its output projection, as one graph node.

    The query, key and value weights stay separate parameters; they are
    joined column-wise here so one matmul projects all three. Each
    conversation of ``segments`` attends only to its own rows.
    """
    wq, wk, wv, wo, bo = (block[k] for k in ("wq", "wk", "wv", "wo", "bo"))
    n, h = x.shape
    head_dim = h // heads
    scale = 1.0 / np.sqrt(head_dim)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    # (n, 3h) -> per conversation, three (heads, rows, head_dim) stacks
    qkv = (x.data @ w_qkv).reshape(n, 3, heads, head_dim)
    mixed = np.empty((n, heads, head_dim))
    attended = []
    for rows in segments.slices:
        q, k, v = qkv[rows].transpose(1, 2, 0, 3)
        weights = softmax_array(np.matmul(q, k.swapaxes(1, 2)) * scale, axis=2)
        mixed[rows] = np.matmul(weights, v).transpose(1, 0, 2)
        attended.append((q, k, v, weights))
    mixed = mixed.reshape(n, h)

    def backward(g):
        accumulate_params((wo, bo), affine_grads, (mixed, g), segments)
        g_mixed = (g @ wo.data.T).reshape(n, heads, head_dim)
        g_mixed = g_mixed.transpose(1, 0, 2)
        g_qkv = np.empty((3, heads, n, head_dim))
        for rows, (q, k, v, weights) in zip(segments.slices, attended):
            g_heads = g_mixed[:, rows]
            g_scores = softmax_vjp(
                weights, np.matmul(g_heads, v.swapaxes(1, 2)), axis=2) * scale
            g_q, g_k, g_v = g_qkv[:, :, rows]
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


def encode(x, params, segments, rng=None):
    """Map raw utterance features (N x d_m) to hidden states (N x h).

    Deterministic unless dropout is enabled and an ``rng`` is supplied.
    ``segments`` marks the conversations of the rows (see the module note).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"encoder expects (N, {params.input_dim}) input, got {x.shape}")
    config = params.config
    z = linear(x, params.w_in, params.b_in, segments)
    for block in params.blocks:
        attn = _dropout(_self_attention(z, block, config.heads, segments),
                        config.dropout, rng)
        z = layer_norm_rows(z + attn, block["ln1_g"], block["ln1_b"],
                            segments=segments)
        ff = linear(linear(z, block["w1"], block["b1"], segments).relu(),
                    block["w2"], block["b2"], segments)
        z = layer_norm_rows(z + _dropout(ff, config.dropout, rng),
                            block["ln2_g"], block["ln2_b"], segments=segments)
    return z
