"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and 64-bit. Operations build a dynamic graph;
calling ``backward()`` on a scalar propagates gradients to every reachable
tensor with ``requires_grad=True``, accumulating additively when a tensor
is consumed more than once. Each op hands ``Tensor._op`` a backward
function of its output gradient; the result holds it only when the result
is a graph node, and no backward function refers to its own output, so
results never form reference cycles. ``backward()`` releases the graph as
it goes: once a node has passed its gradient on, it drops that gradient,
its parents and its backward function (and with it the forward arrays the
function kept). Leaves keep their gradients; a graph is backpropagated
once. A model's learned leaves, its parameter blocks, are made by
``Parameters``, each under its name, in the order of its registry.

A graph runs one or more conversations, packed row-wise into one
sequence; ``Segments`` says which rows belong to which conversation, and a
lone conversation of N rows is ``Segments([N])``. Only ops that mix rows
need it. It can also carry per-conversation gradient rows for some
parameter blocks: an op that finds its parameter there writes each
conversation's gradient into that conversation's row rather than adding
one sum into ``grad`` (the per-example gradients of Goodfellow,
arXiv:1510.01799). Each such block feeds exactly one node of a graph, so
its rows are written once per backward and need no zeroing before it.

Each graph node costs Python overhead and keeps its forward arrays until
the backward reaches it, so the hot layers are single fused nodes with a
hand-written backward. Here: ``linear``; ``feed_forward`` (linear, ReLU,
linear, keeping only the rectified hidden rows); and ``layer_norm_rows``,
which can take the residual add before it. Each also runs an (M, n, w)
stack of row matrices with (M, ...) parameters, matrix i with parameters
i, in one node (the encoder runs its modalities' layers so); their rows
are always on axis -2, and so are those ``Segments.pad`` and
``accumulate_params`` reduce over. Self-attention, the tensor-ring steps,
cosine fusion, cross-entropy and the total loss are fused in the modules
that own them; ``Tensor`` itself has no arithmetic.
"""

import itertools
import math

import numpy as np

from .errors import ConfigError, ShapeError


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (faster inference)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def accumulate(t, g):
    """Add gradient ``g`` into ``t.grad``, if ``t`` requires gradients: how
    a backward function passes a gradient to a parent (the rows of
    ``Segments.grads`` are written by ``accumulate_params`` instead)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy: g may alias a producer's grad buffer or be a readonly view
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class Segments:
    """The conversations packed into one sequence of rows, in order.

    ``slices`` holds each conversation's rows, ``ids`` the conversation of
    each row and ``inv_lengths`` one over each conversation's length.
    ``grads`` maps parameter blocks to (S, *shape) arrays whose row j
    is written, once per backward, with conversation j's gradient of that
    block (see ``accumulate_params``).
    """

    def __init__(self, lengths, grads=None):
        # plain-Python bounds: every forward builds a Segments, and numpy's
        # per-call overhead on a handful of ints outweighs the work
        bounds = list(itertools.accumulate(lengths, initial=0))
        self.slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.ids = np.arange(len(lengths)).repeat(lengths)
        self._place = (self.ids,
                       np.arange(bounds[-1]) - np.array(bounds)[self.ids])
        self._longest = max(lengths)
        self.inv_lengths = 1.0 / np.array(lengths, dtype=np.float64)
        self.grads = grads if grads is not None else {}

    def __len__(self):
        return len(self.slices)

    def sums(self, values):
        """Each conversation's sum of ``values`` (rows first)."""
        return np.array([values[s].sum() for s in self.slices])

    def row_weights(self, g):
        """Per-conversation ``g`` over each conversation's length, as a
        column with one entry per row: the gradient weights of a
        per-conversation mean."""
        return (g * self.inv_lengths).take(self.ids)[:, None]

    def pad(self, values):
        """(S, ..., longest, w) stack of each conversation's rows of
        ``values``, an (..., N, w) array with its rows on axis -2 (one
        (N, w) matrix per modality of a leading axis, say), zero-filled past
        each conversation's length, so that one reduction over axis -2 (a
        sum, or a batched matmul) gives every conversation's own; the
        trailing zeros add nothing.

        A lone conversation has no padding: its stack is the view
        ``values[None]``, so callers only read the stack."""
        if len(self) == 1:
            return values[None]
        stack = np.zeros((len(self),) + values.shape[:-2]
                         + (self._longest, values.shape[-1]))
        ids, place = self._place
        stack[ids, ..., place, :] = values.swapaxes(0, -2)
        return stack


def accumulate_params(params, grads_of, arrays, segments=None):
    """Pass on the gradients of ``params``, which ``grads_of(*arrays)``
    computes (one per parameter) from row arrays, reducing over axis -2;
    any axes before it (a leading modality axis) are carried through.

    Without per-conversation rows for ``params`` in ``segments``, it runs
    on the arrays as they are and feeds ``accumulate``. With them, it runs
    on their padded stacks (``Segments.pad``), so each gradient gains a
    leading conversation axis, and is written over the rows of
    ``segments.grads``: a block with rows feeds only this node, so nothing
    else adds to them.
    """
    if segments is None or params[0] not in segments.grads:
        for p, g in zip(params, grads_of(*arrays)):
            accumulate(p, g)
        return
    for p, g in zip(params, grads_of(*map(segments.pad, arrays))):
        segments.grads[p][...] = g


def affine_grads(x, g):
    """Gradients of the weight and bias of ``x @ w + b`` given ``g`` at its
    output, over the rows (axis -2) of ``x`` and ``g``, for each index of
    any axes before them."""
    return x.swapaxes(-1, -2) @ g, g.sum(axis=-2)


class Tensor:
    """N-dimensional float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward

    @staticmethod
    def _op(data, parents, backward):
        """Result of an op; ``backward(g)`` sends the result's gradient ``g``
        to ``parents``. The graph edges and ``backward`` are kept only if a
        parent needs gradients."""
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents,
                          _backward=backward)
        return Tensor(data)

    # --- basic introspection ---

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        """The value of a size-1 tensor, whatever its shape."""
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # --- backward pass ---

    def backward(self):
        """Propagate ``d(self)/d(leaf)`` into every reachable ``grad``.

        ``self`` must be a scalar. Each graph node is visited exactly once,
        in reverse topological order; gradients from multiple uses add up.
        Leaves have nothing to run, so the walk does not enter them. Each
        node is released right after it runs: it keeps its ``data`` but
        drops its ``grad``, ``_parents`` and backward function, so the
        graph's memory is freed while the walk is still going.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        if self._backward_fn is None:
            return
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if (parent._backward_fn is not None
                        and id(parent) not in visited):
                    stack.append((parent, False))
        for node in reversed(topo):
            node._backward_fn(node.grad)
            node.grad = node._backward_fn = None
            node._parents = ()


# numpy refuses an array whose size in bytes does not fit in np.intp
MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _too_large(name, shape, reason):
    return ConfigError(
        f"parameter block {name} of shape {shape} is too large: {reason}")


class Parameters:
    """Maker of a model's parameter blocks, in one fixed order.

    ``new(name, shape, init)`` returns a leaf Tensor that requires
    gradients, filled by ``init``: a fan-in (uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn from ``rng``), ``"zeros"`` or
    ``"ones"``. It records the block in ``blocks`` (name -> Tensor) and
    counts the entries made so far in ``size``. The order of the calls is
    both the order of the seeded draws and the order of ``blocks``. A shape
    numpy cannot address raises ConfigError naming the block, and so does
    ``check_total`` for blocks made in a loop, before the first is made.
    """

    def __init__(self, rng):
        self.rng = rng
        self.blocks = {}
        self.size = 0

    def __call__(self, name, shape, init):
        try:
            if init == "zeros":
                data = np.zeros(shape)
            elif init == "ones":
                data = np.ones(shape)
            else:
                scale = 1.0 / np.sqrt(init)
                data = self.rng.uniform(-scale, scale, size=shape)
        except ValueError as exc:  # numpy refuses the shape before allocating
            raise _too_large(name, shape, exc) from exc
        block = self.blocks[name] = Tensor(data, requires_grad=True)
        self.size += data.size
        return block

    @staticmethod
    def check_total(name, shape):
        """Refuse blocks that together hold as many entries as one array
        of ``shape`` (such as one row per encoder layer) when numpy could
        not address that array, as ``new`` refuses one block."""
        if math.prod(shape) > MAX_ENTRIES:
            raise _too_large(name, shape,
                             f"more than {MAX_ENTRIES} float64 entries")


def softmax_array(x, axis=-1):
    """Numerically stable softmax of a numpy array along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(y, g, axis=-1):
    """Gradient at the input of ``y = softmax_array(x, axis)``, given the
    gradient ``g`` at its output; computed in ``g``, which it returns."""
    g -= (g * y).sum(axis=axis, keepdims=True)
    g *= y
    return g


def linear(x, w, b, segments=None):
    """Affine map ``x @ w + b`` of the rows of ``x``, as one graph node;
    ``segments`` may ask for per-conversation gradients of ``w`` and ``b``."""

    def backward(g):
        if x.requires_grad:
            accumulate(x, g @ w.data.swapaxes(-1, -2))
        accumulate_params((w, b), affine_grads, (x.data, g), segments)

    return Tensor._op(x.data @ w.data + b.data[..., None, :], (x, w, b),
                      backward)


def feed_forward(x, w1, b1, w2, b2, segments=None):
    """Two-layer ReLU network ``relu(x @ w1 + b1) @ w2 + b2`` over the rows
    of ``x``, as one graph node; ``segments`` may ask for per-conversation
    gradients of its parameters, as ``linear`` does.

    It keeps only the post-ReLU hidden rows ``h``, rectified in place, and
    masks the backward with ``h > 0``, which equals ``pre > 0`` entry for
    entry, so values and gradients are bit for bit those of ``linear``,
    ReLU and ``linear`` as three nodes.
    """
    h = x.data @ w1.data + b1.data[..., None, :]
    np.maximum(h, 0.0, out=h)

    def backward(g):
        accumulate_params((w2, b2), affine_grads, (h, g), segments)
        g_pre = g @ w2.data.swapaxes(-1, -2)
        g_pre *= h > 0.0
        if x.requires_grad:
            accumulate(x, g_pre @ w1.data.swapaxes(-1, -2))
        accumulate_params((w1, b1), affine_grads, (x.data, g_pre), segments)

    return Tensor._op(h @ w2.data + b2.data[..., None, :],
                      (x, w1, b1, w2, b2), backward)


LN_EPS = 1e-6  # layer norm's variance offset and floor (layer_norm_rows)


def layer_norm_rows(x, gamma, beta, segments=None, residual=None):
    """Standardize each row of ``x`` (of ``x + residual`` when a residual
    is given) to zero mean / unit variance, then rescale.

    Fused forward and backward: the residual add is part of the node, and
    its input gradient (the gradient at the sum) goes to ``x`` and then to
    ``residual``. ``LN_EPS``, added to the variance, bounds the 1/std
    factor while staying small enough that ordinary rows standardize to
    unit variance well inside 1e-6. A row whose variance is at or below it
    (a constant row, as a zero-filled modality gives) gets a zero input
    gradient, which its 1/std of up to 1000 would otherwise amplify.
    ``segments`` may ask for per-conversation gradients of ``gamma`` and
    ``beta``.
    """
    inputs = (x,) if residual is None else (x, residual)
    rows = x.data if residual is None else x.data + residual.data
    gamma_rows = gamma.data[..., None, :]
    # sum / width is what ndarray.mean computes, without its Python overhead
    width = rows.shape[-1]
    mu = rows.sum(axis=-1, keepdims=True) / width
    centered = rows - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    standardized = centered * inv_std

    def backward(g):
        scaled = g * standardized
        accumulate_params(
            (gamma, beta), lambda sg, g: (sg.sum(axis=-2), g.sum(axis=-2)),
            (scaled, g), segments)
        if any(t.requires_grad for t in inputs):
            gg = g * gamma_rows
            gg_mean = gg.sum(axis=-1, keepdims=True) / width
            proj = (gg * standardized).sum(axis=-1, keepdims=True) / width
            g_rows = inv_std * (gg - gg_mean - standardized * proj)
            g_rows *= var > LN_EPS
            for t in inputs:
                accumulate(t, g_rows)

    return Tensor._op(standardized * gamma_rows + beta.data[..., None, :],
                      (*inputs, gamma, beta), backward)
