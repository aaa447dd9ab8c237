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
once.

A graph runs one or more conversations, packed row-wise into one
sequence; ``Segments`` says which rows belong to which conversation, and a
lone conversation of N rows is ``Segments([N])``. Only ops that mix rows
need it. It can also carry per-conversation gradient rows for some
parameter blocks: an op that finds its parameter there adds each
conversation's gradient into that conversation's row rather than one sum
into ``grad`` (the per-example gradients of Goodfellow, arXiv:1510.01799).

The model's cost is the Python overhead of each graph node, not its
arithmetic, so the hot layers are single fused nodes with a hand-written
backward: ``linear`` and ``layer_norm_rows`` here, and self-attention, the
tensor-ring steps, cosine fusion and cross-entropy in the modules that own
them. The ``Tensor`` methods are the few elementwise ops and reductions
that glue those nodes together.
"""

import itertools

import numpy as np

from .errors import ShapeError


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


def _as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def accumulate(t, g):
    """Add gradient ``g`` into ``t.grad``; a backward function's only way to
    pass a gradient on."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy: g may alias a producer's grad buffer or be a readonly view
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient ``g`` over axes that were broadcast up from ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Segments:
    """The conversations packed into one sequence of rows, in order.

    ``slices`` holds each conversation's rows, ``ids`` the conversation of
    each row and ``inv_lengths`` one over each conversation's length.
    ``grads`` maps parameter blocks to (S, *shape) arrays whose row j
    receives conversation j's gradient of that block (see
    ``accumulate_params``).
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
        """(S, longest, ...) stack of each conversation's rows of
        ``values``, zero-filled past its length, so that one reduction
        over axis 1 (a sum, or a batched matmul) gives every
        conversation's own; the trailing zeros add nothing."""
        stack = np.zeros((len(self), self._longest) + values.shape[1:])
        stack[self._place] = values
        return stack


def accumulate_params(params, grads_of, arrays, segments=None):
    """Pass on the gradients of ``params``, which ``grads_of(*arrays)``
    computes (one per parameter) from row arrays, reducing over axis -2.

    Without per-conversation rows for ``params`` in ``segments``, it runs
    on the arrays as they are and feeds ``accumulate``. With them, it runs
    on their padded stacks (``Segments.pad``), so each gradient gains a
    leading conversation axis, and is added into ``segments.grads``.
    """
    if segments is None or params[0] not in segments.grads:
        for p, g in zip(params, grads_of(*arrays)):
            accumulate(p, g)
        return
    for p, g in zip(params, grads_of(*map(segments.pad, arrays))):
        segments.grads[p] += g


def affine_grads(x, g):
    """Gradients of the weight and bias of ``x @ w + b`` given ``g`` at its
    output, over the rows (axis -2) of ``x`` and ``g``."""
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

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

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

    # --- arithmetic (broadcasting, numpy rules) ---

    def __add__(self, other):
        other = _as_tensor(other)

        def backward(g):
            accumulate(self, _unbroadcast(g, self.data.shape))
            accumulate(other, _unbroadcast(g, other.data.shape))

        return Tensor._op(self.data + other.data, (self, other), backward)

    def __mul__(self, other):
        other = _as_tensor(other)

        def backward(g):
            accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._op(self.data * other.data, (self, other), backward)

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-d operands, got {self.shape} @ {other.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul inner dims differ: {self.shape} @ {other.shape}")

        def backward(g):
            accumulate(self, g @ other.data.T)
            accumulate(other, self.data.T @ g)

        return Tensor._op(self.data @ other.data, (self, other), backward)

    # --- elementwise functions ---

    def relu(self):
        def backward(g):
            accumulate(self, g * (self.data > 0.0))

        return Tensor._op(np.maximum(self.data, 0.0), (self,), backward)

    # --- reductions ---

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            accumulate(self, np.broadcast_to(g, self.data.shape))

        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)


def softmax_array(x, axis=-1):
    """Numerically stable softmax of a numpy array along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(y, g, axis=-1):
    """Gradient at the input of ``y = softmax_array(x, axis)``, given the
    gradient ``g`` at its output."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def linear(x, w, b, segments=None):
    """Affine map ``x @ w + b`` of the rows of ``x``, as one graph node;
    ``segments`` may ask for per-conversation gradients of ``w`` and ``b``."""
    x = _as_tensor(x)
    if x.data.ndim != 2 or w.data.shape[0] != x.data.shape[1]:
        raise ShapeError(f"linear expects (N, {w.data.shape[0]}) input, "
                         f"got {x.shape}")

    def backward(g):
        if x.requires_grad:
            accumulate(x, g @ w.data.T)
        accumulate_params((w, b), affine_grads, (x.data, g), segments)

    return Tensor._op(x.data @ w.data + b.data, (x, w, b), backward)


def layer_norm_rows(x, gamma, beta, eps=1e-6, segments=None):
    """Standardize each row to zero mean / unit variance, then rescale.

    Fused forward and backward. eps bounds the 1/std factor when a row
    degenerates to a constant, while staying small enough that ordinary
    rows standardize to unit variance well inside 1e-6. ``segments`` may
    ask for per-conversation gradients of ``gamma`` and ``beta``.
    """
    x = _as_tensor(x)
    gamma = _as_tensor(gamma)
    beta = _as_tensor(beta)
    # sum / width is what ndarray.mean computes, without its Python overhead
    width = x.data.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) / width
    centered = x.data - mu
    var = (centered * centered).sum(axis=1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(var + eps)
    standardized = centered * inv_std

    def backward(g):
        scaled = g * standardized
        accumulate_params(
            (gamma, beta), lambda sg, g: (sg.sum(axis=-2), g.sum(axis=-2)),
            (scaled, g), segments)
        if x.requires_grad:
            gg = g * gamma.data
            gg_mean = gg.sum(axis=1, keepdims=True) / width
            proj = (gg * standardized).sum(axis=1, keepdims=True) / width
            accumulate(x, inv_std * (gg - gg_mean - standardized * proj))

    return Tensor._op(standardized * gamma.data + beta.data,
                      (x, gamma, beta), backward)
