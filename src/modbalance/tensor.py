"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and 64-bit. Operations build a dynamic graph;
calling ``backward()`` on a scalar propagates gradients to every reachable
tensor with ``requires_grad=True``, accumulating additively when a tensor
is consumed more than once. Each op hands ``Tensor._op`` a backward
function of its output gradient; the result holds it only when the result
is a graph node, and no backward function refers to its own output, so
results never form reference cycles.
"""

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


def _accumulate(t, g):
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

    @property
    def T(self):
        return self.transpose()

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # --- backward pass ---

    def backward(self):
        """Propagate ``d(self)/d(leaf)`` into every reachable ``grad``.

        ``self`` must be a scalar. Each graph node is visited exactly once,
        in reverse topological order; gradients from multiple uses add up.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
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
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # --- arithmetic (broadcasting, numpy rules) ---

    def __add__(self, other):
        other = _as_tensor(other)

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(g, other.data.shape))

        return Tensor._op(self.data + other.data, (self, other), backward)

    def __neg__(self):
        def backward(g):
            _accumulate(self, -g)

        return Tensor._op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = _as_tensor(other)

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(-g, other.data.shape))

        return Tensor._op(self.data - other.data, (self, other), backward)

    def __mul__(self, other):
        other = _as_tensor(other)

        def backward(g):
            _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._op(self.data * other.data, (self, other), backward)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _as_tensor(other)

        def backward(g):
            _accumulate(self, _unbroadcast(g / other.data, self.data.shape))
            _accumulate(other, _unbroadcast(
                -g * self.data / (other.data * other.data), other.data.shape))

        return Tensor._op(self.data / other.data, (self, other), backward)

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-d operands, got {self.shape} @ {other.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul inner dims differ: {self.shape} @ {other.shape}")

        def backward(g):
            _accumulate(self, g @ other.data.T)
            _accumulate(other, self.data.T @ g)

        return Tensor._op(self.data @ other.data, (self, other), backward)

    # --- elementwise functions ---

    def relu(self):
        def backward(g):
            _accumulate(self, g * (self.data > 0.0))

        return Tensor._op(np.maximum(self.data, 0.0), (self,), backward)

    def log(self):
        def backward(g):
            _accumulate(self, g / self.data)

        return Tensor._op(np.log(self.data), (self,), backward)

    def sqrt(self):
        y = np.sqrt(self.data)

        def backward(g):
            _accumulate(self, g * 0.5 / y)

        return Tensor._op(y, (self,), backward)

    def abs(self):
        def backward(g):
            _accumulate(self, g * np.sign(self.data))

        return Tensor._op(np.abs(self.data), (self,), backward)

    def clamp_min(self, floor):
        """Elementwise max(self, floor); gradient passes only above the floor."""
        floor = float(floor)

        def backward(g):
            _accumulate(self, g * (self.data > floor))

        return Tensor._op(np.maximum(self.data, floor), (self,), backward)

    # --- reductions ---

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))

        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # --- shape manipulation ---

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(g):
            _accumulate(self, g.reshape(original))

        return Tensor._op(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes=None):
        inverse = None if axes is None else tuple(np.argsort(axes))

        def backward(g):
            _accumulate(self, np.transpose(g, inverse))

        return Tensor._op(np.transpose(self.data, axes), (self,), backward)


def softmax_array(x, axis=-1):
    """Numerically stable softmax of a numpy array along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``; slices sum to 1."""
    x = _as_tensor(x)
    y = softmax_array(x.data, axis=axis)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - inner))

    return Tensor._op(y, (x,), backward)


def khatri_rao_mode1(a, b):
    """Row-wise (mode-1) Khatri-Rao product of two matrices.

    Row i of the result is the row-major flattened outer product of row i
    of ``a`` (N x p) with row i of ``b`` (N x q), giving N x (p*q).
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"khatri_rao_mode1 expects matrices, got {a.shape} and {b.shape}")
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(
            f"khatri_rao_mode1 row counts differ: {a.shape} vs {b.shape}")
    n, p = a.data.shape
    q = b.data.shape[1]

    def backward(g):
        g = g.reshape(n, p, q)
        _accumulate(a, (g * b.data[:, None, :]).sum(axis=2))
        _accumulate(b, (g * a.data[:, :, None]).sum(axis=1))

    data = (a.data[:, :, None] * b.data[:, None, :]).reshape(n, p * q)
    return Tensor._op(data, (a, b), backward)


def contract_last(x, a):
    """Contract the trailing axis of a 3-d tensor with a matrix.

    result[d, i, k] = sum_j x[d, i, j] * a[j, k]
    """
    x = _as_tensor(x)
    a = _as_tensor(a)
    if x.data.ndim != 3 or a.data.ndim != 2:
        raise ShapeError(
            f"contract_last expects 3-d x and 2-d a, got {x.shape} and {a.shape}")
    if x.data.shape[-1] != a.data.shape[0]:
        raise ShapeError(
            f"contract_last dims differ: {x.shape} vs {a.shape}")

    def backward(g):
        _accumulate(x, np.matmul(g, a.data.T))
        _accumulate(a, np.einsum("dij,dik->jk", x.data, g))

    return Tensor._op(np.matmul(x.data, a.data), (x, a), backward)


def l2_norm(x, axis=None, keepdims=False):
    """Euclidean norm along ``axis``, built from differentiable primitives."""
    x = _as_tensor(x)
    return ((x * x).sum(axis=axis, keepdims=keepdims)).sqrt()


def layer_norm_rows(x, gamma, beta, eps=1e-6):
    """Standardize each row to zero mean / unit variance, then rescale.

    Fused forward and backward. eps bounds the 1/std factor when a row
    degenerates to a constant, while staying small enough that ordinary
    rows standardize to unit variance well inside 1e-6.
    """
    x = _as_tensor(x)
    gamma = _as_tensor(gamma)
    beta = _as_tensor(beta)
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    standardized = centered * inv_std

    def backward(g):
        _accumulate(gamma, (g * standardized).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            gg_mean = gg.mean(axis=1, keepdims=True)
            proj = (gg * standardized).mean(axis=1, keepdims=True)
            _accumulate(x, inv_std * (gg - gg_mean - standardized * proj))

    return Tensor._op(standardized * gamma.data + beta.data,
                      (x, gamma, beta), backward)


def bmm(a, b):
    """Batched matrix product of two stacks: (H, n, k) @ (H, k, m)."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(f"bmm expects 3-d stacks, got {a.shape} and {b.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeError(f"bmm shapes are incompatible: {a.shape} @ {b.shape}")

    def backward(g):
        _accumulate(a, np.matmul(g, b.data.swapaxes(1, 2)))
        _accumulate(b, np.matmul(a.data.swapaxes(1, 2), g))

    return Tensor._op(np.matmul(a.data, b.data), (a, b), backward)
