"""Shared test utilities: central finite-difference gradient checking and
a scalar projection of op outputs to check them through."""

import numpy as np

from modbalance.tensor import Tensor, accumulate


def project(*terms):
    """The scalar node ``sum_t sum(t * w)`` over ``terms``, each a Tensor
    (``w`` all ones) or a ``(Tensor, w)`` pair with ``w`` an array that
    broadcasts to it. Its backward sends ``w`` times the incoming gradient,
    at the tensor's shape, to each tensor; one that appears twice gets both
    gradients."""
    pairs = [(t, np.ones(t.shape)) if isinstance(t, Tensor)
             else (t[0], np.asarray(t[1], dtype=np.float64)) for t in terms]

    def backward(g):
        for t, w in pairs:
            accumulate(t, np.broadcast_to(g * w, t.shape))

    value = sum((t.data * w).sum() for t, w in pairs)
    return Tensor._op(value, tuple(t for t, _ in pairs), backward)


def numeric_grad(f, param, h=1e-5):
    """Central finite differences of scalar ``f()`` w.r.t. ``param.data``.

    ``f`` must recompute the forward pass from the live tensor objects so
    that in-place perturbations of ``param.data`` are observed.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        f_plus = f()
        flat[i] = original - h
        f_minus = f()
        flat[i] = original
        flat_grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def assert_grad_matches(build, params, h=1e-5, tol=1e-4):
    """Backward gradients of ``build()`` must match finite differences.

    Relative error |ad - fd| / max(1, |fd|) below ``tol`` elementwise.
    """
    for p in params:
        p.grad = None
    loss = build()
    loss.backward()
    for p in params:
        autodiff = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        fd = numeric_grad(lambda: build().item(), p, h=h)
        err = np.abs(autodiff - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() < tol, f"gradient mismatch: max rel err {err.max():.3e}"
