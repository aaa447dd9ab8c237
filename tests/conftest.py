"""Shared test utilities: central finite-difference gradient checking."""

import numpy as np


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
