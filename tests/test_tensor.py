"""Autodiff engine: forward oracles and finite-difference gradient checks.

The Khatri-Rao product and the trailing-axis contraction have no op of
their own: ``make_cores`` and ``feature_attention`` compute them inside
their fused nodes, so their oracles run against those.
"""

import gc
import math

import numpy as np
import pytest

from modbalance.errors import ShapeError
from modbalance.feature_weighting import (
    feature_attention,
    make_cores,
    pool_attention,
)
from modbalance.losses import cls_loss
from modbalance.tensor import (
    Segments,
    Tensor,
    accumulate,
    layer_norm_rows,
    linear,
    no_grad,
    softmax_array,
    softmax_vjp,
)

from conftest import assert_grad_matches


# --- Khatri-Rao (mode-1), as make_cores computes it ---

def khatri_rao(a, b):
    """Row-wise Khatri-Rao product of two (N, r) matrices, via make_cores:
    with identity hidden states the projections are the matrices."""
    n, rank = a.shape
    cores = make_cores(Tensor(np.eye(n)), Tensor(a), Tensor(b))
    return cores.data.reshape(n, rank * rank)


def test_khatri_rao_single_row():
    out = khatri_rao(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    assert out.tolist() == [[3.0, 4.0, 6.0, 8.0]]


def test_khatri_rao_identity_case():
    out = khatri_rao(np.eye(2), np.ones((2, 2)))
    assert out.tolist() == [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]


def test_khatri_rao_matches_loop_oracle_exactly():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    expected = np.zeros((4, 9))
    for i in range(4):
        for j in range(3):
            for k in range(3):
                expected[i, j * 3 + k] = a[i, j] * b[i, k]
    out = khatri_rao(a, b)
    assert np.array_equal(out, expected)


# --- trailing-axis contraction, as feature_attention computes it ---

def contract_last(x, a):
    """(d, r*r) flattening of result[d, i, k] = sum_j x[d, i, j] * a[0, j, k],
    from a one-modality feature_attention chain with an identity map over
    one conversation, whose pooled stack ``a`` is (1, r, r)."""
    n, r = x.shape[:2]
    return feature_attention(x, {"t": a}, Tensor(np.eye(r * r)),
                             Segments([n]), active=("t",))


def test_contract_last_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 3))
    out = contract_last(Tensor(x), Tensor(np.eye(3)[None]))
    assert np.allclose(out.data, x.reshape(2, 9), atol=0.0)


def test_contract_last_all_ones():
    out = contract_last(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((1, 2, 2))))
    assert np.array_equal(out.data, np.full((2, 4), 2.0))


def test_contract_last_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 4))
    a = rng.standard_normal((1, 4, 4))
    expected = np.zeros((3, 4, 4))
    for d in range(3):
        for i in range(4):
            for k in range(4):
                expected[d, i, k] = sum(x[d, i, j] * a[0, j, k]
                                        for j in range(4))
    out = contract_last(Tensor(x), Tensor(a))
    assert np.abs(out.data - expected.reshape(3, 16)).max() < 1e-12


def test_contract_last_rejects_rank_mismatch():
    with pytest.raises(ShapeError):
        contract_last(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((1, 4, 4))))


# --- softmax ---

def test_softmax_uniform_row():
    out = softmax_array(np.array([[2.0, 2.0, 2.0, 2.0]]), axis=1)
    assert np.abs(out - 0.25).max() < 1e-12


def test_softmax_closed_form():
    out = softmax_array(np.array([0.0, math.log(3.0)]), axis=0)
    assert abs(out[0] - 0.25) < 1e-12
    assert abs(out[1] - 0.75) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6))
    base = softmax_array(x, axis=1)
    shifted = softmax_array(x + 1000.0, axis=1)
    assert np.abs(base - shifted).max() < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 7)) * 10.0
    out = softmax_array(x, axis=1)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
    assert (out >= 0.0).all()


# --- backward: closed forms ---

def test_backward_linear_map():
    rng = np.random.default_rng(7)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 2)))
    loss = (w @ x).sum()
    loss.backward()
    expected = np.ones((3, 2)) @ x.data.T
    assert np.abs(w.grad - expected).max() < 1e-12


def test_backward_softmax_log_onehot_gives_p_minus_y():
    rng = np.random.default_rng(8)
    z = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
    onehot = np.zeros((1, 5))
    onehot[0, 2] = 1.0
    loss = cls_loss(z, [2])  # -log softmax(z) . onehot on one row
    loss.backward()
    p = softmax_array(z.data, axis=1)
    assert np.abs(z.grad - (p - onehot)).max() < 1e-10


def test_backward_accumulates_across_reuse():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def build():
        return (x * x).sum() + (x @ Tensor(np.ones((3, 3)))).sum()

    assert_grad_matches(build, [x])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


# --- backward: finite differences on every op ---

def _leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_grad_add_broadcast():
    rng = np.random.default_rng(10)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (4,))
    r = Tensor(rng.standard_normal((3, 4)))
    assert_grad_matches(lambda: ((a + b) * r).sum(), [a, b])


def test_grad_mul_broadcast():
    rng = np.random.default_rng(12)
    a = _leaf(rng, (3, 1, 4))
    b = _leaf(rng, (3, 2, 4))
    assert_grad_matches(lambda: (a * b).sum(), [a, b])


def test_grad_matmul():
    rng = np.random.default_rng(15)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (4, 2))
    r = Tensor(rng.standard_normal((3, 2)))
    assert_grad_matches(lambda: ((a @ b) * r).sum(), [a, b])


def test_grad_linear():
    rng = np.random.default_rng(14)
    x = _leaf(rng, (3, 4))
    w = _leaf(rng, (4, 2))
    b = _leaf(rng, (2,))
    r = Tensor(rng.standard_normal((3, 2)))
    assert_grad_matches(lambda: (linear(x, w, b) * r).sum(), [x, w, b])


def test_linear_matches_composed_ops():
    rng = np.random.default_rng(26)
    x, w, b = (rng.standard_normal(s) for s in ((3, 4), (4, 2), (2,)))
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert np.array_equal(out.data, x @ w + b)
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((3, 5))), Tensor(w), Tensor(b))


def test_grad_relu():
    rng = np.random.default_rng(16)
    a = Tensor(rng.standard_normal((3, 3)) + 0.2, requires_grad=True)
    # keep entries away from the kink so finite differences stay valid
    a.data[np.abs(a.data) < 0.05] = 0.3
    assert_grad_matches(lambda: (a.relu() * a).sum(), [a])


def test_grad_sum_axis_and_mean():
    rng = np.random.default_rng(20)
    a = _leaf(rng, (3, 4, 2))
    r = Tensor(rng.standard_normal((3, 2)))
    assert_grad_matches(lambda: (a.sum(axis=1) * r).sum(), [a])
    assert_grad_matches(lambda: (a.sum(axis=(0, 2)) * 2.0).sum(), [a])
    # the package's one mean, over the leading axis, is the pool_attention node
    q = Tensor(rng.standard_normal((4, 2)))
    segments = Segments([3])
    pooled = pool_attention(a, segments).data
    assert np.abs(pooled[0] - a.data.mean(axis=0)).max() < 1e-15
    assert_grad_matches(lambda: (pool_attention(a, segments) * q).sum(), [a])


def test_grad_softmax():
    rng = np.random.default_rng(23)
    a = _leaf(rng, (3, 5))
    r = Tensor(rng.standard_normal((3, 5)))

    def softmax(x):
        y = softmax_array(x.data, axis=1)
        return Tensor._op(
            y, (x,), lambda g: accumulate(x, softmax_vjp(y, g, axis=1)))

    assert_grad_matches(lambda: (softmax(a) * r).sum(), [a])


def test_grad_khatri_rao():
    rng = np.random.default_rng(24)
    z = _leaf(rng, (3, 4))
    w1 = _leaf(rng, (4, 2))
    w2 = _leaf(rng, (4, 2))
    r = Tensor(rng.standard_normal((3, 2, 2)))
    assert_grad_matches(lambda: (make_cores(z, w1, w2) * r).sum(),
                        [z, w1, w2])


def test_grad_contract_last():
    rng = np.random.default_rng(25)
    x = _leaf(rng, (2, 3, 3))
    a = _leaf(rng, (1, 3, 3))
    r = Tensor(rng.standard_normal((2, 9)))
    assert_grad_matches(lambda: (contract_last(x, a) * r).sum(), [x, a])


def test_grad_layer_norm_rows():
    rng = np.random.default_rng(30)
    x = _leaf(rng, (3, 6))
    gamma = Tensor(rng.standard_normal(6) + 1.5, requires_grad=True)
    beta = _leaf(rng, (6,))
    r = Tensor(rng.standard_normal((3, 6)))
    assert_grad_matches(
        lambda: (layer_norm_rows(x, gamma, beta) * r).sum(), [x, gamma, beta])


def test_layer_norm_rows_matches_composed_ops():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 5)) * 2.0 + 1.0
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    eps = 1e-6
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + eps) * gamma + beta
    got = layer_norm_rows(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps)
    assert np.abs(got.data - expected).max() < 1e-12


# --- graph lifetime ---

def test_no_grad_results_form_no_reference_cycles():
    a = Tensor(np.ones((2, 2)))
    gc.collect()
    gc.disable()
    try:
        with no_grad():
            for _ in range(1000):
                a * 2.0
        assert gc.collect() == 0
    finally:
        gc.enable()
