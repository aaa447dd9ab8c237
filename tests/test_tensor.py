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
    LN_EPS,
    Segments,
    Tensor,
    accumulate,
    feed_forward,
    layer_norm_rows,
    linear,
    no_grad,
    softmax_array,
    softmax_vjp,
)

from conftest import assert_grad_matches, numeric_grad, project


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

def _leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_backward_linear_map():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3)))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4))
    project(linear(x, w, b)).backward()
    expected = x.data.T @ np.ones((2, 4))
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
    # x feeds two linear nodes and the projection itself: its gradient is
    # the sum of the three
    rng = np.random.default_rng(9)
    x = _leaf(rng, (3, 3))
    w1, w2, b = (Tensor(rng.standard_normal(s))
                 for s in ((3, 2), (3, 4), (2,)))
    r, q = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))

    def build():
        return project((linear(x, w1, b), r),
                       linear(x, w2, Tensor(np.zeros(4))), (x, q))

    assert_grad_matches(build, [x])
    x.grad = None
    build().backward()
    expected = r @ w1.data.T + np.ones((3, 4)) @ w2.data.T + q
    assert np.abs(x.grad - expected).max() < 1e-12


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        linear(x, x, Tensor(np.zeros(2))).backward()


# --- backward: finite differences on every op ---

def test_grad_linear():
    rng = np.random.default_rng(14)
    x = _leaf(rng, (3, 4))
    w = _leaf(rng, (4, 2))
    b = _leaf(rng, (2,))
    r = rng.standard_normal((3, 2))
    assert_grad_matches(lambda: project((linear(x, w, b), r)), [x, w, b])


def test_linear_matches_composed_ops():
    rng = np.random.default_rng(26)
    x, w, b = (rng.standard_normal(s) for s in ((3, 4), (4, 2), (2,)))
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert np.array_equal(out.data, x @ w + b)


def feed_forward_leaves(rng, rows=4):
    """x, w1, b1, w2, b2 of a 5 -> 6 -> 3 network whose pre-activations
    have both signs and stay at least 1e-3 from the ReLU kink, so finite
    differences (a step of 1e-5 on entries of order one) never cross it."""
    leaves = [_leaf(rng, s) for s in ((rows, 5), (5, 6), (6,), (6, 3), (3,))]
    pre = leaves[0].data @ leaves[1].data + leaves[2].data
    assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 1e-3
    return leaves


def test_grad_feed_forward():
    rng = np.random.default_rng(16)
    leaves = feed_forward_leaves(rng)
    r = rng.standard_normal((4, 3))
    assert_grad_matches(lambda: project((feed_forward(*leaves), r)), leaves,
                        tol=1e-6)


def test_feed_forward_matches_composed_ops():
    # forward and every gradient bit for bit those of linear, ReLU and
    # linear as separate steps
    rng = np.random.default_rng(27)
    leaves = feed_forward_leaves(rng)
    x, w1, b1, w2, b2 = (t.data for t in leaves)
    g = rng.standard_normal((4, 3))
    out = feed_forward(*leaves)
    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    assert np.array_equal(out.data, h @ w2 + b2)
    project((out, g)).backward()
    g_pre = (g @ w2.T) * (pre > 0.0)
    expected = (g_pre @ w1.T, x.T @ g_pre, g_pre.sum(axis=0), h.T @ g,
                g.sum(axis=0))
    for leaf, want in zip(leaves, expected):
        assert np.array_equal(leaf.grad, want)


def test_grad_sum_axis_and_mean():
    rng = np.random.default_rng(20)
    a = _leaf(rng, (3, 4, 2))
    # the package's one mean, over the leading axis, is the pool_attention node
    q = rng.standard_normal((4, 2))
    segments = Segments([3])
    pooled = pool_attention(a, segments).data
    assert np.abs(pooled[0] - a.data.mean(axis=0)).max() < 1e-15
    assert_grad_matches(lambda: project((pool_attention(a, segments), q)), [a])


def test_grad_softmax():
    rng = np.random.default_rng(23)
    a = _leaf(rng, (3, 5))
    r = rng.standard_normal((3, 5))

    def softmax(x):
        y = softmax_array(x.data, axis=1)
        return Tensor._op(
            y, (x,), lambda g: accumulate(x, softmax_vjp(y, g, axis=1)))

    assert_grad_matches(lambda: project((softmax(a), r)), [a])


def test_grad_khatri_rao():
    rng = np.random.default_rng(24)
    z = _leaf(rng, (3, 4))
    w1 = _leaf(rng, (4, 2))
    w2 = _leaf(rng, (4, 2))
    r = rng.standard_normal((3, 2, 2))
    assert_grad_matches(lambda: project((make_cores(z, w1, w2), r)),
                        [z, w1, w2])


def test_grad_contract_last():
    rng = np.random.default_rng(25)
    x = _leaf(rng, (2, 3, 3))
    a = _leaf(rng, (1, 3, 3))
    r = rng.standard_normal((2, 9))
    assert_grad_matches(lambda: project((contract_last(x, a), r)), [x, a])


def test_grad_layer_norm_rows():
    rng = np.random.default_rng(30)
    x = _leaf(rng, (3, 6))
    gamma = Tensor(rng.standard_normal(6) + 1.5, requires_grad=True)
    beta = _leaf(rng, (6,))
    r = rng.standard_normal((3, 6))
    assert_grad_matches(
        lambda: project((layer_norm_rows(x, gamma, beta), r)),
        [x, gamma, beta])


def test_grad_layer_norm_rows_with_residual():
    rng = np.random.default_rng(32)
    x = _leaf(rng, (3, 6))
    residual = _leaf(rng, (3, 6))
    gamma = Tensor(rng.standard_normal(6) + 1.5, requires_grad=True)
    beta = _leaf(rng, (6,))
    r = rng.standard_normal((3, 6))
    assert_grad_matches(
        lambda: project((layer_norm_rows(x, gamma, beta, residual=residual),
                         r)), [x, residual, gamma, beta], tol=1e-6)


def test_layer_norm_rows_residual_matches_composed_ops():
    # forward and every gradient bit for bit those of a layer norm node of
    # the summed rows, both addends getting the sum's gradient, and the
    # forward that of the numpy steps
    rng = np.random.default_rng(33)
    leaves = [_leaf(rng, s) for s in ((4, 5), (4, 5), (5,), (5,))]
    g = rng.standard_normal((4, 5))

    def gradients(build, inputs):
        for leaf in inputs:
            leaf.grad = None
        out = build(*inputs)
        project((out, g)).backward()
        return out.data, [leaf.grad for leaf in inputs]

    fused = gradients(lambda x, res, gamma, beta: layer_norm_rows(
        x, gamma, beta, residual=res), leaves)
    summed = Tensor(leaves[0].data + leaves[1].data, requires_grad=True)
    composed = gradients(layer_norm_rows, [summed, *leaves[2:]])
    assert np.array_equal(fused[0], composed[0])
    x_grad, res_grad, *fused_params = fused[1]
    summed_grad, *composed_params = composed[1]
    assert np.array_equal(x_grad, summed_grad)
    assert np.array_equal(res_grad, x_grad)
    for got, want in zip(fused_params, composed_params):
        assert np.array_equal(got, want)
    x, res, gamma, beta = (leaf.data for leaf in leaves)
    s = x + res
    centered = s - s.sum(axis=1, keepdims=True) / 5
    var = (centered * centered).sum(axis=1, keepdims=True) / 5
    expected = centered * (1.0 / np.sqrt(var + 1e-6)) * gamma + beta
    assert np.array_equal(fused[0], expected)


def test_layer_norm_rows_matches_composed_ops():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 5)) * 2.0 + 1.0
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta
    got = layer_norm_rows(Tensor(x), Tensor(gamma), Tensor(beta))
    assert np.abs(got.data - expected).max() < 1e-12


def test_layer_norm_rows_passes_no_gradient_from_a_constant_row():
    # a constant row (as a zero-filled modality gives) is at the variance
    # floor: its input gradient is exactly zero, not 1/sqrt(LN_EPS) = 1000
    # times the gradient; the other rows, gamma and beta keep theirs
    rng = np.random.default_rng(34)
    x = _leaf(rng, (3, 6))
    x.data[1] = 0.7
    gamma = Tensor(rng.standard_normal(6) + 1.5, requires_grad=True)
    beta = _leaf(rng, (6,))
    r = rng.standard_normal((3, 6))

    def build():
        return project((layer_norm_rows(x, gamma, beta), r))

    build().backward()
    assert x.grad[1].tolist() == [0.0] * 6
    fd = numeric_grad(lambda: build().item(), x)
    err = np.abs(x.grad - fd) / np.maximum(1.0, np.abs(fd))
    assert err[[0, 2]].max() < 1e-4
    assert_grad_matches(build, [gamma, beta])


# --- graph lifetime ---

def test_no_grad_results_form_no_reference_cycles():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2))
    gc.collect()
    gc.disable()
    try:
        with no_grad():
            for _ in range(1000):
                linear(a, a, b)
        assert gc.collect() == 0
    finally:
        gc.enable()
