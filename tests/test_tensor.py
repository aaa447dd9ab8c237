"""Autodiff engine: forward oracles and finite-difference gradient checks."""

import gc
import math

import numpy as np
import pytest

from modbalance.errors import ShapeError
from modbalance.tensor import (
    Tensor,
    bmm,
    contract_last,
    khatri_rao_mode1,
    l2_norm,
    layer_norm_rows,
    no_grad,
    softmax,
)

from conftest import assert_grad_matches


# --- Khatri-Rao (mode-1) ---

def test_khatri_rao_single_row():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0, 5.0]])
    out = khatri_rao_mode1(a, b)
    assert out.data.tolist() == [[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]]


def test_khatri_rao_identity_case():
    a = Tensor(np.eye(2))
    b = Tensor(np.ones((2, 1)))
    out = khatri_rao_mode1(a, b)
    assert out.data.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_khatri_rao_matches_loop_oracle_exactly():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 5))
    expected = np.zeros((4, 15))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j * 5 + k] = a[i, j] * b[i, k]
    out = khatri_rao_mode1(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, expected)


def test_khatri_rao_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        khatri_rao_mode1(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))


# --- trailing-axis contraction ---

def test_contract_last_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 3))
    out = contract_last(Tensor(x), Tensor(np.eye(3)))
    assert np.allclose(out.data, x, atol=0.0)


def test_contract_last_all_ones():
    out = contract_last(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))
    assert np.array_equal(out.data, np.full((2, 2, 2), 2.0))


def test_contract_last_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 4))
    a = rng.standard_normal((4, 4))
    expected = np.zeros((3, 4, 4))
    for d in range(3):
        for i in range(4):
            for k in range(4):
                expected[d, i, k] = sum(x[d, i, j] * a[j, k] for j in range(4))
    out = contract_last(Tensor(x), Tensor(a))
    assert np.abs(out.data - expected).max() < 1e-12


def test_contract_last_rejects_rank_mismatch():
    with pytest.raises(ShapeError):
        contract_last(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((4, 4))))


# --- softmax ---

def test_softmax_uniform_row():
    out = softmax(Tensor([[2.0, 2.0, 2.0, 2.0]]), axis=1)
    assert np.abs(out.data - 0.25).max() < 1e-12


def test_softmax_closed_form():
    out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    assert abs(out.data[0] - 0.25) < 1e-12
    assert abs(out.data[1] - 0.75) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6))
    base = softmax(Tensor(x), axis=1).data
    shifted = softmax(Tensor(x + 1000.0), axis=1).data
    assert np.abs(base - shifted).max() < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 7)) * 10.0
    out = softmax(Tensor(x), axis=1)
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9
    assert (out.data >= 0.0).all()


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
    loss = -(softmax(z, axis=1).log() * Tensor(onehot)).sum()
    loss.backward()
    p = softmax(z, axis=1).data
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

def _leaf(rng, shape, positive=False):
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


def test_grad_add_broadcast():
    rng = np.random.default_rng(10)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (4,))
    r = Tensor(rng.standard_normal((3, 4)))
    assert_grad_matches(lambda: ((a + b) * r).sum(), [a, b])


def test_grad_sub_and_neg():
    rng = np.random.default_rng(11)
    a = _leaf(rng, (2, 3))
    b = _leaf(rng, (2, 3))
    assert_grad_matches(lambda: ((a - b) * (-a)).sum(), [a, b])


def test_grad_mul_broadcast():
    rng = np.random.default_rng(12)
    a = _leaf(rng, (3, 1, 4))
    b = _leaf(rng, (3, 2, 4))
    assert_grad_matches(lambda: (a * b).sum(), [a, b])


def test_grad_div():
    rng = np.random.default_rng(13)
    a = _leaf(rng, (2, 3))
    b = _leaf(rng, (2, 3), positive=True)
    assert_grad_matches(lambda: (a / b).sum(), [a, b])


def test_grad_matmul():
    rng = np.random.default_rng(15)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (4, 2))
    r = Tensor(rng.standard_normal((3, 2)))
    assert_grad_matches(lambda: ((a @ b) * r).sum(), [a, b])


def test_grad_relu():
    rng = np.random.default_rng(16)
    a = Tensor(rng.standard_normal((3, 3)) + 0.2, requires_grad=True)
    # keep entries away from the kink so finite differences stay valid
    a.data[np.abs(a.data) < 0.05] = 0.3
    assert_grad_matches(lambda: (a.relu() * a).sum(), [a])


def test_grad_log_sqrt():
    rng = np.random.default_rng(17)
    a = _leaf(rng, (2, 3), positive=True)
    assert_grad_matches(lambda: (a.log() + a.sqrt()).sum(), [a])


def test_grad_abs_away_from_zero():
    rng = np.random.default_rng(18)
    data = rng.standard_normal((3, 3))
    data[np.abs(data) < 0.05] = 0.5
    a = Tensor(data, requires_grad=True)
    assert_grad_matches(lambda: a.abs().sum(), [a])


def test_grad_clamp_min():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((3, 3))
    data[np.abs(data - 0.1) < 0.05] = 0.5  # keep away from the floor
    a = Tensor(data, requires_grad=True)
    assert_grad_matches(lambda: (a.clamp_min(0.1) * a).sum(), [a])


def test_grad_sum_axis_and_mean():
    rng = np.random.default_rng(20)
    a = _leaf(rng, (3, 4, 2))
    r = Tensor(rng.standard_normal((3, 2)))
    assert_grad_matches(lambda: (a.sum(axis=1) * r).sum(), [a])
    assert_grad_matches(lambda: (a.mean(axis=(0, 2)) * 2.0).sum(), [a])


def test_grad_reshape_transpose():
    rng = np.random.default_rng(21)
    a = _leaf(rng, (3, 4))
    r = Tensor(rng.standard_normal((2, 6)))
    assert_grad_matches(lambda: (a.reshape(2, 6) * r).sum(), [a])
    assert_grad_matches(lambda: (a.T @ Tensor(np.ones((3, 2)))).sum(), [a])
    x = _leaf(rng, (2, 3, 4))
    q = Tensor(rng.standard_normal((4, 2, 3)))
    assert_grad_matches(lambda: (x.transpose((2, 0, 1)) * q).sum(), [x])


def test_grad_softmax():
    rng = np.random.default_rng(23)
    a = _leaf(rng, (3, 5))
    r = Tensor(rng.standard_normal((3, 5)))
    assert_grad_matches(lambda: (softmax(a, axis=1) * r).sum(), [a])


def test_grad_khatri_rao():
    rng = np.random.default_rng(24)
    a = _leaf(rng, (3, 2))
    b = _leaf(rng, (3, 4))
    r = Tensor(rng.standard_normal((3, 8)))
    assert_grad_matches(lambda: (khatri_rao_mode1(a, b) * r).sum(), [a, b])


def test_grad_contract_last():
    rng = np.random.default_rng(25)
    x = _leaf(rng, (2, 3, 3))
    a = _leaf(rng, (3, 3))
    r = Tensor(rng.standard_normal((2, 3, 3)))
    assert_grad_matches(lambda: (contract_last(x, a) * r).sum(), [x, a])


def test_grad_l2_norm():
    rng = np.random.default_rng(27)
    a = _leaf(rng, (3, 4))
    assert_grad_matches(lambda: l2_norm(a, axis=1).sum(), [a])


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


def test_grad_bmm():
    rng = np.random.default_rng(32)
    a = _leaf(rng, (2, 3, 4))
    b = _leaf(rng, (2, 4, 5))
    r = Tensor(rng.standard_normal((2, 3, 5)))
    assert_grad_matches(lambda: (bmm(a, b) * r).sum(), [a, b])


def test_bmm_matches_per_slice_matmul():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((3, 4, 2))
    out = bmm(Tensor(a), Tensor(b))
    for i in range(3):
        assert np.abs(out.data[i] - a[i] @ b[i]).max() < 1e-12


def test_bmm_rejects_mismatched_stacks():
    with pytest.raises(ShapeError):
        bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


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
