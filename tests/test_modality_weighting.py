"""Cosine fusion, classifier, and weight-norm diagnostics."""

import logging

import numpy as np
import pytest

from modbalance.modality_weighting import (
    ClassifierParams,
    FusionHead,
    classify,
    fuse_modalities,
    weight_norm_trace,
)
from modbalance.losses import modal_loss
from modbalance.tensor import Parameters, Segments, Tensor

from conftest import assert_grad_matches, project

MODS = ("t", "a", "v")


def make_head(hidden=4, num_classes=3, seed=0):
    return FusionHead(hidden, num_classes,
                      Parameters(np.random.default_rng(seed)), "head")


def random_features(rng, n=5, hidden=4):
    return {m: Tensor(rng.standard_normal((n, hidden))) for m in MODS}


def test_perfect_alignment_gives_three_plus_bias():
    head = make_head(hidden=4, num_classes=2)
    basis = np.zeros((4, 2))
    basis[0, 0] = 2.0  # columns along different axes, arbitrary scale
    basis[1, 1] = 0.5
    for m in MODS:
        head.weights[m].data[:] = basis
    head.bias.data[:] = [0.25, -0.5]
    features = {m: Tensor(np.array([[3.0, 0.0, 0.0, 0.0]])) for m in MODS}
    logits, contribs = fuse_modalities(features, head)
    assert abs(logits.data[0, 0] - (3.0 + 0.25)) < 1e-12
    assert abs(logits.data[0, 1] - (0.0 - 0.5)) < 1e-12
    for m in MODS:
        assert abs(contribs[m][0, 0] - 1.0) < 1e-12


def test_positive_rescaling_leaves_logits_unchanged():
    rng = np.random.default_rng(1)
    head = make_head()
    features = random_features(rng)
    base, _ = fuse_modalities(features, head)
    for m, scale in (("t", 7.5), ("a", 0.003), ("v", 140.0)):
        scaled = dict(features)
        scaled[m] = Tensor(features[m].data * scale)
        out, _ = fuse_modalities(scaled, head)
        assert np.abs(out.data - base.data).max() < 1e-12


def test_fusion_matches_cosine_oracle():
    rng = np.random.default_rng(2)
    head = make_head()
    features = random_features(rng)
    logits, contribs = fuse_modalities(features, head)
    n, e = logits.shape
    for i in range(n):
        for k in range(e):
            expected = head.bias.data[k]
            for m in MODS:
                z = features[m].data[i]
                w = head.weights[m].data[:, k]
                cos = z @ w / (np.linalg.norm(z) * np.linalg.norm(w))
                assert abs(contribs[m][i, k] - cos) < 1e-12
                expected += cos
            assert abs(logits.data[i, k] - expected) < 1e-12


def test_contributions_bounded_by_one():
    rng = np.random.default_rng(3)
    head = make_head()
    features = {m: Tensor(rng.standard_normal((8, 4)) * 50.0) for m in MODS}
    logits, contribs = fuse_modalities(features, head)
    for m in MODS:
        assert np.abs(contribs[m]).max() <= 1.0 + 1e-12
    spread = logits.data - head.bias.data
    assert np.abs(spread).max() <= 3.0 + 1e-12


def test_huge_rows_and_columns_keep_their_cosines():
    # squaring an entry past about 1.3e154 overflows: such a row or column
    # is rescaled before its norm is taken; the others are left as they are
    head = make_head(hidden=3, num_classes=2)
    for m in MODS:
        head.weights[m].data[:] = np.eye(3)[:, :2]
    head.weights["v"].data[:, 1] = [0.0, 3e200, 4e200]
    rows = np.array([[1e200, 2e200, 0.0], [1.0, 2.0, 3.0]])
    features = {m: Tensor(rows.copy(), requires_grad=True) for m in MODS}
    logits, contribs = fuse_modalities(features, head)
    root5 = np.sqrt(5.0)
    assert np.abs(contribs["t"][0] - [1 / root5, 2 / root5]).max() \
        < 1e-15
    assert np.abs(contribs["v"][0] - [1 / root5, 1.2 / root5]).max() \
        < 1e-15
    assert np.array_equal(contribs["t"][1], rows[1, :2] / np.sqrt(14.0))
    project(logits).backward()
    assert all(np.isfinite(features[m].grad).all() for m in MODS)


def test_zero_norm_row_floors_and_warns(caplog):
    rng = np.random.default_rng(4)
    head = make_head()
    features = random_features(rng)
    features["a"].data[2, :] = 0.0
    features["a"].requires_grad = True
    with caplog.at_level(logging.WARNING, logger="modbalance.modality_weighting"):
        logits, _ = fuse_modalities(features, head)
    assert "zero-norm" in caplog.text
    assert np.isfinite(logits.data).all()
    project((logits, rng.standard_normal(logits.shape))).backward()
    # the floored row counts as missing: it gets no gradient, not
    # g / NORM_FLOOR; the other rows get theirs
    grad = features["a"].grad
    assert np.array_equal(grad[2], np.zeros(4))
    assert np.isfinite(grad).all() and (np.abs(grad[[0, 1, 3, 4]]) > 0).all()
    assert np.abs(grad).max() < 10.0


def test_fusion_gradients_with_floored_rows_match_finite_differences():
    rng = np.random.default_rng(17)
    head = make_head(hidden=3, num_classes=2)
    head.weights["v"].data[:, 1] = 0.0  # a floored weight column
    features = {m: Tensor(rng.standard_normal((3, 3)), requires_grad=True)
                for m in MODS}
    features["a"].data[1, :] = 0.0  # a floored feature row
    r = rng.standard_normal((3, 2))
    # every leaf but the two floored vectors, which finite differences
    # would lift off the floor
    leaves = [features["t"], features["v"], head.weights["t"],
              head.weights["a"], head.bias]
    assert_grad_matches(
        lambda: project((fuse_modalities(features, head)[0], r)), leaves)


def test_unnormalized_variant_is_plain_linear():
    rng = np.random.default_rng(5)
    head = make_head()
    features = random_features(rng)
    logits, _ = fuse_modalities(features, head, normalized=False)
    expected = head.bias.data.copy()
    expected = sum(features[m].data @ head.weights[m].data for m in MODS) \
        + head.bias.data
    assert np.abs(logits.data - expected).max() < 1e-12


def test_subset_fusion_drops_excluded_terms():
    rng = np.random.default_rng(6)
    head = make_head()
    features = random_features(rng)
    logits, contribs = fuse_modalities(features, head, active=("t", "v"))
    assert set(contribs) == {"t", "v"}
    expected = contribs["t"] + contribs["v"] + head.bias.data
    assert np.array_equal(logits.data, expected)


def test_fusion_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    head = make_head(hidden=3, num_classes=2)
    features = {m: Tensor(rng.standard_normal((2, 3)), requires_grad=True)
                for m in MODS}
    leaves = [*features.values(), *head.weights.values(), head.bias]
    assert_grad_matches(
        lambda: project(fuse_modalities(features, head)[0]), leaves)


def test_unnormalized_fusion_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    head = make_head(hidden=3, num_classes=2)
    head.bias.data[:] = rng.standard_normal(2)
    features = {m: Tensor(rng.standard_normal((4, 3)), requires_grad=True)
                for m in MODS}
    r = rng.standard_normal((4, 2))
    leaves = [*features.values(), *head.weights.values(), head.bias]
    assert_grad_matches(
        lambda: project((fuse_modalities(features, head,
                                         normalized=False)[0], r)), leaves)


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["cosine", "plain"])
def test_subset_fusion_over_a_pack_matches_finite_differences(normalized):
    # fusion is row-wise, so a pack of three conversations is its rows;
    # the modal loss weighs each conversation's rows by its own length
    rng = np.random.default_rng(19)
    head = make_head(hidden=3, num_classes=3)
    segments = Segments([2, 4, 1])
    features = {m: Tensor(rng.standard_normal((7, 3)), requires_grad=True)
                for m in ("t", "v")}
    labels = rng.integers(0, 3, size=7)
    w = rng.standard_normal(3)
    leaves = [*features.values(), head.weights["t"], head.weights["v"],
              head.bias]

    def build():
        fused, _ = fuse_modalities(features, head, active=("t", "v"),
                                   normalized=normalized)
        return project((modal_loss(fused, labels, segments), w))

    assert_grad_matches(build, leaves)
    assert head.weights["a"].grad is None


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["cosine", "plain"])
def test_fusion_node_matches_numpy_bit_for_bit(normalized):
    # one node: its value is the terms summed in active order plus the
    # bias, and each gradient the plain numpy expression
    rng = np.random.default_rng(20)
    head = make_head(hidden=5, num_classes=4, seed=21)
    head.bias.data[:] = rng.standard_normal(4)
    features = {m: Tensor(rng.standard_normal((6, 5)), requires_grad=True)
                for m in MODS}
    g = rng.standard_normal((6, 4))
    logits, contribs = fuse_modalities(features, head, normalized=normalized)
    assert len(logits._parents) == 7
    project((logits, g)).backward()

    def unit(x, axis):
        norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
        return (x / norm, norm) if normalized else (x, None)

    def unit_vjp(u, norm, g_u, axis):
        if not normalized:
            return g_u
        return (g_u - u * (g_u * u).sum(axis=axis, keepdims=True)) / norm

    expected = None
    for m in MODS:
        zn, z_norm = unit(features[m].data, axis=1)
        wn, w_norm = unit(head.weights[m].data, axis=0)
        assert np.array_equal(contribs[m], zn @ wn)
        expected = zn @ wn if expected is None else expected + zn @ wn
        assert np.array_equal(features[m].grad,
                              unit_vjp(zn, z_norm, g @ wn.T, axis=1))
        assert np.array_equal(head.weights[m].grad,
                              unit_vjp(wn, w_norm, zn.T @ g, axis=0))
    assert np.array_equal(logits.data, expected + head.bias.data)
    assert np.array_equal(head.bias.grad, g.sum(axis=0))


# --- classifier ---

def test_classifier_pass_through_keeps_argmax():
    num_classes = 3
    params = ClassifierParams(num_classes, num_classes,
                              Parameters(np.random.default_rng(8)),
                              "classifier")
    offset = 10.0  # push the hidden layer into the linear region of ReLU
    params.w1.data[:] = np.eye(num_classes)
    params.b1.data[:] = offset
    params.w2.data[:] = np.eye(num_classes)
    params.b2.data[:] = -offset
    fused = Tensor(np.array([[0.3, -0.2, 0.9], [1.2, 0.1, -0.4]]))
    out = classify(fused, params)
    assert np.abs(out.data - fused.data).max() < 1e-12
    assert np.array_equal(out.data.argmax(axis=1), fused.data.argmax(axis=1))


def test_classifier_batch_shape():
    params = ClassifierParams(4, 8, Parameters(np.random.default_rng(9)),
                              "classifier")
    rng = np.random.default_rng(10)
    for n in (1, 6):
        out = classify(Tensor(rng.standard_normal((n, 4))), params)
        assert out.shape == (n, 4)


def test_classifier_gradients():
    params = ClassifierParams(3, 5, Parameters(np.random.default_rng(11)),
                              "classifier")
    fused = Tensor(np.random.default_rng(12).standard_normal((2, 3)),
                   requires_grad=True)
    leaves = [fused, params.w1, params.b1, params.w2, params.b2]
    assert_grad_matches(lambda: project(classify(fused, params)), leaves)


# --- weight-norm diagnostics ---

def test_fresh_init_norms_are_comparable():
    head = make_head(hidden=32, num_classes=4, seed=13)
    norms = weight_norm_trace(head)
    assert norms.shape == (3, 4)
    per_modality = norms.mean(axis=1)  # same init scale for every modality
    assert per_modality.max() / per_modality.min() < 1.1


def test_doubling_one_modality_scales_one_row():
    head = make_head(seed=14)
    before = weight_norm_trace(head)
    head.weights["t"].data *= 2.0
    after = weight_norm_trace(head)
    assert np.abs(after[0] - 2.0 * before[0]).max() < 1e-12
    assert np.array_equal(after[1:], before[1:])


def test_norms_match_hand_computation():
    head = make_head(hidden=2, num_classes=2, seed=15)
    head.weights["t"].data[:] = [[3.0, 0.0], [4.0, 1.0]]
    head.weights["a"].data[:] = [[1.0, 2.0], [0.0, 2.0]]
    head.weights["v"].data[:] = [[0.0, 6.0], [0.0, 8.0]]
    norms = weight_norm_trace(head)
    expected = np.array([
        [5.0, 1.0],
        [1.0, np.sqrt(8.0)],
        [0.0, 10.0],
    ])
    assert np.abs(norms - expected).max() < 1e-12
