"""Tensor-ring feature weighting: cores, coefficients, contractions, gating."""

import numpy as np
import pytest

from modbalance.feature_weighting import (
    FeatureWeightParams,
    attention_coefficients,
    feature_attention,
    forward,
    fuse_features,
    make_cores,
    map_attention,
    pool_attention,
)
from modbalance.tensor import Parameters, Segments, Tensor

from conftest import assert_grad_matches, project


def make_z(rng, n=3, hidden=4):
    return Tensor(rng.standard_normal((n, hidden)))


# --- make_cores ---

def test_make_cores_rank_one_product():
    rng = np.random.default_rng(0)
    z = make_z(rng)
    w1 = Tensor(rng.standard_normal((4, 1)))
    w2 = Tensor(rng.standard_normal((4, 1)))
    cores = make_cores(z, w1, w2)
    expected = (z.data @ w1.data) * (z.data @ w2.data)
    assert np.abs(cores.data[:, 0, 0] - expected[:, 0]).max() < 1e-12


def test_make_cores_zero_input_gives_zero_cores():
    rng = np.random.default_rng(1)
    z = Tensor(np.zeros((3, 4)))
    w1 = Tensor(rng.standard_normal((4, 2)))
    w2 = Tensor(rng.standard_normal((4, 2)))
    assert np.array_equal(make_cores(z, w1, w2).data, np.zeros((3, 2, 2)))


def test_make_cores_matches_loop_oracle():
    rng = np.random.default_rng(2)
    z = make_z(rng, n=3, hidden=4)
    w1 = Tensor(rng.standard_normal((4, 2)))
    w2 = Tensor(rng.standard_normal((4, 2)))
    cores = make_cores(z, w1, w2)
    first = z.data @ w1.data
    second = z.data @ w2.data
    for n in range(3):
        for i in range(2):
            for j in range(2):
                assert cores.data[n, i, j] == first[n, i] * second[n, j]


# --- attention coefficients ---

def test_constant_cores_give_uniform_coefficients():
    cores = Tensor(np.full((2, 2, 2), 3.0))
    theta = attention_coefficients(cores, cores)
    assert np.abs(theta.data - 0.25).max() < 1e-12


def test_coefficients_scale_the_core_product_by_one_over_rank():
    rng = np.random.default_rng(3)
    q = Tensor(rng.standard_normal((2, 3, 3)))
    k = Tensor(rng.standard_normal((2, 3, 3)))
    theta = attention_coefficients(q, k)
    scores = (q.data * k.data / 3.0).reshape(2, 9)
    expected = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    assert np.abs(theta.data.reshape(2, 9) - expected).max() < 1e-15


def test_coefficient_slices_are_distributions():
    rng = np.random.default_rng(4)
    q = Tensor(rng.standard_normal((5, 3, 3)) * 2.0)
    k = Tensor(rng.standard_normal((5, 3, 3)) * 2.0)
    theta = attention_coefficients(q, k)
    sums = theta.data.reshape(5, -1).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert (theta.data >= 0.0).all()
    assert (theta.data <= 1.0).all()


# --- pooling ---

def test_pool_single_slice_is_identity():
    rng = np.random.default_rng(5)
    theta = Tensor(rng.random((1, 2, 2)))
    pooled = pool_attention(theta, Segments([1])).data
    assert np.array_equal(pooled, theta.data)


def test_pool_uniform_input():
    theta = Tensor(np.full((4, 2, 2), 0.25))
    pooled = pool_attention(theta, Segments([4])).data
    assert np.abs(pooled - 0.25).max() < 1e-12


def test_pool_matches_mean_oracle():
    rng = np.random.default_rng(6)
    theta = Tensor(rng.random((4, 2, 2)))
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            expected[i, j] = sum(theta.data[n, i, j] for n in range(4)) / 4
    pooled = pool_attention(theta, Segments([4])).data
    assert pooled.shape == (1, 2, 2)
    assert np.abs(pooled[0] - expected).max() < 1e-12


# --- feature attention ---

def _random_pooled(rng, rank=2):
    return {m: Tensor(rng.random((1, rank, rank))) for m in ("t", "a", "v")}


def test_feature_attention_identity_chain():
    rng = np.random.default_rng(7)
    theta = Tensor(rng.random((3, 2, 2)))
    pooled = {m: Tensor(np.eye(2)[None]) for m in ("t", "a", "v")}
    out_map = Tensor(rng.standard_normal((4, 5)))
    result = feature_attention(theta, pooled, out_map, Segments([3]))
    expected = theta.data.reshape(3, 4) @ out_map.data
    assert np.abs(result.data - expected).max() < 1e-12


def test_feature_attention_zero_propagates():
    rng = np.random.default_rng(8)
    theta = Tensor(np.zeros((3, 2, 2)))
    out_map = Tensor(rng.standard_normal((4, 5)))
    result = feature_attention(theta, _random_pooled(rng), out_map,
                               Segments([3]))
    assert np.array_equal(result.data, np.zeros((3, 5)))


def test_feature_attention_matches_composed_loop_oracle():
    rng = np.random.default_rng(9)
    theta = Tensor(rng.random((3, 2, 2)))
    pooled = _random_pooled(rng)
    out_map = Tensor(rng.standard_normal((4, 5)))
    result = feature_attention(theta, pooled, out_map, Segments([3]))

    x = theta.data.copy()
    for m in ("t", "a", "v"):
        nxt = np.zeros_like(x)
        for d in range(3):
            for i in range(2):
                for k in range(2):
                    nxt[d, i, k] = sum(
                        x[d, i, j] * pooled[m].data[0, j, k] for j in range(2))
        x = nxt
    expected = x.reshape(3, 4) @ out_map.data
    assert np.abs(result.data - expected).max() < 1e-10


def test_cross_modal_coupling_has_nonzero_gradient():
    # perturbing the audio pooled matrix must change the text attention
    rng = np.random.default_rng(11)
    theta = Tensor(rng.random((3, 2, 2)))
    pooled = _random_pooled(rng)
    pooled["a"] = Tensor(pooled["a"].data, requires_grad=True)
    out_map = Tensor(rng.standard_normal((4, 5)))
    loss = project(feature_attention(theta, pooled, out_map, Segments([3])))
    loss.backward()
    assert np.abs(pooled["a"].grad).max() > 0.0


@pytest.mark.parametrize("active", [("t",), ("t", "a"), ("t", "a", "v")])
def test_feature_attention_gradients(active):
    rng = np.random.default_rng(20 + len(active))
    theta = Tensor(rng.random((3, 2, 2)), requires_grad=True)
    pooled = {m: Tensor(rng.random((1, 2, 2)), requires_grad=True)
              for m in active}
    out_map = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    r = rng.standard_normal((3, 5))
    segments = Segments([3])
    assert_grad_matches(
        lambda: project((feature_attention(theta, pooled, out_map, segments,
                                           active), r)),
        [theta, out_map, *pooled.values()])


def test_coefficient_pool_and_gate_gradients():
    rng = np.random.default_rng(23)
    q = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
    att = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    z = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    r = rng.standard_normal((3, 2, 2))
    s = rng.standard_normal((2, 2))
    g = rng.standard_normal((3, 4))
    assert_grad_matches(
        lambda: project(
            (attention_coefficients(q, k), r),
            (pool_attention(attention_coefficients(q, k), Segments([3])), s),
            (fuse_features(att, z, beta=0.3), g)),
        [q, k, att, z])


# --- residual gate ---

def test_fuse_zero_attention_full_residual():
    rng = np.random.default_rng(12)
    z = make_z(rng)
    out = fuse_features(Tensor(np.zeros(z.shape)), z, beta=1.0)
    assert np.array_equal(out.data, z.data)


def test_fuse_identity_gate_no_residual():
    rng = np.random.default_rng(13)
    z = make_z(rng)
    out = fuse_features(Tensor(np.ones(z.shape)), z, beta=0.0)
    assert np.array_equal(out.data, z.data)


def test_fuse_small_beta_scales_residual():
    rng = np.random.default_rng(14)
    z = make_z(rng)
    out = fuse_features(Tensor(np.zeros(z.shape)), z, beta=0.01)
    assert np.abs(out.data - 0.01 * z.data).max() < 1e-15


# --- attention mapper ---

def test_map_attention_zero_weights_broadcast_bias():
    rng = np.random.default_rng(15)
    params = FeatureWeightParams(4, 2, Parameters(rng), "afw")
    params.map_w1.data[:] = 0.0
    params.map_w2.data[:] = 0.0
    params.map_b1.data[:] = 0.0
    params.map_b2.data[:] = rng.standard_normal(4)
    z = make_z(rng, n=3, hidden=4)
    out = map_attention(z, params)
    assert np.abs(out.data - params.map_b2.data).max() < 1e-15


def test_map_attention_shape_matches_attention():
    rng = np.random.default_rng(16)
    params = FeatureWeightParams(4, 2, Parameters(rng), "afw")
    for n in (1, 3, 6):
        out = map_attention(make_z(rng, n=n, hidden=4), params)
        assert out.shape == (n, 4)


def test_map_attention_gradients():
    rng = np.random.default_rng(17)
    params = FeatureWeightParams(3, 2, Parameters(rng), "afw")
    z = make_z(rng, n=2, hidden=3)
    leaves = [params.map_w1, params.map_b1, params.map_w2, params.map_b2]
    assert_grad_matches(lambda: project(map_attention(z, params)), leaves)


# --- whole pass ---

def test_forward_is_differentiable_end_to_end():
    rng = np.random.default_rng(18)
    new = Parameters(rng)
    params = {m: FeatureWeightParams(3, 2, new, m) for m in ("t", "a", "v")}
    z = {m: Tensor(rng.standard_normal((2, 3)), requires_grad=True)
         for m in ("t", "a", "v")}

    def build():
        state = forward(z, params, beta=0.5, segments=Segments([2]))
        return project(*state.balanced.values(), *state.mapped.values())

    leaves = [z[m] for m in ("t", "a", "v")] + list(new.blocks.values())
    assert_grad_matches(build, leaves)


@pytest.mark.parametrize("active", [("a",), ("t", "v")])
def test_forward_on_a_subset_is_differentiable(active):
    rng = np.random.default_rng(24)
    new = Parameters(rng)
    params = {m: FeatureWeightParams(3, 2, new, m) for m in ("t", "a", "v")}
    z = {m: Tensor(rng.standard_normal((3, 3)), requires_grad=True)
         for m in active}
    r = {m: rng.standard_normal((3, 3)) for m in active}

    def build():
        state = forward(z, params, beta=0.5,
                        segments=Segments([3]), active=active)
        return project(*((state.balanced[m], r[m]) for m in active),
                       *((state.mapped[m], r[m]) for m in active))

    leaves = list(z.values())
    leaves += [p for name, p in new.blocks.items()
               if name.split(".")[0] in active]
    assert_grad_matches(build, leaves)


def test_forward_respects_modality_subset():
    rng = np.random.default_rng(19)
    params = {m: FeatureWeightParams(3, 2, Parameters(rng), m)
              for m in ("t", "a", "v")}
    z = {m: Tensor(rng.standard_normal((2, 3))) for m in ("t", "a")}
    state = forward(z, params, beta=0.5, segments=Segments([2]),
                    active=("t", "a"))
    assert set(state.balanced) == set(state.attention) == {"t", "a"}
    assert state.attention["t"].shape == (2, 3)
