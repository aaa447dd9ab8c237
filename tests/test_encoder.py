"""Transformer encoder: shapes, equivariance, attention, gradients."""

import numpy as np
import pytest

from modbalance import encoder
from modbalance.encoder import EncoderConfig, EncoderParams, encode
from modbalance.errors import ConfigError, ShapeError
from modbalance.tensor import Segments, Tensor, layer_norm_rows

from conftest import assert_grad_matches


def tiny_config(**overrides):
    base = dict(hidden=8, layers=1, heads=2, ffn=12)
    base.update(overrides)
    return EncoderConfig(**base)


def make_params(input_dim=5, seed=0, **overrides):
    return EncoderParams(input_dim, tiny_config(**overrides),
                         np.random.default_rng(seed))


def test_config_rejects_bad_head_split():
    with pytest.raises(ConfigError):
        EncoderConfig(hidden=10, heads=4).validate()


def test_output_shape_and_dim_check():
    params = make_params()
    rng = np.random.default_rng(1)
    z = encode(rng.standard_normal((6, 5)), params, Segments([6]))
    assert z.shape == (6, 8)
    with pytest.raises(ShapeError):
        encode(rng.standard_normal((6, 4)), params, Segments([6]))


def collect_attention(monkeypatch):
    """Record the attention weights each encoder layer computes."""
    collected = []
    original = encoder.softmax_array

    def recording_softmax(*args, **kwargs):
        weights = original(*args, **kwargs)
        collected.append(weights)
        return weights

    monkeypatch.setattr(encoder, "softmax_array", recording_softmax)
    return collected


def test_single_utterance_attends_to_itself(monkeypatch):
    params = make_params()
    rng = np.random.default_rng(2)
    collected = collect_attention(monkeypatch)
    z = encode(rng.standard_normal((1, 5)), params, Segments([1]))
    assert z.shape == (1, 8)
    assert len(collected) == 1
    for weights in collected:  # one (heads, n, n) stack per layer
        assert weights.shape == (2, 1, 1)
        assert np.abs(weights - 1.0).max() < 1e-12


def test_attention_rows_sum_to_one(monkeypatch):
    params = make_params(layers=2)
    rng = np.random.default_rng(3)
    collected = collect_attention(monkeypatch)
    encode(rng.standard_normal((7, 5)), params, Segments([7]))
    assert len(collected) == 2  # one stack per layer
    for weights in collected:
        assert weights.shape == (2, 7, 7)
        assert np.abs(weights.sum(axis=2) - 1.0).max() < 1e-9


def test_permutation_equivariance_without_positions():
    params = make_params()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    base = encode(x, params, Segments([6])).data
    permuted = encode(x[perm], params, Segments([6])).data
    assert np.abs(permuted - base[perm]).max() < 1e-10


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((5, 16)) * 3.0 + 2.0)
    gamma = Tensor(np.ones(16))
    beta = Tensor(np.zeros(16))
    out = layer_norm_rows(x, gamma, beta).data
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6


def test_dropout_is_seeded_and_off_at_eval():
    params = make_params(dropout=0.5)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 5))
    a = encode(x, params, Segments([4]), rng=np.random.default_rng(9)).data
    b = encode(x, params, Segments([4]), rng=np.random.default_rng(9)).data
    c = encode(x, params, Segments([4]),
               rng=np.random.default_rng(10)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # no rng -> deterministic evaluation path, no masking
    d = encode(x, params, Segments([4])).data
    e = encode(x, params, Segments([4])).data
    assert np.array_equal(d, e)


def test_encoder_gradients_match_finite_differences():
    params = make_params(input_dim=3, seed=8)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3))
    r = Tensor(rng.standard_normal((3, 8)))
    names_and_params = list(params.named_parameters("enc"))
    leaves = [p for _, p in names_and_params]

    assert_grad_matches(
        lambda: (encode(x, params, Segments([3])) * r).sum(), leaves)


def attention_oracle(x, block, heads):
    """Per-head loops in plain numpy."""
    n, h = x.shape
    d = h // heads
    q, k, v = (x @ block[name].data for name in ("wq", "wk", "wv"))
    mixed = np.zeros((n, h))
    for head in range(heads):
        cols = slice(head * d, (head + 1) * d)
        for i in range(n):
            scores = np.array([q[i, cols] @ k[j, cols] / np.sqrt(d)
                               for j in range(n)])
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            mixed[i, cols] = sum(weights[j] * v[j, cols] for j in range(n))
    return mixed @ block["wo"].data + block["bo"].data


@pytest.mark.parametrize("n", [1, 6])
def test_self_attention_matches_loop_oracle(n):
    params = make_params(seed=12)
    block = params.blocks[0]
    block["bo"].data[:] = np.random.default_rng(13).standard_normal(8)
    x = np.random.default_rng(14).standard_normal((n, 8))
    out = encoder._self_attention(Tensor(x), block, 2, Segments([n]))
    assert np.abs(out.data - attention_oracle(x, block, 2)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 5])
def test_self_attention_gradients_match_finite_differences(n):
    params = make_params(seed=15)
    block = params.blocks[0]
    rng = np.random.default_rng(16 + n)
    x = Tensor(rng.standard_normal((n, 8)), requires_grad=True)
    r = Tensor(rng.standard_normal((n, 8)))
    leaves = [x] + [block[k] for k in ("wq", "wk", "wv", "wo", "bo")]
    segments = Segments([n])
    assert_grad_matches(
        lambda: (encoder._self_attention(x, block, 2, segments) * r).sum(),
        leaves)
