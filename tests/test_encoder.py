"""Transformer encoder: shapes, equivariance, attention, gradients."""

import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from modbalance import encoder
from modbalance.encoder import EncoderParams, encode
from modbalance.errors import ConfigError, ShapeError
from modbalance.model import Model, ModelConfig
from modbalance.tensor import (
    Parameters,
    Segments,
    Tensor,
    accumulate,
    accumulate_params,
    affine_grads,
    layer_norm_rows,
    softmax_array,
    softmax_vjp,
)

from conftest import assert_grad_matches, project


def tiny_config(**overrides):
    base = dict(hidden=8, layers=1, heads=2, ffn=12)
    base.update(overrides)
    return ModelConfig(**base)


def make_params(input_dim=5, seed=0, **overrides):
    return EncoderParams(input_dim, tiny_config(**overrides),
                         Parameters(np.random.default_rng(seed)), "enc")


def test_config_rejects_bad_head_split():
    with pytest.raises(ConfigError, match="not divisible by 4 heads"):
        ModelConfig(hidden=10, heads=4)


@pytest.mark.parametrize("option", ["hidden", "rank", "layers", "heads",
                                    "ffn"])
def test_config_rejects_zero_encoder_dimension(option):
    # heads=0 is checked before hidden % heads could divide by it
    with pytest.raises(ConfigError, match="must be positive"):
        ModelConfig(**{option: 0})


@pytest.mark.parametrize("options, culprit", [
    ({"hidden": "8"}, "hidden must be int"),
    ({"beta": True}, "beta must be float"),
    ({"rank": 2.0}, "rank must be int"),
    ({"disable_afw": 1}, "disable_afw must be bool"),
])
def test_config_rejects_a_value_of_the_wrong_type(options, culprit):
    with pytest.raises(ConfigError, match=f"model options: {culprit}"):
        ModelConfig(**options)
    with pytest.raises(ConfigError, match=culprit):
        replace(ModelConfig(), **options)


def test_config_is_frozen():
    config = ModelConfig()
    with pytest.raises(FrozenInstanceError):
        config.hidden = 0
    assert config.hidden == 32


def test_output_shape_and_dim_check():
    params = make_params()
    rng = np.random.default_rng(1)
    z = encode(rng.standard_normal((6, 5)), params, Segments([6]))
    assert z.shape == (6, 8)


@pytest.mark.parametrize("edit, culprit", [
    ({"a": None}, "a"),
    ({"a": np.ones(24)}, "a"),
    ({"a": np.ones((6, 5))}, "a"),
    ({"a": np.ones((5, 4))}, "a"),
    ({"t": np.ones((0, 5)), "a": np.ones((0, 4))}, "t"),
    ({"a": np.ones((6, 4)).astype(str)}, "a"),
    ({"a": np.ones((6, 4), dtype=bool)}, "a"),
    ({"a": np.ones((6, 4), dtype=object)}, "a"),
    ({"a": np.ones((6, 4), dtype=complex)}, "a"),
    ({"a": [[1.0] * 4] * 5 + [[1.0]]}, "a"),
], ids=["missing", "not_2d", "width", "rows_differ", "no_rows", "strings",
        "booleans", "objects", "complex", "ragged"])
@pytest.mark.parametrize("disable_afw", [False, True], ids=["afw", "no_afw"])
def test_forward_names_the_modality_of_a_bad_input(edit, culprit,
                                                   disable_afw):
    """``Model.forward`` refuses a bad active input with a ShapeError
    naming its modality; the inactive one may be absent."""
    model = Model(tiny_config(disable_afw=disable_afw), num_classes=3,
                  dims={"t": 5, "a": 4, "v": 3}, seed=0)
    rng = np.random.default_rng(2)
    features = {"t": rng.standard_normal((6, 5)),
                "a": rng.standard_normal((6, 4))}
    assert model.forward(features, ("t", "a")).outputs.shape == (6, 3)
    for m, value in edit.items():
        if value is None:
            del features[m]
        else:
            features[m] = value
    with pytest.raises(ShapeError, match=f"modality '{culprit}'"):
        model.forward(features, ("t", "a"))


def test_forward_takes_integer_features_as_numbers():
    model = Model(tiny_config(), num_classes=3,
                  dims={"t": 5, "a": 4, "v": 3}, seed=0)
    counts = np.arange(24).reshape(6, 4) % 3
    features = {"t": np.ones((6, 5), dtype=np.int32), "a": counts}
    out = model.forward(features, ("t", "a"))
    floats = model.forward({m: x.astype(np.float64)
                            for m, x in features.items()}, ("t", "a"))
    assert np.array_equal(out.outputs.data, floats.outputs.data)


def test_forward_takes_a_subset_in_modality_order_however_spelled():
    model = Model(tiny_config(), num_classes=3,
                  dims={"t": 5, "a": 4, "v": 3}, seed=0)
    rng = np.random.default_rng(3)
    features = {m: rng.standard_normal((6, d)) for m, d in model.dims.items()}
    ta = model.forward(features, ("t", "a"))
    for spelling in (("a", "t"), ["a", "t"], "a, t"):
        out = model.forward(features, spelling)
        assert np.array_equal(out.outputs.data, ta.outputs.data), spelling
        assert list(out.contributions) == ["t", "a"]


@pytest.mark.parametrize("active", [("t", "t"), [], ["t", 1], "", "t,x", 5,
                                    {"t": 1}],
                         ids=["repeat", "empty", "not_a_string",
                              "empty_string", "unknown", "int", "dict"])
def test_forward_refuses_a_bad_subset(active):
    model = Model(tiny_config(), num_classes=3,
                  dims={"t": 5, "a": 4, "v": 3}, seed=0)
    features = {m: np.ones((2, d)) for m, d in model.dims.items()}
    with pytest.raises(ConfigError, match="modalities"):
        model.forward(features, active)


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


def test_layers_past_numpy_limit_are_refused_before_a_block_is_made():
    # 2**62 layers of 508 entries (hidden 8, ffn 12) is past 2**60 entries
    new = Parameters(np.random.default_rng(0))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"parameter block enc\.layers of "
                       r"shape \(4611686018427387904, 508\) is too large"):
        EncoderParams(3, tiny_config(layers=2**62), new, "enc")
    assert list(new.blocks) == ["enc.in_proj.w", "enc.in_proj.b"]
    with pytest.raises(ConfigError, match="encoder.t.layers"):
        Model(tiny_config(layers=2**62), num_classes=3,
              dims={"t": 6, "a": 5, "v": 4}, seed=0)
    assert time.perf_counter() - start < 1.0


def test_encoder_gradients_match_finite_differences():
    new = Parameters(np.random.default_rng(8))
    params = EncoderParams(3, tiny_config(), new, "enc")
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 8))
    leaves = list(new.blocks.values())

    assert_grad_matches(
        lambda: project((encode(x, params, Segments([3])), r)), leaves)


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
    r = rng.standard_normal((n, 8))
    leaves = [x] + [block[k] for k in ("wq", "wk", "wv", "wo", "bo")]
    segments = Segments([n])
    assert_grad_matches(
        lambda: project((encoder._self_attention(x, block, 2, segments), r)),
        leaves)


def reference_self_attention(x, block, heads, segments):
    """Self-attention as the per-conversation loop first wrote it: token-
    major projections, a copy of each conversation's attended values and
    an out-of-place softmax VJP. ``_self_attention`` must give the same
    bits."""
    wq, wk, wv, wo, bo = (block[k] for k in ("wq", "wk", "wv", "wo", "bo"))
    n, h = x.shape
    head_dim = h // heads
    scale = 1.0 / np.sqrt(head_dim)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv = (x.data @ w_qkv).reshape(n, 3, heads, head_dim)
    mixed = np.empty((n, heads, head_dim))
    attended = []
    for rows in segments.slices:
        q, k, v = qkv[rows].transpose(1, 2, 0, 3)
        weights = softmax_array(np.matmul(q, k.swapaxes(1, 2)) * scale,
                                axis=2)
        mixed[rows] = np.matmul(weights, v).transpose(1, 0, 2)
        attended.append((q, k, v, weights))
    mixed = mixed.reshape(n, h)

    def backward(g):
        accumulate_params((wo, bo), affine_grads, (mixed, g), segments)
        g_mixed = (g @ wo.data.T).reshape(n, heads, head_dim)
        g_mixed = g_mixed.transpose(1, 0, 2)
        g_qkv = np.empty((3, heads, n, head_dim))
        for rows, (q, k, v, weights) in zip(segments.slices, attended):
            g_heads = g_mixed[:, rows]
            g_scores = softmax_vjp(
                weights, np.matmul(g_heads, v.swapaxes(1, 2)), axis=2) * scale
            g_q, g_k, g_v = g_qkv[:, :, rows]
            np.matmul(g_scores, k, out=g_q)
            np.matmul(g_scores.swapaxes(1, 2), q, out=g_k)
            np.matmul(weights.swapaxes(1, 2), g_heads, out=g_v)
        g_qkv = g_qkv.transpose(2, 0, 1, 3).reshape(n, 3 * h)

        def qkv_grads(xs, gs):
            g_w = xs.swapaxes(-1, -2) @ gs
            return g_w[..., :h], g_w[..., h:2 * h], g_w[..., 2 * h:]

        accumulate_params((wq, wk, wv), qkv_grads, (x.data, g_qkv), segments)
        accumulate(x, g_qkv @ w_qkv.T)

    return Tensor._op(mixed @ wo.data + bo.data, (x, wq, wk, wv, wo, bo),
                      backward)


ATTENTION_PARAMS = ("wq", "wk", "wv", "wo", "bo")


def run_attention(attention, lengths, rows):
    """Output and gradients of one attention node on a fresh pack; with
    ``rows`` the parameters' gradients are per-conversation rows."""
    # head_dim 6: a score scale that is not a power of two rounds
    params = make_params(seed=21, hidden=24, heads=4)
    block = params.blocks[0]
    block["bo"].data[:] = np.random.default_rng(22).standard_normal(24)
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((sum(lengths), 24)), requires_grad=True)
    r = rng.standard_normal((sum(lengths), 24))
    grads = ({block[k]: np.full((len(lengths),) + block[k].shape, np.nan)
              for k in ATTENTION_PARAMS} if rows else None)
    out = attention(x, block, 4, Segments(lengths, grads))
    project((out, r)).backward()
    found = [x.grad] + [grads[block[k]] if rows else block[k].grad
                        for k in ATTENTION_PARAMS]
    return out.data, found


@pytest.mark.parametrize("lengths", [(3, 1, 7, 2, 5), (9,)],
                         ids=["several", "lone"])
@pytest.mark.parametrize("rows", [False, True], ids=["summed", "rows"])
def test_self_attention_matches_its_reference_bit_for_bit(lengths, rows):
    out, found = run_attention(encoder._self_attention, lengths, rows)
    ref_out, expected = run_attention(reference_self_attention, lengths, rows)
    assert np.array_equal(out, ref_out)
    for name, actual, wanted in zip(("x",) + ATTENTION_PARAMS, found,
                                    expected):
        assert np.array_equal(actual, wanted), name
    assert not np.isnan(found[1]).any()  # every row was written
