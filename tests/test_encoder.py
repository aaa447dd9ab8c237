"""Transformer encoder: shapes, equivariance, attention, gradients."""

import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from modbalance import encoder
from modbalance.dataset import MODALITIES
from modbalance.encoder import EncoderParams, encode, layer_blocks
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
    no_grad,
    softmax_array,
    softmax_vjp,
)

from conftest import assert_grad_matches, project

DIMS = {"t": 5, "a": 4, "v": 3}
SUBSETS = [("t",), ("a",), ("v",), ("t", "a"), ("t", "v"), ("a", "v"),
           ("t", "a", "v")]


def tiny_config(**overrides):
    base = dict(hidden=8, layers=1, heads=2, ffn=12)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides):
    return Model(tiny_config(**overrides), num_classes=3, dims=DIMS,
                 seed=seed)


def features_of(rng, n):
    return {m: rng.standard_normal((n, d)) for m, d in DIMS.items()}


def stacked_block(rng, m=3, hidden=8, heads=2):
    """Standalone (m, *shape) leaves for the blocks of one encoder layer,
    matrix i of each a modality's block; contiguous, so finite differences
    can perturb them in place."""
    return {key: Tensor(rng.standard_normal((m,) + shape)
                        / np.sqrt(shape[0]), requires_grad=True)
            for key, shape, _ in layer_blocks(tiny_config(hidden=hidden,
                                                          heads=heads))}


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
    model = tiny_model()
    rng = np.random.default_rng(1)
    z = encode(features_of(rng, 6), model.encoder_stack(MODALITIES),
               Segments([6]))
    assert list(z) == list(MODALITIES)
    for m in MODALITIES:
        assert z[m].shape == (6, 8)


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


def test_single_utterance_attends_to_itself():
    # the softmax over one score is 1, so a one-utterance conversation's
    # attention is its own value row through the output projection, in
    # every modality, alone and in a pack
    rng = np.random.default_rng(2)
    block = stacked_block(rng)
    for lengths in ((1,), (3, 1, 2)):
        x = rng.standard_normal((3, sum(lengths), 8))
        segments = Segments(lengths)
        out = encoder._self_attention(Tensor(x), block, 2, segments).data
        alone = segments.slices[lengths.index(1)]
        expected = (x[:, alone] @ block["wv"].data @ block["wo"].data
                    + block["bo"].data[:, None])
        assert np.abs(out[:, alone] - expected).max() < 1e-12


def test_attention_rows_sum_to_one():
    # every utterance's value row is the same c (wv reads only columns
    # where x is constant) while queries and keys vary, so with wo = I and
    # bo = 0 each head's output is (sum_j w_ij) c: it is c exactly when
    # every row of attention weights sums to one
    rng = np.random.default_rng(3)
    block = stacked_block(rng)
    block["wo"].data[...] = np.eye(8)
    block["bo"].data[...] = 0.0
    block["wv"].data[:, :4] = 0.0
    for lengths in ((7,), (3, 4)):
        x = rng.standard_normal((3, sum(lengths), 8))
        x[..., 4:] = rng.standard_normal((3, 1, 4))
        values = x @ block["wv"].data
        out = encoder._self_attention(Tensor(x), block, 2,
                                      Segments(lengths)).data
        assert np.ptp(x @ block["wq"].data, axis=1).min() > 1e-3
        assert np.abs(out - values).max() < 1e-12


def test_permutation_equivariance_without_positions():
    model = tiny_model()
    rng = np.random.default_rng(4)
    x = features_of(rng, 6)
    perm = rng.permutation(6)
    stack = model.encoder_stack(MODALITIES)
    base = encode(x, stack, Segments([6]))
    permuted = encode({m: v[perm] for m, v in x.items()}, stack,
                      Segments([6]))
    for m in MODALITIES:
        assert np.abs(permuted[m].data - base[m].data[perm]).max() < 1e-10


@pytest.mark.parametrize("active", SUBSETS, ids=",".join)
def test_encoding_does_not_depend_on_the_other_active_modalities(active):
    # each modality's rows of a subset's stack are its own: its encoding,
    # and the gradient of a loss on it, are bit for bit those of the
    # modality encoded alone, for a lone conversation and in a pack (a
    # subset taking the wrong rows of the layer matrix, (t, v) as 0:2 say,
    # would encode v with a's weights)
    model = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    for lengths in ((5,), (3, 1, 4)):
        x = features_of(rng, sum(lengths))
        r = {m: rng.standard_normal((sum(lengths), 8)) for m in active}
        model.zero_grad()
        z = encode(x, model.encoder_stack(active), Segments(lengths))
        project(*((z[m], r[m]) for m in active)).backward()
        together = model.grad.copy()
        for m in active:
            model.zero_grad()
            alone = encode(x, model.encoder_stack((m,)), Segments(lengths))
            project((alone[m], r[m])).backward()
            assert np.array_equal(z[m].data, alone[m].data), (m, lengths)
            for span in model.encoder_spans[m]:
                assert np.array_equal(together[span], model.grad[span]), m


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
    model = Model(tiny_config(), num_classes=3, dims={"t": 3, "a": 4, "v": 2},
                  seed=8)
    stack = model.encoder_stack(("t",))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 8))
    # one modality's layer leaves are (1, *shape) views of one contiguous
    # row of theta, which the differences perturb in place
    leaves = [*stack.in_proj[0]] + [p for block in stack.blocks
                                    for p in block.values()]

    assert_grad_matches(
        lambda: project((encode({"t": x}, stack, Segments([3]))["t"], r)),
        leaves)


def theta_differences(model, loss_value, entries, h=1e-5):
    """Central differences of ``loss_value()`` at ``entries`` of theta."""
    out = np.empty(len(entries))
    for j, i in enumerate(entries):
        original = model.theta[i]
        model.theta[i] = original + h
        plus = loss_value()
        model.theta[i] = original - h
        minus = loss_value()
        model.theta[i] = original
        out[j] = (plus - minus) / (2.0 * h)
    return out


@pytest.mark.parametrize("active", [("t", "a", "v"), ("t", "v"), ("a",)],
                         ids=",".join)
@pytest.mark.parametrize("rows", [False, True], ids=["summed", "rows"])
def test_stacked_encoder_gradients_match_finite_differences(active, rows):
    # a loss on every active modality's encoding of a three-conversation
    # pack; its gradient, summed into model.grad or written per
    # conversation into gradient rows, against central differences on
    # every 5th entry of the encoder's part of theta
    model = tiny_model(seed=9)
    lengths = (2, 4, 3)
    rng = np.random.default_rng(10)
    x = features_of(rng, sum(lengths))
    r = {m: rng.standard_normal((sum(lengths), 8)) for m in active}
    stack = model.encoder_stack(active)

    def loss(segments, rows=slice(None)):
        z = encode({m: v[rows] for m, v in x.items()}, stack, segments)
        return project(*((z[m], r[m][rows]) for m in active))

    def value(segments, rows=slice(None)):
        with no_grad():
            return loss(segments, rows).item()

    def check(autograd, numeric):
        err = np.abs(autograd - numeric) / np.maximum(1.0, np.abs(numeric))
        assert err.max() < 1e-6, err.max()

    entries = np.arange(0, model.encoder_size, 5)
    grad_rows = np.full((len(lengths), model.encoder_size), np.nan)
    segments = Segments(lengths, (model.encoder_grad_rows(grad_rows, active)
                                  if rows else None))
    model.zero_grad()
    loss(segments).backward()
    if not rows:
        check(model.grad[entries], theta_differences(
            model, lambda: value(Segments(lengths)), entries))
        return
    written = np.zeros(model.encoder_size, dtype=bool)
    for m in active:
        for span in model.encoder_spans[m]:
            written[span] = True
    assert not np.isnan(grad_rows[:, written]).any()
    assert np.isnan(grad_rows[:, ~written]).all()  # the caller zeroes them
    for j, rows in enumerate(segments.slices):
        alone = Segments([rows.stop - rows.start])
        check(np.nan_to_num(grad_rows[j, entries]), theta_differences(
            model, lambda: value(alone, rows), entries))


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
    # matrix i of the stack is attended with the weights at index i
    rng = np.random.default_rng(12)
    block = stacked_block(rng)
    x = rng.standard_normal((3, n, 8))
    out = encoder._self_attention(Tensor(x), block, 2, Segments([n])).data
    for i in range(3):
        own = {k: Tensor(p.data[i]) for k, p in block.items()}
        assert np.abs(out[i] - attention_oracle(x[i], own, 2)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 5])
def test_self_attention_gradients_match_finite_differences(n):
    rng = np.random.default_rng(16 + n)
    block = stacked_block(rng)
    x = Tensor(rng.standard_normal((3, n, 8)), requires_grad=True)
    r = rng.standard_normal((3, n, 8))
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


def run_attention(attention, block, x, r, lengths, rows):
    """Output and gradients of one attention node on ``x`` (a fresh leaf
    for each call) under the projection ``r``; with ``rows`` the
    parameters' gradients are per-conversation rows."""
    x = Tensor(x, requires_grad=True)
    for k in ATTENTION_PARAMS:
        block[k].grad = None
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
    # the stacked node over three modalities against the 2-D reference run
    # on each modality's matrix and weights; head_dim 6: a score scale
    # that is not a power of two rounds
    rng = np.random.default_rng(21)
    block = stacked_block(rng, hidden=24, heads=4)
    x, r = rng.standard_normal((2, 3, sum(lengths), 24))
    out, found = run_attention(encoder._self_attention, block, x, r, lengths,
                               rows)
    for i in range(3):
        own = {k: Tensor(block[k].data[i].copy(), requires_grad=True)
               for k in ATTENTION_PARAMS}
        ref_out, expected = run_attention(reference_self_attention, own,
                                          x[i], r[i], lengths, rows)
        assert np.array_equal(out[i], ref_out)
        for name, actual, wanted in zip(("x",) + ATTENTION_PARAMS, found,
                                        expected):
            mine = actual[:, i] if rows and name != "x" else actual[i]
            assert np.array_equal(mine, wanted), (name, i)
    assert not np.isnan(found[1]).any()  # every row was written
