"""Packs: several conversations stacked row-wise in one training graph.

A pack must give each conversation exactly what it gives as a pack of its
own: the segment-aware ops keep conversations apart, the per-conversation
encoder gradient rows match a one-conversation pack each, and their sum is
the batch gradient.
"""

import numpy as np
import pytest

from modbalance import training
from modbalance.dataset import Conversation
from modbalance.encoder import EncoderParams, EncoderConfig, _self_attention
from modbalance.feature_weighting import feature_attention, pool_attention
from modbalance.losses import cls_loss, feature_loss, main_loss, modal_loss
from modbalance.model import Model, ModelConfig
from modbalance.tensor import Segments, Tensor
from modbalance.training import backward_batch, packs

from conftest import assert_grad_matches

DIMS = {"t": 6, "a": 5, "v": 4}
LENGTHS = (3, 5, 2)  # a pack of three conversations for the op checks


def conversations(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [Conversation(id=f"c{i}", labels=rng.integers(0, 3, size=n),
                         features={m: rng.standard_normal((n, d))
                                   for m, d in DIMS.items()})
            for i, n in enumerate(lengths)]


def relative_gap(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


# --- splitting a batch into packs ---

@pytest.mark.parametrize("pack_rows, expected", [
    (128, [[3, 5, 2, 4]]),
    (8, [[3, 5], [2, 4]]),
    (4, [[3], [5], [2], [4]]),  # 5 > 4 rows: a pack of its own
    (6, [[3], [5], [2, 4]]),
])
def test_packs_close_before_exceeding_pack_rows(monkeypatch, pack_rows,
                                                expected):
    monkeypatch.setattr(training, "PACK_ROWS", pack_rows)
    batch = conversations((3, 5, 2, 4))
    split = list(packs(batch))
    assert [[c.num_utterances for c in p] for p in split] == expected
    assert [c for p in split for c in p] == batch  # batch order kept


# --- one packed backward against a graph per conversation ---

VARIANTS = {
    "full": ({}, ("t", "a", "v")),
    "no_afw": ({"disable_afw": True}, ("t", "a", "v")),
    "no_amw": ({"disable_amw": True}, ("t", "a", "v")),
    "t,a": ({}, ("t", "a")),
}


def reference_gradients(model, batch, active):
    """Per-conversation encoder gradients, batch gradient and loss terms,
    each conversation run as its own one-segment pack."""
    rows = np.zeros((len(batch), model.encoder_size))
    total = np.zeros_like(model.grad)
    terms = np.zeros((3, len(batch)))
    for i, conv in enumerate(batch):
        model.zero_grad()
        alone = Segments([conv.num_utterances])
        out = model.forward(conv.features, active=active, segments=alone)
        feature = (Tensor(0.0) if out.afw_state is None else
                   feature_loss(out.afw_state.attention, out.afw_state.mapped,
                                alone))
        parts = (cls_loss(out.outputs, conv.labels, alone), feature,
                 modal_loss(out.fused, conv.labels, alone))
        terms[:, i] = [t.item() for t in parts]
        main_loss(*parts).backward()
        rows[i] = model.grad[:model.encoder_size]
        total += model.grad
    return rows, total, terms


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("lengths, pack_rows, pack_sizes", [
    ((3, 5, 2, 4), 128, [4]),
    ((3, 5, 2, 4), 8, [2, 2]),  # PACK_ROWS splits the batch
    ((3, 12, 2), 8, [1, 1, 1]),  # 12 utterances: longer than PACK_ROWS
])
def test_packed_backward_matches_per_conversation_graphs(
        monkeypatch, variant, lengths, pack_rows, pack_sizes):
    monkeypatch.setattr(training, "PACK_ROWS", pack_rows)
    overrides, active = VARIANTS[variant]
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12,
                              **overrides), num_classes=3, dims=DIMS, seed=1)
    batch = conversations(lengths, seed=2)
    assert [len(p) for p in packs(batch)] == pack_sizes
    rows, total, terms = reference_gradients(model, batch, active)

    conv_grads = np.full((len(batch) + 1, model.encoder_size), np.nan)
    logits, labels, packed_terms = backward_batch(model, batch, conv_grads,
                                                  active)
    assert relative_gap(conv_grads[:len(batch)], rows) <= 1e-13
    assert relative_gap(model.grad, total) <= 1e-13
    assert np.abs(packed_terms - terms).max() <= 1e-13 * np.abs(terms).max()
    assert np.isnan(conv_grads[len(batch)]).all()  # rows past the batch
    assert np.array_equal(labels, np.concatenate([c.labels for c in batch]))
    assert set(logits) == set(active)
    for m in model.dims:  # an inactive encoder gets no gradient
        if m not in active:
            assert not model.grad[model.encoder_spans[m]].any()


def test_one_conversation_pack_gives_its_graph_bit_for_bit():
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12),
                  num_classes=3, dims=DIMS, seed=1)
    batch = conversations((5,), seed=3)
    rows, total, terms = reference_gradients(model, batch, ("t", "a", "v"))
    conv_grads = np.empty((1, model.encoder_size))
    _, _, packed_terms = backward_batch(model, batch, conv_grads)
    assert np.array_equal(conv_grads, rows)
    assert np.array_equal(model.grad, total)
    assert np.array_equal(packed_terms, terms)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("lengths, pack_rows", [
    ((3, 5, 2, 4), 128), ((3, 5, 2, 4), 8), ((3, 12, 2), 8)])
def test_packed_backward_without_rows_accumulates_the_batch_gradient(
        monkeypatch, variant, lengths, pack_rows):
    # a run without noise keeps no rows: encoder nodes add into model.grad
    monkeypatch.setattr(training, "PACK_ROWS", pack_rows)
    overrides, active = VARIANTS[variant]
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12,
                              **overrides), num_classes=3, dims=DIMS, seed=1)
    batch = conversations(lengths, seed=2)
    _, total, terms = reference_gradients(model, batch, active)
    _, _, packed_terms = backward_batch(model, batch, None, active)
    assert relative_gap(model.grad, total) <= 1e-13
    assert np.abs(packed_terms - terms).max() <= 1e-13 * np.abs(terms).max()


def test_one_conversation_pack_without_rows_gives_its_graph_bit_for_bit():
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12),
                  num_classes=3, dims=DIMS, seed=1)
    batch = conversations((5,), seed=3)
    _, total, _ = reference_gradients(model, batch, ("t", "a", "v"))
    backward_batch(model, batch)
    assert np.array_equal(model.grad, total)


# --- segment-aware ops: no mixing across conversations, and gradients ---

def pack_rows(rng, shape):
    """Rows for LENGTHS, and the segments over them."""
    return rng.standard_normal((sum(LENGTHS),) + shape), Segments(LENGTHS)


def one_conversation(rows):
    """The segments of ``rows`` run as a pack of their own."""
    return Segments([rows.stop - rows.start])


def attention_block(rng, hidden=8):
    return EncoderParams(4, EncoderConfig(hidden=hidden, layers=1, heads=2,
                                          ffn=8), rng).blocks[0]


def test_packed_attention_attends_within_each_conversation():
    rng = np.random.default_rng(0)
    block = attention_block(rng)
    x, segments = pack_rows(rng, (8,))
    packed = _self_attention(Tensor(x), block, 2, segments).data
    for rows in segments.slices:
        alone = _self_attention(Tensor(x[rows]), block, 2,
                                one_conversation(rows)).data
        assert np.abs(packed[rows] - alone).max() < 1e-13


def test_packed_attention_gradients():
    rng = np.random.default_rng(1)
    block = attention_block(rng)
    x, segments = pack_rows(rng, (8,))
    x = Tensor(x, requires_grad=True)
    r = Tensor(rng.standard_normal(x.shape))
    assert_grad_matches(
        lambda: (_self_attention(x, block, 2, segments) * r).sum(),
        [x, *block.values()])


def test_packed_pooling_and_contraction_per_conversation():
    rng = np.random.default_rng(2)
    coefficients, segments = pack_rows(rng, (2, 2))
    pooled = pool_attention(Tensor(coefficients), segments).data
    out_map = Tensor(rng.standard_normal((4, 5)))
    stacks = {m: Tensor(rng.random((3, 2, 2))) for m in ("t", "a")}
    attention = feature_attention(Tensor(coefficients), stacks, out_map,
                                  segments, ("t", "a")).data
    for j, rows in enumerate(segments.slices):
        alone, one = Tensor(coefficients[rows]), one_conversation(rows)
        own_pooled = pool_attention(alone, one).data[0]
        assert np.abs(pooled[j] - own_pooled).max() < 1e-15
        own = {m: Tensor(s.data[j:j + 1]) for m, s in stacks.items()}
        expected = feature_attention(alone, own, out_map, one, ("t", "a")).data
        assert np.abs(attention[rows] - expected).max() < 1e-13


def test_packed_pooling_and_contraction_gradients():
    rng = np.random.default_rng(3)
    coefficients, segments = pack_rows(rng, (2, 2))
    coefficients = Tensor(coefficients, requires_grad=True)
    other = Tensor(rng.random((3, 2, 2)), requires_grad=True)
    out_map = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    r = Tensor(rng.standard_normal((sum(LENGTHS), 5)))

    def build():
        pooled = {"t": pool_attention(coefficients, segments), "a": other}
        return (feature_attention(coefficients, pooled, out_map, segments,
                                  ("t", "a")) * r).sum()

    assert_grad_matches(build, [coefficients, other, out_map])


def test_packed_losses_are_each_conversations_loss():
    rng = np.random.default_rng(4)
    logits, segments = pack_rows(rng, (3,))
    labels = rng.integers(0, 3, size=len(logits))
    att, hat = (rng.standard_normal((len(logits), 4)) for _ in range(2))
    ce = cls_loss(Tensor(logits), labels, segments).data
    gap = feature_loss({"t": Tensor(att)}, {"t": Tensor(hat)}, segments).data
    for j, rows in enumerate(segments.slices):
        one = one_conversation(rows)
        assert ce[j] == cls_loss(Tensor(logits[rows]), labels[rows],
                                 one).item()
        assert gap[j] == feature_loss({"t": Tensor(att[rows])},
                                      {"t": Tensor(hat[rows])}, one).item()


def test_packed_loss_gradients():
    rng = np.random.default_rng(5)
    logits, segments = pack_rows(rng, (3,))
    logits = Tensor(logits, requires_grad=True)
    labels = rng.integers(0, 3, size=logits.shape[0])
    att = {m: Tensor(rng.standard_normal((logits.shape[0], 4)),
                     requires_grad=True) for m in ("t", "a")}
    hat = {m: Tensor(rng.standard_normal((logits.shape[0], 4)),
                     requires_grad=True) for m in ("t", "a")}
    w = Tensor(rng.standard_normal(len(segments)))

    def build():
        return (main_loss(cls_loss(logits, labels, segments),
                          feature_loss(att, hat, segments),
                          modal_loss(logits * 0.5, labels, segments))
                * w).sum()

    assert_grad_matches(build, [logits, *att.values(), *hat.values()])
