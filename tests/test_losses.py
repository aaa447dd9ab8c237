"""Loss terms: closed forms, scalar oracles, and the joint objective."""

import math

import numpy as np
import pytest

from modbalance.errors import ShapeError
from modbalance.losses import (
    cls_loss,
    feature_loss,
    main_loss,
    modal_loss,
)
from modbalance.model import Model, ModelConfig
from modbalance.tensor import Tensor, linear

from conftest import assert_grad_matches


def _ce_oracle(logits, labels):
    """Explicit exp/log loop, no shared code with the implementation."""
    total = 0.0
    for i, y in enumerate(labels):
        row = logits[i]
        m = max(row)
        denom = sum(math.exp(v - m) for v in row)
        total += -(row[y] - m - math.log(denom))
    return total / len(labels)


# --- classification loss ---

def test_cls_loss_confident_correct_approaches_zero():
    logits = np.full((3, 4), -50.0)
    labels = np.array([0, 2, 3])
    logits[np.arange(3), labels] = 50.0
    assert cls_loss(Tensor(logits), labels).item() < 1e-12


def test_cls_loss_uniform_logits_closed_form():
    logits = Tensor(np.zeros((5, 6)))
    labels = np.array([0, 1, 2, 3, 4])
    assert abs(cls_loss(logits, labels).item() - math.log(6.0)) < 1e-10


def test_cls_loss_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((7, 5)) * 3.0
    labels = rng.integers(0, 5, size=7)
    got = cls_loss(Tensor(logits), labels).item()
    assert abs(got - _ce_oracle(logits.tolist(), labels.tolist())) < 1e-10


def test_cls_loss_is_finite_for_large_finite_logits():
    logits = Tensor([[0.0, 800.0]], requires_grad=True)
    loss = cls_loss(logits, np.array([0]))
    assert loss.item() == 800.0
    main_loss(loss, Tensor(0.0), Tensor(0.0)).backward()
    assert np.array_equal(logits.grad, [[-1.0, 1.0]])


def test_cls_loss_rejects_out_of_range_label():
    with pytest.raises(ShapeError):
        cls_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cls_loss_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 4))
    labels = rng.integers(0, 4, size=4)
    a = cls_loss(Tensor(logits), labels).item()
    b = cls_loss(Tensor(logits + 123.0), labels).item()
    assert abs(a - b) < 1e-12


# --- feature loss ---

def _maps(values):
    return {m: Tensor(np.asarray(v)) for m, v in values.items()}


def test_feature_loss_identity_is_zero():
    rng = np.random.default_rng(2)
    att = {m: Tensor(rng.standard_normal((3, 4))) for m in ("t", "a", "v")}
    assert feature_loss(att, att).item() == 0.0


def test_feature_loss_hand_count():
    # unit gap everywhere: 3 modalities * 2 utterances * 3 dims = 18, /N=2 -> 9
    rng = np.random.default_rng(3)
    att = {m: Tensor(rng.standard_normal((2, 3))) for m in ("t", "a", "v")}
    mapped = {m: Tensor(att[m].data + 1.0) for m in ("t", "a", "v")}
    assert abs(feature_loss(att, mapped).item() - 9.0) < 1e-12


def test_feature_loss_is_symmetric():
    rng = np.random.default_rng(4)
    att = {m: Tensor(rng.standard_normal((3, 4))) for m in ("t", "a", "v")}
    mapped = {m: Tensor(rng.standard_normal((3, 4))) for m in ("t", "a", "v")}
    assert feature_loss(att, mapped).item() == feature_loss(mapped, att).item()


def test_feature_loss_nonnegative():
    rng = np.random.default_rng(5)
    att = {m: Tensor(rng.standard_normal((3, 4))) for m in ("t", "a", "v")}
    mapped = {m: Tensor(rng.standard_normal((3, 4))) for m in ("t", "a", "v")}
    assert feature_loss(att, mapped).item() >= 0.0


# --- modality balance loss ---

def test_modal_loss_fixed_logits_closed_form():
    logits = np.array([[3.0, -3.0, -3.0, -3.0]])
    labels = np.array([0])
    expected = -math.log(math.exp(3.0) / (math.exp(3.0) + 3 * math.exp(-3.0)))
    assert abs(modal_loss(Tensor(logits), labels).item() - expected) < 1e-12


def test_modal_loss_uniform_closed_form():
    assert abs(modal_loss(Tensor(np.zeros((3, 4))), np.array([1, 2, 0])).item()
               - math.log(4.0)) < 1e-10


def test_modal_loss_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((6, 4)) * 2.0
    labels = rng.integers(0, 4, size=6)
    got = modal_loss(Tensor(logits), labels).item()
    assert abs(got - _ce_oracle(logits.tolist(), labels.tolist())) < 1e-10


# --- joint objective ---

def test_main_loss_is_plain_sum():
    out = main_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0))
    assert out.item() == 6.0


def test_main_loss_degenerates_to_cls():
    out = main_loss(Tensor(1.25), Tensor(0.0), Tensor(0.0))
    assert out.item() == 1.25


def test_main_loss_gradient_is_sum_of_term_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    labels = np.array([0, 2])
    att = {"t": x}
    mapped = {"t": Tensor(rng.standard_normal((2, 3)))}

    w = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal(3))

    def build():
        return main_loss(cls_loss(x, labels), feature_loss(att, mapped),
                         modal_loss(linear(x, w, b), labels))

    assert_grad_matches(build, [x])


@pytest.mark.parametrize("shape", [(), (4,)], ids=["0-d", "per-conversation"])
def test_main_loss_is_one_scalar_node_over_its_terms(shape):
    rng = np.random.default_rng(9)
    terms = [Tensor(rng.standard_normal(shape), requires_grad=True)
             for _ in range(3)]
    total = main_loss(*terms)
    assert total.shape == ()
    assert total.item() == (terms[0].data + terms[1].data
                            + terms[2].data).sum()
    assert total._parents == tuple(terms)
    assert_grad_matches(lambda: main_loss(*terms), terms)
    for term in terms:
        assert np.array_equal(term.grad, np.ones(shape))


def _sampled_grad_check(model, conv_features, labels, active, entries=2,
                        h=1e-6, tol=1e-6):
    """Central differences of one conversation's main_loss at ``entries``
    seeded entries of every parameter block, against autograd; a block
    the forward pass does not reach must have a zero difference."""
    def loss():
        out = model.forward(conv_features, active=active)
        if out.afw_state is None:
            feature_term = Tensor(0.0)
        else:
            feature_term = feature_loss(out.afw_state.attention,
                                        out.afw_state.mapped)
        return main_loss(cls_loss(out.outputs, labels), feature_term,
                         modal_loss(out.fused, labels))

    model.zero_grad()
    loss().backward()
    rng = np.random.default_rng(0)
    for name, p in model.named_parameters().items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(entries, flat.size),
                            replace=False):
            original = flat[i]
            flat[i] = original + h
            up = loss().item()
            flat[i] = original - h
            down = loss().item()
            flat[i] = original
            fd = (up - down) / (2.0 * h)
            autograd = grad.reshape(-1)[i]
            err = abs(autograd - fd) / max(1.0, abs(fd))
            assert err < tol, f"{name}[{i}]: autograd {autograd}, fd {fd}"


@pytest.mark.parametrize("variant", ["full", "no_afw", "no_amw", "t,a"])
def test_main_loss_gradient_matches_finite_differences_on_every_block(variant):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12,
                         disable_afw=variant == "no_afw",
                         disable_amw=variant == "no_amw")
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4},
                  seed=3)
    rng = np.random.default_rng(4)
    features = {m: rng.standard_normal((4, d))
                for m, d in model.dims.items()}
    labels = np.array([0, 2, 1, 2])
    active = ("t", "a") if variant == "t,a" else ("t", "a", "v")
    _sampled_grad_check(model, features, labels, active)

