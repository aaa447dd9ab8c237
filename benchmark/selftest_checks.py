"""Tests for the benchmark's independent checks.

    python3 -m pytest -q benchmark/selftest_checks.py

Each check must pass on a correct input and fail on a corrupted one, so
that none of them is vacuous. The gradient test drives the real program on
a tiny model, so it needs ``src/`` next to this directory.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

ALPHA = 0.1


def make_report(preds, labels, num_classes):
    """A report dict built the way the checks expect to read one."""
    confusion = checks.confusion_counts(preds, labels, num_classes)
    accuracy, wf1 = checks.scores_from_confusion(confusion)
    return {"accuracy": accuracy, "weighted_f1": wf1,
            "confusion": confusion.tolist()}


def make_row(step, scores, cls=0.5, feature=2.0, modal=0.25):
    low = min(scores.values())
    row = {"epoch": "1", "step": str(step), "loss_cls": repr(cls),
           "loss_feature": repr(feature), "loss_modal": repr(modal),
           "loss_main": repr(cls + feature + modal)}
    for m, s in scores.items():
        rho = s / low
        row[f"s_{m}"] = repr(s)
        row[f"rho_{m}"] = repr(rho)
        row[f"k_{m}"] = repr(1.0 - math.tanh(ALPHA * rho) if rho > 1.0
                             else 1.0)
    return row


# --- reports ---

LABELS = np.array([0, 1, 2, 2, 1, 0, 0, 2])
PREDS = np.array([0, 1, 2, 1, 1, 0, 2, 2])


def test_report_check_accepts_consistent_report():
    checks.check_report(make_report(PREDS, LABELS, 3), LABELS, 3)


def test_weighted_f1_matches_hand_computation():
    # class 0: tp 2, fp 0, fn 1 -> f1 0.8; class 1: tp 2, fp 1, fn 0 -> 0.8;
    # class 2: tp 2, fp 1, fn 1 -> 2/3; supports 3, 2, 3 of 8
    expected = (3 * 0.8 + 2 * 0.8 + 3 * (2 / 3)) / 8
    assert abs(checks.weighted_f1(PREDS, LABELS, 3) - expected) < 1e-15


def test_report_check_rejects_wrong_label_count():
    report = make_report(PREDS, LABELS, 3)
    with pytest.raises(CheckFailed, match="supports"):
        checks.check_report(report, np.append(LABELS, 1), 3)


def test_report_check_rejects_wrong_weighted_f1():
    report = make_report(PREDS, LABELS, 3)
    report["weighted_f1"] += 1e-9
    with pytest.raises(CheckFailed, match="weighted F1"):
        checks.check_report(report, LABELS, 3)


def test_report_check_rejects_wrong_accuracy():
    report = make_report(PREDS, LABELS, 3)
    report["accuracy"] = 0.5
    with pytest.raises(CheckFailed, match="accuracy"):
        checks.check_report(report, LABELS, 3)


# --- traces ---

SCORES = {"t": 3.2, "a": 1.7, "v": 2.4}


def test_trace_check_accepts_rows_from_the_equations():
    rows = [make_row(1, SCORES), make_row(2, {"t": 1.0, "a": 1.0, "v": 1.0})]
    checks.check_trace_rows(rows, ALPHA, [5, 4])


@pytest.mark.parametrize("field, value, message", [
    ("k_t", "0.9", "k_t"),
    ("k_a", "0.9", "k_a"),  # the weakest modality must keep k = 1
    ("rho_v", "1.3", "rho_v"),
    ("loss_main", "2.76", "loss_main"),
    ("s_t", "5.5", "s_t"),
    ("s_a", "0.0", "s_a"),
])
def test_trace_check_rejects_a_corrupted_field(field, value, message):
    row = make_row(1, SCORES)
    row[field] = value
    with pytest.raises(CheckFailed, match=message):
        checks.check_trace_rows([row], ALPHA, [5])


def test_trace_check_rejects_a_missing_step():
    with pytest.raises(CheckFailed, match="trace rows"):
        checks.check_trace_rows([make_row(1, SCORES)], ALPHA, [5, 5])


# --- loss, quality, reload ---

def loss_rows(epoch_features):
    return [dict(make_row(1, SCORES, feature=f), epoch=str(e))
            for e, f in epoch_features]


def test_loss_check_needs_the_last_epoch_below_the_first():
    checks.check_loss_decreases(
        loss_rows([(1, 3.0), (1, 2.8), (2, 2.0), (2, 2.1)]))
    with pytest.raises(CheckFailed, match="last epoch"):
        checks.check_loss_decreases(
            loss_rows([(1, 2.0), (1, 2.1), (2, 3.0), (2, 2.8)]))


def test_quality_check_compares_against_a_share_of_the_reference():
    checks.check_quality(0.71, 0.9, 0.75)
    with pytest.raises(CheckFailed, match="below"):
        checks.check_quality(0.67, 0.9, 0.75)


def test_prediction_check_requires_exact_equality():
    expected = [np.array([0, 1, 2]), np.array([2, 2])]
    checks.check_same_predictions(expected, [e.copy() for e in expected])
    with pytest.raises(CheckFailed, match="conversation 1"):
        checks.check_same_predictions(expected,
                                      [expected[0], np.array([2, 1])])
    with pytest.raises(CheckFailed, match="conversations predicted"):
        checks.check_same_predictions(expected, expected[:1])


# --- gradients ---

def test_gradient_check_on_a_known_function():
    w = np.array([[0.3, -1.2], [0.7, 2.0]])
    x = np.array([[1.5, 0.5], [-0.25, 2.0]])

    def loss():
        return float(np.sum(np.sin(w) * x))

    grads = {"w": np.cos(w) * x}
    order = {"w": np.arange(4)}
    checks.check_gradient(loss, {"w": w}, grads, order, per_block=4)
    bad = {"w": grads["w"].copy()}
    bad["w"][1, 0] *= 1.001
    with pytest.raises(CheckFailed, match=r"w\[2\]"):
        checks.check_gradient(loss, {"w": w}, bad, order, per_block=4)


def _kinked(corner):
    """|w0 - corner| + w1^2 + w2^2 at w = (0, 0.5, -0.3), and its gradient."""
    w = np.array([0.0, 0.5, -0.3])

    def loss():
        return float(abs(w[0] - corner) + np.sum(w[1:] ** 2))

    return loss, w, {"w": np.array([-1.0, 2 * w[1], 2 * w[2]])}


def test_gradient_check_shortens_its_step_across_a_kink():
    loss, w, grads = _kinked(corner=0.3e-6)  # within h = 1e-6 of w0
    central = checks._central_difference(loss, w.reshape(-1), 0, 1e-6)
    assert abs(central - grads["w"][0]) > 0.1  # a plain check would fail
    checks.check_gradient(loss, {"w": w}, grads, {"w": np.arange(3)},
                          per_block=3)


def test_gradient_check_replaces_an_entry_it_cannot_resolve():
    loss, w, grads = _kinked(corner=1e-9)  # closer than h/16
    checks.check_gradient(loss, {"w": w}, grads, {"w": np.arange(3)},
                          per_block=2)
    with pytest.raises(checks.KinkedLoss, match="kink"):
        checks.check_gradient(loss, {"w": w}, grads, {"w": np.arange(1)},
                              per_block=1)


def test_gradient_check_still_fails_a_wrong_gradient_near_a_kink():
    loss, w, grads = _kinked(corner=0.3e-6)
    bad = {"w": grads["w"] * np.array([1.5, 1.0, 1.0])}
    with pytest.raises(CheckFailed, match=r"w\[0\]"):
        checks.check_gradient(loss, {"w": w}, bad, {"w": np.arange(3)},
                              per_block=3)
    bad = {"w": grads["w"] * np.array([1.0, 1.0, 1.001])}
    with pytest.raises(CheckFailed, match=r"w\[2\]") as failure:
        checks.check_gradient(loss, {"w": w}, bad, {"w": np.arange(3)},
                              per_block=3)
    assert not isinstance(failure.value, checks.KinkedLoss)


def test_gradient_check_on_the_program_main_loss():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    modbalance = pytest.importorskip("modbalance")
    from modbalance import losses
    from modbalance.model import Model, ModelConfig
    from modbalance.tensor import no_grad

    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    dims = {"t": 5, "a": 4, "v": 3}
    model = Model(config, num_classes=3, dims=dims, seed=3)
    rng = np.random.default_rng(0)
    features = {m: rng.standard_normal((4, d)) for m, d in dims.items()}
    labels = np.array([0, 2, 1, 2])

    def main_loss():
        out = model.forward(features)
        return losses.main_loss(
            losses.cls_loss(out.outputs, labels),
            losses.feature_loss(out.afw_state.attention, out.afw_state.mapped),
            losses.modal_loss(out.fused, labels))

    def value():
        with no_grad():
            return main_loss().item()

    params = model.named_parameters()
    model.zero_grad()
    main_loss().backward()
    grads = {n: p.grad.copy() for n, p in params.items()}
    data = {n: p.data for n, p in params.items()}
    order = {n: np.arange(p.data.size) for n, p in params.items()}
    checks.check_gradient(value, data, grads, order, per_block=1)

    name = "encoder.t.block0.wq"
    grads[name] = grads[name] + 1e-3
    with pytest.raises(CheckFailed, match=name):
        checks.check_gradient(value, data, grads, order, per_block=1)
    assert modbalance.__file__.startswith(str(src))
