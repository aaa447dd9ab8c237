"""Accuracy, weighted F1, confusion matrices, and logit traces."""

import json

import numpy as np
import pytest

from modbalance.errors import ShapeError
from modbalance.metrics import (
    EvalReport,
    accuracy,
    confusion_matrix,
    logit_trace,
    per_class_stats,
)


def weighted_f1(preds, labels, num_classes):
    return EvalReport.from_predictions(
        np.asarray(preds), np.asarray(labels), num_classes).weighted_f1


def test_accuracy_all_correct():
    assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0


def test_accuracy_counting():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_accuracy_matches_loop_oracle():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 4, size=50)
    labels = rng.integers(0, 4, size=50)
    expected = sum(int(p == y) for p, y in zip(preds, labels)) / 50
    assert accuracy(preds, labels) == expected


def test_accuracy_rejects_empty():
    with pytest.raises(ShapeError):
        accuracy([], [])


def test_weighted_f1_perfect():
    assert weighted_f1([0, 1, 2, 1], [0, 1, 2, 1], num_classes=3) == 1.0


def test_weighted_f1_hand_computation():
    # class 0: P=0.5 R=1 F1=2/3; class 1: P=1 R=2/3 F1=0.8
    got = weighted_f1([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
    expected = (1 / 4) * (2 / 3) + (3 / 4) * 0.8
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.7667) < 5e-5


def test_weighted_f1_absent_class_has_zero_weight():
    with_extra = weighted_f1([0, 1, 1], [0, 1, 1], num_classes=5)
    assert with_extra == 1.0


def test_weighted_f1_invariant_to_joint_class_permutation():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 4, size=60)
    labels = rng.integers(0, 4, size=60)
    perm = rng.permutation(4)
    base = weighted_f1(preds, labels, num_classes=4)
    permuted = weighted_f1(perm[preds], perm[labels], num_classes=4)
    assert abs(base - permuted) < 1e-12


def test_accuracy_equals_weighted_recall():
    rng = np.random.default_rng(2)
    preds = rng.integers(0, 3, size=40)
    labels = rng.integers(0, 3, size=40)
    stats = per_class_stats(confusion_matrix(preds, labels, 3))
    weighted_recall = sum(s["support"] / 40 * s["recall"] for s in stats)
    assert abs(accuracy(preds, labels) - weighted_recall) < 1e-12


def test_confusion_rows_are_supports_and_trace_is_accuracy():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 3, size=30)
    labels = rng.integers(0, 3, size=30)
    counts = confusion_matrix(preds, labels, 3)
    for c in range(3):
        assert counts[c].sum() == int((labels == c).sum())
    assert counts.trace() / 30 == accuracy(preds, labels)
    expected = np.zeros((3, 3), dtype=np.int64)
    for y, p in zip(labels, preds):
        expected[y, p] += 1
    assert np.array_equal(counts, expected)


def test_logit_trace_identical_modalities():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)
    trace = logit_trace({"t": logits, "a": logits.copy()}, labels)
    assert trace["t"] == trace["a"]


def test_logit_trace_single_sample():
    logits = np.array([[0.1, 0.9, -0.3]])
    trace = logit_trace({"t": logits}, np.array([1]))
    assert trace["t"] == 0.9


def test_eval_report_round_trips_as_json():
    rng = np.random.default_rng(5)
    preds = rng.integers(0, 3, size=25)
    labels = rng.integers(0, 3, size=25)
    report = EvalReport.from_predictions(preds, labels, 3)
    payload = json.loads(report.to_json())
    assert payload["accuracy"] == report.accuracy
    assert payload["weighted_f1"] == report.weighted_f1
    assert np.array(payload["confusion"]).sum() == 25
