"""The package names the benchmark under ``benchmark/`` wraps or calls.

The tracer only lists a missing wrap target in its ``# `` info line, so a
rename or deletion in the package would silently drop a layer from traced
runs; these tests fail instead.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from modbalance import cli, losses
from modbalance.feature_weighting import AfwState
from modbalance.model import ForwardPass, Model, ModelConfig
from modbalance.tensor import Tensor, no_grad

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", BENCHMARK / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, layer",
                         load_tracer().LAYER_FUNCTIONS)
def test_every_traced_function_resolves(module_name, attr, layer):
    module = importlib.import_module(f"modbalance.{module_name}")
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# (module, dotted name) that benchmark/run.py and benchmark/tracer.py use
CALLED = [
    ("cli", "RunConfig.from_file"),
    ("cli", "RunConfig.load_dataset"),
    ("cli", "cmd_train"),
    ("cli", "cmd_eval"),
    ("dataset", "load"),
    ("dataset", "batches"),
    ("training", "evaluate"),
    ("losses", "cls_loss"),
    ("losses", "modal_loss"),
    ("losses", "feature_loss"),
    ("losses", "main_loss"),
    ("metrics", "EvalReport.from_predictions"),
    ("model", "Model.forward"),
    ("model", "Model.named_parameters"),
    ("model", "Model.zero_grad"),
    ("model", "ForwardPass.predictions"),
    ("tensor", "no_grad"),
    ("tensor", "Tensor.backward"),
]


@pytest.mark.parametrize("module_name, name", CALLED)
def test_every_called_name_exists(module_name, name):
    target = importlib.import_module(f"modbalance.{module_name}")
    for part in name.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{module_name}.{name}"


def test_forward_pass_and_graph_fields_exist():
    assert {"outputs", "fused", "afw_state"} <= {
        f.name for f in dataclasses.fields(ForwardPass)}
    assert {"attention", "mapped"} <= {
        f.name for f in dataclasses.fields(AfwState)}
    assert "_parents" in Tensor.__slots__


def test_cmd_train_returns_report_model_and_result(tmp_path):
    config = cli.RunConfig.from_dict({
        "data": {"synth": {"conversations": 5, "utterances": [2, 3]}},
        "model": {"hidden": 8, "layers": 1, "heads": 2, "ffn": 8},
        "optim": {"epochs": 1}, "output": {"dir": str(tmp_path)}})
    report, model, _ = cli.cmd_train(config)
    assert 0.0 <= report["final"]["weighted_f1"] <= 1.0
    assert callable(model.forward)


def test_gradient_and_reload_checks_replay_on_a_tiny_model():
    """What ``check_gradient`` and ``check_reload`` in benchmark/run.py do
    with one conversation: a shape change here makes every run exit 1."""
    model = Model(ModelConfig(hidden=8, layers=1, heads=2, ffn=8),
                  num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=0)
    rng = np.random.default_rng(1)
    features = {m: rng.standard_normal((4, d)) for m, d in model.dims.items()}
    labels = np.array([0, 2, 1, 1])

    out = model.forward(features)
    assert out.outputs.shape == (4, 3) and out.fused.shape == (4, 3)
    for maps in (out.afw_state.attention, out.afw_state.mapped):
        assert set(maps) == {"t", "a", "v"}
        assert all(isinstance(t, Tensor) and t.shape == (4, 8)
                   for t in maps.values())

    def main_loss():
        out = model.forward(features)
        return losses.main_loss(
            losses.cls_loss(out.outputs, labels),
            losses.feature_loss(out.afw_state.attention, out.afw_state.mapped),
            losses.modal_loss(out.fused, labels))

    model.zero_grad()
    loss = main_loss()
    loss.backward()
    for name, p in model.named_parameters().items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name
    with no_grad():  # check_gradient's loss_value
        value = main_loss().item()
    assert isinstance(value, float) and value == loss.item()

    with no_grad():
        predictions = model.forward(features).predictions()
    assert np.array_equal(predictions, out.predictions())
