"""The package names the benchmark under ``benchmark/`` wraps or calls.

The tracer only lists a missing wrap target in its ``# `` info line, so a
rename or deletion in the package would silently drop a layer from traced
runs; these tests fail instead.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from modbalance import cli
from modbalance.feature_weighting import AfwState
from modbalance.model import ForwardPass
from modbalance.tensor import Tensor

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
