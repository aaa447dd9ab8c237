"""Every subcommand end to end through ``cli.main``, and its bad inputs."""

import json

import pytest

from modbalance import cli
from modbalance.model import Model, ModelConfig

from test_checkpoint import MALFORMED, _save_with_model_meta

SPEC = {"num_classes": 3, "dims": {"t": 6, "a": 5, "v": 4},
        "conversations": 6, "utterances": [2, 4], "seed": 3}
MODEL = {"hidden": 8, "layers": 1, "heads": 2, "ffn": 8}
SUBSETS = ("t", "a", "v", "t,a", "t,v", "a,v", "t,a,v")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def main(*argv):
    return cli.main([str(a) for a in argv])


def pipeline(root):
    """gen-data, train, eval on every subset, ablate; returns the outputs."""
    root.mkdir()
    data = root / "data.json"
    assert main("gen-data", "--config", write_json(root / "spec.json", SPEC),
                "--out", data) == 0
    config = write_json(root / "run.json", {
        "data": {"path": str(data)}, "model": MODEL,
        "optim": {"epochs": 2, "batch_size": 2},
        "output": {"dir": str(root / "out" / "train")}})
    assert main("train", "--config", config) == 0
    for subset in SUBSETS:
        assert main("eval", "--checkpoint",
                    root / "out" / "train" / "checkpoint.bin",
                    "--data", data, "--modalities", subset,
                    "--out", root / "out" / "eval" / subset) == 0
    assert main("ablate", "--config", config,
                "--out", root / "out" / "ablate") == 0
    outputs = {"data.json": data.read_bytes()}
    for path in sorted((root / "out").rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(root))] = path.read_bytes()
    return outputs


def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path):
    first = pipeline(tmp_path / "one")
    assert first == pipeline(tmp_path / "two")
    assert {"out/train/report.json", "out/train/traces.csv",
            "out/train/checkpoint.bin", "out/train/holdout.json",
            "out/ablate/ablation.csv"} <= set(first)
    assert all(f"out/eval/{s}/report.json" in first for s in SUBSETS)
    for variant in cli.ABLATION_VARIANTS:
        assert f"out/ablate/{variant}/report.json" in first


def bad_dataset(**overrides):
    entry = {"id": "c0", "labels": [0, 1],
             "t": [[0.0] * 6] * 2, "a": [[0.0] * 5] * 2, "v": [[0.0] * 4] * 2}
    entry.update(overrides)
    return {"num_classes": 3, "dims": SPEC["dims"], "conversations": [entry]}


def train_argv(tmp_path, sections):
    """A tiny one-epoch run config, with ``sections`` merged into it."""
    config = {"data": {"synth": SPEC}, "model": MODEL, "optim": {"epochs": 1},
              "output": {"dir": str(tmp_path / "out")}}
    for name, section in sections.items():
        config[name] = ({**config.get(name, {}), **section}
                        if isinstance(section, dict) else section)
    return ["train", "--config", write_json(tmp_path / "run.json", config)]


def eval_argv(tmp_path, checkpoint):
    return ["eval", "--checkpoint", checkpoint,
            "--data", write_json(tmp_path / "data.json", bad_dataset())]


def malformed_checkpoint(tmp_path, blob):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob)
    return eval_argv(tmp_path, path)


def retired_checkpoint(tmp_path):
    model = Model(ModelConfig(**MODEL), num_classes=3, dims=SPEC["dims"],
                  seed=0)
    path = tmp_path / "retired.bin"
    _save_with_model_meta(path, model, positional=True)
    return eval_argv(tmp_path, path)


def with_dataset(tmp_path, payload):
    path = write_json(tmp_path / "data.json", payload)
    return train_argv(tmp_path, {"data": {"path": str(path)}})


# case -> (argv builder, what the error line must name)
BAD_INPUTS = {
    **{f"checkpoint_{case}": (
        lambda tmp_path, blob=blob: malformed_checkpoint(tmp_path, blob),
        "ckpt.bin") for case, blob in MALFORMED.items()},
    "checkpoint_with_retired_option": (retired_checkpoint, "positional"),
    "spec_unknown_key": (lambda tmp_path: [
        "gen-data", "--config",
        write_json(tmp_path / "spec.json", {"convesations": 3}),
        "--out", tmp_path / "data.json"], "convesations"),
    "synth_unknown_key": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"synth": {"convesations": 3}}}), "convesations"),
    "data_section_unknown_key": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"pth": "x.json"}}), "pth"),
    "output_section_unknown_key": (lambda tmp_path: train_argv(
        tmp_path, {"output": {"dri": "out"}}), "dri"),
    "section_not_an_object": (lambda tmp_path: train_argv(
        tmp_path, {"data": 3}), "data options"),
    "dataset_nan_feature": (lambda tmp_path: with_dataset(
        tmp_path, bad_dataset(a=[[float("nan")] * 5] * 2)), "c0"),
    "dataset_inf_feature": (lambda tmp_path: with_dataset(
        tmp_path, bad_dataset(t=[[float("inf")] * 6] * 2)), "c0"),
    "dataset_fractional_label": (lambda tmp_path: with_dataset(
        tmp_path, bad_dataset(labels=[0, 1.7])), "c0"),
    "dataset_conversations_not_a_list": (lambda tmp_path: with_dataset(
        tmp_path, {**bad_dataset(), "conversations": {"a": 1}}),
        "conversations"),
    **{f"run_config_sets_{option}": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("model", "positional", False),
           ("model", "feature_stop_grad", ""),
           ("optim", "noise_estimate", "sample"),
           ("optim", "noise_scale", 0.1)]},
    **{f"run_config_{option}_of_wrong_type": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("model", "hidden", "8"),
           ("optim", "epochs", "2"),
           ("model", "dropout", "x"),
           ("optim", "noise", "yes"),
           ("model", "layers", True),
           ("model", "beta", True)]},
    **{f"run_config_{option}_not_finite": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("optim", "learning_rate", float("nan")),
           ("optim", "alpha", float("inf")),
           ("model", "d_k", float("nan"))]},
    "run_config_ablation_section": (lambda tmp_path: train_argv(
        tmp_path, {"ablation": {"disable_afw": True}}), "ablation"),
    "run_config_modalities_int": (lambda tmp_path: train_argv(
        tmp_path, {"modalities": 5}), "modalities"),
    "run_config_modalities_object": (lambda tmp_path: train_argv(
        tmp_path, {"modalities": {"t": 1}}), "modalities"),
    "run_config_modalities_list_of_ints": (lambda tmp_path: train_argv(
        tmp_path, {"modalities": ["t", 1]}), "modalities"),
    "run_config_output_dir_null": (lambda tmp_path: train_argv(
        tmp_path, {"output": {"dir": None}}), "dir"),
    "run_config_data_path_int": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"path": 5}}), "path"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_one_error_line(tmp_path, capsys, case):
    build, culprit = BAD_INPUTS[case]
    argv = build(tmp_path)
    capsys.readouterr()
    assert main(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert culprit in lines[0]


def test_ablation_flags_are_options_of_their_sections():
    config = cli.RunConfig.from_dict({
        "model": {"disable_afw": True, "disable_amw": True},
        "optim": {"disable_modulation": True}})
    assert config.model.disable_afw and config.model.disable_amw
    assert config.optim.disable_modulation


class TraceRow:
    def __init__(self, fails):
        self.fails = fails

    def csv_row(self):
        if self.fails:
            raise RuntimeError("writer failed")
        return ["1"] * 18


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="writer failed"):
        cli.write_traces(path, [TraceRow(False), TraceRow(True)])
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["traces.csv"]
