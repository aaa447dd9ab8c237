"""Every subcommand end to end through ``cli.main``, and its bad inputs."""

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from modbalance import cli
from modbalance.checkpoint import save_checkpoint
from modbalance.errors import ConfigError
from modbalance.model import Model, ModelConfig

from test_checkpoint import MALFORMED, _model_meta, _save_with_model_meta

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
    """A tiny one-epoch run config, with ``sections`` merged into it; a
    data section replaces the synthetic one."""
    config = {"data": {"synth": SPEC}, "model": MODEL, "optim": {"epochs": 1},
              "output": {"dir": str(tmp_path / "out")}}
    for name, section in sections.items():
        merge = isinstance(section, dict) and name != "data"
        config[name] = {**config.get(name, {}), **section} if merge else section
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


def zero_dim_checkpoint(tmp_path):
    model = Model(ModelConfig(**MODEL), num_classes=3, dims=SPEC["dims"],
                  seed=0)
    path = tmp_path / "zero_dim.bin"
    save_checkpoint(path, model.theta, model.layout,
                    {**_model_meta(model), "dims": {**model.dims, "t": 0}})
    return eval_argv(tmp_path, path)


def write_bytes(path, blob):
    path.write_bytes(blob)
    return path


def with_dataset(tmp_path, payload):
    path = write_json(tmp_path / "data.json", payload)
    return train_argv(tmp_path, {"data": {"path": str(path)}})


# case -> (argv builder, what the error line must name)
BAD_INPUTS = {
    **{f"checkpoint_{case}": (
        lambda tmp_path, blob=blob: malformed_checkpoint(tmp_path, blob),
        "ckpt.bin") for case, blob in MALFORMED.items()},
    "checkpoint_with_retired_option": (retired_checkpoint, "positional"),
    "checkpoint_with_zero_dim": (zero_dim_checkpoint, "dims.t"),
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
    "run_config_not_utf8": (lambda tmp_path: [
        "train", "--config", write_bytes(tmp_path / "run.json", b"\xff{}")],
        "run.json"),
    "dataset_nested_too_deep": (lambda tmp_path: train_argv(tmp_path, {
        "data": {"path": str(write_bytes(tmp_path / "data.json",
                                         b"[" * 100_000))}}), "data.json"),
    "dataset_conversations_key_misspelt": (lambda tmp_path: with_dataset(
        tmp_path, {"conversatons" if k == "conversations" else k: v
                   for k, v in bad_dataset().items()}), "conversatons"),
    "dataset_conversations_not_a_list": (lambda tmp_path: with_dataset(
        tmp_path, {**bad_dataset(), "conversations": {"a": 1}}),
        "conversations"),
    **{f"run_config_sets_{option}": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("model", "positional", False),
           ("model", "feature_stop_grad", ""),
           ("model", "dropout", 0.0),
           ("model", "d_k", 0.0),
           ("model", "classifier_hidden", 0),
           ("optim", "noise_estimate", "sample"),
           ("optim", "noise_scale", 0.1)]},
    **{f"run_config_{option}_of_wrong_type": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("model", "hidden", "8"),
           ("optim", "epochs", "2"),
           ("model", "beta", "x"),
           ("model", "dropout", "x"),
           ("optim", "noise", "yes"),
           ("model", "layers", True),
           ("optim", "learning_rate", True)]},
    **{f"run_config_{option}_not_finite": (
        lambda tmp_path, section=section, option=option, value=value:
        train_argv(tmp_path, {section: {option: value}}), option)
       for section, option, value in [
           ("optim", "learning_rate", float("nan")),
           ("optim", "alpha", float("inf")),
           ("model", "beta", float("nan"))]},
    "run_config_ffn_too_large_to_allocate": (lambda tmp_path: train_argv(
        tmp_path, {"model": {"ffn": 10**12}}), "Unable to allocate"),
    # numpy refuses these shapes before it allocates anything
    "run_config_hidden_past_numpy_limit": (lambda tmp_path: train_argv(
        tmp_path, {"model": {"hidden": 2**62, "heads": 1}}),
        "encoder.t.in_proj.w"),
    "run_config_layers_past_numpy_limit": (lambda tmp_path: train_argv(
        tmp_path, {"model": {"layers": 2**62}}), "encoder.t.layers"),
    "synth_dims_past_numpy_limit": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"synth": {"dims": {"a": 2**62}}}}), "dims.a"),
    "dataset_label_past_int64": (lambda tmp_path: with_dataset(
        tmp_path, {**bad_dataset(labels=[0, 2**69]), "num_classes": 2**70}),
        "c0"),
    "run_config_zero_heads": (lambda tmp_path: train_argv(
        tmp_path, {"model": {"heads": 0}}), "heads"),
    "run_config_negative_seed": (lambda tmp_path: train_argv(
        tmp_path, {"optim": {"seed": -1}}), "seed"),
    "synth_negative_seed": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"synth": {"seed": -1}}}), "seed"),
    "spec_negative_seed": (lambda tmp_path: [
        "gen-data", "--config",
        write_json(tmp_path / "spec.json", {"seed": -1}),
        "--out", tmp_path / "data.json"], "seed"),
    **{f"{command}_seed_override_negative": (
        lambda tmp_path, command=command: [
            command, *train_argv(tmp_path, {})[1:], "--seed", "-1"], "seed")
       for command in ("train", "ablate")},
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
    "run_config_data_path_empty": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"path": ""}}), "path"),
    "run_config_output_dir_empty": (lambda tmp_path: train_argv(
        tmp_path, {"output": {"dir": ""}}), "output_dir"),
    "train_modalities_override_empty": (lambda tmp_path: [
        *train_argv(tmp_path, {}), "--modalities", ""], "modalities"),
    **{f"{command}_out_override_empty": (
        lambda tmp_path, command=command: [
            command, *train_argv(tmp_path, {})[1:], "--out", ""],
        "output_dir") for command in ("train", "ablate")},
    "eval_out_empty": (lambda tmp_path: [
        *eval_argv(tmp_path, tmp_path / "ckpt.bin"), "--out", ""], "--out"),
    "run_config_data_path_and_synth": (lambda tmp_path: train_argv(
        tmp_path, {"data": {"path": "d.json", "synth": {"conversations": 3}}}),
        "path or synth"),
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


def test_train_report_holds_the_holdout_score_of_each_epoch(tmp_path):
    argv = train_argv(tmp_path, {"model": MODEL, "optim": {"epochs": 3}})
    assert main(*argv) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    history = report["eval_history"]
    assert [entry["epoch"] for entry in history] == [1, 2, 3]
    assert all(set(entry) == {"epoch", "accuracy", "weighted_f1"}
               for entry in history)
    final = report["final"]
    assert (history[-1]["accuracy"], history[-1]["weighted_f1"]) == (
        final["accuracy"], final["weighted_f1"])
    best = max(history, key=lambda entry: entry["weighted_f1"])
    assert report["best_epoch"] == best["epoch"]
    assert report["best_weighted_f1"] == best["weighted_f1"]


def test_ablation_flags_are_options_of_their_sections():
    config = cli.RunConfig.from_dict({
        "model": {"disable_afw": True, "disable_amw": True},
        "optim": {"disable_modulation": True}})
    assert config.model.disable_afw and config.model.disable_amw
    assert config.optim.disable_modulation


def test_run_config_keeps_its_subset_in_modality_order():
    assert cli.RunConfig(modalities=["v", "t"]).modalities == ("t", "v")
    assert cli.RunConfig.from_dict({"modalities": "a, t"}).modalities == (
        "t", "a")
    with pytest.raises(FrozenInstanceError):
        cli.RunConfig().modalities = ("t",)


@pytest.mark.parametrize("options, culprit", [
    ({"modalities": ("t", "t")}, "modalities"),
    ({"modalities": []}, "modalities"),
    ({"output_dir": 5}, "output_dir"),
    ({"data_path": None}, "data_path"),
    ({"model": {"hidden": 8}}, "model"),
], ids=["repeated_modality", "no_modality", "output_dir_int",
        "data_path_none", "model_a_dict"])
def test_run_config_is_valid_by_construction(options, culprit):
    with pytest.raises(ConfigError, match=culprit):
        cli.RunConfig(**options)
    with pytest.raises(ConfigError, match=culprit):
        replace(cli.RunConfig(), **options)


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
