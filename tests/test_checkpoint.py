"""Checkpoint format and full-model persistence."""

import json
import re
import struct

import numpy as np
import pytest

from modbalance.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from modbalance.errors import CheckpointError
from modbalance.model import Model, ModelConfig


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalar": np.array(3.25),
    }
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tensors, meta={"note": 1})
    meta, back = load_checkpoint(path)
    assert meta == {"note": 1}
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].shape == np.asarray(tensors[name]).shape
        assert np.array_equal(back[name], tensors[name])


def test_checkpoint_files_are_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.standard_normal((5, 5))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, tensors, meta={"k": "v"})
    save_checkpoint(p2, tensors, meta={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _raw_checkpoint(header, payload=b"\0" * 8):
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


ENTRY = {"name": "w", "shape": [1], "offset": 0}

MALFORMED = {
    "shorter_than_16_bytes": MAGIC + b"\1\0",
    "header_runs_past_end": MAGIC + struct.pack("<Q", 1000) + b"{}",
    "header_not_an_object": _raw_checkpoint([ENTRY]),
    "no_tensors": _raw_checkpoint({"meta": {}}),
    **{f"entry_lacks_{key}": _raw_checkpoint({"tensors": [
        {k: v for k, v in ENTRY.items() if k != key}]})
       for key in ENTRY},
    "negative_offset": _raw_checkpoint({"tensors": [{**ENTRY, "offset": -8}]}),
    "fractional_offset": _raw_checkpoint(
        {"tensors": [{**ENTRY, "offset": 0.5}]}, payload=b"\0" * 16),
    "negative_dim": _raw_checkpoint({"tensors": [{**ENTRY, "shape": [-1]}]}),
    "tensor_past_end": _raw_checkpoint({"tensors": [{**ENTRY, "offset": 8}]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_checkpoint_rejects_malformed_files_naming_them(tmp_path, case):
    path = tmp_path / f"{case}.bin"
    path.write_bytes(MALFORMED[case])
    with pytest.raises(CheckpointError, match=case):
        load_checkpoint(path)


def test_checkpoint_minimal_raw_file_loads(tmp_path):
    path = tmp_path / "ok.bin"
    path.write_bytes(_raw_checkpoint({"tensors": [ENTRY]}))
    assert load_checkpoint(path)[1]["w"].tolist() == [0.0]


def test_model_save_load_round_trip(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "model.bin"
    model.save(path)
    back = Model.load(path)
    assert back.num_classes == model.num_classes
    assert back.dims == model.dims
    assert back.config.to_dict() == model.config.to_dict()
    original = model.named_parameters()
    restored = back.named_parameters()
    assert list(original) == list(restored)
    for name in original:
        assert np.array_equal(original[name].data, restored[name].data)
    back.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("block, value", [
    ("classifier.w2", float("nan")),
    ("encoder.a.block0.wq", float("inf")),
    ("head.b", -float("inf")),
])
def test_model_load_refuses_non_finite_parameters(tmp_path, block, value):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    model.named_parameters()[block].data.flat[1] = value
    model.named_parameters()["classifier.b2"].data.flat[0] = float("nan")
    path = tmp_path / "model.bin"
    model.save(path)
    # the first non-finite block in registry order is named
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: {block} holds a non-finite value")):
        Model.load(path)


def test_model_load_rejects_mismatched_names(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    arrays = {n: p.data for n, p in model.named_parameters().items()}
    arrays.pop("head.b")
    path = tmp_path / "model.bin"
    save_checkpoint(path, arrays, meta={
        "model": config.to_dict(), "num_classes": 3,
        "dims": {"t": 6, "a": 5, "v": 4}})
    with pytest.raises(CheckpointError):
        Model.load(path)


def _save_with_model_meta(path, model, **options):
    arrays = {n: p.data for n, p in model.named_parameters().items()}
    save_checkpoint(path, arrays, meta={
        "model": {**model.config.to_dict(), **options},
        "num_classes": model.num_classes, "dims": model.dims})


def test_model_loads_checkpoint_with_retired_options_at_old_defaults(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "old.bin"
    _save_with_model_meta(path, model, positional=False, feature_stop_grad="",
                          dropout=0.0, d_k=0.0, classifier_hidden=0)
    back = Model.load(path)
    assert back.config.to_dict() == config.to_dict()
    model.save(tmp_path / "new.bin")
    assert (tmp_path / "new.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("option, value", [
    ("positional", True), ("feature_stop_grad", "attention"),
    ("dropout", 0.1), ("d_k", 9.0), ("classifier_hidden", 5)])
def test_model_load_refuses_retired_option_in_use(tmp_path, option, value):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "old.bin"
    _save_with_model_meta(path, model, **{option: value})
    with pytest.raises(CheckpointError, match=option):
        Model.load(path)


@pytest.mark.parametrize("header, culprit", [
    ({"num_classes": 3.9}, "num_classes must be int"),
    ({"num_classes": "3"}, "num_classes must be int"),
    ({"dims": {"t": 6.2, "a": 5, "v": 4}}, "dims.t must be int"),
    ({"dims": {"t": 6, "a": 5, "v": True}}, "dims.v must be int"),
    ({"dims": {"t": 6, "a": 5, "v": 4, "x": 2}}, "'x'"),
])
def test_model_load_refuses_metadata_it_would_coerce(tmp_path, header,
                                                      culprit):
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12),
                  num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    arrays = {n: p.data for n, p in model.named_parameters().items()}
    path = tmp_path / "model.bin"
    save_checkpoint(path, arrays, meta={
        "model": model.config.to_dict(), "num_classes": 3,
        "dims": {"t": 6, "a": 5, "v": 4}, **header})
    with pytest.raises(CheckpointError, match=culprit):
        Model.load(path)
