"""Checkpoint format and full-model persistence."""

import hashlib
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest

from modbalance.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from modbalance.errors import CheckpointError
from modbalance.model import Model, ModelConfig


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    values = np.random.default_rng(0).standard_normal(20)
    tensors = [{"name": "a.w", "shape": [3, 4], "offset": 0},
               {"name": "b", "shape": [8], "offset": 96}]
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, values, tensors, meta={"note": 1})
    meta, back_tensors, back = load_checkpoint(path)
    assert meta == {"note": 1}
    assert back_tensors == tensors
    assert back.dtype == np.float64 and np.array_equal(back, values)


def test_checkpoint_files_are_deterministic(tmp_path):
    values = np.random.default_rng(1).standard_normal(25)
    tensors = [{"name": "w", "shape": [5, 5], "offset": 0}]
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, values, tensors, meta={"k": "v"})
    save_checkpoint(p2, values, tensors, meta={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _raw_checkpoint(header, payload=b"\0" * 8):
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


SMALL = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
DIMS = {"t": 6, "a": 5, "v": 4}


def _model_meta(model, **options):
    return {"model": {**asdict(model.config), **options},
            "num_classes": model.num_classes, "dims": model.dims}


def _save_with_model_meta(path, model, **options):
    save_checkpoint(path, model.theta, model.layout,
                    _model_meta(model, **options))


REFERENCE = Model(SMALL, num_classes=3, dims=DIMS, seed=5)  # read only


def made_order(model):
    """The block names of ``model`` in the order they are made (and so
    seeded): each modality's encoder, t, a, v, then everything else."""
    names = list(model.named_parameters())
    encoders = [n for m in ("t", "a", "v") for n in names
                if n.startswith(f"encoder.{m}.")]
    return encoders + [n for n in names if n not in encoders]


def test_initial_parameters_and_layout_are_pinned():
    # hashes taken with numpy 2.4.6. The blocks concatenated in the order
    # they are made hash as theta did when it was laid out in that order,
    # so the seeded draws are those of that layout; theta and the layout
    # are pinned in their own order, in-projections first
    model = Model(ModelConfig(), 7, {"t": 16, "a": 12, "v": 12}, seed=0)
    params = model.named_parameters()
    made = np.concatenate([params[n].data.ravel() for n in made_order(model)])
    assert hashlib.sha256(made.tobytes()).hexdigest() == (
        "4828566410447e38460c681515a92f569b12716af7d25fc44e35c01fe078adb8")
    assert hashlib.sha256(model.theta.tobytes()).hexdigest() == (
        "00ac59cc938169b543805a2124f647bf6ec86c645df3c136d84e19c4de0b8243")
    assert hashlib.sha256(json.dumps(model.layout).encode()).hexdigest() == (
        "3a09cf74a2cc3064ff38d0721a33c02d9f7ff08aeba7cc2170e167bcae27a02a")
    assert [entry["name"] for entry in model.layout[:7]] == [
        "encoder.t.in_proj.w", "encoder.t.in_proj.b", "encoder.a.in_proj.w",
        "encoder.a.in_proj.b", "encoder.v.in_proj.w", "encoder.v.in_proj.b",
        "encoder.t.block0.wq"]


def test_layer_blocks_of_the_modalities_form_one_matrix():
    # row i of the (3, layers * layer size) matrix after the in-projections
    # is modality i's layer blocks, each block's rows a strided view
    model = Model(ModelConfig(hidden=8, rank=2, layers=2, heads=2, ffn=12),
                  num_classes=3, dims=DIMS, seed=5)
    params = model.named_parameters()
    in_proj, layers = zip(*(model.encoder_spans[m] for m in ("t", "a", "v")))
    assert in_proj[0].start == 0 and layers[-1].stop == model.encoder_size
    for before, after in zip(in_proj + layers, (in_proj + layers)[1:]):
        assert before.stop == after.start
    for m, span in zip(("t", "a", "v"), layers):
        blocks = [params[n].data.ravel() for n in made_order(model)
                  if n.startswith(f"encoder.{m}.block")]
        assert np.array_equal(model.theta[span], np.concatenate(blocks))
    stack = model.encoder_stack(("t", "v"))
    wq = stack.blocks[1]["wq"]
    assert wq.data.shape == (2, 8, 8)
    assert np.shares_memory(wq.data, model.theta)
    assert np.array_equal(wq.data[1], params["encoder.v.block1.wq"].data)
    assert model.encoder_stack(("t", "v")) is stack  # built once


def test_block_name_names_each_block_at_both_ends():
    names = [entry["name"] for entry in REFERENCE.layout]
    ends = REFERENCE.offsets
    for name, start, stop in zip(names, ends, ends[1:]):
        assert REFERENCE.block_name(start) == name
        assert REFERENCE.block_name(stop - 1) == name
    assert ends[-1] == REFERENCE.theta.size


def _model_file(edit=lambda tensors: None, extra=b""):
    """``REFERENCE``'s checkpoint bytes, its tensor list changed by
    ``edit`` and ``extra`` appended to its payload."""
    tensors = [dict(entry) for entry in REFERENCE.layout]
    edit(tensors)
    return _raw_checkpoint(
        {"meta": _model_meta(REFERENCE), "tensors": tensors},
        payload=REFERENCE.theta.tobytes() + extra)


def _corrupt_last(change):
    def edit(tensors):
        tensors[-1] = change(tensors[-1])
    return edit


def _swap_names(i, j):
    def edit(tensors):
        tensors[i]["name"], tensors[j]["name"] = (tensors[j]["name"],
                                                  tensors[i]["name"])
    return edit


ENTRY = {"name": "w", "shape": [1], "offset": 0}

# case -> file bytes that load_checkpoint refuses, naming the file
FILE_FAULTS = {
    "shorter_than_16_bytes": MAGIC + b"\1\0",
    "header_runs_past_end": MAGIC + struct.pack("<Q", 1000) + b"{}",
    "header_not_an_object": _raw_checkpoint([ENTRY]),
    "no_tensors": _raw_checkpoint({"meta": {}}),
    "payload_not_whole_values": _raw_checkpoint({"tensors": [ENTRY]},
                                                payload=b"\0" * 12),
}

# case -> (a whole file that does not match the model its metadata
# describes, what Model.load's error names after the file)
ENTRY_NAMED = (f"tensor entry {len(REFERENCE.layout) - 1} is "
               r".*'classifier\.b2'")
MODEL_FAULTS = {
    **{f"entry_lacks_{key}": (_model_file(_corrupt_last(
        lambda entry, key=key: {k: v for k, v in entry.items() if k != key})),
        ENTRY_NAMED) for key in ENTRY},
    "negative_offset": (_model_file(_corrupt_last(
        lambda entry: {**entry, "offset": -8})), ENTRY_NAMED),
    "fractional_offset": (_model_file(_corrupt_last(
        lambda entry: {**entry, "offset": entry["offset"] + 0.5})),
        ENTRY_NAMED),
    "negative_dim": (_model_file(_corrupt_last(
        lambda entry: {**entry, "shape": [-1]})), ENTRY_NAMED),
    "tensor_past_end": (_model_file(_corrupt_last(
        lambda entry: {**entry, "offset": entry["offset"] + 8})),
        ENTRY_NAMED),
    "trailing_payload_bytes": (_model_file(extra=b"\0" * 8), re.escape(
        f"payload holds {REFERENCE.theta.size + 1} values, the model has "
        f"{REFERENCE.theta.size}")),
    # same-shape blocks: without the layout check each would load the
    # other's values
    "swapped_names": (_model_file(_swap_names(6, 7)), re.escape(
        "tensor entry 6 is {'name': 'encoder.t.block0.wk'")),
}

MALFORMED = {**FILE_FAULTS,
             **{case: blob for case, (blob, _) in MODEL_FAULTS.items()}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_checkpoint_rejects_malformed_files_naming_them(tmp_path, case):
    """load_checkpoint refuses a file that is not whole; Model.load refuses
    a whole file whose header or payload its model would not write."""
    path = tmp_path / f"{case}.bin"
    path.write_bytes(MALFORMED[case])
    if case in FILE_FAULTS:
        with pytest.raises(CheckpointError, match=case):
            load_checkpoint(path)
    else:
        load_checkpoint(path)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: ")
                           + MODEL_FAULTS[case][1]):
            Model.load(path)


def test_checkpoint_minimal_raw_file_loads(tmp_path):
    path = tmp_path / "ok.bin"
    path.write_bytes(_raw_checkpoint({"tensors": [ENTRY]}))
    meta, tensors, values = load_checkpoint(path)
    assert (meta, tensors, values.tolist()) == ({}, [ENTRY], [0.0])


def test_model_save_load_round_trip(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "model.bin"
    model.save(path)
    back = Model.load(path)
    assert back.num_classes == model.num_classes
    assert back.dims == model.dims
    assert back.config == model.config
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
    # the first non-finite block in theta's order is named
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: {block} holds a non-finite value")):
        Model.load(path)


def test_model_load_rejects_mismatched_names(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    tensors = [entry for entry in model.layout if entry["name"] != "head.b"]
    index = [entry["name"] for entry in model.layout].index("head.b")
    path = tmp_path / "model.bin"
    save_checkpoint(path, model.theta, tensors, _model_meta(model))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: tensor entry {index} is ") + ".*'head.b'"):
        Model.load(path)


def test_model_load_refuses_the_modality_by_modality_layout(tmp_path):
    # a checkpoint laid out in the order the blocks are made (each
    # modality's in-projection before its layers) holds the same blocks
    # in another order; it is refused, naming the first entry that differs
    params = REFERENCE.named_parameters()
    names = made_order(REFERENCE)
    sizes = [params[n].data.size for n in names]
    offsets = np.cumsum([0] + sizes[:-1])
    tensors = [{"name": n, "shape": list(params[n].data.shape),
                "offset": 8 * int(offset)} for n, offset in zip(names, offsets)]
    values = np.concatenate([params[n].data.ravel() for n in names])
    path = tmp_path / "old_layout.bin"
    save_checkpoint(path, values, tensors, _model_meta(REFERENCE))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: tensor entry 2 is {{'name': 'encoder.t.block0.wq'")
            + ".*the model expects " + re.escape(
                "{'name': 'encoder.a.in_proj.w'")):
        Model.load(path)


def test_model_checkpoint_header_holds_exactly_the_config_fields(tmp_path):
    config = ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12,
                         disable_amw=True)
    model = Model(config, num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "model.bin"
    model.save(path)
    meta, _, _ = load_checkpoint(path)
    assert meta["model"] == asdict(config)


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
    ({"dims": {"t": 0, "a": 5, "v": 4}}, "dims.t must be >= 1"),
])
def test_model_load_refuses_metadata_it_would_coerce(tmp_path, header,
                                                      culprit):
    model = Model(ModelConfig(hidden=8, rank=2, layers=1, heads=2, ffn=12),
                  num_classes=3, dims={"t": 6, "a": 5, "v": 4}, seed=5)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model.theta, model.layout,
                    {**_model_meta(model), **header})
    with pytest.raises(CheckpointError, match=culprit):
        Model.load(path)
