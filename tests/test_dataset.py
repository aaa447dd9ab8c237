"""Synthetic generator, dataset file round-trips, and batching."""

import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from modbalance.dataset import (
    Conversation,
    Dataset,
    SynthSpec,
    batches,
    class_prototypes,
    dumps,
    from_payload,
    generate,
    load,
    save,
    split_holdout,
    to_payload,
)
from modbalance.errors import ConfigError, DatasetError


def small_spec(**overrides):
    base = dict(num_classes=3, dims={"t": 6, "a": 5, "v": 4},
                gamma={"t": 1.0, "a": 1.0, "v": 1.0}, noise_sigma=0.3,
                conversations=8, utterances=(2, 4), seed=11)
    base.update(overrides)
    return SynthSpec(**base)


# --- generation ---

def test_noiseless_features_equal_prototypes():
    spec = small_spec(noise_sigma=0.0)
    data = generate(spec)
    protos = class_prototypes(spec)
    for conv in data.conversations:
        for m in ("t", "a", "v"):
            expected = protos[m][conv.labels]
            assert np.array_equal(conv.features[m], expected)


def test_noiseless_nearest_prototype_is_perfect():
    spec = small_spec(noise_sigma=0.0)
    data = generate(spec)
    protos = class_prototypes(spec)
    for conv in data.conversations:
        dists = np.linalg.norm(
            conv.features["t"][:, None, :] - protos["t"][None, :, :], axis=2)
        assert np.array_equal(dists.argmin(axis=1), conv.labels)


def _probe_accuracy(features, labels, num_classes, train_frac=0.8):
    """Least-squares linear probe oracle: one-hot regression + argmax."""
    n = len(labels)
    n_train = int(train_frac * n)
    x = np.hstack([features, np.ones((n, 1))])
    onehot = np.zeros((n_train, num_classes))
    onehot[np.arange(n_train), labels[:n_train]] = 1.0
    w, *_ = np.linalg.lstsq(x[:n_train], onehot, rcond=None)
    preds = (x[n_train:] @ w).argmax(axis=1)
    return float((preds == labels[n_train:]).mean())


def test_zero_informativeness_audio_scores_chance():
    accs = []
    for seed in range(5):
        spec = small_spec(
            num_classes=4,
            gamma={"t": 1.0, "a": 0.0, "v": 1.0},
            conversations=40, utterances=(5, 10), seed=100 + seed)
        data = generate(spec)
        feats = np.concatenate([c.features["a"] for c in data.conversations])
        labels = data.all_labels()
        accs.append(_probe_accuracy(feats, labels, spec.num_classes))
    chance = 1.0 / 4
    assert abs(float(np.mean(accs)) - chance) < 0.05


def test_informative_audio_beats_chance():
    spec = small_spec(num_classes=4, conversations=40, utterances=(5, 10),
                      seed=7)
    data = generate(spec)
    feats = np.concatenate([c.features["a"] for c in data.conversations])
    acc = _probe_accuracy(feats, data.all_labels(), 4)
    assert acc > 0.5


def test_same_seed_serializes_identically():
    spec = small_spec()
    assert dumps(generate(spec)) == dumps(generate(spec))


def test_different_seed_differs():
    assert dumps(generate(small_spec(seed=1))) != dumps(generate(small_spec(seed=2)))


def test_spec_validation():
    with pytest.raises(DatasetError):
        small_spec(num_classes=1)
    with pytest.raises(DatasetError, match="gamma.a"):
        small_spec(gamma={"t": 1.0, "a": 1.5, "v": 1.0})
    with pytest.raises(DatasetError, match="dims.v"):
        small_spec(dims={"t": 6, "a": 5, "v": 0})
    with pytest.raises(DatasetError):
        small_spec(utterances=(3, 2))


@pytest.mark.parametrize("overrides, culprit", [
    ({"dims": {"t": "x", "a": 5, "v": 4}}, "dims.t must be int"),
    ({"gamma": {"t": 1.0, "a": None, "v": 1.0}}, "gamma.a must be float"),
    ({"utterances": [2, 4]}, "utterances must be tuple"),
    ({"seed": 1.0}, "seed must be int"),
])
def test_spec_rejects_a_value_of_the_wrong_type(overrides, culprit):
    with pytest.raises(ConfigError,
                       match=f"synthetic spec options: {culprit}"):
        small_spec(**overrides)


def test_spec_is_frozen_and_replace_rechecks_it():
    spec = small_spec()
    with pytest.raises(FrozenInstanceError):
        spec.seed = -1
    with pytest.raises(DatasetError, match="seed must be >= 0"):
        replace(spec, seed=-1)
    for name, value in (("gamma", "x"), ("dims", 0)):
        with pytest.raises(TypeError):
            getattr(spec, name)["t"] = value
    assert replace(spec, seed=1).dims == {"t": 6, "a": 5, "v": 4}


def test_spec_from_dict_rejects_unknown_keys_and_bad_values():
    assert SynthSpec.from_dict({"conversations": 3}).conversations == 3
    with pytest.raises(ConfigError, match="convesations"):
        SynthSpec.from_dict({"convesations": 3})
    with pytest.raises(ConfigError, match="'x'"):
        SynthSpec.from_dict({"dims": {"t": 6, "a": 5, "v": 4, "x": 2}})
    with pytest.raises(DatasetError, match="bad value"):
        SynthSpec.from_dict({"utterances": [2]})


@pytest.mark.parametrize("payload, option", [
    ({"noise_sigma": float("nan")}, "noise_sigma must be finite"),
    ({"conversations": 3.9}, "conversations must be int"),
    ({"seed": True}, "seed must be int"),
    ({"dims": {"t": 6.0, "a": 5, "v": 4}}, "dims.t must be int"),
    ({"gamma": {"t": 1.0, "a": False, "v": 1}}, "gamma.a must be float"),
    ({"gamma": {"t": float("inf"), "a": 1, "v": 1}}, "gamma.t must be finite"),
    ({"utterances": [2, 4.5]}, "utterances must be int"),
    ({"noise_sigma": 10**400}, "noise_sigma must be finite"),
])
def test_spec_from_dict_checks_value_types(payload, option):
    with pytest.raises(ConfigError, match=option):
        SynthSpec.from_dict(payload)


@pytest.mark.parametrize("payload, expected", [
    ({"gamma": {"a": 1}}, ("gamma", {"t": 1.0, "a": 1.0, "v": 1.0})),
    ({"gamma": {"v": 0.25}}, ("gamma", {"t": 1.0, "a": 1.0, "v": 0.25})),
    ({"dims": {"t": 8}}, ("dims", {"t": 8, "a": 12, "v": 12})),
    ({"dims": {"a": 3, "v": 2}}, ("dims", {"t": 16, "a": 3, "v": 2})),
])
def test_spec_from_dict_merges_partial_modality_dicts(payload, expected):
    name, values = expected
    spec = SynthSpec.from_dict(payload)
    assert getattr(spec, name) == values
    other = "dims" if name == "gamma" else "gamma"
    assert getattr(spec, other) == getattr(SynthSpec(), other)


def test_spec_from_dict_takes_ints_as_floats():
    spec = SynthSpec.from_dict({"noise_sigma": 1, "gamma": {"t": 1, "a": 0,
                                                            "v": 0.5}})
    assert spec.noise_sigma == 1.0 and type(spec.noise_sigma) is float
    assert spec.gamma == {"t": 1.0, "a": 0.0, "v": 0.5}


# --- file format ---

def test_save_load_round_trip(tmp_path):
    data = generate(small_spec())
    path = tmp_path / "data.json"
    save(data, path)
    back = load(path)
    assert back.num_classes == data.num_classes
    assert back.dims == data.dims
    assert len(back.conversations) == len(data.conversations)
    for a, b in zip(back.conversations, data.conversations):
        assert a.id == b.id
        assert np.array_equal(a.labels, b.labels)
        for m in ("t", "a", "v"):
            assert np.array_equal(a.features[m], b.features[m])


def test_load_reports_missing_modality():
    payload = to_payload(generate(small_spec(conversations=2)))
    del payload["conversations"][1]["v"]
    with pytest.raises(DatasetError, match=r"conv0001.*'v'"):
        from_payload(payload)


def test_load_reports_ragged_rows():
    payload = to_payload(generate(small_spec(conversations=2)))
    payload["conversations"][0]["a"][0] = payload["conversations"][0]["a"][0][:-1]
    with pytest.raises(DatasetError, match="conv0000"):
        from_payload(payload)


def test_load_reports_out_of_range_label():
    payload = to_payload(generate(small_spec(conversations=2)))
    payload["conversations"][1]["labels"][0] = 99
    with pytest.raises(DatasetError, match="conv0001"):
        from_payload(payload)


def test_load_peak_memory_is_under_1_6_times_file_and_arrays(tmp_path):
    # the parser's objects for one conversation at a time, on top of the
    # file read whole as bytes and as text: 1.45 here, 2.07 with every
    # conversation parsed into Python floats before any became an array
    for conversations in (20, 120):
        path = tmp_path / f"data{conversations}.json"
        save(generate(SynthSpec(conversations=conversations,
                                utterances=(5, 30), seed=conversations)),
             path)
        tracemalloc.start()
        try:
            data = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(c.labels.nbytes + sum(f.nbytes
                                           for f in c.features.values())
                     for c in data.conversations)
        assert peak <= 1.6 * (path.stat().st_size + arrays)


def rejection(payload, tmp_path):
    """The message of the DatasetError that ``from_payload`` raises on
    ``payload``, checked to be the one ``load`` raises on it as a file."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetError) as direct:
        from_payload(payload)
    with pytest.raises(DatasetError) as through_file:
        load(path)
    assert str(through_file.value) == str(direct.value)
    return str(direct.value)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DatasetError, match="malformed JSON"):
        load(path)


def test_minimal_single_utterance_fixture():
    payload = {
        "num_classes": 2,
        "dims": {"t": 2, "a": 2, "v": 2},
        "conversations": [{
            "id": "only", "labels": [1],
            "t": [[0.5, -0.5]], "a": [[1.0, 0.0]], "v": [[0.0, 1.0]],
        }],
    }
    data = from_payload(json.loads(json.dumps(payload)))
    assert data.conversations[0].num_utterances == 1
    assert data.conversations[0].labels[0] == 1


def one_utterance_payload(**fields):
    """A one-conversation dataset payload, its entry updated by ``fields``,
    after a JSON round trip."""
    entry = {"id": "c7", "labels": [1],
             "t": [[0.5, -0.5]], "a": [[1.0, 0.0]], "v": [[0.0, 1.0]]}
    entry.update(fields)
    payload = {"num_classes": 2, "dims": {"t": 2, "a": 2, "v": 2},
               "conversations": [entry]}
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("field, value, message", [
    ("a", [[float("nan"), 0.0]], "non-finite"),
    ("v", [[float("inf"), 0.0]], "non-finite"),
    ("labels", [1.7], "labels must be a list of integers"),
    ("labels", [True], "labels must be a list of integers"),
    ("t", [["x", 0.0]], "not lists of numbers"),
    ("t", [["1", 0.0]], "not lists of numbers"),
    ("a", [[True, False]], "not lists of numbers"),
    ("t", [[True, 0.5]], "not lists of numbers"),  # numpy reads 1.0
    ("a", [[0.5, False]], "not lists of numbers"),
    ("labels", [10**30], f"label {10**30} outside"),  # not an OverflowError
    ("v", [[0.5, 0.5, 0.5]], r"has shape \(1, 3\), expected \(1, 2\)"),
    # the shape is checked before the booleans
    ("t", [[True, 0.5, 0.5]], r"has shape \(1, 3\), expected \(1, 2\)"),
    ("vv", [[0.0, 1.0]], r"unknown keys: \['vv'\]"),
])
def test_load_rejects_bad_values_naming_the_conversation(tmp_path, field,
                                                         value, message):
    assert re.match(f"conversation c7: .*{message}", rejection(
        one_utterance_payload(**{field: value}), tmp_path))


NO_ID = object()  # an entry without an "id" key


def payload_with_ids(*ids):
    """A dataset payload of one-utterance conversations with these ids."""
    payload = one_utterance_payload()
    entry = payload["conversations"][0]
    bare = {k: v for k, v in entry.items() if k != "id"}
    payload["conversations"] = [bare if i is NO_ID else {**bare, "id": i}
                                for i in ids]
    return payload


def test_load_defaults_a_missing_id_to_the_entry_index():
    data = from_payload(payload_with_ids(NO_ID, "x", NO_ID))
    assert [c.id for c in data.conversations] == ["conv0000", "x", "conv0002"]


@pytest.mark.parametrize("ids, message", [
    (("a", "b", "c", None), "conversation 3: id must be a string, got None"),
    ((5,), "conversation 0: id must be a string, got 5"),
    (("a", "c", "b", "d", "c"), "conversation 4: id 'c' repeats "
                                "conversation 1"),
    ((NO_ID, "conv0000"), "conversation 1: id 'conv0000' repeats "
                          "conversation 0"),
])
def test_load_rejects_non_string_and_repeated_ids(tmp_path, ids, message):
    assert rejection(payload_with_ids(*ids), tmp_path) == message


@pytest.mark.parametrize("header, message", [
    ({"num_classes": 3.9}, "num_classes must be int, got 3.9"),
    ({"num_classes": "3"}, "num_classes must be int, got '3'"),
    ({"num_classes": True}, "num_classes must be int, got True"),
    ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
    ({"dims": {"t": "2", "a": 2, "v": 2}}, "dims.t must be int, got '2'"),
    ({"dims": {"t": 2, "a": 2.5, "v": 2}}, "dims.a must be int, got 2.5"),
    ({"dims": {"t": 2, "a": 2, "v": 0}}, "dims.v must be >= 1, got 0"),
    ({"conversations": {"a": 1}}, "conversations must be a list, got dict"),
    ({"conversations": [5]}, "conversation conv0000: must be an object, "
                             "got int"),
    ({"dims": {"t": 2, "a": 2, "v": 2, "x": 2}},
     "unknown dims modalities in the dataset header: ['x']"),
    ({"dims": [2, 2, 2]}, "dims modalities in the dataset header must be a "
                          "JSON object, got [2, 2, 2]"),
    ({"dims": 5}, "dims modalities in the dataset header must be a JSON "
                  "object, got 5"),
    ([{"num_classes": 3}], "dataset file must be a JSON object, got list"),
    ({"dims": {"t": [[2]], "a": 2, "v": 2}}, "dims.t must be int, got [[2]]"),
    ({"speakers": []}, "unknown dataset file keys: ['speakers']"),
])
def test_load_rejects_bad_header_naming_the_field(tmp_path, header, message):
    # a header that is not a dict is the whole file
    payload = ({**one_utterance_payload(), **header}
               if isinstance(header, dict) else header)
    assert message in rejection(payload, tmp_path)


# --- corruption sweep ---

CORRUPTIONS = (
    [("label", v) for v in (1.5, "1", None, True)]
    + [("id", v) for v in (5, None, "repeat")]
    + [("row", v) for v in ("shorter", "longer", "not a list")]
    + [("value", v) for v in (None, "x", True, float("nan"))]
    + [("drop", k) for k in ("labels", "modality")]
    + [("drop header", k) for k in ("num_classes", "dims", "dims.m",
                                    "conversations")]
    + [("modality", {})]
    + [("add", k) for k in ("vv", "speaker")]
)


def corrupt(payload, rng, kind, value):
    """Apply one corruption to a valid payload at a random position;
    returns the index of the conversation it touched, or None."""
    convs = payload["conversations"]
    i = int(rng.integers(1 if value == "repeat" else 0, len(convs)))
    entry = convs[i]
    m = "tav"[rng.integers(3)]
    rows = entry[m]
    r = int(rng.integers(len(rows)))
    if kind == "label":
        entry["labels"][r] = value
    elif kind == "id":
        entry["id"] = (convs[rng.integers(i)]["id"] if value == "repeat"
                       else value)
    elif kind == "row":
        rows[r] = {"shorter": rows[r][:-1], "longer": rows[r] + [0.5],
                   "not a list": 0.5}[value]
    elif kind == "value":
        rows[r][rng.integers(len(rows[r]))] = value
    elif kind == "modality":
        entry[m] = value
    elif kind == "drop":
        del entry[m if value == "modality" else value]
    elif kind == "add":
        entry[value] = rows
    elif value == "dims.m":  # kind "drop header" from here on
        del payload["dims"][m]
        return None
    else:
        del payload[value]
        return None
    return i


def test_corruption_sweep_raises_dataset_errors_naming_the_conversation(
        tmp_path):
    rng = np.random.default_rng(11)
    valid = dumps(generate(small_spec(conversations=3)))
    assert len(from_payload(json.loads(valid)).conversations) == 3
    for kind, value in CORRUPTIONS:
        for _ in range(4):
            payload = json.loads(valid)
            i = corrupt(payload, rng, kind, value)
            # any other exception type, or none, fails the test as it is
            message = rejection(payload, tmp_path)
            if i is not None:
                assert message.startswith((f"conversation conv{i:04d}: ",
                                           f"conversation {i}: ")), message


# --- batching ---

def test_batch_size_ten_makes_one_batch():
    convs = generate(small_spec(conversations=10)).conversations
    out = batches(convs, 10, seed=3)
    assert len(out) == 1
    assert len(out[0]) == 10


def test_batch_partition_sizes():
    convs = generate(small_spec(conversations=5)).conversations
    out = batches(convs, 2, seed=3)
    assert [len(b) for b in out] == [2, 2, 1]


def test_batches_deterministic_per_seed():
    convs = generate(small_spec(conversations=7)).conversations
    first = [[c.id for c in b] for b in batches(convs, 3, seed=42)]
    second = [[c.id for c in b] for b in batches(convs, 3, seed=42)]
    assert first == second


def test_batches_cover_dataset_exactly_once():
    convs = generate(small_spec(conversations=9)).conversations
    out = batches(convs, 4, seed=1)
    seen = [c.id for b in out for c in b]
    assert sorted(seen) == sorted(c.id for c in convs)


def test_batches_reject_empty_and_bad_size():
    with pytest.raises(DatasetError):
        batches([], 2, seed=0)


def test_split_holdout_is_deterministic_partition():
    convs = generate(small_spec(conversations=10)).conversations
    train1, hold1 = split_holdout(convs, 0.2, seed=5)
    train2, hold2 = split_holdout(convs, 0.2, seed=5)
    assert [c.id for c in train1] == [c.id for c in train2]
    assert [c.id for c in hold1] == [c.id for c in hold2]
    assert len(hold1) == 2
    assert sorted(c.id for c in train1 + hold1) == sorted(c.id for c in convs)
