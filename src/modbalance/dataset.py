"""Synthetic multimodal conversations, dataset file I/O, and minibatching.

Each conversation carries one feature matrix per modality (text, audio,
visual) plus integer emotion labels, one per utterance. The generator
plants unit-norm class prototypes and scales them by a per-modality
informativeness factor, so the signal-to-noise ratio of every channel is
controllable; this is what lets imbalance experiments make a chosen
modality dominant.
"""

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (ConfigError, DatasetError, check_fields, check_keys,
                     check_value)
from .files import read_json, replacing

MODALITIES = ("t", "a", "v")


def parse_modalities(value):
    """The modality subset ``value`` names, in ``MODALITIES`` order: the one
    place a subset is checked. ``value`` is a comma-separated string or a
    list or tuple of strings; any other type, an empty subset, an unknown
    modality or a repeat raises ConfigError naming "modalities"."""
    parts = value
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    subset = (tuple(m for m in MODALITIES if m in parts)
              if isinstance(parts, (list, tuple)) else ())
    # each of its modalities is in parts, so equal lengths leave no other
    if not subset or len(subset) != len(parts):
        raise ConfigError(f"modalities must be a nonempty subset of t, a, v "
                          f"without repeats, got {value!r}")
    return subset


@dataclass
class Conversation:
    """Per-utterance features for all three modalities plus labels."""

    id: str
    features: dict  # modality -> (N, d_m) float64 array
    labels: np.ndarray  # (N,) int array

    @property
    def num_utterances(self):
        return len(self.labels)


@dataclass
class Dataset:
    num_classes: int
    dims: dict  # modality -> feature dim
    conversations: list

    @property
    def num_utterances(self):
        return sum(c.num_utterances for c in self.conversations)

    def all_labels(self):
        return np.concatenate([c.labels for c in self.conversations])


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic generator; identical seeds give identical
    data. An instance is valid by construction: a value of the wrong type
    (or a non-finite float) raises ConfigError and one out of range
    DatasetError, each naming the option. An int given for a float is
    stored as a float, and ``dims`` and ``gamma`` are stored as read-only
    copies."""

    num_classes: int = 4
    dims: Mapping = field(default_factory=lambda: {"t": 16, "a": 12, "v": 12})
    gamma: Mapping = field(
        default_factory=lambda: {"t": 1.0, "a": 1.0, "v": 1.0})
    noise_sigma: float = 0.5
    conversations: int = 60
    utterances: tuple = (5, 10)
    seed: int = 0

    def __post_init__(self):
        what = "synthetic spec options"
        check_fields(self, what)
        for name, kind in (("dims", int), ("gamma", float)):
            check_keys(getattr(self, name), MODALITIES, f"{name} modalities")
            for m, value in getattr(self, name).items():
                check_value(value, kind, f"{what}: {name}.{m}")
        if len(self.utterances) != 2:
            raise DatasetError(
                f"synthetic spec has a bad value: utterances must be "
                f"[min, max], got {list(self.utterances)!r}")
        for value in self.utterances:
            check_value(value, int, f"{what}: utterances")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "gamma", MappingProxyType(
            {m: float(g) for m, g in self.gamma.items()}))
        if self.num_classes < 2:
            raise DatasetError("num_classes must be >= 2")
        for m in MODALITIES:
            if m not in self.dims or self.dims[m] < 1:
                raise DatasetError(f"dims.{m} must be a positive integer")
            if m not in self.gamma or not 0.0 <= self.gamma[m] <= 1.0:
                raise DatasetError(f"gamma.{m} must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise DatasetError("noise_sigma must be >= 0")
        if self.conversations < 1:
            raise DatasetError("conversations must be >= 1")
        lo, hi = self.utterances
        if lo < 1 or hi < lo:
            raise DatasetError("utterances range must satisfy 1 <= min <= max")
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, payload):
        """Spec from a JSON object. The entries of ``dims`` and ``gamma``
        replace the defaults one modality at a time."""
        check_keys(payload, cls.__dataclass_fields__, "synthetic spec options")
        options = dict(payload)
        defaults = cls()
        for name in ("dims", "gamma"):
            if isinstance(options.get(name), dict):
                options[name] = {**getattr(defaults, name), **options[name]}
        if isinstance(options.get("utterances"), list):
            options["utterances"] = tuple(options["utterances"])
        return cls(**options)


def _draw_prototypes(rng, spec):
    protos = {}
    for m in MODALITIES:
        try:
            rows = rng.standard_normal((spec.num_classes, spec.dims[m]))
        except ValueError as exc:  # numpy refuses the shape before allocating
            raise DatasetError(
                f"synthetic spec: num_classes {spec.num_classes} by dims.{m} "
                f"{spec.dims[m]} is too large: {exc}") from exc
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        protos[m] = rows
    return protos


def class_prototypes(spec):
    """Fixed unit-norm prototype per (class, modality), drawn once per seed.

    These are the first draws of the generator stream, so they match what
    ``generate`` plants for the same spec.
    """
    return _draw_prototypes(np.random.default_rng(spec.seed), spec)


def generate(spec):
    """Sample a dataset: features = gamma_m * prototype[label] + N(0, sigma^2)."""
    rng = np.random.default_rng(spec.seed)
    protos = _draw_prototypes(rng, spec)
    lo, hi = spec.utterances
    conversations = []
    for i in range(spec.conversations):
        n = int(rng.integers(lo, hi + 1))
        labels = rng.integers(0, spec.num_classes, size=n)
        features = {}
        for m in MODALITIES:
            noise = rng.standard_normal((n, spec.dims[m])) * spec.noise_sigma
            features[m] = spec.gamma[m] * protos[m][labels] + noise
        conversations.append(Conversation(
            id=f"conv{i:04d}", features=features, labels=labels))
    return Dataset(num_classes=spec.num_classes, dims=dict(spec.dims),
                   conversations=conversations)


# --- file format ---
# {"num_classes": int, "dims": {"t": int, "a": int, "v": int},
#  "conversations": [{"id": str, "labels": [int],
#                     "t": [[f64]], "a": [[f64]], "v": [[f64]]}]}
# No other key is allowed. Ids are unique strings (conv<index:04d> if
# absent). Each label is an int in [0, num_classes), and each feature a
# finite number, never a boolean. ``load`` turns each conversation's rows
# into arrays as the parser closes that conversation, so a file's features
# are never all held as Python floats at once.

FILE_KEYS = ("num_classes", "dims", "conversations")
CONVERSATION_KEYS = ("id", "labels", *MODALITIES)


def to_payload(dataset):
    return {
        "num_classes": dataset.num_classes,
        "dims": {m: int(dataset.dims[m]) for m in MODALITIES},
        "conversations": [
            {
                "id": conv.id,
                "labels": [int(y) for y in conv.labels],
                **{m: conv.features[m].tolist() for m in MODALITIES},
            }
            for conv in dataset.conversations
        ],
    }


def dumps(dataset):
    return json.dumps(to_payload(dataset))


def save(dataset, path):
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dumps(dataset))


def _feature_array(rows, check_shape):
    """``rows`` as an array of numbers, converted without loss: its
    ``np.asarray`` must have a dtype of kind i, u or f, pass
    ``check_shape`` and, when ``rows`` are lists, hold no boolean (an array
    holds none). Raises TypeError or ValueError, or what ``check_shape``
    raises."""
    arr = np.asarray(rows)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"got {arr.dtype} values")
    check_shape(arr)
    if not isinstance(rows, np.ndarray):
        # numpy reads a boolean among numbers as 0 or 1
        zero_one = (arr == 0) | (arr == 1)
        if zero_one.any() and any(type(rows[r][c]) is bool
                                  for r, c in np.argwhere(zero_one)):
            raise TypeError("got a boolean")
    return arr


def _two_d(arr):
    if arr.ndim != 2:
        raise ValueError(f"rows of {arr.ndim} dimensions")


def _features_as_arrays(obj):
    """``json`` object hook: the rows of each modality of a conversation
    (an object with a "labels" key) become an array if ``_feature_array``
    takes them as 2-D. Other objects, and rows it refuses, stay as parsed,
    for ``from_payload`` to report."""
    if "labels" in obj:
        for m in MODALITIES:
            if m in obj:
                try:
                    obj[m] = _feature_array(obj[m], _two_d)
                except (TypeError, ValueError):
                    pass
    return obj


def from_payload(payload):
    """Build a Dataset from a parsed file: the one place a file is checked,
    in one pass in file order, so an error names the first bad conversation.
    A modality's rows may be lists or an array."""
    if not isinstance(payload, Mapping):
        raise DatasetError(f"dataset file must be a JSON object, got "
                           f"{type(payload).__name__}")
    check_keys(payload, FILE_KEYS, "dataset file keys", DatasetError)
    check_keys(payload.get("dims", {}), MODALITIES,
               "dims modalities in the dataset header", DatasetError)
    try:
        num_classes = payload["num_classes"]
        dims = {m: payload["dims"][m] for m in MODALITIES}
    except KeyError as exc:
        raise DatasetError(f"dataset header is malformed: missing {exc}") from exc
    header = {"num_classes": (num_classes, 2),
              **{f"dims.{m}": (dim, 1) for m, dim in dims.items()}}
    for what, (value, low) in header.items():
        check_value(value, int, f"dataset header: {what}", DatasetError)
        if value < low:
            raise DatasetError(
                f"dataset header: {what} must be >= {low}, got {value}")
    entries = payload.get("conversations", [])
    if not isinstance(entries, list):
        raise DatasetError(f"dataset conversations must be a list, got "
                           f"{type(entries).__name__}")
    if not entries:
        raise DatasetError("dataset contains no conversations")

    def bad(problem):  # names the conversation the loop is at
        return DatasetError(f"conversation {cid}: {problem}")
    conversations, seen = [], {}
    for i, entry in enumerate(entries):
        cid = f"conv{i:04d}"
        if not isinstance(entry, dict):
            raise bad(f"must be an object, got {type(entry).__name__}")
        cid = entry.get("id", cid)
        if not isinstance(cid, str):
            raise DatasetError(
                f"conversation {i}: id must be a string, got {cid!r}")
        if cid in seen:
            raise DatasetError(f"conversation {i}: id {cid!r} repeats "
                               f"conversation {seen[cid]}")
        seen[cid] = i
        check_keys(entry, CONVERSATION_KEYS, "keys", bad)
        labels = entry.get("labels")
        if not isinstance(labels, list) or set(map(type, labels)) - {int}:
            raise bad("labels must be a list of integers")
        if not labels:
            raise bad("no utterances")
        for y in (min(labels), max(labels)):
            if not 0 <= y < num_classes:
                raise bad(f"label {y} outside [0, {num_classes})")
        try:
            labels = np.array(labels, np.int64)
        except OverflowError as exc:  # num_classes is past int64 too
            raise bad(f"label {max(labels)} does not fit in int64") from exc
        features = {}
        for m in MODALITIES:
            if m not in entry:
                raise bad(f"missing modality {m!r}")
            expected = (len(labels), dims[m])

            def check_shape(arr):
                if arr.shape != expected:
                    raise bad(f"modality {m!r} has shape {arr.shape}, "
                              f"expected {expected}")
            try:
                arr = _feature_array(entry[m], check_shape)
            except (TypeError, ValueError) as exc:
                raise bad(f"modality {m!r} rows are not lists of numbers "
                          f"({exc})") from exc
            if not np.isfinite(arr).all():
                raise bad(f"modality {m!r} has non-finite features")
            features[m] = arr.astype(np.float64, copy=False)
        conversations.append(Conversation(
            id=cid, features=features, labels=labels))
    return Dataset(num_classes=num_classes, dims=dims,
                   conversations=conversations)


def load(path):
    """Parse and validate a dataset file; failures name the conversation.
    Each conversation's features become arrays as it is parsed
    (``_features_as_arrays``), and ``from_payload`` checks them."""
    return from_payload(read_json(path, DatasetError, _features_as_arrays))


def batches(conversations, batch_size, seed):
    """One epoch: a seeded permutation split into batches (last may be short)."""
    if not conversations:
        raise DatasetError("cannot batch an empty dataset")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(conversations))
    return [
        [conversations[j] for j in order[i:i + batch_size]]
        for i in range(0, len(order), batch_size)
    ]


def split_holdout(conversations, fraction, seed):
    """Deterministic train/holdout split at conversation granularity."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(conversations))
    n_holdout = max(1, int(round(fraction * len(conversations))))
    if n_holdout >= len(conversations):
        raise DatasetError("holdout fraction leaves no training conversations")
    holdout_idx = set(order[:n_holdout].tolist())
    train = [c for i, c in enumerate(conversations) if i not in holdout_idx]
    holdout = [c for i, c in enumerate(conversations) if i in holdout_idx]
    return train, holdout
