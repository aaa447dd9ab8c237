"""Workload definitions and the seeded dataset files the benchmark feeds in.

The generator plants one unit-norm prototype per (class, modality) and
draws every utterance as ``gamma_m * prototype[m][label] + sigma * noise``,
the same model the package's own synthetic data uses, but written here so
that the benchmark knows the planted truth without asking the program.

Conversation lengths come from a fixed low-discrepancy pattern over each
workload's range, so every seed does the same arithmetic and only the
feature values and labels change with ``--seed``. That keeps timings
comparable across seeds while the data stays seed-dependent.
"""

import json
from dataclasses import dataclass

import numpy as np

MODALITIES = ("t", "a", "v")
SUBSETS = ("t", "a", "v", "t,a", "t,v", "a,v", "t,a,v")
GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Shape:
    conversations: int
    lengths: tuple  # inclusive (min, max) utterances per conversation

    def conversation_lengths(self):
        lo, hi = self.lengths
        span = hi - lo + 1
        return [lo + int(span * ((i * GOLDEN) % 1.0))
                for i in range(self.conversations)]


# Shared by every workload: one model, one optimiser, one signal make-up.
# The feature widths are the package's ``SynthSpec`` defaults, and the batch
# size and modulation degree its ``OptimizerConfig`` defaults. Three values
# differ from the defaults; benchmark/README.md gives the measurements
# behind each:
# - one modality dominates (default gamma is 1.0 for all), as text does in
#   MELD and IEMOCAP;
# - the noise is 0.2, not 0.5, so that the planted classes are separable
#   and a model converges within one round;
# - the learning rate is half the default 0.2, at which these workloads
#   diverge or collapse to one class.
DIMS = {"t": 16, "a": 12, "v": 12}
GAMMA = {"t": 1.0, "a": 0.5, "v": 0.4}
SIGMA = 0.2
BATCH_SIZE = 10
LEARNING_RATE = 0.1
ALPHA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int  # separates the random streams of different workloads
    classes: int
    train: Shape
    epochs: int
    eval_set: Shape = None  # eval_subsets only: the large labelled set

    @property
    def trains_each_round(self):
        return self.eval_set is None


WORKLOADS = {
    w.name: w for w in (
        # MELD: 7 emotion classes.
        Workload(name="train_short", salt=1, classes=7,
                 train=Shape(60, (3, 20)), epochs=50),
        # IEMOCAP in its 4-class setting.
        Workload(name="train_long", salt=2, classes=4,
                 train=Shape(30, (20, 100)), epochs=60),
        Workload(name="eval_subsets", salt=3, classes=7,
                 train=Shape(60, (3, 20)), epochs=40,
                 eval_set=Shape(120, (3, 60))),
    )
}


@dataclass
class Conversation:
    id: str
    labels: np.ndarray
    features: dict  # modality -> (N, d) float64


@dataclass
class Inputs:
    """Everything the benchmark planted, kept for the independent checks."""

    workload: Workload
    prototypes: dict  # modality -> (classes, d) unit rows
    train: list
    eval_set: list

    def labels_of(self, ids):
        by_id = {c.id: c.labels for c in self.train + self.eval_set}
        return np.concatenate([by_id[i] for i in ids])


def _conversations(rng, workload, prototypes, shape, prefix):
    convs = []
    for i, n in enumerate(shape.conversation_lengths()):
        labels = rng.integers(0, workload.classes, size=n)
        features = {
            m: GAMMA[m] * prototypes[m][labels]
            + SIGMA * rng.standard_normal((n, DIMS[m]))
            for m in MODALITIES
        }
        convs.append(Conversation(f"{prefix}{i:04d}", labels, features))
    return convs


def generate(workload, seed):
    """Deterministic inputs for one (workload, seed) pair."""
    rng = np.random.default_rng([seed, workload.salt])
    prototypes = {}
    for m in MODALITIES:
        rows = rng.standard_normal((workload.classes, DIMS[m]))
        prototypes[m] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    train = _conversations(rng, workload, prototypes, workload.train, "tr")
    eval_set = (_conversations(rng, workload, prototypes, workload.eval_set,
                               "ev")
                if workload.eval_set is not None else [])
    return Inputs(workload, prototypes, train, eval_set)


def write_dataset(path, workload, conversations):
    """Write conversations in the program's JSON dataset format."""
    payload = {
        "num_classes": workload.classes,
        "dims": DIMS,
        "conversations": [
            {"id": c.id, "labels": c.labels.tolist(),
             **{m: c.features[m].tolist() for m in MODALITIES}}
            for c in conversations
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def write_run_config(path, workload, data_path, out_dir):
    """A config for ``RunConfig.from_file``: default model, full balance."""
    payload = {
        "data": {"path": str(data_path)},
        "optim": {"learning_rate": LEARNING_RATE, "alpha": ALPHA,
                  "batch_size": BATCH_SIZE,
                  "epochs": workload.epochs, "seed": 0},
        "output": {"dir": str(out_dir)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def prototype_predictions(inputs, conversations):
    """Planted-prototype classifier over all three modalities.

    Scores each class by ``sum_m gamma_m * <x_m, prototype_mc>``: with unit
    prototypes and isotropic noise this is the nearest-prototype rule in the
    gamma-weighted joint space, the best a model can do on these inputs.
    """
    preds = []
    for c in conversations:
        scores = sum(GAMMA[m] * c.features[m] @ inputs.prototypes[m].T
                     for m in MODALITIES)
        preds.append(scores.argmax(axis=1))
    return np.concatenate(preds)
