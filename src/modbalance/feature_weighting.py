"""Feature-level balancing via tensor-ring attention.

For each modality the hidden states are projected into a pair of low-rank
core tensors (query and key), whose scaled element-wise product yields a
per-utterance attention distribution over the rank-by-rank grid. Pooled
distributions from all active modalities are chained through trailing-axis
contractions, so every modality's feature attention depends on the others.
A residual gate blends the attention back into the hidden states, and a
small mapping network learns to predict the attention map from the raw
hidden states (the alignment target of the feature loss).
"""

from dataclasses import dataclass

import numpy as np

from .dataset import MODALITIES
from .encoder import uniform_init, zeros_param
from .errors import ConfigError, ShapeError
from .tensor import contract_last, khatri_rao_mode1, softmax


class FeatureWeightParams:
    """Per-modality projections, output map, and attention mapper."""

    def __init__(self, hidden, rank, rng):
        if rank < 1:
            raise ConfigError("tensor rank must be >= 1")
        self.hidden = hidden
        self.rank = rank
        self.query1 = uniform_init(rng, (hidden, rank), hidden)
        self.query2 = uniform_init(rng, (hidden, rank), hidden)
        self.key1 = uniform_init(rng, (hidden, rank), hidden)
        self.key2 = uniform_init(rng, (hidden, rank), hidden)
        # no bias on the output map: zero attention propagates to zero
        self.out = uniform_init(rng, (rank * rank, hidden), rank * rank)
        self.map_w1 = uniform_init(rng, (hidden, hidden), hidden)
        self.map_b1 = zeros_param((hidden,))
        self.map_w2 = uniform_init(rng, (hidden, hidden), hidden)
        self.map_b2 = zeros_param((hidden,))

    def named_parameters(self, prefix):
        yield f"{prefix}.query1", self.query1
        yield f"{prefix}.query2", self.query2
        yield f"{prefix}.key1", self.key1
        yield f"{prefix}.key2", self.key2
        yield f"{prefix}.out", self.out
        yield f"{prefix}.map.w1", self.map_w1
        yield f"{prefix}.map.b1", self.map_b1
        yield f"{prefix}.map.w2", self.map_w2
        yield f"{prefix}.map.b2", self.map_b2


@dataclass
class AfwState:
    """Everything the feature-weighting pass produces for one conversation."""

    cores_q: dict  # modality -> (N, r, r)
    cores_k: dict
    coefficients: dict  # modality -> (N, r, r) probability slices
    pooled: dict  # modality -> (r, r)
    attention: dict  # modality -> (N, h)
    mapped: dict  # modality -> (N, h) mapper predictions
    balanced: dict  # modality -> (N, h)


def make_cores(z, w1, w2):
    """Project hidden states into an (N, r, r) stack of rank-one cores.

    Row n of the Khatri-Rao product of z@w1 and z@w2 is reshaped row-major
    into an r x r slice.
    """
    first = z @ w1
    second = z @ w2
    n, rank = first.shape
    if second.shape != (n, rank):
        raise ShapeError(
            f"core projections disagree: {first.shape} vs {second.shape}")
    return khatri_rao_mode1(first, second).reshape(n, rank, rank)


def attention_coefficients(cores_q, cores_k, d_k):
    """Per-utterance softmax over the scaled element-wise core product."""
    if d_k <= 0:
        raise ConfigError(f"d_k must be positive, got {d_k}")
    if cores_q.shape != cores_k.shape:
        raise ShapeError(
            f"query/key cores disagree: {cores_q.shape} vs {cores_k.shape}")
    n, rank, _ = cores_q.shape
    scores = (cores_q * cores_k) * (1.0 / np.sqrt(d_k))
    flat = scores.reshape(n, rank * rank)
    return softmax(flat, axis=1).reshape(n, rank, rank)


def pool_attention(coefficients):
    """Average the per-utterance slices down to a single r x r matrix."""
    return coefficients.mean(axis=0)


def feature_attention(coefficients, pooled, out_map, active=MODALITIES):
    """Chain contractions with every active modality's pooled attention.

    The chain is what couples the modalities: perturbing any pooled matrix
    changes the result. Raises if a required pooled matrix is missing.
    """
    x = coefficients
    for m in active:
        if m not in pooled:
            raise ShapeError(f"missing pooled attention for modality {m!r}")
        x = contract_last(x, pooled[m])
    n, r1, r2 = x.shape
    return x.reshape(n, r1 * r2) @ out_map


def fuse_features(attention, z, beta):
    """Residual gate: attention (.) z + beta * z."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    return attention * z + beta * z


def map_attention(z, params):
    """Two-layer ReLU network predicting a modality's attention map."""
    hidden = (z @ params.map_w1 + params.map_b1).relu()
    return hidden @ params.map_w2 + params.map_b2


def forward(z, params, d_k, beta, active=MODALITIES):
    """Run the full feature-weighting pass for all active modalities."""
    cores_q, cores_k, coefficients, pooled = {}, {}, {}, {}
    for m in active:
        p = params[m]
        cores_q[m] = make_cores(z[m], p.query1, p.query2)
        cores_k[m] = make_cores(z[m], p.key1, p.key2)
        coefficients[m] = attention_coefficients(cores_q[m], cores_k[m], d_k)
        pooled[m] = pool_attention(coefficients[m])
    attention, mapped, balanced = {}, {}, {}
    for m in active:
        attention[m] = feature_attention(coefficients[m], pooled,
                                         params[m].out, active)
        mapped[m] = map_attention(z[m], params[m])
        balanced[m] = fuse_features(attention[m], z[m], beta)
    return AfwState(cores_q=cores_q, cores_k=cores_k,
                    coefficients=coefficients, pooled=pooled,
                    attention=attention, mapped=mapped, balanced=balanced)
