"""Feature-level balancing via tensor-ring attention.

For each modality the hidden states are projected into a pair of low-rank
core tensors (query and key), whose scaled element-wise product yields a
per-utterance attention distribution over the rank-by-rank grid. Pooled
distributions from all active modalities are chained through trailing-axis
contractions, so every modality's feature attention depends on the others.
A residual gate blends the attention back into the hidden states, and a
small mapping network learns to predict the attention map from the raw
hidden states (the alignment target of the feature loss).

Each step (cores, coefficients, pooling, the contraction chain with its
output map, the gate) is one graph node with a hand-written backward. The
rows are a pack of one or more conversations (``tensor.Segments``):
pooling averages each conversation on its own, and the contraction chain
contracts each row with its own conversation's pooled matrices; the other
steps work on rows alone.
"""

from dataclasses import dataclass

from .dataset import MODALITIES
from .tensor import (
    Tensor,
    accumulate,
    feed_forward,
    softmax_array,
    softmax_vjp,
)


class FeatureWeightParams:
    """Per-modality projections, output map, and attention mapper, made by
    ``new`` (a ``tensor.Parameters``) under ``prefix`` in this order."""

    def __init__(self, hidden, rank, new, prefix):
        self.query1 = new(f"{prefix}.query1", (hidden, rank), hidden)
        self.query2 = new(f"{prefix}.query2", (hidden, rank), hidden)
        self.key1 = new(f"{prefix}.key1", (hidden, rank), hidden)
        self.key2 = new(f"{prefix}.key2", (hidden, rank), hidden)
        # no bias on the output map: zero attention propagates to zero
        self.out = new(f"{prefix}.out", (rank * rank, hidden), rank * rank)
        self.map_w1 = new(f"{prefix}.map.w1", (hidden, hidden), hidden)
        self.map_b1 = new(f"{prefix}.map.b1", (hidden,), "zeros")
        self.map_w2 = new(f"{prefix}.map.w2", (hidden, hidden), hidden)
        self.map_b2 = new(f"{prefix}.map.b2", (hidden,), "zeros")


@dataclass
class AfwState:
    """The feature-weighting outputs of a pack, keyed by modality."""

    attention: dict  # modality -> (N, h)
    mapped: dict  # modality -> (N, h) mapper predictions
    balanced: dict  # modality -> (N, h)


def make_cores(z, w1, w2):
    """Project hidden states into an (N, r, r) stack of rank-one cores.

    Row n of the Khatri-Rao product of z@w1 and z@w2 is reshaped row-major
    into an r x r slice.
    """
    first = z.data @ w1.data
    second = z.data @ w2.data

    def backward(g):
        g_first = (g * second[:, None, :]).sum(axis=2)
        g_second = (g * first[:, :, None]).sum(axis=1)
        accumulate(w1, z.data.T @ g_first)
        accumulate(w2, z.data.T @ g_second)
        accumulate(z, g_first @ w1.data.T + g_second @ w2.data.T)

    return Tensor._op(first[:, :, None] * second[:, None, :], (z, w1, w2),
                      backward)


def attention_coefficients(cores_q, cores_k):
    """Per-utterance softmax over the element-wise core product, scaled by
    1/rank (one over the square root of the rank * rank grid size)."""
    n, rank, _ = cores_q.shape
    scale = 1.0 / rank
    scores = (cores_q.data * cores_k.data) * scale
    theta = softmax_array(scores.reshape(n, rank * rank), axis=1)

    def backward(g):
        # g is this node's own gradient, read by nothing after this call
        g_scores = softmax_vjp(theta, g.reshape(n, rank * rank), axis=1)
        g_scores = g_scores.reshape(n, rank, rank) * scale
        accumulate(cores_q, g_scores * cores_k.data)
        accumulate(cores_k, g_scores * cores_q.data)

    return Tensor._op(theta.reshape(n, rank, rank), (cores_q, cores_k),
                      backward)


def pool_attention(coefficients, segments):
    """Average the per-utterance slices of each conversation of
    ``segments`` down to one r x r matrix: an (S, r, r) stack."""
    n, r1, r2 = coefficients.shape
    inv = segments.inv_lengths[:, None, None]

    def backward(g):
        accumulate(coefficients, (g * inv).take(segments.ids, axis=0))

    # one row of r1 * r2 entries per utterance, as Segments.pad takes rows
    sums = segments.pad(coefficients.data.reshape(n, r1 * r2)).sum(axis=1)
    return Tensor._op(sums.reshape(-1, r1, r2) * inv, (coefficients,),
                      backward)


def feature_attention(coefficients, pooled, out_map, segments,
                      active=MODALITIES):
    """Chain contractions with every active modality's pooled attention.

    The chain is what couples the modalities: perturbing any pooled matrix
    changes the result. Each pooled matrix is a stack of one per
    conversation of ``segments``, and each row is contracted with its own
    conversation's.
    """
    n, r1, r2 = coefficients.shape
    s = len(segments)
    factors = [pooled[m] for m in active]
    # each row's own factor; take is several times faster than indexing
    row_factors = [p.data.take(segments.ids, axis=0) for p in factors]
    # chain[i] is the coefficients contracted with the first i factors
    chain = [coefficients.data]
    for f in row_factors:
        chain.append(chain[-1] @ f)
    flat = chain[-1].reshape(n, r1 * r2)

    def factor_grad(x, g_x):
        """Each conversation's sum of x_row^T g_row over its rows."""
        return (segments.pad(x.reshape(n, -1)).reshape(s, -1, r2)
                .swapaxes(1, 2)
                @ segments.pad(g_x.reshape(n, -1)).reshape(s, -1, r2))

    def backward(g):
        accumulate(out_map, flat.T @ g)
        g_x = (g @ out_map.data.T).reshape(n, r1, r2)
        for x, p, f in zip(reversed(chain[:-1]), reversed(factors),
                           reversed(row_factors)):
            accumulate(p, factor_grad(x, g_x))
            g_x = g_x @ f.swapaxes(-1, -2)
        accumulate(coefficients, g_x)

    return Tensor._op(flat @ out_map.data,
                      (coefficients, *factors, out_map), backward)


def fuse_features(attention, z, beta):
    """Residual gate: attention (.) z + beta * z."""

    def backward(g):
        accumulate(attention, g * z.data)
        accumulate(z, g * attention.data + g * beta)

    return Tensor._op(attention.data * z.data + z.data * beta,
                      (attention, z), backward)


def map_attention(z, params):
    """Two-layer ReLU network predicting a modality's attention map."""
    return feed_forward(z, params.map_w1, params.map_b1, params.map_w2,
                        params.map_b2)


def forward(z, params, beta, segments, active=MODALITIES):
    """Run the full feature-weighting pass for all active modalities, on
    the conversations that ``segments`` describes."""
    coefficients, pooled = {}, {}
    for m in active:
        p = params[m]
        coefficients[m] = attention_coefficients(
            make_cores(z[m], p.query1, p.query2),
            make_cores(z[m], p.key1, p.key2))
        pooled[m] = pool_attention(coefficients[m], segments)
    attention, mapped, balanced = {}, {}, {}
    for m in active:
        attention[m] = feature_attention(coefficients[m], pooled,
                                         params[m].out, segments, active)
        mapped[m] = map_attention(z[m], params[m])
        balanced[m] = fuse_features(attention[m], z[m], beta)
    return AfwState(attention=attention, mapped=mapped, balanced=balanced)
