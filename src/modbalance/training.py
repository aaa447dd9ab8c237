"""Balance-aware training: scores, discrepancy ratios, modulated updates.

Each step sums per-conversation gradients, measures how well every
modality alone explains the batch (softmax of its cosine logits at the
true class, summed over utterances), and converts the spread of those
scores into discrepancy ratios. Modalities that outperform the weakest one
get their encoder updates damped by 1 - tanh(alpha * ratio), optionally
with zero-mean Gaussian noise whose per-parameter scale is estimated from
the gradient spread inside the minibatch. All non-encoder parameters take
plain SGD steps. All of it is vector arithmetic on the model's flat
``theta`` and ``grad`` and their per-modality ``encoder_spans`` (two per
modality: its in-projection and its row of the layer matrix), never a
loop over parameter blocks.

A step does not build a graph per conversation. It splits the minibatch
into packs of consecutive conversations (at most ``PACK_ROWS`` utterances
each, as Krell et al. pack sequences, arXiv:2107.02027), stacks each
pack's utterances row-wise, and runs one forward and one backward per
pack, the encoder layers of all active modalities stacked in one set of
nodes. The non-encoder gradients accumulate in ``model.grad``. When noise
is drawn, the encoder nodes write each conversation's encoder gradient
into its row of one (largest batch, encoder_size) matrix that ``train``
allocates once; otherwise they too accumulate in ``model.grad``. Each row
is written once per step, so it is never zeroed; only the columns of
inactive modalities (their two spans), which no node writes, are set to
zero.

So a step is: ``backward_batch`` (every pack's forward and backward, then
the sum of any rows into ``model.grad``), ``_noise_std`` (a
DivergenceError on a non-finite gradient, else each active modality's
noise scale, one per span, taken in place on its columns of the rows,
which are scratch afterwards), then ``apply_update``, the step, which
draws the noise's standard normals from ``train``'s generator where it
uses them: one draw per active modality per step, in ``MODALITIES`` order,
split across its two spans, so each normal lands on the parameter it
would reach if the modality's encoder blocks were laid out together in
the order they are made.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MODALITIES, batches as make_batches, parse_modalities
from .errors import ConfigError, DivergenceError, check_fields, check_keys
from .losses import TERMS, cls_loss, feature_loss, main_loss, modal_loss
from .metrics import EvalReport
from .modality_weighting import weight_norm_trace
from .tensor import Segments, Tensor, no_grad, softmax_array

logger = logging.getLogger(__name__)

SCORE_FLOOR = 1e-12

PACK_ROWS = 160
"""Most utterances one training graph holds (unless one conversation has
more). On a shared 2-core VM (1 BLAS thread, default model, three
modalities, gradient rows on; medians of 6 processes, measured with the
stacked encoder) a one-conversation ``backward_batch`` takes 1.52 ms at 3
rows, 1.77 at 11, 2.36 at 30 and 4.48 at 60; self-attention's square
cost makes longer ones dearer (10.1 ms at 128 rows, 15.4 at 160). So a
short conversation alone is mostly fixed cost, and fewer packs per step
are faster. On ``train_long`` (conversations of 20-100 utterances,
batches of 10) a step runs 5.37 packs at 128 rows, 56% of them a single
conversation, and 4.11 at 160 rows (25%). The price is graph memory: a
one-conversation graph holds 6.76 MB at 128 rows and 9.38 MB at 160
(tracemalloc, forward and losses, before the backward); ROADMAP's perf
notes weigh larger packs against the benchmark's peak RSS."""

TRACE_COLUMNS = (("s", "scores"), ("rho", "ratios"), ("k", "coefficients"),
                 ("wnorm", "weight_norms"))
"""Each per-modality column prefix of ``traces.csv`` and the StepTrace
field it writes: one column ``<prefix>_<m>`` per modality of
``MODALITIES``, ``nan`` where ``m`` is not active."""

TRACE_HEADER = (["epoch", "step"] + [f"loss_{t}" for t in TERMS]
                + ["loss_main"]
                + [f"{prefix}_{m}" for prefix, _ in TRACE_COLUMNS
                   for m in MODALITIES])


@dataclass(frozen=True)
class OptimizerConfig:
    """SGD and balance options. An instance is valid by construction: a
    bad value raises ConfigError naming the option."""

    learning_rate: float = 0.2
    alpha: float = 0.1  # modulation degree
    batch_size: int = 10
    epochs: int = 50
    noise: bool = True
    seed: int = 0
    disable_modulation: bool = False

    def __post_init__(self):
        check_fields(self, "optimizer options")
        if min(self.learning_rate, self.alpha) <= 0.0:
            raise ConfigError("learning_rate and alpha must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, payload):
        check_keys(payload, cls.__dataclass_fields__, "optimizer options")
        return cls(**payload)


@dataclass
class StepTrace:
    """One step, one row of ``traces.csv``: the batch means of the three
    loss terms, in ``TERMS`` order, and the ``TRACE_COLUMNS`` fields, each
    keyed by active modality."""

    epoch: int
    step: int
    losses: tuple
    scores: dict
    ratios: dict
    coefficients: dict
    weight_norms: dict

    def csv_row(self):
        cls_term, feature_term, modal_term = self.losses
        main = cls_term + feature_term + modal_term
        row = [str(self.epoch), str(self.step)]
        row += [repr(value) for value in (*self.losses, main)]
        for _, field in TRACE_COLUMNS:
            values = getattr(self, field)
            row += [repr(float(values[m])) if m in values else "nan"
                    for m in MODALITIES]
        return row


@dataclass
class TrainResult:
    traces: list
    eval_history: list  # (epoch, accuracy, weighted_f1) on the eval split
    best_epoch: int = 0
    best_weighted_f1: float = 0.0
    final_report: EvalReport | None = None  # last epoch, on eval_data


def unimodal_score(logits, labels):
    """Summed softmax probability of the true class over a batch of rows."""
    probs = softmax_array(np.asarray(logits, dtype=np.float64), axis=1)
    labels = np.asarray(labels)
    return float(probs[np.arange(len(labels)), labels].sum())


def discrepancy_ratio(scores):
    """Each score divided by the smallest; the weakest modality gets 1."""
    floored = {}
    for m, s in scores.items():
        if s <= 0.0:
            logger.warning("unimodal score for %r is %g; flooring at %g",
                           m, s, SCORE_FLOOR)
            s = SCORE_FLOOR
        floored[m] = s
    low = min(floored.values())
    return {m: s / low for m, s in floored.items()}


def modulation_coefficient(ratios, alpha):
    """1 - tanh(alpha * ratio) for over-performing modalities, else 1."""
    return {
        m: 1.0 - math.tanh(alpha * rho) if rho > 1.0 else 1.0
        for m, rho in ratios.items()
    }


def apply_update(model, grads, eta, k=None, noise_std=None, rng=None):
    """SGD step on ``model.theta``: theta <- theta - eta*g*k + eta*noise.

    ``k`` maps modalities to the coefficient of their encoder spans (the
    in-projection and the layer row), and ``noise_std`` (optional) to
    per-parameter standard deviations there, one array per span; the noise
    is then one standard normal per encoder parameter of the modality,
    drawn from ``rng`` at once in ``k``'s order and split across the two
    spans in order, times that deviation. All else takes plain SGD steps.
    With k=1 and no noise this is bit-identical to vanilla SGD. ``grads``
    must be finite (``_noise_std`` checks it).
    """
    step = eta * grads
    for m, k_m in (k or {}).items():
        spans = model.encoder_spans[m]
        for span in spans:
            step[span] *= k_m
        if noise_std is not None:
            sizes = [span.stop - span.start for span in spans]
            noise = np.split(rng.standard_normal(sum(sizes)), sizes[:1])
            for span, part, std in zip(spans, noise, noise_std[m]):
                step[span] -= eta * (part * std)
    model.theta -= step


def packs(batch):
    """Split a batch, in order, into runs of conversations of at most
    ``PACK_ROWS`` utterances; a longer conversation is a pack of its own."""
    pack, rows = [], 0
    for conv in batch:
        if pack and rows + conv.num_utterances > PACK_ROWS:
            yield pack
            pack, rows = [], 0
        pack.append(conv)
        rows += conv.num_utterances
    if pack:
        yield pack


def _pack_losses(model, pack, segments, active, step):
    """Forward a pack; returns the pass, its labels, the (3, S) loss terms
    of its conversations and their total, a scalar tensor.

    A non-finite term raises a DivergenceError naming the step, the first
    such conversation and the term.
    """
    features = {m: np.concatenate([c.features[m] for c in pack])
                for m in active}
    labels = np.concatenate([c.labels for c in pack])
    out = model.forward(features, active=active, segments=segments)
    cls_term = cls_loss(out.outputs, labels, segments)
    if out.afw_state is None:
        feature_term = Tensor(np.zeros(len(pack)))
    else:
        feature_term = feature_loss(out.afw_state.attention,
                                    out.afw_state.mapped, segments)
    modal_term = modal_loss(out.fused, labels, segments)
    values = np.stack([cls_term.data, feature_term.data, modal_term.data])
    bad = np.argwhere(~np.isfinite(values.T))
    if bad.size:
        j, t = bad[0]
        raise DivergenceError(
            f"step {step}, conversation {pack[j].id}: {TERMS[t]} loss is "
            f"not finite: {values[t, j]}")
    total = main_loss(cls_term, feature_term, modal_term)
    return out, labels, values, total


def backward_batch(model, batch, conv_grads=None, active=MODALITIES, step=0):
    """Forward and backward ``batch``, one graph per pack.

    Afterwards ``model.grad`` holds the gradient summed over the batch and,
    if ``conv_grads`` (a (>= len(batch), encoder_size) matrix) is given,
    its row i conversation i's encoder gradient. The active modalities'
    columns of those rows are written by the backward passes, whatever
    they held before; the inactive ones' are set to zero here. The block
    views of the rows (``model.encoder_grad_rows``) are built once per
    call, and each pack writes through its slice of them. Returns each
    active modality's balance-score logits and the labels, over the
    batch's utterances, and the (3, B) loss terms of its conversations.
    """
    model.zero_grad()
    if conv_grads is not None:
        for m in MODALITIES:
            if m not in active:
                for span in model.encoder_spans[m]:
                    conv_grads[:len(batch), span] = 0.0
        row_views = model.encoder_grad_rows(conv_grads[:len(batch)], active)
    score_logits = {m: [] for m in active}
    labels, terms = [], []
    first = 0
    for pack in packs(batch):
        last = first + len(pack)
        rows = (None if conv_grads is None
                else {p: v[first:last] for p, v in row_views.items()})
        segments = Segments([c.num_utterances for c in pack], rows)
        out, pack_labels, values, total = _pack_losses(
            model, pack, segments, active, step)
        total.backward()
        for m in active:
            score_logits[m].append(out.score_logits(m, model.head.bias.data))
        labels.append(pack_labels)
        terms.append(values)
        first = last
    if conv_grads is not None:  # adds the rows one by one, in order
        np.sum(conv_grads[:len(batch)], axis=0,
               out=model.grad[:model.encoder_size])
    return ({m: np.concatenate(score_logits[m]) for m in active},
            np.concatenate(labels), np.hstack(terms))


def _noise_std(model, batch, conv_grads, active, step):
    """Check a step's gradients, then return each active modality's
    per-parameter noise scale, one array per span of ``encoder_spans``, or
    None when ``conv_grads`` is None.

    ``conv_grads`` holds the batch's per-conversation encoder gradient
    rows, which exist exactly when noise is drawn. A non-finite entry of
    ``model.grad`` raises a DivergenceError naming the step, the first
    such block and, when a row is non-finite, the first such conversation
    of ``batch``. ``model.grad`` is left as it is.

    The scale is the diagonal std of the minibatch mean gradient: each
    parameter's sample std across the conversations over sqrt(B), the
    sampling noise the SGD estimate already carries (zero for a batch of
    one). It is taken in place on each span's columns of the rows, which
    are scratch afterwards, in the steps of ``ndarray.std(ddof=1)``: the
    mean is ``model.grad`` (the rows' sum in row order) over B, then
    subtract, square, sum the rows, divide by B - 1 and take the square
    root. So it is bit for bit ``rows[:, span].std(axis=0, ddof=1) /
    sqrt(B)`` for each span, without its (B, P) temporary.
    """
    rows = None if conv_grads is None else conv_grads[:len(batch)]
    finite = np.isfinite(model.grad)
    if not finite.all():  # argmin finds the first False
        bad = [] if rows is None else np.flatnonzero(
            ~np.isfinite(rows).all(axis=1))
        at = f", conversation {batch[bad[0]].id}" if len(bad) else ""
        raise DivergenceError(f"step {step}{at}: non-finite gradient in "
                              f"{model.block_name(finite.argmin())}")
    if rows is None:
        return None
    b = len(rows)
    scale = {m: [] for m in active}
    for m in active:
        for span in model.encoder_spans[m]:
            if b == 1:
                std = np.zeros(span.stop - span.start)
            else:
                centered = rows[:, span]
                centered -= model.grad[span] / b
                np.square(centered, out=centered)
                std = centered.sum(axis=0)
                std /= b - 1
                np.sqrt(std, out=std)
                std /= np.sqrt(b)
            scale[m].append(std)
    return scale


def evaluate(model, conversations, active=MODALITIES):
    """Pooled EvalReport over all utterances of the given conversations.

    A conversation whose logits are not finite (as NaN features give)
    raises a DivergenceError naming it.
    """
    preds, labels = [], []
    with no_grad():
        for conv in conversations:
            out = model.forward(conv.features, active=active)
            if not np.isfinite(out.outputs.data).all():
                raise DivergenceError(
                    f"conversation {conv.id}: logits are not finite")
            preds.append(out.predictions())
            labels.append(conv.labels)
    return EvalReport.from_predictions(
        np.concatenate(preds), np.concatenate(labels), model.num_classes)


def train(model, conversations, config, active=MODALITIES, eval_data=None,
          trace_sink=None):
    """Run the full training loop; the model is updated in place.

    Per minibatch, pack by pack: encode, feature-weight, fuse, classify,
    compute the three losses per conversation and backpropagate the pack's
    total. Then check the gradients and take the noise scale, average the
    gradients, derive balance scores / ratios / modulation coefficients,
    and update encoder blocks with modulated (optionally noisy) SGD and
    everything else with plain SGD. Appends one StepTrace per step to
    ``trace_sink`` (or an internal list) and evaluates ``eval_data`` once
    per epoch. ``active`` goes through
    ``parse_modalities``, so a subset trains in ``MODALITIES`` order (and
    draws its noise in that order) however it is spelled.
    """
    active = parse_modalities(active)
    noise_rng = np.random.default_rng(config.seed + 7919)
    use_noise = config.noise and not config.disable_modulation
    # only the noise std reads per-conversation rows, one per conversation
    # of the largest batch; allocated once per call (not per step)
    conv_grads = (np.empty((min(config.batch_size, len(conversations)),
                            model.encoder_size)) if use_noise else None)

    traces = trace_sink if trace_sink is not None else []
    result = TrainResult(traces=traces, eval_history=[])
    step = 0
    for epoch in range(1, config.epochs + 1):
        for batch in make_batches(conversations, config.batch_size,
                                  seed=config.seed + epoch):
            step += 1
            stacked, all_labels, terms = backward_batch(
                model, batch, conv_grads, active, step)
            noise_std = _noise_std(model, batch, conv_grads, active, step)
            grads = model.grad / len(batch)
            scores = {m: unimodal_score(stacked[m], all_labels)
                      for m in active}
            ratios = discrepancy_ratio(scores)
            if config.disable_modulation:
                coefficients = {m: 1.0 for m in active}
            else:
                coefficients = modulation_coefficient(ratios, config.alpha)
            apply_update(model, grads, config.learning_rate,
                         k=coefficients, noise_std=noise_std, rng=noise_rng)

            norms = weight_norm_trace(model.head, active).mean(axis=1)
            traces.append(StepTrace(
                epoch=epoch, step=step,
                losses=tuple(float(np.mean(term)) for term in terms),
                scores=scores, ratios=ratios, coefficients=coefficients,
                weight_norms={m: float(n) for m, n in zip(active, norms)}))

        if eval_data is not None:
            report = evaluate(model, eval_data, active=active)
            result.final_report = report
            result.eval_history.append((epoch, report.accuracy,
                                        report.weighted_f1))
            if report.weighted_f1 > result.best_weighted_f1:
                result.best_weighted_f1 = report.weighted_f1
                result.best_epoch = epoch
    return result
