"""Balance-aware training: scores, discrepancy ratios, modulated updates.

Each step sums per-conversation gradients, measures how well every
modality alone explains the batch (softmax of its cosine logits at the
true class, summed over utterances), and converts the spread of those
scores into discrepancy ratios. Modalities that outperform the weakest one
get their encoder updates damped by 1 - tanh(alpha * ratio), optionally
with zero-mean Gaussian noise whose per-parameter scale is estimated from
the gradient spread inside the minibatch. All non-encoder parameters take
plain SGD steps. All of it is vector arithmetic on the model's flat
``theta`` and ``grad`` and their per-modality ``encoder_spans``, never a
loop over parameter blocks.

A step does not build a graph per conversation. It splits the minibatch
into packs of consecutive conversations (at most ``PACK_ROWS`` utterances
each, as Krell et al. pack sequences, arXiv:2107.02027), stacks each
pack's utterances row-wise, and runs one forward and one backward per
pack. The non-encoder gradients accumulate in ``model.grad``. When noise
is drawn, the encoder nodes write each conversation's encoder gradient
into its row of one (batch_size, encoder_size) matrix that ``train``
allocates once; otherwise they too accumulate in ``model.grad``.

So a step is: ``backward_batch`` (every pack's forward and backward, then
the sum of any rows into ``model.grad``), ``checked_noise_std`` (a
DivergenceError on a non-finite gradient, else each modality's noise
scale from its columns of the rows), then ``apply_update``, the step.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MODALITIES, batches as make_batches
from .errors import ConfigError, DivergenceError, check_fields
from .losses import (
    TERMS,
    LossBreakdown,
    cls_loss,
    feature_loss,
    main_loss,
    modal_loss,
)
from .metrics import EvalReport, logit_trace
from .tensor import Segments, Tensor, no_grad, softmax_array

logger = logging.getLogger(__name__)

SCORE_FLOOR = 1e-12

PACK_ROWS = 128
"""Most utterances one training graph holds (unless one conversation has
more). On a shared 2-core VM a pack's forward and backward cost about
4.9 ms per graph plus 0.084 ms per row (a fit over packs of 1-10
``train_short`` conversations), so a full pack spends about a third of its
time on the fixed cost, where a 3-utterance conversation alone spends 95%.
86% of ``train_short`` batches (58-153 rows, median 112) fit in one pack.
Larger packs cost memory: on a 642-row ``train_long`` batch the
tracemalloc peak of a step was 5.6 MB with a graph per conversation,
6.5 MB at 128 rows, 12.8 MB at 256 and 31 MB with the whole batch in one
graph."""

TRACE_HEADER = [
    "epoch", "step",
    "loss_cls", "loss_feature", "loss_modal", "loss_main",
    "s_t", "s_a", "s_v",
    "rho_t", "rho_a", "rho_v",
    "k_t", "k_a", "k_v",
    "wnorm_t", "wnorm_a", "wnorm_v",
]


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.2
    alpha: float = 0.1  # modulation degree
    batch_size: int = 10
    epochs: int = 50
    noise: bool = True
    seed: int = 0
    disable_modulation: bool = False

    def validate(self):
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        return self

    @classmethod
    def from_dict(cls, payload):
        check_fields(payload, cls, "optimizer options")
        return cls(**payload).validate()


@dataclass
class BalanceState:
    """Per-step balance quantities, keyed by modality."""

    scores: dict
    ratios: dict
    coefficients: dict


@dataclass
class StepTrace:
    epoch: int
    step: int
    losses: LossBreakdown
    balance: BalanceState
    weight_norms: dict
    logit_means: dict

    def csv_row(self):
        def per_modality(values):
            return [repr(float(values[m])) if m in values else "nan"
                    for m in MODALITIES]

        return ([str(self.epoch), str(self.step),
                 repr(self.losses.cls), repr(self.losses.feature),
                 repr(self.losses.modal), repr(self.losses.main)]
                + per_modality(self.balance.scores)
                + per_modality(self.balance.ratios)
                + per_modality(self.balance.coefficients)
                + per_modality(self.weight_norms))


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

    ``k`` maps modalities to the coefficient of their encoder span, and
    ``noise_std`` (optional) to per-parameter standard deviations there,
    drawn in the order of ``k``; all else takes plain SGD steps. With k=1
    and no noise this is bit-identical to vanilla SGD. ``grads`` must be
    finite (``checked_noise_std`` checks it).
    """
    step = eta * grads
    for m, k_m in (k or {}).items():
        span = model.encoder_spans[m]
        step[span] *= k_m
        if noise_std is not None:
            step[span] -= eta * (rng.standard_normal(span.stop - span.start)
                                 * noise_std[m])
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


def _pack_losses(model, pack, segments, active, dropout_rng, step):
    """Forward a pack; returns the pass, its labels, the (3, S) loss terms
    of its conversations and their total, a scalar tensor.

    A non-finite term raises a DivergenceError naming the step, the first
    such conversation and the term.
    """
    features = {m: np.concatenate([c.features[m] for c in pack])
                for m in active}
    labels = np.concatenate([c.labels for c in pack])
    out = model.forward(features, active=active, rng=dropout_rng,
                        segments=segments)
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
    total = main_loss(cls_term, feature_term, modal_term).sum()
    return out, labels, values, total


def backward_batch(model, batch, conv_grads=None, active=MODALITIES,
                   dropout_rng=None, step=0):
    """Forward and backward ``batch``, one graph per pack.

    Afterwards ``model.grad`` holds the gradient summed over the batch and,
    if ``conv_grads`` (a (>= len(batch), encoder_size) matrix) is given,
    its row i conversation i's encoder gradient. Returns each active
    modality's balance-score logits and the labels, over the batch's
    utterances, and the (3, B) loss terms of its conversations.
    """
    model.zero_grad()
    if conv_grads is not None:
        conv_grads[:len(batch)] = 0.0
    score_logits = {m: [] for m in active}
    labels, terms = [], []
    first = 0
    for pack in packs(batch):
        last = first + len(pack)
        rows = (None if conv_grads is None
                else model.encoder_grad_rows(conv_grads[first:last]))
        segments = Segments([c.num_utterances for c in pack], rows)
        out, pack_labels, values, total = _pack_losses(
            model, pack, segments, active, dropout_rng, step)
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


def checked_noise_std(model, batch, conv_grads, step, active, noise):
    """Check a step's gradients, then return its noise scale.

    A non-finite entry of ``model.grad`` raises a DivergenceError naming
    the step, the first such block and, with ``noise``, when a row of
    ``conv_grads`` is non-finite, the first such conversation of
    ``batch``. Without ``noise`` the scale is None and ``conv_grads`` is
    not read; otherwise it is ``_noise_std`` of each active modality's
    columns of the batch's rows.
    """
    rows = conv_grads[:len(batch)] if noise else None
    finite = np.isfinite(model.grad)
    if not finite.all():  # argmin finds the first False
        block = list(model.named_parameters())[
            np.searchsorted(model.offsets, finite.argmin(), "right") - 1]
        bad = [] if rows is None else np.flatnonzero(
            ~np.isfinite(rows).all(axis=1))
        at = f", conversation {batch[bad[0]].id}" if len(bad) else ""
        raise DivergenceError(f"step {step}{at}: non-finite gradient in "
                              f"{block}")
    if rows is None:
        return None
    return _noise_std({m: rows[:, model.encoder_spans[m]] for m in active})


def _noise_std(rows):
    """Per-parameter noise scale for each modulated encoder span.

    ``rows`` maps modalities to finite (B, P_m) matrices of per-conversation
    encoder gradients. The scale is the diagonal std of the minibatch mean
    gradient, i.e. the sample standard deviation of each parameter's
    gradient across the conversations divided by sqrt(B); this matches the
    sampling noise the SGD estimate already carries. A batch of one
    conversation gets zero noise.
    """
    return {m: (r.std(axis=0, ddof=1) / np.sqrt(len(r)) if len(r) > 1
                else np.zeros(r.shape[1]))
            for m, r in rows.items()}


def evaluate(model, conversations, active=MODALITIES):
    """Pooled EvalReport over all utterances of the given conversations."""
    preds, labels = [], []
    with no_grad():
        for conv in conversations:
            out = model.forward(conv.features, active=active)
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
    per epoch.
    """
    config.validate()
    active = tuple(active)
    noise_rng = np.random.default_rng(config.seed + 7919)
    dropout_rng = (np.random.default_rng(config.seed + 104729)
                   if model.config.dropout > 0.0 else None)
    use_noise = config.noise and not config.disable_modulation
    # only the noise std reads per-conversation rows; allocated once per
    # call, as a fresh matrix per step would keep two alive at a time
    conv_grads = (np.empty((config.batch_size, model.encoder_size))
                  if use_noise else None)

    traces = trace_sink if trace_sink is not None else []
    result = TrainResult(traces=traces, eval_history=[])
    step = 0
    for epoch in range(1, config.epochs + 1):
        for batch in make_batches(conversations, config.batch_size,
                                  seed=config.seed + epoch):
            step += 1
            stacked, all_labels, terms = backward_batch(
                model, batch, conv_grads, active, dropout_rng, step)
            noise_std = checked_noise_std(model, batch, conv_grads, step,
                                          active, use_noise)
            grads = model.grad / len(batch)
            scores = {m: unimodal_score(stacked[m], all_labels) for m in active}
            ratios = discrepancy_ratio(scores)
            if config.disable_modulation:
                coefficients = {m: 1.0 for m in active}
            else:
                coefficients = modulation_coefficient(ratios, config.alpha)
            apply_update(model, grads, config.learning_rate,
                         k=coefficients, noise_std=noise_std, rng=noise_rng)

            losses = LossBreakdown.from_parts(
                *(float(np.mean(term)) for term in terms))
            norms = model.weight_norms(active=active).mean(axis=1)
            traces.append(StepTrace(
                epoch=epoch, step=step, losses=losses,
                balance=BalanceState(scores=scores, ratios=ratios,
                                     coefficients=coefficients),
                weight_norms={m: float(n) for m, n in zip(active, norms)},
                logit_means=logit_trace(stacked, all_labels)))

        if eval_data is not None:
            report = evaluate(model, eval_data, active=active)
            result.final_report = report
            result.eval_history.append((epoch, report.accuracy,
                                        report.weighted_f1))
            if report.weighted_f1 > result.best_weighted_f1:
                result.best_weighted_f1 = report.weighted_f1
                result.best_epoch = epoch
    return result
