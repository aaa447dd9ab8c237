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
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MODALITIES, batches as make_batches
from .errors import ConfigError, DivergenceError, check_fields
from .losses import LossBreakdown, cls_loss, feature_loss, main_loss, modal_loss
from .metrics import EvalReport, logit_trace
from .tensor import Tensor, no_grad, softmax_array

logger = logging.getLogger(__name__)

SCORE_FLOOR = 1e-12

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
    and no noise this is bit-identical to vanilla SGD.
    """
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:  # name the block through the registry offsets
        block = np.searchsorted(model.offsets, bad[0], "right") - 1
        raise DivergenceError(f"non-finite gradient in "
                              f"{list(model.named_parameters())[block]}")
    step = eta * grads
    for m, k_m in (k or {}).items():
        span = model.encoder_spans[m]
        step[span] *= k_m
        if noise_std is not None:
            step[span] -= eta * (rng.standard_normal(span.stop - span.start)
                                 * noise_std[m])
    model.theta -= step


def _conversation_losses(model, conv, active, dropout_rng):
    out = model.forward(conv.features, active=active, rng=dropout_rng)
    cls_term = cls_loss(out.outputs, conv.labels)
    if out.afw_state is None:
        feature_term = Tensor(0.0)
    else:
        feature_term = feature_loss(out.afw_state.attention,
                                    out.afw_state.mapped)
    modal_term = modal_loss(out.fused, conv.labels)
    total = main_loss(cls_term, feature_term, modal_term)
    return out, total, (cls_term.item(), feature_term.item(), modal_term.item())


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

    Per minibatch: encode, feature-weight, fuse, classify, compute the
    three losses per conversation, average gradients, derive balance
    scores / ratios / modulation coefficients, then update encoder blocks
    with modulated (optionally noisy) SGD and everything else with plain
    SGD. Appends one StepTrace per step to ``trace_sink`` (or an internal
    list) and evaluates ``eval_data`` once per epoch.
    """
    config.validate()
    active = tuple(active)
    noise_rng = np.random.default_rng(config.seed + 7919)
    dropout_rng = (np.random.default_rng(config.seed + 104729)
                   if model.config.dropout > 0.0 else None)
    use_noise = config.noise and not config.disable_modulation
    spans = {m: model.encoder_spans[m] for m in active}
    # once per call: a fresh matrix per step would keep two alive at a time
    rows = {m: np.empty((config.batch_size, model.grad[s].size))
            for m, s in spans.items()} if use_noise else {}

    traces = trace_sink if trace_sink is not None else []
    result = TrainResult(traces=traces, eval_history=[])
    step = 0
    for epoch in range(1, config.epochs + 1):
        for batch in make_batches(conversations, config.batch_size,
                                  seed=config.seed + epoch):
            step += 1
            grad_sum = np.zeros_like(model.grad)
            score_logits = {m: [] for m in active}
            labels, parts = [], []
            for i, conv in enumerate(batch):
                model.zero_grad()
                out, total, terms = _conversation_losses(
                    model, conv, active, dropout_rng)
                total.backward()
                grad_sum += model.grad
                for m, r in rows.items():
                    r[i] = model.grad[spans[m]]
                for m in active:
                    score_logits[m].append(out.score_logits(m, model.head.bias.data))
                labels.append(conv.labels)
                parts.append(terms)

            batch_size = len(batch)
            grads = grad_sum / batch_size

            all_labels = np.concatenate(labels)
            stacked = {m: np.concatenate(score_logits[m]) for m in active}
            scores = {m: unimodal_score(stacked[m], all_labels) for m in active}
            ratios = discrepancy_ratio(scores)
            if config.disable_modulation:
                coefficients = {m: 1.0 for m in active}
            else:
                coefficients = modulation_coefficient(ratios, config.alpha)

            noise_std = (_noise_std({m: r[:batch_size] for m, r in rows.items()})
                         if use_noise else None)
            apply_update(model, grads, config.learning_rate, k=coefficients,
                         noise_std=noise_std, rng=noise_rng)

            losses = LossBreakdown.from_parts(
                *(float(np.mean(terms)) for terms in zip(*parts)))
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


def _noise_std(rows):
    """Per-parameter noise scale for each modulated encoder span.

    ``rows`` maps modalities to (B, P_m) matrices of per-conversation
    encoder gradients. The scale is the diagonal std of the minibatch mean
    gradient, i.e. the sample standard deviation of each parameter's
    gradient across the conversations divided by sqrt(B); this matches the
    sampling noise the SGD estimate already carries. A batch of one
    conversation gets zero noise.
    """
    return {m: (r.std(axis=0, ddof=1) / np.sqrt(len(r)) if len(r) > 1
                else np.zeros(r.shape[1]))
            for m, r in rows.items()}
