"""Balance-aware training: scores, discrepancy ratios, modulated updates.

Each step accumulates per-conversation gradients, measures how well every
modality alone explains the batch (softmax of its cosine logits at the
true class, summed over utterances), and converts the spread of those
scores into discrepancy ratios. Modalities that outperform the weakest one
get their encoder updates damped by 1 - tanh(alpha * ratio), optionally
with zero-mean Gaussian noise whose per-parameter scale is estimated from
the gradient spread inside the minibatch. All non-encoder parameters take
plain SGD steps.
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


def apply_update(params, grads, eta, k=1.0, noise_std=None, rng=None):
    """SGD step on a named block: theta <- theta - eta*g*k + eta*noise.

    ``noise_std`` maps names to per-parameter standard deviations; when
    given, zero-mean Gaussian noise scaled by eta is added after the
    modulated step. With k=1 and no noise this is bit-identical to
    vanilla SGD.
    """
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient in {name}")
        step = eta * g * k
        if noise_std is not None:
            step = step - eta * (rng.standard_normal(g.shape) * noise_std[name])
        p.data = p.data - step


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
    return out, total, cls_term.item(), feature_term.item(), modal_term.item()


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
    params = model.named_parameters()
    encoder_blocks = {
        m: {name: params[name] for name in model.encoder_parameter_names(m)}
        for m in active
    }
    modulated = set()
    for block in encoder_blocks.values():
        if modulated & set(block):
            raise ConfigError("encoder parameter blocks overlap")
        modulated |= set(block)
    plain = {name: p for name, p in params.items() if name not in modulated}
    assert set(plain) | modulated == set(params)

    noise_rng = np.random.default_rng(config.seed + 7919)
    dropout_rng = (np.random.default_rng(config.seed + 104729)
                   if model.config.dropout > 0.0 else None)
    use_noise = config.noise and not config.disable_modulation

    traces = trace_sink if trace_sink is not None else []
    result = TrainResult(traces=traces, eval_history=[])
    step = 0
    for epoch in range(1, config.epochs + 1):
        for batch in make_batches(conversations, config.batch_size,
                                  seed=config.seed + epoch):
            step += 1
            grad_sum = {name: np.zeros_like(p.data) for name, p in params.items()}
            zero_cache = {}
            per_conv_grads = [] if use_noise else None
            score_logits = {m: [] for m in active}
            labels = []
            cls_parts, feature_parts, modal_parts = [], [], []
            for conv in batch:
                model.zero_grad()
                out, total, cls_v, feat_v, modal_v = _conversation_losses(
                    model, conv, active, dropout_rng)
                total.backward()
                conv_grads = {}
                for name, p in params.items():
                    g = p.grad
                    if g is None:  # parameter not touched by this subset
                        g = zero_cache.setdefault(name, np.zeros_like(p.data))
                    grad_sum[name] += g
                    if per_conv_grads is not None and name in modulated:
                        conv_grads[name] = g.copy()
                if per_conv_grads is not None:
                    per_conv_grads.append(conv_grads)
                for m in active:
                    score_logits[m].append(out.score_logits(m, model.head.bias.data))
                labels.append(conv.labels)
                cls_parts.append(cls_v)
                feature_parts.append(feat_v)
                modal_parts.append(modal_v)

            batch_size = len(batch)
            grads = {name: g / batch_size for name, g in grad_sum.items()}

            all_labels = np.concatenate(labels)
            stacked = {m: np.concatenate(score_logits[m]) for m in active}
            scores = {m: unimodal_score(stacked[m], all_labels) for m in active}
            ratios = discrepancy_ratio(scores)
            if config.disable_modulation:
                coefficients = {m: 1.0 for m in active}
            else:
                coefficients = modulation_coefficient(ratios, config.alpha)

            noise_std = None
            if use_noise:
                noise_std = _noise_std(per_conv_grads, grads, modulated)

            for m in active:
                block = encoder_blocks[m]
                apply_update(
                    block, grads, config.learning_rate, k=coefficients[m],
                    noise_std=({n: noise_std[n] for n in block}
                               if noise_std is not None else None),
                    rng=noise_rng)
            apply_update(plain, grads, config.learning_rate)

            losses = LossBreakdown.from_parts(
                float(np.mean(cls_parts)), float(np.mean(feature_parts)),
                float(np.mean(modal_parts)))
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


def _noise_std(per_conv_grads, grads, modulated):
    """Per-parameter noise scale for the modulated encoder blocks.

    The diagonal std of the minibatch mean gradient, i.e. the sample
    standard deviation of each parameter's gradient across the
    conversations of the minibatch divided by sqrt(batch size); this
    matches the sampling noise the SGD estimate already carries. A batch
    of one conversation gets zero noise.
    """
    std = {}
    count = len(per_conv_grads)
    for name in modulated:
        if count > 1:
            stack = np.stack([g[name] for g in per_conv_grads])
            std[name] = stack.std(axis=0, ddof=1) / np.sqrt(count)
        else:
            std[name] = np.zeros_like(grads[name])
    return std
