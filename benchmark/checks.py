"""Correctness checks computed apart from the program.

Every check recomputes its expectation from first principles (the paper's
equations, the benchmark's own planted labels, finite differences) and
raises ``CheckFailed`` naming the first disagreement. Nothing here imports
the package under test.
"""

import math

import numpy as np

MODALITIES = ("t", "a", "v")
TOL = 1e-12
MAX_KINKS = 8  # per parameter block, in check_gradient


class CheckFailed(AssertionError):
    """A program output disagrees with the independently computed value."""


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def confusion_counts(preds, labels, num_classes):
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(labels), np.asarray(preds)), 1)
    return counts


def scores_from_confusion(confusion):
    """(accuracy, weighted F1) of a confusion matrix counts[true, pred].

    F1 of a class is 2 TP / (2 TP + FP + FN), and 0 when that is 0/0.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    total = int(confusion.sum())
    tp = np.diag(confusion).astype(float)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    denom = support + predicted
    f1 = np.divide(2.0 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return float(tp.sum() / total), float((support / total * f1).sum())


def weighted_f1(preds, labels, num_classes):
    return scores_from_confusion(
        confusion_counts(preds, labels, num_classes))[1]


def check_report(final, labels, num_classes):
    """A report's supports, accuracy and weighted F1 against planted labels."""
    confusion = np.asarray(final["confusion"], dtype=np.int64)
    if confusion.shape != (num_classes, num_classes):
        raise CheckFailed(f"confusion matrix has shape {confusion.shape}, "
                          f"expected {(num_classes, num_classes)}")
    supports = confusion.sum(axis=1)
    counts = np.bincount(np.asarray(labels), minlength=num_classes)
    if not np.array_equal(supports, counts):
        raise CheckFailed(f"class supports {supports.tolist()} differ from "
                          f"the label counts {counts.tolist()} of the file")
    accuracy, wf1 = scores_from_confusion(confusion)
    if not _close(accuracy, final["accuracy"]):
        raise CheckFailed(f"accuracy {final['accuracy']!r} != {accuracy!r} "
                          "recomputed from the confusion matrix")
    if not _close(wf1, final["weighted_f1"]):
        raise CheckFailed(f"weighted F1 {final['weighted_f1']!r} != {wf1!r} "
                          "recomputed from the confusion matrix")


def check_trace_rows(rows, alpha, step_utterances, active=MODALITIES):
    """Every traces.csv row against the paper's balance equations.

    ``rows`` are csv.DictReader rows; ``step_utterances[i]`` is the number
    of utterances the benchmark saw go into step ``i``.
    """
    if len(rows) != len(step_utterances):
        raise CheckFailed(f"{len(rows)} trace rows for "
                          f"{len(step_utterances)} training steps")
    for row, n_utt in zip(rows, step_utterances):
        where = f"trace step {row['step']}"
        s = {m: float(row[f"s_{m}"]) for m in active}
        for m, value in s.items():
            if not 0.0 < value <= n_utt:
                raise CheckFailed(f"{where}: s_{m}={value!r} outside "
                                  f"(0, {n_utt}] utterances")
        low = min(s.values())
        for m in active:
            rho = s[m] / low
            k = 1.0 - math.tanh(alpha * rho) if rho > 1.0 else 1.0
            if not _close(rho, float(row[f"rho_{m}"])):
                raise CheckFailed(f"{where}: rho_{m}={row[f'rho_{m}']} but "
                                  f"s_{m}/min s = {rho!r}")
            if not _close(k, float(row[f"k_{m}"])):
                raise CheckFailed(f"{where}: k_{m}={row[f'k_{m}']} but "
                                  f"1 - tanh(alpha*rho) gives {k!r}")
        parts = (float(row["loss_cls"]) + float(row["loss_feature"])
                 + float(row["loss_modal"]))
        if not _close(parts, float(row["loss_main"])):
            raise CheckFailed(f"{where}: loss_main={row['loss_main']} but "
                              f"the three terms sum to {parts!r}")


def epoch_mean_losses(rows):
    """Mean loss_main per epoch, in epoch order."""
    by_epoch = {}
    for row in rows:
        by_epoch.setdefault(int(row["epoch"]), []).append(
            float(row["loss_main"]))
    return [float(np.mean(by_epoch[e])) for e in sorted(by_epoch)]


def check_loss_decreases(rows):
    means = epoch_mean_losses(rows)
    if len(means) < 2 or not means[-1] < means[0]:
        raise CheckFailed(f"last epoch mean loss {means[-1]!r} is not below "
                          f"the first epoch's {means[0]!r}")


def check_quality(holdout_wf1, reference_wf1, fraction):
    if not holdout_wf1 >= fraction * reference_wf1:
        raise CheckFailed(
            f"holdout weighted F1 {holdout_wf1:.4f} is below {fraction} of "
            f"the planted-prototype classifier's {reference_wf1:.4f}")


def check_same_predictions(expected, actual):
    """Per-conversation prediction vectors must match exactly."""
    if len(expected) != len(actual):
        raise CheckFailed(f"{len(actual)} conversations predicted, "
                          f"expected {len(expected)}")
    for i, (e, a) in enumerate(zip(expected, actual)):
        if not np.array_equal(np.asarray(e), np.asarray(a)):
            raise CheckFailed(f"conversation {i}: reloaded predictions "
                              f"{np.asarray(a).tolist()} differ from "
                              f"{np.asarray(e).tolist()}")


def _central_difference(loss_value, flat, index, h):
    original = flat[index]
    flat[index] = original + h
    plus = loss_value()
    flat[index] = original - h
    minus = loss_value()
    flat[index] = original
    return (plus - minus) / (2.0 * h)


class KinkedLoss(CheckFailed):
    """Too many probed entries lie too close to a kink of the loss."""


def check_gradient(loss_value, params, grads, candidates, per_block,
                   h=1e-6, abs_tol=1e-7, rel_tol=1e-5):
    """Central differences of ``loss_value()`` against autograd gradients.

    ``params`` maps names to arrays that ``loss_value`` reads live, and
    ``grads`` maps the same names to the autograd gradients.
    ``candidates`` maps each name to flat indices in the order to try;
    the first ``per_block`` of them where the loss is smooth are compared.

    The model has ReLUs and the feature loss is an L1 gap, so the loss has
    kinks, and a central difference across one is no derivative. So when a
    difference disagrees with autograd, it is taken again with a step a
    quarter as long. If the two differences agree, the loss is smooth at
    that scale and the gradient is wrong. If not, a kink lies within the
    step, and the shorter difference is compared in its place, down to
    h/16. An entry still that close to a kink is replaced by the next
    candidate; ``KinkedLoss`` is raised when a block runs out of them or
    meets more than ``MAX_KINKS``.
    """
    def close(a, b):
        return abs(a - b) <= abs_tol + rel_tol * abs(b)

    def agrees(name, flat, index, analytic):
        """True if autograd matches; False if a kink is too close to tell."""
        step = h
        numeric = _central_difference(loss_value, flat, index, step)
        for _ in range(2):
            if close(analytic, numeric):
                return True
            finer = _central_difference(loss_value, flat, index, step / 4)
            if close(numeric, finer):  # smooth at this scale
                raise CheckFailed(
                    f"d loss / d {name}[{index}]: autograd {analytic!r}, "
                    f"finite difference {numeric!r}")
            step, numeric = step / 4, finer
        return close(analytic, numeric)

    for name, order in candidates.items():
        flat = params[name].reshape(-1)
        if not np.shares_memory(flat, params[name]):
            raise ValueError(f"{name} is not contiguous; cannot perturb it")
        checked = kinks = 0
        for index in order:
            if checked == per_block:
                break
            analytic = float(grads[name].reshape(-1)[index])
            if agrees(name, flat, index, analytic):
                checked += 1
            else:
                kinks += 1
                if kinks > MAX_KINKS:
                    break
        if checked < min(per_block, len(order)):
            raise KinkedLoss(f"{name}: {kinks} probed entries lie within "
                             f"{h / 16:g} of a kink of the loss")
