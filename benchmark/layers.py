"""Per-layer metrics from a Tracer's spans.

Self times are split by context: "step" for everything under a training
step, "eval" for everything under an ``evaluate`` call, "other" for the
rest (file I/O, checkpointing, model construction). Per-conversation
figures divide by the conversations the tracer saw enter steps or
``evaluate`` calls, so they stay comparable if the program starts to
batch conversations together.
"""

import statistics

import numpy as np

PER_LAYER = {
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.bookkeeping_ms_per_step": "ms",
    "training.noise_ms_per_step": "ms",
    "training.update_ms_per_step": "ms",
    "training.balance_ms_per_step": "ms",
    "training.epoch_eval_ms": "ms",
    "tensor.graph_nodes_per_conv": "count",
    "tensor.backward_ms_per_conv": "ms",
    "losses.ms_per_conv": "ms",
    "encoder.train_ms_per_conv": "ms",
    "feature_weighting.train_ms_per_conv": "ms",
    "modality_weighting.train_ms_per_conv": "ms",
    "encoder.eval_ms_per_conv": "ms",
    "feature_weighting.eval_ms_per_conv": "ms",
    "modality_weighting.eval_ms_per_conv": "ms",
    "metrics.report_ms": "ms",
    "dataset.load_ms": "ms",
    "dataset.file_mb": "MB",
    "checkpoint.load_ms": "ms",
    "checkpoint.save_ms": "ms",
    "cli.write_ms": "ms",
    "gc.ms_per_step": "ms",
    "gc.objects_per_step": "count",
    "gc.ms_per_eval_conv": "ms",
    "gc.objects_per_eval_conv": "count",
    "gc.wall_pct": "%",
    "trace.overhead_pct": "%",
}


def _mean_ms(durations):
    return 1e3 * statistics.fmean(durations) if durations else 0.0


def _per(value, count):
    return value / count if count else 0.0


def per_layer_metrics(tracer, overhead_pct):
    """Returns (metrics as {name: {value, unit}}, step breakdown dict)."""
    own = tracer.self_seconds
    counts = tracer.counts
    steps = len(tracer.steps)
    train_convs = counts["train_conversations"]
    eval_convs = counts["eval_conversations"]
    step_ms = [1e3 * d for d, _ in tracer.steps]

    def ms(layer, context):
        return 1e3 * own.get((layer, context), 0.0)

    write_ms = sum(1e3 * s for (layer, _), s in own.items()
                   if layer == "cli.write")
    wall = sum(tracer.spans["cli.cmd_train"] + tracer.spans["cli.cmd_eval"])
    gc_seconds = sum(s for (layer, _), s in own.items() if layer == "gc")
    values = {
        "training.step_ms_p50": float(np.percentile(step_ms, 50)),
        "training.step_ms_p90": float(np.percentile(step_ms, 90)),
        "training.bookkeeping_ms_per_step":
            _per(ms("training.step", "step"), steps),
        "training.noise_ms_per_step":
            _per(ms("training.noise", "step"), steps),
        "training.update_ms_per_step":
            _per(ms("training.update", "step"), steps),
        "training.balance_ms_per_step":
            _per(ms("training.balance", "step"), steps),
        "training.epoch_eval_ms":
            _mean_ms(tracer.spans["training.epoch_eval"]),
        "tensor.graph_nodes_per_conv":
            _per(counts[("graph_nodes", "step")], train_convs),
        "tensor.backward_ms_per_conv":
            _per(ms("tensor.backward", "step"), train_convs),
        "losses.ms_per_conv": _per(ms("losses", "step"), train_convs),
        "metrics.report_ms": _mean_ms(tracer.spans["metrics.report"]),
        "dataset.load_ms": _mean_ms(tracer.spans["dataset.load"]),
        "dataset.file_mb":
            _per(counts["file_bytes"], counts["file_loads"]) / 1e6,
        "checkpoint.load_ms":
            _mean_ms(tracer.spans["checkpoint.load_checkpoint"]),
        "checkpoint.save_ms":
            _mean_ms(tracer.spans["checkpoint.save_checkpoint"]),
        "cli.write_ms": _per(write_ms, counts["cmd_train"]),
        "gc.ms_per_step": _per(ms("gc", "step"), steps),
        "gc.objects_per_step": _per(counts[("gc_objects", "step")], steps),
        "gc.ms_per_eval_conv": _per(ms("gc", "eval"), eval_convs),
        "gc.objects_per_eval_conv":
            _per(counts[("gc_objects", "eval")], eval_convs),
        "gc.wall_pct": 100.0 * _per(gc_seconds, wall),
        "trace.overhead_pct": overhead_pct,
    }
    for layer in ("encoder", "feature_weighting", "modality_weighting"):
        values[f"{layer}.train_ms_per_conv"] = _per(ms(layer, "step"),
                                                    train_convs)
        values[f"{layer}.eval_ms_per_conv"] = _per(ms(layer, "eval"),
                                                   eval_convs)

    # a step's time is exactly its own (bookkeeping) time plus the self
    # times of every span under it; report the parts and the residual
    step_layers = {layer: 1e3 * s / steps
                   for (layer, context), s in own.items()
                   if context == "step" and steps}
    step_total = _per(sum(step_ms), steps)
    breakdown = {
        "steps": steps, "train_conversations": train_convs,
        "eval_conversations": eval_convs,
        "step_ms_mean": step_total,
        "step_parts_ms": dict(sorted(step_layers.items())),
        "step_residual_ms": step_total - sum(step_layers.values()),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, breakdown
