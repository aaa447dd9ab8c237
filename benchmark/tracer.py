"""Timing from outside the package: light probes and a span tracer.

Nothing here edits the package. Both classes replace module attributes and
class members of the already imported ``modbalance`` modules with wrappers,
and put the originals back on ``uninstall``.

``Probe`` is installed in every run. It holds the few timers the
end-to-end metrics need: wall time and utterance counts of each
``evaluate`` call, the latency of each no-grad conversation forward inside
it, and the utterance count of each training step (read from the batches
the training loop receives), at one clock pair per call.

``Tracer`` is installed only for traced rounds. It wraps each layer's
public functions in spans kept on a stack, so each span knows its parent;
a span's self time is its duration minus that of its child spans. Spans
are aggregated in memory as they close: inclusive durations per span name,
and self time per (layer, context). The cyclic garbage collector is a span
of its own (through ``gc.callbacks``), so its pauses are not billed to the
layer that happened to allocate.
"""

import gc
import os
import sys
import time
from collections import Counter, defaultdict

_MISSING = object()

# (module, attribute, layer): every binding of each function anywhere in
# the package is wrapped, so calls through `from x import f` are seen too.
LAYER_FUNCTIONS = [
    ("training", "train", "training.train"),
    ("training", "_noise_std", "training.noise"),
    ("training", "apply_update", "training.update"),
    ("training", "unimodal_score", "training.balance"),
    ("training", "discrepancy_ratio", "training.balance"),
    ("training", "modulation_coefficient", "training.balance"),
    ("encoder", "encode", "encoder"),
    ("feature_weighting", "forward", "feature_weighting"),
    ("feature_weighting", "make_cores", "feature_weighting"),
    ("feature_weighting", "attention_coefficients", "feature_weighting"),
    ("feature_weighting", "pool_attention", "feature_weighting"),
    ("feature_weighting", "feature_attention", "feature_weighting"),
    ("feature_weighting", "fuse_features", "feature_weighting"),
    ("feature_weighting", "map_attention", "feature_weighting"),
    ("modality_weighting", "fuse_modalities", "modality_weighting"),
    ("modality_weighting", "classify", "modality_weighting"),
    ("modality_weighting", "weight_norm_trace", "modality_weighting"),
    ("modality_weighting", "_floored_norm", "modality_weighting"),
    ("losses", "cls_loss", "losses"),
    ("losses", "modal_loss", "losses"),
    ("losses", "feature_loss", "losses"),
    ("losses", "main_loss", "losses"),
    ("metrics", "logit_trace", "metrics"),
    ("metrics", "accuracy", "metrics"),
    ("metrics", "confusion_matrix", "metrics"),
    ("metrics", "per_class_stats", "metrics"),
    ("dataset", "load", "dataset.load"),
    ("dataset", "from_payload", "dataset.load"),
    ("dataset", "save", "cli.write"),
    ("cli", "write_traces", "cli.write"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
]


class Patcher:
    """Sets attributes and remembers how to put the old values back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def rebind(self, package, original, replacement):
        """Point every module-level name bound to ``original`` at
        ``replacement``."""
        for module in package_modules(package):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__
                                  or name.startswith(prefix))]


def utterances(conversations):
    return sum(len(c.labels) for c in conversations)


class Probe:
    """Per-call timers behind the end-to-end metrics (always installed)."""

    def __init__(self, package):
        self.package = package
        self.tracer = None
        self.capture = None  # a list to collect eval predictions into
        self._in_eval = False
        self._patcher = Patcher()
        self.reset()

    def reset(self):
        self.step_utterances = []
        self.eval_seconds = 0.0
        self.eval_utterances = 0
        self.eval_conversations = 0
        self.latencies = []

    def install(self):
        from modbalance import dataset, training
        from modbalance.model import Model

        batches = dataset.batches
        evaluate = training.evaluate
        forward = Model.forward
        probe = self

        def probed_batches(*args, **kwargs):
            result = batches(*args, **kwargs)
            probe.step_utterances.extend(utterances(b) for b in result)
            if probe.tracer is not None:
                return probe.tracer.step_list(result)
            return result

        def probed_evaluate(model, conversations, *args, **kwargs):
            tracer = probe.tracer
            if tracer is not None:
                tracer.begin_evaluate(len(conversations))
            outer = probe._in_eval
            probe._in_eval = True
            start = time.perf_counter()
            try:
                return evaluate(model, conversations, *args, **kwargs)
            finally:
                probe.eval_seconds += time.perf_counter() - start
                probe._in_eval = outer
                probe.eval_utterances += utterances(conversations)
                probe.eval_conversations += len(conversations)
                if tracer is not None:
                    tracer.end()

        def probed_forward(model, *args, **kwargs):
            if not probe._in_eval:
                return forward(model, *args, **kwargs)
            start = time.perf_counter()
            out = forward(model, *args, **kwargs)
            probe.latencies.append(time.perf_counter() - start)
            if probe.capture is not None:
                probe.capture.append(out.predictions())
            return out

        self._patcher.rebind(self.package, batches, probed_batches)
        self._patcher.rebind(self.package, evaluate, probed_evaluate)
        self._patcher.set(Model, "forward", probed_forward)

    def uninstall(self):
        self._patcher.restore()


class _StepList(list):
    """The epoch's batch list; iterating it opens one span per step."""

    def __init__(self, batches, tracer):
        super().__init__(batches)
        self._tracer = tracer

    def __iter__(self):
        for batch in list.__iter__(self):
            self._tracer.begin("training.step", "training.step")
            self._tracer.counts["train_conversations"] += len(batch)
            yield batch
            self._tracer.end()


def count_graph(root):
    """Distinct tensors reachable from ``root`` through graph parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span tracer over the package's layers, for traced rounds only."""

    def __init__(self, package):
        self.package = package
        self._patcher = Patcher()
        self.missing = []
        self.reset()

    def reset(self):
        # frame: [name, layer, context, start, child seconds]
        self.stack = [["root", "root", "other", 0.0, 0.0]]
        self.self_seconds = defaultdict(float)  # (layer, context) -> s
        self.spans = defaultdict(list)  # name -> inclusive durations (s)
        self.counts = Counter()
        self.steps = []  # (duration, self time) per training step

    # --- spans ---

    def begin(self, name, layer):
        parent = self.stack[-1]
        if name == "training.step":
            context = "step"
        elif layer == "evaluate":
            context = "eval"
        else:
            context = parent[2]
        frame = [name, layer, context, 0.0, 0.0]
        self.stack.append(frame)
        frame[3] = time.perf_counter()

    def end(self):
        now = time.perf_counter()
        frame = self.stack.pop()
        duration = now - frame[3]
        own = duration - frame[4]
        self.stack[-1][4] += duration
        self.self_seconds[(frame[1], frame[2])] += own
        self.spans[frame[0]].append(duration)
        if frame[0] == "training.step":
            self.steps.append((duration, own))

    def begin_evaluate(self, conversations):
        inside_train = any(f[0] == "training.train" for f in self.stack)
        self.begin("training.epoch_eval" if inside_train else "cli.evaluate",
                   "evaluate")
        self.counts["eval_conversations"] += conversations

    def step_list(self, batches):
        return _StepList(batches, self)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self.begin("gc", "gc")
        else:
            self.counts[("gc_objects", self.stack[-1][2])] += info["collected"]
            self.end()

    # --- installation ---

    def _wrap(self, fn, name, layer, before=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    def install(self):
        import importlib

        from modbalance.metrics import EvalReport
        from modbalance.tensor import Tensor

        self.missing = []
        for module_name, attr, layer in LAYER_FUNCTIONS:
            module = importlib.import_module(f"modbalance.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            before = self._count_file if (module_name, attr) == (
                "dataset", "load") else None
            self._patcher.rebind(
                self.package, original,
                self._wrap(original, f"{module_name}.{attr}", layer, before))

        report = vars(EvalReport)["from_predictions"]
        self._patcher.set(EvalReport, "from_predictions", classmethod(
            self._wrap(report.__func__, "metrics.report", "metrics")))

        backward = Tensor.backward
        traced_backward = self._wrap(backward, "tensor.backward",
                                     "tensor.backward")
        tracer = self

        def counted_backward(root, *args, **kwargs):
            tracer.begin("trace.count_graph", "trace")
            tracer.counts[("graph_nodes", tracer.stack[-1][2])] += \
                count_graph(root)
            tracer.end()
            return traced_backward(root, *args, **kwargs)

        self._patcher.set(Tensor, "backward", counted_backward)

        from modbalance import cli
        self._patcher.set(cli, "open", self._open_for_cli)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self._patcher.restore()

    def _count_file(self, args):
        self.counts["file_loads"] += 1
        self.counts["file_bytes"] += os.path.getsize(args[0])

    def _open_for_cli(self, file, mode="r", *args, **kwargs):
        """``open`` as seen by the cli module: writes become spans."""
        handle = open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return handle
        return _WriteSpan(handle, self)


class _WriteSpan:
    """Context manager around a file the cli writes; the block is a span."""

    def __init__(self, handle, tracer):
        self._handle = handle
        self._tracer = tracer

    def __enter__(self):
        self._tracer.begin("cli.open_write", "cli.write")
        return self._handle.__enter__()

    def __exit__(self, *exc):
        try:
            return self._handle.__exit__(*exc)
        finally:
            self._tracer.end()
