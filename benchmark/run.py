"""Benchmark entry point: one workload, one seed, one process.

    python3 benchmark/run.py --workload train_short --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout. The program is imported from
``src/`` and driven through ``cli.cmd_train`` and ``cli.cmd_eval`` on
dataset files this script writes from ``--seed``. With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run. Either way it also says how many
operations (training steps, evaluated conversations, file loads) were
attempted and failed, and whether every check passed. A program error
ends the run with a traceback and exit code 1, so a printed result always
has ``failed`` 0. A failed check prints ``correct: false`` and exits 1.
"""

import os

# One BLAS thread: the matrices are tiny (hidden size 32), so more threads
# only add scheduling jitter. Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import numpy, modbalance.cli; "
                "print(time.perf_counter() - start)")
GRADIENT_ENTRIES_PER_BLOCK = 2
GRADIENT_CONVERSATIONS = 3
# holdout_wf1 must reach this share of the planted-prototype classifier's
QUALITY_FRACTION = 0.7

END_TO_END = {
    "train_utt_per_s": "utt/s",
    "eval_utt_per_s": "utt/s",
    "eval_conv_p50_ms": "ms",
    "eval_conv_p90_ms": "ms",
    "holdout_wf1": "ratio",
    "final_epoch_loss": "nat",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the package from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import modbalance
        from modbalance import cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import modbalance from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(modbalance.__file__).resolve().parent.parent != src:
        print(f"error: modbalance resolved to {modbalance.__file__}, not to "
              f"this checkout's {src}", file=sys.stderr)
        sys.exit(2)
    return modbalance


def import_seconds():
    """Seconds a fresh interpreter takes to import numpy and the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


class Run:
    """State of one benchmark process: inputs, files, rounds, checks."""

    def __init__(self, workload, seed, package):
        self.workload = workload
        self.seed = seed
        self.package = package
        self.work = (BENCH_DIR / "work"
                     / f"{workload.name}-{seed}-{os.getpid()}")
        self.train_path = self.work / "train.json"
        self.eval_path = self.work / "eval.json"
        self.config_path = self.work / "run.json"
        self.out_dir = self.work / "out"
        self.probe = Probe(package)
        self.attempted = 0
        self.inputs = None

    # --- set-up ---

    def write_inputs(self):
        """Generate the inputs and write the files (the benchmark's work)."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = inputs.generate(self.workload, self.seed)
        inputs.write_dataset(self.train_path, self.workload, self.inputs.train)
        if self.inputs.eval_set:
            inputs.write_dataset(self.eval_path, self.workload,
                                 self.inputs.eval_set)
        inputs.write_run_config(self.config_path, self.workload,
                                self.train_path, self.out_dir)

    def load_inputs(self):
        """The program's own set-up: read the config and every dataset file
        the workload feeds it. Returns seconds taken."""
        from modbalance import cli, dataset

        start = time.perf_counter()
        cli.RunConfig.from_file(self.config_path).load_dataset()
        if self.inputs.eval_set:
            dataset.load(self.eval_path)
        return time.perf_counter() - start

    # --- timed operations ---

    def train_round(self, tracer=None):
        """``cmd_train``, then ``cmd_eval`` of its checkpoint on its holdout.

        Only the ``cmd_train`` call is timed; the evaluation of the saved
        checkpoint feeds the reload check and the checkpoint-load layer.
        """
        from modbalance import cli

        config = cli.RunConfig.from_file(self.config_path)
        probe = self.probe
        probe.reset()
        probe.tracer = tracer
        if tracer is not None:
            tracer.install()
        try:
            with self._span(tracer, "cli.cmd_train"):
                start = time.perf_counter()
                report, model, _ = cli.cmd_train(config)
                seconds = time.perf_counter() - start
            result = {
                "eval_utt_per_s": probe.eval_utterances / probe.eval_seconds,
                "latencies": list(probe.latencies),
                "step_utterances": list(probe.step_utterances),
                "report": report,
                "model": model,
            }
            self.attempted += (len(probe.step_utterances)
                               + probe.eval_conversations + 1)
            probe.reset()
            probe.capture = []
            with self._span(tracer, "cli.cmd_eval"):
                result["reload"] = cli.cmd_eval(
                    self.out_dir / "checkpoint.bin",
                    self.out_dir / "holdout.json", modalities="t,a,v")
            result["reload_predictions"] = probe.capture
            self.attempted += probe.eval_conversations + 2
        finally:
            probe.capture = None
            probe.tracer = None
            if tracer is not None:
                tracer.counts["cmd_train"] += 1
                tracer.uninstall()
        result["holdout_ids"] = [c["id"] for c in self._read_json(
            self.out_dir / "holdout.json")["conversations"]]
        with open(self.out_dir / "traces.csv", encoding="utf-8") as fh:
            result["rows"] = list(csv.DictReader(fh))
        train_utts = (sum(len(c.labels) for c in self.inputs.train)
                      - len(self.inputs.labels_of(result["holdout_ids"])))
        result["train_utt_per_s"] = (self.workload.epochs * train_utts
                                     / seconds)
        return result

    @staticmethod
    @contextlib.contextmanager
    def _span(tracer, name):
        if tracer is None:
            yield
            return
        tracer.begin(name, "cli")
        try:
            yield
        finally:
            tracer.end()

    def eval_round(self, tracer=None):
        """``cmd_eval`` on the large set once per nonempty modality subset."""
        from modbalance import cli

        self.probe.reset()
        self.probe.tracer = tracer
        if tracer is not None:
            tracer.install()
        payloads = []
        start = time.perf_counter()
        try:
            for subset in inputs.SUBSETS:
                with self._span(tracer, "cli.cmd_eval"):
                    payloads.append(cli.cmd_eval(
                        self.out_dir / "checkpoint.bin", self.eval_path,
                        modalities=subset))
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            self.probe.tracer = None
        self.attempted += (self.probe.eval_conversations
                           + 2 * len(inputs.SUBSETS))
        return {
            "eval_utt_per_s": self.probe.eval_utterances / seconds,
            "latencies": list(self.probe.latencies),
            "payloads": payloads,
        }

    # --- checks ---

    @staticmethod
    def _read_json(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def check_train_round(self, result):
        w = self.workload
        labels = self.inputs.labels_of(result["holdout_ids"])
        report = result["report"]
        checks.check_report(report["final"], labels, w.classes)
        on_disk = self._read_json(self.out_dir / "report.json")
        checks.check_report(on_disk["final"], labels, w.classes)
        checks.check_trace_rows(result["rows"], inputs.ALPHA,
                                result["step_utterances"])
        checks.check_loss_decreases(result["rows"])
        by_id = {c.id: c for c in self.inputs.train}
        holdout = [by_id[i] for i in result["holdout_ids"]]
        reference = checks.weighted_f1(
            inputs.prototype_predictions(self.inputs, holdout), labels,
            w.classes)
        checks.check_quality(report["final"]["weighted_f1"], reference,
                             QUALITY_FRACTION)
        self.check_reload(result)
        return reference

    def check_eval_round(self, result):
        labels = self.inputs.labels_of([c.id for c in self.inputs.eval_set])
        for subset, payload in zip(inputs.SUBSETS, result["payloads"]):
            if payload["modalities"] != subset.split(","):
                raise checks.CheckFailed(
                    f"cmd_eval reports modalities {payload['modalities']} "
                    f"for subset {subset}")
            checks.check_report(payload["final"], labels,
                                self.workload.classes)

    def check_reload(self, result):
        """Full-subset ``cmd_eval`` on the saved checkpoint must reproduce
        the in-memory model's holdout predictions exactly."""
        from modbalance.tensor import no_grad

        by_id = {c.id: c for c in self.inputs.train}
        with no_grad():
            expected = [result["model"].forward(by_id[i].features)
                        .predictions() for i in result["holdout_ids"]]
        checks.check_same_predictions(expected, result["reload_predictions"])
        checks.check_report(result["reload"]["final"],
                            self.inputs.labels_of(result["holdout_ids"]),
                            self.workload.classes)

    def check_gradient(self, model):
        """Finite differences of main_loss on one conversation, sampled
        from every parameter block, against the autograd gradient.

        The shortest training conversation is used. If some block has no
        entry far enough from a kink of the loss there, the next shortest
        is tried, up to ``GRADIENT_CONVERSATIONS`` of them.
        """
        from modbalance import losses
        from modbalance.tensor import no_grad

        params = model.named_parameters()
        data = {n: p.data for n, p in params.items()}
        rng = np.random.default_rng([self.seed, 17])
        candidates = {n: rng.permutation(p.data.size)
                      for n, p in params.items()}
        shortest = sorted(self.inputs.train, key=lambda c: len(c.labels))
        for conv in shortest[:GRADIENT_CONVERSATIONS]:
            def main_loss(conv=conv):
                out = model.forward(conv.features)
                return losses.main_loss(
                    losses.cls_loss(out.outputs, conv.labels),
                    losses.feature_loss(out.afw_state.attention,
                                        out.afw_state.mapped),
                    losses.modal_loss(out.fused, conv.labels))

            def loss_value():
                with no_grad():
                    return main_loss().item()

            model.zero_grad()
            main_loss().backward()
            grads = {n: p.grad.copy() for n, p in params.items()}
            try:
                checks.check_gradient(loss_value, data, grads, candidates,
                                      GRADIENT_ENTRIES_PER_BLOCK)
                return
            except checks.KinkedLoss as exc:
                kinked = exc
        raise kinked


def run_until(deadline, do_round, digest, min_rounds):
    """Whole rounds until the next one would end past ``deadline``.

    ``digest`` checks a round's outputs and keeps only its figures, so
    nothing bulky of the benchmark's own survives into the next round.
    No collection is forced between rounds: the program allocates reference
    cycles on every op, so a forced collection shifts where the collector's
    full passes land, and in ``train_long`` it moved them into the epoch
    evaluations and halved ``eval_utt_per_s``.
    """
    results = []
    while True:
        start = time.perf_counter()
        result = do_round(len(results))
        took = time.perf_counter() - start
        results.append(digest(result))
        if (len(results) >= min_rounds
                and time.perf_counter() + took > deadline):
            return results


def run_rounds(count, do_round, digest):
    return [digest(do_round(i)) for i in range(count)]


class Rounds:
    """Checks each round as it ends and keeps its figures."""

    def __init__(self, run):
        self.run = run
        self.last_model = None

    def train(self, result):
        reference = self.run.check_train_round(result)
        self.last_model = result["model"]
        return {
            "traced": result.get("traced", False),
            "train_utt_per_s": result["train_utt_per_s"],
            "eval_utt_per_s": result["eval_utt_per_s"],
            "latencies": result["latencies"],
            "holdout_wf1": result["report"]["final"]["weighted_f1"],
            "final_epoch_loss": checks.epoch_mean_losses(result["rows"])[-1],
            "prototype_wf1": reference,
        }

    def eval(self, result):
        self.run.check_eval_round(result)
        return {"traced": result.get("traced", False),
                "eval_utt_per_s": result["eval_utt_per_s"],
                "latencies": result["latencies"]}


def end_to_end(run, setup_s, seconds):
    """Untraced run: every end-to-end metric."""
    rounds = Rounds(run)
    deadline = time.perf_counter() + seconds
    if run.workload.trains_each_round:
        trains = run_until(deadline, lambda i: run.train_round(),
                           rounds.train, 1)
        evals = []
    else:
        trains = run_rounds(1, lambda i: run.train_round(), rounds.train)
        evals = run_until(deadline, lambda i: run.eval_round(), rounds.eval,
                          1)
    timed_evals = evals or trains
    latencies = [t for r in timed_evals for t in r["latencies"]]
    run.check_gradient(rounds.last_model)
    last = trains[-1]
    metrics = {
        "train_utt_per_s": statistics.median(
            r["train_utt_per_s"] for r in trains),
        "eval_utt_per_s": statistics.median(
            r["eval_utt_per_s"] for r in timed_evals),
        "eval_conv_p50_ms": 1e3 * np.percentile(latencies, 50),
        "eval_conv_p90_ms": 1e3 * np.percentile(latencies, 90),
        "holdout_wf1": last["holdout_wf1"],
        "final_epoch_loss": last["final_epoch_loss"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"train_rates": [r["train_utt_per_s"] for r in trains],
            "eval_rates": [r["eval_utt_per_s"] for r in timed_evals],
            "eval_conversations_timed": len(latencies),
            "prototype_wf1": last["prototype_wf1"]}
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in metrics.items()}, info


def traced(run, seconds):
    """Traced run: alternate plain and traced rounds; per-layer metrics."""
    tracer = Tracer(run.package)
    rounds = Rounds(run)
    deadline = time.perf_counter() + seconds

    def alternate(do_round):
        def one(i):
            result = do_round(tracer if i % 2 else None)
            result["traced"] = bool(i % 2)
            return result
        return one

    if run.workload.trains_each_round:
        trains = run_until(deadline, alternate(run.train_round),
                           rounds.train, 2)
    else:
        trains = run_rounds(2, alternate(run.train_round), rounds.train)
        run_until(deadline, alternate(run.eval_round), rounds.eval, 2)
    run.check_gradient(rounds.last_model)

    def rate(traced_rounds):
        return statistics.median(r["train_utt_per_s"] for r in trains
                                 if r["traced"] == traced_rounds)

    overhead_pct = 100.0 * (rate(False) / rate(True) - 1.0)
    metrics, breakdown = per_layer_metrics(tracer, overhead_pct)
    breakdown["missing_targets"] = tracer.missing
    return metrics, breakdown


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_program()
    run = Run(inputs.WORKLOADS[args.workload], args.seed, package)
    run.probe.install()
    try:
        run.write_inputs()
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        loads = [run.load_inputs() for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(imports) + statistics.median(loads)
        correct = True
        try:
            if args.trace:
                metrics, info = traced(run, args.seconds)
            else:
                metrics, info = end_to_end(run, setup_s, args.seconds)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct, metrics, info = False, {}, {}
    finally:
        run.probe.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                blas_threads=BLAS_THREADS, setup_imports_s=imports,
                setup_loads_s=loads)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
