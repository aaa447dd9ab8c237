"""Command-line entry points: gen-data, train, eval, ablate.

A run is described by a flat JSON config with sections {data, model,
optim, output} plus a top-level modality subset; the ablation flags are
``model.disable_afw``, ``model.disable_amw`` and ``optim.disable_modulation``.
All randomness flows from the config seeds; identical configs produce
byte-identical traces and checkpoints. Outputs are replaced atomically.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import dataset
from .dataset import MODALITIES
from .errors import ConfigError, ModBalanceError, check_keys, check_value
from .files import replacing
from .model import Model, ModelConfig
from .training import OptimizerConfig, TRACE_HEADER, evaluate, train

HOLDOUT_FRACTION = 0.2

ABLATION_VARIANTS = ("full", "no_afw", "no_amw", "no_modulation")


def parse_modalities(value):
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    if not parts:
        raise ConfigError("modality subset must be nonempty")
    for m in parts:
        if m not in MODALITIES:
            raise ConfigError(f"unknown modality {m!r} (expected t, a, v)")
    if len(set(parts)) != len(parts):
        raise ConfigError("modality subset has duplicates")
    return tuple(m for m in MODALITIES if m in parts)


@dataclass
class RunConfig:
    data_path: str = ""
    synth: dataset.SynthSpec = field(default_factory=dataset.SynthSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimizerConfig = field(default_factory=OptimizerConfig)
    modalities: tuple = MODALITIES
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, payload):
        check_keys(payload, ("data", "model", "optim", "output",
                             "modalities"), "config sections")
        config = cls()
        data_section = payload.get("data", {})
        check_keys(data_section, ("path", "synth"), "data options")
        config.data_path = data_section.get("path", "")
        check_value(config.data_path, str, "data options: path")
        if "synth" in data_section:
            config.synth = dataset.SynthSpec.from_dict(data_section["synth"])
        config.model = ModelConfig.from_dict(payload.get("model", {}))
        config.optim = OptimizerConfig.from_dict(payload.get("optim", {}))
        if "modalities" in payload:
            subset = payload["modalities"]
            if not isinstance(subset, str):
                check_value(subset, list, "modalities")
                for m in subset:
                    check_value(m, str, "modalities")
            config.modalities = parse_modalities(subset)
        output = payload.get("output", {})
        check_keys(output, ("dir",), "output options")
        config.output_dir = output.get("dir", "out")
        check_value(config.output_dir, str, "output options: dir")
        return config

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_json(path))

    def load_dataset(self):
        if self.data_path:
            return dataset.load(self.data_path)
        return dataset.generate(self.synth)


def read_json(path):
    """Parse a JSON config file; raises ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_csv(path, header, rows):
    with replacing(path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_traces(path, traces):
    write_csv(path, TRACE_HEADER, (trace.csv_row() for trace in traces))


def write_report(path, report):
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def cmd_gen_data(spec_path, out_path):
    """Generate a synthetic dataset file and print a short summary."""
    spec = dataset.SynthSpec.from_dict(read_json(spec_path))
    data = dataset.generate(spec)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    dataset.save(data, out_path)
    labels = data.all_labels()
    histogram = {c: int((labels == c).sum()) for c in range(data.num_classes)}
    print(f"wrote {out_path}: {len(data.conversations)} conversations, "
          f"{data.num_utterances} utterances, class histogram {histogram}")
    return data


def cmd_train(config):
    """Train per config; write checkpoint, traces, report, holdout split."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = config.load_dataset()
    train_convs, holdout = dataset.split_holdout(
        data.conversations, HOLDOUT_FRACTION, seed=config.optim.seed)
    model = Model(config.model, data.num_classes, data.dims,
                  seed=config.optim.seed)
    traces = []
    try:
        result = train(model, train_convs, config.optim,
                       active=config.modalities, eval_data=holdout,
                       trace_sink=traces)
    finally:  # a run that fails keeps its partial traces
        write_traces(out_dir / "traces.csv", traces)
    model.save(out_dir / "checkpoint.bin")
    holdout_data = dataset.Dataset(num_classes=data.num_classes,
                                   dims=data.dims, conversations=holdout)
    dataset.save(holdout_data, out_dir / "holdout.json")
    final = result.final_report
    report = {
        "final": final.to_dict(),
        "final_epoch": config.optim.epochs,
        "best_epoch": result.best_epoch,
        "best_weighted_f1": result.best_weighted_f1,
        "modalities": list(config.modalities),
    }
    write_report(out_dir / "report.json", report)
    print(f"trained {config.optim.epochs} epochs: "
          f"holdout acc {final.accuracy:.4f}, wf1 {final.weighted_f1:.4f}")
    return report, model, result


def cmd_eval(checkpoint_path, data_path, modalities=MODALITIES, out_dir=None):
    """Evaluate a checkpoint on a dataset with a modality subset."""
    modalities = parse_modalities(modalities)
    model = Model.load(checkpoint_path)
    data = dataset.load(data_path)
    if data.num_classes != model.num_classes or data.dims != model.dims:
        raise ConfigError(
            f"dataset ({data.num_classes} classes, dims {data.dims}) does "
            f"not match checkpoint ({model.num_classes} classes, dims "
            f"{model.dims})")
    report = evaluate(model, data.conversations, active=modalities)
    payload = {"final": report.to_dict(), "modalities": list(modalities)}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report(out_dir / "report.json", payload)
    print(f"eval {','.join(modalities)}: acc {report.accuracy:.4f}, "
          f"wf1 {report.weighted_f1:.4f}")
    return payload


def _variant_config(config, variant, out_root):
    assert variant in ABLATION_VARIANTS
    model = replace(config.model, disable_afw=variant == "no_afw",
                    disable_amw=variant == "no_amw")
    optim = replace(config.optim, disable_modulation=variant == "no_modulation")
    return replace(config, model=model, optim=optim,
                   output_dir=str(Path(out_root) / variant))


def cmd_ablate(config):
    """Train all ablation variants with shared seeds; write a delta table."""
    out_root = Path(config.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    results = {}
    for variant in ABLATION_VARIANTS:
        report, _, _ = cmd_train(_variant_config(config, variant, out_root))
        results[variant] = (report["final"]["weighted_f1"],
                            report["final"]["accuracy"])
    full_wf1, full_acc = results["full"]
    rows = []
    for variant in ABLATION_VARIANTS:
        wf1, acc = results[variant]
        rows.append([variant, repr(wf1), repr(acc),
                     repr(full_wf1 - wf1), repr(full_acc - acc)])
    table_path = out_root / "ablation.csv"
    write_csv(table_path, ["variant", "wf1", "acc", "delta_wf1", "delta_acc"],
              rows)
    print(f"wrote {table_path}")
    return results


def _apply_overrides(config, args):
    if getattr(args, "out", None):
        config.output_dir = args.out
    if getattr(args, "seed", None) is not None:
        config.optim.seed = args.seed
    if getattr(args, "modalities", None):
        config.modalities = parse_modalities(args.modalities)
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modbalance",
        description="Balanced multimodal conversation training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--config", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="run seed (overrides config)")
    p.add_argument("--modalities", help="comma-separated subset, e.g. t,a")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--modalities", default="t,a,v")
    p.add_argument("--out", help="directory for report.json")

    p = sub.add_parser("ablate", help="train all ablation variants")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="run seed (overrides config)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-data":
            cmd_gen_data(args.config, args.out)
        elif args.command == "train":
            config = _apply_overrides(RunConfig.from_file(args.config), args)
            cmd_train(config)
        elif args.command == "eval":
            cmd_eval(args.checkpoint, args.data, modalities=args.modalities,
                     out_dir=args.out)
        elif args.command == "ablate":
            config = _apply_overrides(RunConfig.from_file(args.config), args)
            cmd_ablate(config)
    except (ModBalanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
