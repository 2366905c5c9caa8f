"""Command-line entry point.

    moticomp gen-data        --manifest m.json [--out DIR] [--seed N]
    moticomp train-cag       --config c.json --data DIR [--out DIR] [--seed N]
    moticomp synth           --model cag.json --manifest m.json [--count K]
                             [--deterministic] [--out DIR] [--seed N]
    moticomp train-predictor --config c.json --data DIR [--synth DIR]
                             [--out DIR] [--seed N]
    moticomp eval            --model pred.json --data DIR [--horizons 1,3,5]
                             [--out DIR]
    moticomp flops           --model pred.json [--exits 3,3,3] [--out DIR]

Exit codes: 0 success, 1 usage error, 2 runtime/numeric error. Every run
writes run-info.json (config echo, seed, format versions) next to its
outputs; given identical inputs and seeds, outputs are bit-identical except
for the timestamp in run-info.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import datagen
from .errors import CheckpointError, ConfigError
from .exits import count_flops
from .motion import PartLayout
from .predictor import BRANCH_KINDS, PredictorConfig
from .training import (PredictorModel, TrainConfig, evaluate, init_predictor_model,
                       train_predictor)
from .vae import BodyMask, CagTrainConfig, VaeParams, synthesize_composite, train_cag


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="moticomp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate train/val/test motion splits")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override split seeds (train=N, val=N+1e6, test=N+2e6)")

    p = sub.add_parser("train-cag", help="train the composite-action VAE")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--data", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("synth", help="synthesize composite actions from a trained VAE")
    p.add_argument("--model", required=True, help="VAE checkpoint")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="composites per action pair (>= 1)")
    p.add_argument("--deterministic", action="store_true",
                   help="use the latent mean instead of sampling")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-predictor", help="train the early-exit predictor")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--synth", default=None,
                   help="directory of synthesized composites to add to training")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a predictor checkpoint on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--horizons", default="1,3,5,8,10",
                   help="comma-separated future-frame numbers (1-based)")
    p.add_argument("--out", default="out")

    p = sub.add_parser("flops", help="report per-branch, per-exit MAC counts")
    p.add_argument("--model", required=True)
    p.add_argument("--exits", default=None,
                   help="comma-separated chosen exit per branch (default: deepest)")
    p.add_argument("--out", default="out")
    return parser


def _read_json_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _split_config(doc: dict, path: str, *classes) -> list:
    """Build one type-checked dataclass instance per class from a flat key/value dict."""
    fields = {}
    for cls in classes:
        fields.update({f.name: cls for f in dataclasses.fields(cls)})
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    out = []
    for cls in classes:
        types = datagen._field_types(cls)
        kwargs = {k: v for k, v in doc.items() if k in types}
        out.append(cls(**datagen._check_types(kwargs, types, f"{path}: config", ConfigError)))
    return out


def _write_run_info(out_dir: Path, command: str, seed, config_echo: dict) -> None:
    info = {
        "command": command,
        "seed": seed,
        "config": config_echo,
        "format_versions": {
            "motion": datagen.MOTION_MAGIC,
            "manifest": datagen.MANIFEST_VERSION,
            "checkpoint": datagen.CHECKPOINT_VERSION,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "run-info.json").write_text(json.dumps(info, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


_CHECKPOINT_KINDS = {PredictorModel: "predictor", VaeParams: "cag_vae"}


def _load_checkpoint(path: str, expected: type):
    """load_checkpoint, refusing a checkpoint of another kind than expected."""
    model = datagen.load_checkpoint(path)
    if not isinstance(model, expected):
        raise CheckpointError(f"{path}: expected a {_CHECKPOINT_KINDS[expected]} "
                              f"checkpoint, found {_CHECKPOINT_KINDS[type(model)]}")
    return model


_SPLITS = ("train", "val", "test")


def _cmd_gen_data(args) -> int:
    manifest = datagen.manifest_from_json(Path(args.manifest).read_text())
    if args.seed is not None:
        manifest = dataclasses.replace(
            manifest, train_seed=args.seed, val_seed=args.seed + 10 ** 6,
            test_seed=args.seed + 2 * 10 ** 6)
    for name in _SPLITS:  # every split, before any is written
        datagen.check_split_target(Path(args.out) / name)
    splits = datagen.build_dataset(manifest)
    out = _out_dir(args)
    for name in _SPLITS:
        datagen.save_split(out / name, getattr(splits, name))
    (out / "manifest.json").write_text(datagen.manifest_to_json(manifest))
    _write_run_info(out, "gen-data", args.seed,
                    json.loads(datagen.manifest_to_json(manifest)))
    print(f"wrote {len(splits.train)}/{len(splits.val)}/{len(splits.test)} "
          f"train/val/test sequences to {out}")
    return 0


def _cmd_train_cag(args) -> int:
    doc = _read_json_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    (config,) = _split_config(doc, args.config, CagTrainConfig)
    train_set = datagen.load_split(Path(args.data) / "train")
    result = train_cag(train_set, config)
    out = _out_dir(args)
    datagen.save_checkpoint(out / "cag.json", result.params)
    curve = "\n".join(f"{i},{loss!r}" for i, loss in enumerate(result.loss_history))
    (out / "cag_loss.csv").write_text("epoch,loss\n" + curve + "\n")
    _write_run_info(out, "train-cag", config.seed, dataclasses.asdict(config))
    final = result.loss_history[-1] if result.loss_history else float("nan")
    print(f"trained CAG for {config.epochs} epochs, final loss {final:.4f}; "
          f"checkpoint at {out / 'cag.json'}")
    return 0


def _cmd_synth(args) -> int:
    params = _load_checkpoint(args.model, VaeParams)
    datagen.check_split_target(Path(args.out) / "synth")
    manifest = datagen.manifest_from_json(Path(args.manifest).read_text())
    layout = PartLayout.from_skeleton(manifest.skeleton)
    mask = BodyMask.from_layout(layout)
    rng = np.random.default_rng(args.seed)
    sequences = []
    for seq_u, seq_l in datagen.composite_sources(manifest, args.count, args.seed):
        noise = None if args.deterministic else rng.standard_normal(params.latent_dim)
        sequences.append(synthesize_composite(
            params, seq_u, seq_l, mask, params.coeff_rows, noise))
    out = _out_dir(args)  # only once every composite is made
    datagen.save_split(out / "synth", sequences)
    _write_run_info(out, "synth", args.seed,
                    {"model": str(args.model), "count": args.count,
                     "deterministic": args.deterministic})
    print(f"synthesized {len(sequences)} composite sequences to {out / 'synth'}")
    return 0


def _cmd_train_predictor(args) -> int:
    doc = _read_json_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    train_config, model_config = _split_config(doc, args.config,
                                               TrainConfig, PredictorConfig)
    data = Path(args.data)
    train_set = datagen.load_split(data / "train")
    if args.synth is not None:
        train_set = train_set + datagen.load_split(args.synth)
    val_set = datagen.load_split(data / "val")
    if not train_set:
        raise ConfigError("training split is empty")
    layout_manifest = data / "manifest.json"
    if layout_manifest.exists():
        manifest = datagen.manifest_from_json(layout_manifest.read_text())
        layout = PartLayout.from_skeleton(manifest.skeleton)
    else:
        raise ConfigError(f"{data}: missing manifest.json (produced by gen-data)")
    rng = np.random.default_rng(train_config.seed)
    model = init_predictor_model(rng, layout, model_config)
    result = train_predictor(model, train_set, val_set, train_config)
    out = _out_dir(args)
    datagen.save_checkpoint(out / "predictor.json", result.model)
    datagen.save_checkpoint(out / "predictor_best.json", result.best)
    (out / "train_history.csv").write_text(result.history_csv())
    _write_run_info(out, "train-predictor", train_config.seed, doc)
    final = result.history[-1].loss if result.history else float("nan")
    print(f"trained predictor for {train_config.epochs} epochs, final loss "
          f"{final:.4f}; checkpoints at {out}")
    return 0


def _cmd_eval(args) -> int:
    model = _load_checkpoint(args.model, PredictorModel)
    test_set = datagen.load_split(Path(args.data) / "test")
    horizons = _parse_int_list(args.horizons, "--horizons")
    report = evaluate(model, test_set, horizons)
    out = _out_dir(args)
    (out / "report.csv").write_text(report.to_csv())
    (out / "report.txt").write_text(report.summary())
    (out / "flops.csv").write_text(report.flops.to_csv())
    _write_run_info(out, "eval", None,
                    {"model": str(args.model), "horizons": list(horizons)})
    print(report.summary(), end="")
    return 0


def _cmd_flops(args) -> int:
    model = _load_checkpoint(args.model, PredictorModel)
    if args.exits is None:
        exits = (model.params.config.n_blocks,) * len(BRANCH_KINDS)
    else:
        exits = _parse_int_list(args.exits, "--exits")
    report = count_flops(model.params, exits)
    out = _out_dir(args)
    (out / "flops.csv").write_text(report.to_csv())
    _write_run_info(out, "flops", None,
                    {"model": str(args.model), "exits": list(exits)})
    print(report.to_csv(), end="")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-cag": _cmd_train_cag,
    "synth": _cmd_synth,
    "train-predictor": _cmd_train_predictor,
    "eval": _cmd_eval,
    "flops": _cmd_flops,
}


def dispatch(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # runtime/numeric failures map to exit 2
        print(f"moticomp {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
