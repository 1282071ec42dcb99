"""Command-line entry point.

Subcommands: generate, train, eval, ablate, gamma-sweep, bench-attention.
Exit codes: 0 success, 2 configuration error, 3 numerical abort, 4 I/O error.
All artifacts are CSV/JSON; nothing is plotted.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import FULL_SCALE_REFERENCE, bench_attention
from .checkpoint import load_into, save_checkpoint
from .data import (DatasetError, DatasetIOError, SyntheticSpec, generate, load_dataset,
                   save_dataset)
from .decision import VOTE_STRATEGIES
from .fields import ConfigError, from_dict
from .metrics import save_metrics
from .model import MultimodalClassifier, RunConfig
from .tensor import NonFiniteError
from .train import TrainingDiverged, evaluate_metrics, train_model

GAMMA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

# Run-config overrides: flag -> (config section, or None for the top level,
# field, argparse options). Each subcommand registers only the flags it reads.
OVERRIDES = {
    "seed": (None, "seed", {"type": int}),
    "vote": ("decision", "vote", {"choices": VOTE_STRATEGIES}),
    "gamma": ("decision", "gamma", {"type": float}),
    "epochs": ("trainer", "epochs", {"type": int}),
}


def _fmt(v):
    return f"{v:.17g}"


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ConfigError([f"{what} {path} is not valid JSON: {exc}"])


def load_run(args, check=None, generate_data=True):
    """The command's config and the dataset it reads: the flags override the
    config file, and a dataset loaded with ``--data`` replaces the ``data``
    section with its spec. The config is then validated once, against that
    data, with ``check(args, cfg)``'s problems; only then, without
    ``--data``, is the dataset generated (unless ``generate_data`` is off)."""
    cfg = RunConfig.from_dict(_read_json(args.config, "config") if args.config else {})
    for flag, (section, name, _options) in OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(getattr(cfg, section) if section else cfg, name, value)
    dataset = load_dataset(args.data) if getattr(args, "data", None) else None
    if dataset is not None:
        cfg = replace(cfg, data=dataset.spec)
    problems = cfg.validate() or (check(args, cfg) if check else [])
    if problems:
        raise ConfigError(problems)
    if dataset is None and generate_data:
        dataset = generate(cfg.data)
    return cfg, dataset


def _write_loss_history(history, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss_T", "loss_H", "loss_I", "total"])
        for epoch, b in enumerate(history):
            writer.writerow([epoch, _fmt(b.loss_text), _fmt(b.loss_interaction),
                             _fmt(b.loss_image), _fmt(b.total)])


def _train_once(cfg, dataset, out_dir=None):
    model = MultimodalClassifier(cfg, vocab_size=len(dataset.vocab))
    history = train_model(model, dataset)
    report = evaluate_metrics(model, dataset.split("test"), len(dataset.vocab),
                              dataset.n_classes)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_loss_history(history, os.path.join(out_dir, "loss_history.csv"))
        save_checkpoint(model.named_parameters(), os.path.join(out_dir, "checkpoint"))
        save_metrics(report, out_dir)
        with open(os.path.join(out_dir, "run_config.json"), "w") as fh:
            json.dump(cfg.to_dict(), fh, indent=1)
    return model, history, report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    if args.spec:
        ds = generate(from_dict(SyntheticSpec(), _read_json(args.spec, "spec")))
    else:
        _cfg, ds = load_run(args)
    save_dataset(ds, args.out)
    print(f"dataset: {len(ds.samples)} samples, self-check {ds.self_check}")
    return 0


def cmd_train(args):
    cfg, dataset = load_run(args)
    _train_once(cfg, dataset, out_dir=args.out)
    print(f"artifacts written to {args.out}")
    return 0


def cmd_eval(args):
    cfg, dataset = load_run(args)
    model = MultimodalClassifier(cfg, vocab_size=len(dataset.vocab))
    load_into(model, args.checkpoint)
    report = evaluate_metrics(model, dataset.split("test"), len(dataset.vocab),
                              dataset.n_classes)
    os.makedirs(args.out, exist_ok=True)
    save_metrics(report, args.out)
    print(f"accuracy {report.accuracy:.4f}, macro F1 {report.macro_f1:.4f}")
    return 0


def _run_grid(variants, dataset, out_dir, csv_name, fieldnames):
    """Train every (row, config, run directory) variant and write one CSV row
    each with its accuracy and macro F1. A variant that raises keeps its
    message in the row's ``error`` column and the remaining variants still run."""
    rows = []
    for row, cfg, run_dir in variants:
        row.update(accuracy="", macro_F1="", error="")
        try:
            _model, _hist, report = _train_once(cfg, dataset, out_dir=run_dir)
            row["accuracy"] = _fmt(report.accuracy)
            row["macro_F1"] = _fmt(report.macro_f1)
        except Exception as exc:  # row-level isolation: remaining variants still run
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    with open(os.path.join(out_dir, csv_name), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    print(f"{csv_name} written with {len(rows)} rows")


def _grid_problems(args, cfg):
    """The problems of a grid command's config and grid. The grids vary the
    interaction path and the loss weight gamma, which only a multimodal
    model has, and ablate's MLF-off variants are the ones at gamma 0."""
    problems = []
    if cfg.modality != "multimodal":
        problems.append(f"{args.command} needs modality 'multimodal', got {cfg.modality!r}: "
                        "a unimodal model has no interaction path and ignores gamma")
    if args.command == "ablate" and cfg.decision.gamma == 0:
        problems.append(f"ablate needs decision.gamma > 0, got {cfg.decision.gamma}: its "
                        "MLF=0 variants set gamma to 0, so every MLF=1 row would repeat one")
    bad = [g for g in getattr(args, "grid", ()) if not 0.0 <= g <= 0.5]
    if bad:
        problems.append(f"gamma grid values outside [0, 0.5]: {bad}")
    return problems


def cmd_ablate(args):
    cfg, dataset = load_run(args, _grid_problems)
    os.makedirs(args.out, exist_ok=True)
    variants = []
    for ham, rm, mlf in itertools.product((True, False), repeat=3):
        sub = replace(cfg,
                      fusion=replace(cfg.fusion, use_hybrid_attention=ham,
                                     use_reg_channels=rm),
                      decision=replace(cfg.decision,
                                       gamma=cfg.decision.gamma if mlf else 0.0))
        tag = f"ham{int(ham)}_rm{int(rm)}_mlf{int(mlf)}"
        row = {"HAM": int(ham), "RM": int(rm), "MLF": int(mlf), "seed": cfg.seed}
        variants.append((row, sub, os.path.join(args.out, tag)))
    _run_grid(variants, dataset, args.out, "ablation.csv",
              ["HAM", "RM", "MLF", "accuracy", "macro_F1", "seed", "error"])
    return 0


def cmd_gamma_sweep(args):
    cfg, dataset = load_run(args, _grid_problems)
    os.makedirs(args.out, exist_ok=True)
    variants = [({"gamma": _fmt(gamma)},
                 replace(cfg, decision=replace(cfg.decision, gamma=gamma)), None)
                for gamma in args.grid]
    _run_grid(variants, dataset, args.out, "gamma_sweep.csv",
              ["gamma", "accuracy", "macro_F1", "error"])
    with open(os.path.join(args.out, "gamma_sweep_notes.json"), "w") as fh:
        json.dump({
            "full_scale_reference_optimum": 0.1,
            "note": "0.1 was the best setting in the full-scale study; toy-scale "
                    "sweeps carry no assertion about which value wins",
        }, fh, indent=1)
    return 0


def _bench_problems(args, cfg):
    """The problems of a bench-attention config. The bench times every fusion
    path over the data's text width plus its patches with the text encoder's
    heads, whatever the modality, so the config is checked as a multimodal
    one: the fusion path's attention budget then applies."""
    problems = replace(cfg, modality="multimodal").validate()
    if args.repeats < 10:
        problems.append(f"bench repeats must be >= 10, got {args.repeats}")
    return problems


def cmd_bench_attention(args):
    cfg, _ = load_run(args, _bench_problems, generate_data=False)
    rows = bench_attention(
        d=cfg.text_encoder.d_model, n_heads=cfg.text_encoder.n_heads,
        ffn_width=cfg.text_encoder.ffn_width, batch=cfg.trainer.batch_size,
        text_len=cfg.data.text_width, image_len=cfg.data.n_patches,
        repeats=args.repeats, seed=cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "bench.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["topology", "parameters",
                                                "median_ms", "p95_ms"])
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(args.out, "bench_reference.json"), "w") as fh:
        json.dump(FULL_SCALE_REFERENCE, fh, indent=1)
    for r in rows:
        print(f"{r['topology']:12s} params={r['parameters']:>8d} "
              f"median={r['median_ms']:.3f}ms p95={r['p95_ms']:.3f}ms")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_common(p, out_default, *flags):
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", default=out_default, help="output directory")
    for flag in flags:
        options = OVERRIDES[flag][2] if flag in OVERRIDES else \
            {"help": "dataset directory (default: generate from config)"}
        p.add_argument(f"--{flag}", default=None, **options)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmfusion",
        description="image+text fusion classifier: data generation, training, "
                    "evaluation, ablations, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = ("seed", "vote", "gamma", "data", "epochs")

    p = sub.add_parser("generate", help="create a synthetic dataset directory")
    _add_common(p, "dataset")
    p.add_argument("--spec", help="JSON file with synthetic dataset spec")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model and write artifacts")
    _add_common(p, "run", *run_flags)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p, "eval", "vote", "data")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the module on/off grid")
    _add_common(p, "ablation", *run_flags)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gamma-sweep", help="train across the gamma grid")
    _add_common(p, "gamma_sweep", "seed", "vote", "data", "epochs")
    p.add_argument("--grid", type=float, nargs="+", default=GAMMA_GRID)
    p.set_defaults(func=cmd_gamma_sweep)

    p = sub.add_parser("bench-attention", help="time the fusion topologies")
    _add_common(p, "bench", "seed")
    p.add_argument("--repeats", type=int, default=20)
    p.set_defaults(func=cmd_bench_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow and invalid values reach the user through the engine's
        # finiteness checks (exit 3), not as numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, NonFiniteError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:   # DatasetIOError and CheckpointError included
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
