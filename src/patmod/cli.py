"""Command-line entry point.

    patmod <gen-data|train|eval|reconstruct|sweep|interpolate> [--config PATH] [flags...]

Exit codes: 0 success, 2 config/contract error, 3 I/O error, 4 numerical abort.
Settings come, each later source overriding the earlier ones, from the
``--config`` file, the ``--set`` items, the alias flags (``--epochs``,
``--out``, ``--no-shift``, ...) and ``PATMOD_THREADS``, which sets
``threads``; ``threads`` is checked and recorded but has no effect on the
computation.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import data
from .errors import ConfigError, ContractError, DomainError, NumericalAbort
from .model import PatternModel, load_checkpoint, parse_config_lines
from .runconfig import RunConfig, load_run_config
from .training import (
    SWEEP_PARAMETERS,
    evaluate,
    interpolate_latent,
    sweep,
    train,
    write_metrics_csv,
    write_sweep_csv,
)

logger = logging.getLogger("patmod")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ALIAS = "alias:"  # argparse dest prefix of a flag that stands for --set KEY=VALUE


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except (OSError, DomainError) as exc:
        logger.error("%s", exc)
        return EXIT_IO
    except NumericalAbort as exc:
        logger.error("numerical abort: %s", exc)
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patmod", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    _common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    _common(p)
    for key in ("epochs", "seed", "batch_size", "no_local", "no_patterns", "no_shift", "no_l_region", "no_l_shape"):
        _alias(p, "--" + key.replace("_", "-"), key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "seen", "unseen"], default="seen")
    _alias(p, "--points", "eval_points")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct", help="reconstruct a point cloud from one image")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--dump-trace", action="store_true", help="also write S, the patterns, and R', U per nonempty region")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", help="train/evaluate a grid over one parameter")
    _common(p)
    p.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated value list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("interpolate", help="reconstruct along interpolated image codes")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image-a", required=True)
    p.add_argument("--image-b", required=True)
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(func=cmd_interpolate)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one key")
    _alias(p, "--out", "out_dir")
    _alias(p, "--dataset", "dataset_dir")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _alias(p: argparse.ArgumentParser, flag: str, key: str) -> None:
    """Declare ``flag`` as shorthand for ``--set key=VALUE``; a ``--no-*``
    flag takes no value and sets ``key=true``."""
    if flag.startswith("--no-"):
        p.add_argument(flag, dest=ALIAS + key, action="store_const", const="true", help=f"--set {key}=true")
    else:
        p.add_argument(flag, dest=ALIAS + key, metavar=key.upper(), help=f"--set {key}={key.upper()}")


def _resolve(args) -> RunConfig:
    """Defaults < config file < ``--set`` items < alias flags < ``PATMOD_THREADS``.

    Every value is text that ``RunConfig.apply`` parses and checks; a flag
    that was given wins whatever its value, ``--seed 0`` included."""
    sets = parse_config_lines(args.set, "--set")
    flags = {dest[len(ALIAS):]: v for dest, v in vars(args).items() if dest.startswith(ALIAS) and v is not None}
    cfg = load_run_config(args.config, {**sets, **flags})
    threads = os.environ.get("PATMOD_THREADS")
    if threads:
        try:
            cfg = cfg.apply({"threads": threads})
        except ConfigError as exc:
            raise ConfigError(f"PATMOD_THREADS: {exc}") from None
    return cfg


def _prepare_out(path, force: bool, expected: list[str]) -> Path:
    out = Path(path)
    if out.exists():
        clashes = [name for name in expected if (out / name).exists()]
        if clashes and not force:
            raise OSError(f"{out}: outputs {clashes} exist; rerun with --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    root = Path(cfg.dataset_dir)
    if (root / "manifest.jsonl").exists() and not args.force:
        raise OSError(f"{root}: manifest exists; rerun with --force to regenerate")
    manifest = data.write_dataset(root, cfg.split, cfg.model.image_size)
    cfg.write(root / "config_resolved.txt")
    records = data.read_manifest(manifest)
    counts = {}
    for rec in records:
        counts[rec["split"]] = counts.get(rec["split"], 0) + 1
    split = cfg.split
    print(
        f"generated {len(records)} samples "
        f"({len(split.seen_classes)} seen + {len(split.unseen_classes)} unseen classes): "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    manifest = Path(cfg.dataset_dir) / "manifest.jsonl"
    if not manifest.exists():
        raise OSError(f"{manifest}: dataset not found; run gen-data first")
    samples = data.load_samples(manifest, "train", cfg.model.image_shape)
    out = _prepare_out(cfg.out_dir, args.force, ["checkpoint.pmod", "metrics.csv"])
    cfg.write(out / "config_resolved.txt")
    model = PatternModel(cfg.model, seed=cfg.model_seed)
    records, _ = train(samples, model, cfg.train, out_dir=out)
    write_metrics_csv(out / "metrics.csv", records)
    print(f"trained {cfg.train.epochs} epochs on {len(samples)} samples -> {out / 'checkpoint.pmod'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    model, _ = load_checkpoint(args.checkpoint)
    split_map = {"train": "train", "seen": "test_seen", "unseen": "test_unseen"}
    manifest = Path(cfg.dataset_dir) / "manifest.jsonl"
    samples = data.load_samples(manifest, split_map[args.split], model.config.image_shape)
    if not samples:
        raise ConfigError(f"no samples in split {args.split!r}")
    csv_name = f"eval_{args.split}.csv"
    out = _prepare_out(cfg.out_dir, args.force, [csv_name])
    records = evaluate(model, samples, args.split, eval_points=cfg.eval_points or None)
    csv_path = out / csv_name
    write_metrics_csv(csv_path, records)
    for rec in records:
        print(f"{rec.split}/{rec.class_label}: cd={rec.cd_eval:.6f} iou={rec.iou:.4f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _resolve(args)
    model, _ = load_checkpoint(args.checkpoint)
    echo = replace(cfg, model=model.config)  # the echo describes the model that ran
    image = data.read_pgm(args.image, model.config.image_shape)
    out = _prepare_out(cfg.out_dir, args.force, ["reconstruction.xyz", "reconstruction.ply"])
    echo.write(out / "config_resolved.txt")
    trace = model.reconstruct(image)
    data.write_xyz(out / "reconstruction.xyz", trace.f_cloud)
    data.write_ply(out / "reconstruction.ply", trace.f_cloud)
    if args.dump_trace:
        data.write_xyz(out / "initial_prediction.xyz", trace.s_cloud)
        for n, pattern in enumerate(trace.patterns or []):
            data.write_xyz(out / f"pattern_{n}.xyz", pattern)
        for m, (r_prime, u) in enumerate(zip(trace.r_prime or [], trace.u or [])):
            if len(u):  # an empty region has no rows, and write_xyz refuses empty clouds
                data.write_xyz(out / f"modularized_region_{m}.xyz", r_prime)
                data.write_xyz(out / f"customized_region_{m}.xyz", u)
    print(f"reconstructed {trace.f_cloud.shape[0]} points -> {out / 'reconstruction.xyz'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    manifest = Path(cfg.dataset_dir) / "manifest.jsonl"
    dataset = {split: data.load_samples(manifest, split, cfg.model.image_shape)
               for split in ("train", "test_seen", "test_unseen")}
    for name in ("seen", "unseen"):  # every value is evaluated on both test splits
        if not dataset[f"test_{name}"]:
            raise ConfigError(f"no samples in split {name!r}")
    values = [v for v in args.values.split(",") if v]
    out = _prepare_out(cfg.out_dir, args.force, [f"sweep_{args.parameter}.csv"])
    rows = sweep(args.parameter, values, cfg, dataset)
    if not rows:
        raise ConfigError(f"no valid values for sweep parameter {args.parameter!r}")
    cfg.write(out / "config_resolved.txt")
    csv_path = out / f"sweep_{args.parameter}.csv"
    write_sweep_csv(csv_path, rows)
    for r in rows:
        print(f"{args.parameter}={r['value']}: cd_seen={r['cd_seen']:.6f} cd_unseen={r['cd_unseen']:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    cfg = _resolve(args)
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    model, _ = load_checkpoint(args.checkpoint)
    echo = replace(cfg, model=model.config)  # the echo describes the model that ran
    image_a = data.read_pgm(args.image_a, model.config.image_shape)
    image_b = data.read_pgm(args.image_b, model.config.image_shape)
    out = _prepare_out(cfg.out_dir, args.force, ["interp_0.000.xyz"])
    echo.write(out / "config_resolved.txt")
    for lam, cloud in interpolate_latent(model, image_a, image_b, args.steps):
        data.write_xyz(out / f"interp_{lam:.3f}.xyz", cloud)
    print(f"wrote {args.steps} interpolated reconstructions to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
