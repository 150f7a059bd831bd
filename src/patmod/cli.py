"""Command-line entry point.

    patmod <gen-data|train|eval|reconstruct|sweep|interpolate> [--config PATH] [flags...]

Exit codes: 0 success, 2 config/contract error, 3 I/O error, 4 numerical abort.
``PATMOD_THREADS`` (an integer >= 1) is checked and recorded as
``threads``, which no longer changes the computation.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data
from .errors import ConfigError, ContractError, DomainError, NumericalAbort
from .model import ModelConfig, PatternModel, load_checkpoint
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
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--no-local", action="store_true")
    p.add_argument("--no-patterns", action="store_true")
    p.add_argument("--no-shift", action="store_true")
    p.add_argument("--no-l-region", action="store_true")
    p.add_argument("--no-l-shape", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "seen", "unseen"], default="seen")
    p.add_argument("--points", type=int, dest="eval_points", help="shorthand for --set eval_points=N")
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
    p.add_argument("--out", help="output directory (overrides out_dir)")
    p.add_argument("--dataset", help="dataset directory (overrides dataset_dir)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _resolve(args) -> RunConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = value
    if args.out:
        overrides["out_dir"] = args.out
    if args.dataset:
        overrides["dataset_dir"] = args.dataset
    env_threads = os.environ.get("PATMOD_THREADS")
    if env_threads:
        try:
            threads = int(env_threads)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ConfigError(f"PATMOD_THREADS must be an integer >= 1, got {env_threads!r}")
        overrides["threads"] = str(threads)
    for flag in ("no_local", "no_patterns", "no_shift", "no_l_region", "no_l_shape"):
        if getattr(args, flag, False):
            overrides[flag] = "true"
    for key in ("epochs", "seed", "batch_size", "eval_points"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    return load_run_config(args.config, overrides)


def _check_image(path, image: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Return ``image`` if its shape is the model's input shape; otherwise
    raise ContractError naming the file."""
    want = (config.image_channels, config.image_size, config.image_size)
    if image.shape != want:
        raise ContractError(f"{path}: image shape {image.shape} does not match the model's input {want}")
    return image


def _load_split(manifest: Path, split: str, config: ModelConfig) -> list[data.Sample]:
    """The split's samples, each image checked against the model's input."""
    samples = data.load_samples(manifest, split)
    paths = [manifest.parent / r["image_path"] for r in data.read_manifest(manifest) if r["split"] == split]
    for path, sample in zip(paths, samples):
        _check_image(path, sample.image, config)
    return samples


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
    samples = _load_split(manifest, "train", cfg.model)
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
    samples = _load_split(manifest, split_map[args.split], model.config)
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
    image = _check_image(args.image, data.read_pgm(args.image), model.config)
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
    dataset = {split: _load_split(manifest, split, cfg.model) for split in ("train", "test_seen", "test_unseen")}
    for name in ("seen", "unseen"):  # every value is evaluated on both test splits
        if not dataset[f"test_{name}"]:
            raise ConfigError(f"no samples in split {name!r}")
    values = [v for v in args.values.split(",") if v]
    out = _prepare_out(cfg.out_dir, args.force, [f"sweep_{args.parameter}.csv"])
    rows = sweep(args.parameter, values, cfg.model, cfg.train, dataset, cfg.model_seed)
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
    image_a = _check_image(args.image_a, data.read_pgm(args.image_a), model.config)
    image_b = _check_image(args.image_b, data.read_pgm(args.image_b), model.config)
    out = _prepare_out(cfg.out_dir, args.force, ["interp_0.000.xyz"])
    echo.write(out / "config_resolved.txt")
    for lam, cloud in interpolate_latent(model, image_a, image_b, args.steps):
        data.write_xyz(out / f"interp_{lam:.3f}.xyz", cloud)
    print(f"wrote {args.steps} interpolated reconstructions to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
