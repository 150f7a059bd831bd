"""Command-line entry point.

    patmod <gen-data|train|eval|reconstruct|sweep|interpolate> [--config PATH] [flags...]

Exit codes: 0 success, 2 config/contract/shape error, 3 I/O error, 4 numerical abort.
Settings come, each later source overriding the earlier ones, from the
``--config`` file, the ``--set`` items and the alias flags (``--epochs``,
``--out``, ``--no-shift``, ...).  ``main`` resolves them once and hands the
``RunConfig`` to the command; ``train``, ``eval`` and ``sweep`` read their
samples through ``_load_split``, and every command opens its output
directory through ``_prepare_out``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import data
from .errors import ConfigError, ContractError, DimensionError, DomainError, NumericalAbort
from .model import PatternModel, list_items, load_checkpoint, parse_config_lines
from .runconfig import RunConfig, load_run_config
from .training import (
    SWEEP_PARAMETERS,
    evaluate,
    interpolate_latent,
    sweep,
    sweep_configs,
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
SPLITS = {"train": "train", "seen": "test_seen", "unseen": "test_unseen"}  # CLI name -> manifest split


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except (ConfigError, ContractError, DimensionError) as exc:
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
    p.add_argument("--split", choices=list(SPLITS), default="seen")
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
    """Defaults < config file < ``--set`` items < alias flags.

    Every value is text that ``RunConfig.apply`` parses and checks; a flag
    that was given wins whatever its value, ``--seed 0`` included.  Nothing
    is read from the environment."""
    sets = parse_config_lines(args.set, "--set")
    flags = {dest[len(ALIAS):]: v for dest, v in vars(args).items() if dest.startswith(ALIAS) and v is not None}
    return load_run_config(args.config, {**sets, **flags})


def _load_split(cfg: RunConfig, split: str, image_shape) -> list[data.Sample]:
    """The samples of ``split`` (``train``, ``seen`` or ``unseen``) in the
    dataset at ``cfg.dataset_dir``, each image checked against ``image_shape``."""
    manifest = Path(cfg.dataset_dir) / "manifest.jsonl"
    if not manifest.exists():
        raise OSError(f"{manifest}: dataset not found; run gen-data first")
    samples = data.load_samples(manifest, SPLITS[split], image_shape)
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    return samples


def _prepare_out(path, force: bool, expected: list[str]) -> Path:
    """Create the output directory ``path``; refuse a path that is not a
    directory, and one holding any of ``expected`` unless ``force``."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise OSError(f"{out}: not a directory")
    clashes = [name for name in expected if (out / name).exists()]
    if clashes and not force:
        raise OSError(f"{out}: outputs {clashes} exist; rerun with --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args, cfg: RunConfig) -> int:
    dataset = data.make_dataset(cfg.split, cfg.model.image_size)
    root = _prepare_out(cfg.dataset_dir, args.force, ["manifest.jsonl"])
    data.write_samples(root, dataset)
    cfg.write(root / "config_resolved.txt")
    counts = {name: len(samples) for name, samples in dataset.items() if samples}
    print(
        f"generated {sum(counts.values())} samples "
        f"({len(cfg.split.seen_classes)} seen + {len(cfg.split.unseen_classes)} unseen classes): "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    samples = _load_split(cfg, "train", cfg.model.image_shape)
    model = PatternModel(cfg.model, seed=cfg.model_seed)
    out = _prepare_out(cfg.out_dir, args.force, ["checkpoint.pmod", "metrics.csv"])
    cfg.write(out / "config_resolved.txt")
    records, _ = train(samples, model, cfg.train, out_dir=out)
    write_metrics_csv(out / "metrics.csv", records)
    print(f"trained {cfg.train.epochs} epochs on {len(samples)} samples -> {out / 'checkpoint.pmod'}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    samples = _load_split(cfg, args.split, model.config.image_shape)
    csv_name = f"eval_{args.split}.csv"
    out = _prepare_out(cfg.out_dir, args.force, [csv_name])
    records = evaluate(model, samples, args.split, eval_points=cfg.eval_points or None)
    csv_path = out / csv_name
    write_metrics_csv(csv_path, records)
    for rec in records:
        print(f"{rec.split}/{rec.class_label}: cd={rec.cd_eval:.6f} iou={rec.iou:.4f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_reconstruct(args, cfg: RunConfig) -> int:
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


def cmd_sweep(args, cfg: RunConfig) -> int:
    # every value trains, then is evaluated on both test splits
    dataset = {SPLITS[split]: _load_split(cfg, split, cfg.model.image_shape) for split in SPLITS}
    values = [v for v in list_items(args.values) if v]
    values = [v for v, _ in sweep_configs(args.parameter, values, cfg)]  # warns once per value that fails
    if not values:
        raise ConfigError(f"no valid values for sweep parameter {args.parameter!r}")
    out = _prepare_out(cfg.out_dir, args.force, [f"sweep_{args.parameter}.csv"])
    cfg.write(out / "config_resolved.txt")
    rows = sweep(args.parameter, values, cfg, dataset)
    csv_path = out / f"sweep_{args.parameter}.csv"
    write_sweep_csv(csv_path, rows)
    for r in rows:
        print(f"{args.parameter}={r['value']}: cd_seen={r['cd_seen']:.6f} cd_unseen={r['cd_unseen']:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_interpolate(args, cfg: RunConfig) -> int:
    # interp_{lam:.3f}.xyz tells 1001 evenly spaced lambdas apart, not 1002
    if not 2 <= args.steps <= 1001:
        raise ConfigError(f"--steps must be in [2, 1001] (files are named by lambda to 3 decimals), got {args.steps}")
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
