"""Flat key=value run configuration shared by all CLI commands.

One file holds model, training, and dataset settings so sweeps can override
single keys textually.  Each key belongs to the dataclass that declares it:

- ``ModelConfig`` (``RunConfig.model``): s_points, f_points, regions,
  patterns, pattern_points, image_feat, region_feat, image_size,
  image_channels, sampling_mode, pattern_extent, conv_channels, no_local,
  no_patterns, no_shift;
- ``TrainConfig`` (``RunConfig.train``): alpha, lr, batch_size, lr_decay,
  decay_every_epochs, epochs, seed, threads, checkpoint_every, no_l_region,
  no_l_shape;
- ``DatasetSplit`` (``RunConfig.split``): seen_classes, unseen_classes,
  train_per_class, test_per_class, master_seed;
- ``RunConfig`` itself: model_seed, dataset_dir, out_dir, eval_points.

No key is declared twice: ``no_local`` belongs to the model, and the
objective reads it from there.  Every setting arrives as text: lines follow
``parse_config_lines`` (a key at most once per source), and
``RunConfig.apply`` parses and checks every value, whether it comes from a
file, ``--set``, a command-line flag, ``PATMOD_THREADS`` or a sweep value.
Unknown keys are rejected, and resolving a config runs every dataclass's
checks, then ``RunConfig``'s check of flags that span parts, so a command
validates the whole configuration before it writes anything.  Every command except ``eval`` (whose model comes from the
checkpoint) echoes its resolved configuration next to its outputs for exact
replay; ``reconstruct`` and ``interpolate`` echo the checkpoint's model
config in place of the configured one.  The echo holds parsed values, so
``seen_classes=table,,chair`` is written as ``table,chair``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .data import DatasetSplit, read_text
from .errors import ConfigError
from .model import ModelConfig, parse_config_lines, parse_value, to_flat
from .training import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: DatasetSplit = field(default_factory=DatasetSplit)
    model_seed: int = 0
    dataset_dir: str = "dataset"
    out_dir: str = "run"
    eval_points: int = 0  # 0 = match prediction/ground-truth cardinality

    def __post_init__(self):
        for name in ("eval_points", "model_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("dataset_dir", "out_dir"):
            if not getattr(self, name):  # Path("") is the working directory
                raise ConfigError(f"{name} must not be empty")
        if self.model.no_local and (self.train.no_l_region or self.train.no_l_shape):
            raise ConfigError("no_local drops the region pipeline; other ablation flags conflict")

    def to_text(self) -> str:
        lines = ["# resolved run configuration"]
        lines += [f"{k}={v}" for k, v in sorted(to_flat(self).items())]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_text())

    def apply(self, overrides: dict[str, str]) -> "RunConfig":
        """Return a copy with keys set from strings, rejecting unknown names
        and bad values.

        Each value is parsed to the type of its field's default and set on
        the one dataclass that declares the key; each dataclass is then
        rebuilt once, so its checks run on the combined result.
        """
        parts = {"model": self.model, "train": self.train, "split": self.split, "": self}
        # every key has a plain default; the three nested parts have factories
        owner = {f.name: (name, f.default) for name, p in parts.items() for f in fields(p) if f.default is not MISSING}
        changes = {name: {} for name in parts}
        for key, raw in overrides.items():
            if key not in owner:
                raise ConfigError(f"unknown config key {key!r}")
            name, like = owner[key]
            changes[name][key] = parse_value(key, raw, like)
        own = changes.pop("")
        return replace(self, **own, **{name: replace(parts[name], **c) for name, c in changes.items()})


def load_run_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults, then the file's keys, then ``overrides``, resolved in one pass."""
    flat = parse_config_lines(read_text(path, ConfigError).splitlines(), path) if path is not None else {}
    return RunConfig().apply({**flat, **(overrides or {})})
