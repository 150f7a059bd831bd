"""Flat key=value run configuration shared by all CLI commands.

One file holds model, training, and dataset settings so sweeps can override
single keys textually.  Unknown keys are rejected; every run echoes its fully
resolved configuration next to its outputs for exact replay.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import DEFAULT_SEEN, DEFAULT_UNSEEN, DatasetSplit
from .errors import ConfigError
from .model import ModelConfig, parse_value
from .training import TrainConfig


@dataclass
class RunConfig:
    # model
    s_points: int = 2048
    f_points: int = 2048
    regions: int = 8
    patterns: int = 8
    pattern_points: int = 256
    image_feat: int = 1024
    region_feat: int = 64
    image_size: int = 64
    image_channels: int = 1
    sampling_mode: str = "voxel"
    pattern_extent: float = 0.5
    conv_channels: str = "16,32,32,64,64,128,128"
    model_seed: int = 0
    # training
    alpha: float = 0.1
    lr: float = 1e-4
    batch_size: int = 4
    lr_decay: float = 0.95
    decay_every_epochs: int = 70
    epochs: int = 1
    seed: int = 0
    threads: int = 1
    checkpoint_every: int = 0
    no_local: bool = False
    no_patterns: bool = False
    no_shift: bool = False
    no_l_region: bool = False
    no_l_shape: bool = False
    # dataset
    seen_classes: str = ",".join(DEFAULT_SEEN)
    unseen_classes: str = ",".join(DEFAULT_UNSEEN)
    train_per_class: int = 8
    test_per_class: int = 2
    master_seed: int = 0
    # paths / evaluation
    dataset_dir: str = "dataset"
    out_dir: str = "run"
    eval_points: int = 0  # 0 = match prediction/ground-truth cardinality

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            s_points=self.s_points,
            f_points=self.f_points,
            regions=self.regions,
            patterns=self.patterns,
            pattern_points=self.pattern_points,
            image_feat=self.image_feat,
            region_feat=self.region_feat,
            image_size=self.image_size,
            image_channels=self.image_channels,
            sampling_mode=self.sampling_mode,
            pattern_extent=self.pattern_extent,
            conv_channels=tuple(int(x) for x in self.conv_channels.split(",")),
            no_local=self.no_local,
            no_patterns=self.no_patterns,
            no_shift=self.no_shift,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            alpha=self.alpha,
            lr=self.lr,
            batch_size=self.batch_size,
            lr_decay=self.lr_decay,
            decay_every_epochs=self.decay_every_epochs,
            epochs=self.epochs,
            seed=self.seed,
            threads=self.threads,
            checkpoint_every=self.checkpoint_every,
            no_local=self.no_local,
            no_patterns=self.no_patterns,
            no_shift=self.no_shift,
            no_l_region=self.no_l_region,
            no_l_shape=self.no_l_shape,
        )

    def dataset_split(self) -> DatasetSplit:
        return DatasetSplit(
            seen_classes=tuple(s for s in self.seen_classes.split(",") if s),
            unseen_classes=tuple(s for s in self.unseen_classes.split(",") if s),
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            master_seed=self.master_seed,
        )

    # ------------------------------------------------------------------

    def to_text(self) -> str:
        lines = ["# resolved run configuration"]
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_text())

    def apply(self, overrides: dict[str, str]) -> "RunConfig":
        """Set keys from strings, rejecting unknown names and bad values."""
        valid = {f.name: f for f in fields(self)}
        for key, raw in overrides.items():
            if key not in valid:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(self, key, parse_value(key, raw, getattr(self, key)))
        return self


def parse_config_file(path) -> dict[str, str]:
    """Read key=value lines; '#' lines and blanks are ignored."""
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_run_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        cfg.apply(parse_config_file(path))
    if overrides:
        cfg.apply(overrides)
    return cfg
