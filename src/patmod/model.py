"""The learned pipeline: image encoder, shape decoder, pattern learners,
pattern modularizer, and modularization customizer.

The forward pass maps an image to a reconstruction in six stages: predict an
initial cloud, split it into voxel regions, encode each centered region,
decode every pattern against the region feature (modularization), translate
back to the object frame, then shift each point with an image-conditioned
residual (customization).  A region of k real points keeps the first k of its
N*P decoded rows (padded-index removal), so only those k rows are computed.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import DTensor, Parameter
from .errors import ConfigError, ContractError, DomainError, NumericalAbort

CHECKPOINT_MAGIC = b"PMOD"
CHECKPOINT_VERSION = 1

_CONV_STRIDES = (2, 1, 2, 1, 2, 1, 2)
_CONV_KERNEL = 3
_CONV_PAD = 1


@dataclass
class ModelConfig:
    """Hyperparameters of the reconstruction pipeline (defaults = paper scale)."""

    s_points: int = 2048  # initial prediction size
    f_points: int = 2048  # final reconstruction size
    regions: int = 8
    patterns: int = 8
    pattern_points: int = 256
    image_feat: int = 1024
    region_feat: int = 64
    image_size: int = 64
    image_channels: int = 1
    sampling_mode: str = "voxel"
    pattern_extent: float = 0.5
    conv_channels: tuple[int, ...] = (16, 32, 32, 64, 64, 128, 128)
    no_local: bool = False
    no_patterns: bool = False
    no_shift: bool = False

    def __post_init__(self):
        names = ("patterns", "pattern_points", "regions", "s_points", "image_feat", "region_feat", "image_size",
                 "image_channels")
        sizes = {name: getattr(self, name) for name in names}
        sizes.update((f"conv_channels[{i}]", c) for i, c in enumerate(self.conv_channels))
        for name, size in sizes.items():
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        if self.s_points != self.f_points:
            raise ConfigError(f"initial and final point counts must match: {self.s_points} != {self.f_points}")
        edge = round(self.regions ** (1.0 / 3.0))
        if edge**3 != self.regions:
            raise ConfigError(f"region count must be a perfect cube, got {self.regions}")
        if not 0 < self.pattern_extent < math.inf:
            raise ConfigError(f"pattern_extent must be finite and > 0, got {self.pattern_extent}")
        if self.sampling_mode not in ("voxel", "plane"):
            raise ConfigError(f"sampling_mode must be voxel or plane, got {self.sampling_mode!r}")
        if len(self.conv_channels) != 7:
            raise ConfigError("image encoder uses exactly 7 conv layers")
        if self.no_local and (self.no_patterns or self.no_shift):
            raise ConfigError("no_local removes the entire local pipeline; other ablations conflict")
        if not (self.no_local or self.no_patterns):  # the model builds a pattern lattice
            try:
                geo.grid_lattice(self.pattern_points, self.pattern_extent, self.sampling_mode)
            except DomainError as exc:
                raise ConfigError(f"pattern lattice: {exc}") from None

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """The input image shape (C, H, W)."""
        return (self.image_channels, self.image_size, self.image_size)

    @property
    def region_capacity(self) -> int:
        # capacity == patterns * pattern_points keeps the padded-index removal
        # rule a one-to-one row correspondence
        return self.patterns * self.pattern_points

    @classmethod
    def from_flat(cls, flat: dict[str, str]) -> "ModelConfig":
        """Parse a complete flat block: every field once, no other key."""
        names = {f.name for f in fields(cls)}
        missing, unknown = sorted(names - flat.keys()), sorted(flat.keys() - names)
        if missing or unknown:
            raise ConfigError(f"model config: missing keys {missing}, unknown keys {unknown}")
        return cls(**{f.name: parse_value(f.name, flat[f.name], f.default) for f in fields(cls)})


_TRUE_WORDS = ("1", "true", "yes")
_FALSE_WORDS = ("0", "false", "no")


def parse_value(key: str, raw: str, like):
    """Parse a config string to the type of ``like``: bool, int, float, str,
    or a comma-separated tuple of the type of ``like``'s items (empty string
    items are dropped).  Booleans accept only 1/0/true/false/yes/no in any
    case; a bad value raises ConfigError."""
    try:
        if isinstance(like, bool):
            word = raw.lower()
            if word not in _TRUE_WORDS + _FALSE_WORDS:
                raise ValueError
            return word in _TRUE_WORDS
        if isinstance(like, int):
            return int(raw)
        if isinstance(like, float):
            return float(raw)
        if isinstance(like, tuple):
            item = type(like[0])
            return tuple(item(x) for x in raw.split(",") if x or item is not str)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def to_flat(config) -> dict[str, str]:
    """Format a config dataclass as key -> string in the forms parse_value
    reads back: tuples comma-joined, nested dataclasses inlined."""
    out = {}
    for f in fields(config):
        v = getattr(config, f.name)
        if is_dataclass(v):
            out.update(to_flat(v))
        else:
            out[f.name] = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return out


def parse_config_lines(lines, source) -> dict[str, str]:
    """Read key=value lines of one source; line n's place is ``source:n``.

    Key and value are stripped of surrounding blanks; blank and '#' lines
    are ignored.  A line without '=' or a key set twice raises ConfigError
    naming the place (both places for a repeat)."""
    out, where = {}, {}
    for place, line in ((f"{source}:{n}", line.strip()) for n, line in enumerate(lines, 1)):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{place}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ConfigError(f"{place}: {key!r} is already set at {where[key]}")
        out[key], where[key] = value, place
    return out


MINI_CONFIG = dict(
    s_points=32,
    f_points=32,
    regions=8,
    patterns=2,
    pattern_points=8,
    image_feat=16,
    region_feat=8,
    image_size=8,
    conv_channels=(4, 4, 8, 8, 8, 8, 8),
)


@dataclass
class ForwardTrace:
    """Everything a loss or a visualization needs from one forward pass.

    Each stage is stored once: the clouds are the tensors' values, and the
    per-region lists are views cut from the stacked rows when read."""

    f_i: np.ndarray  # (1, H)
    # the losses' handles; tapeless passes hold constants.  f_tensor stacks
    # each region's kept rows, region-major, in split order
    s_tensor: DTensor  # (S, 3) initial prediction
    f_tensor: DTensor  # final reconstruction
    # the region split: M counts, rows into s_cloud region-major, the box
    split: geo.RegionSplit | None = None
    patterns: list[np.ndarray] | None = None  # N x (P, 3)
    f_r: np.ndarray | None = None  # (M, E)
    modularized: np.ndarray | None = None  # R', stacked like f_tensor, object frame
    # a batch pass: one trace per member.  The batch trace itself stacks the
    # members along every axis above (B rows of f_i, B*S rows of s_cloud,
    # the split of all B*M regions, the members' final clouds)
    members: list["ForwardTrace"] | None = None

    @property
    def s_cloud(self) -> np.ndarray:
        return self.s_tensor.data

    @property
    def f_cloud(self) -> np.ndarray:
        return self.f_tensor.data

    @property
    def r_prime(self) -> list[np.ndarray] | None:  # M x (k_m, 3), object frame
        return self._per_region(self.modularized)

    @property
    def shifts(self) -> list[np.ndarray] | None:  # M x (k_m, 3): U - R', exact by construction
        return self._per_region(None if self.modularized is None else self.f_cloud - self.modularized)

    @property
    def u(self) -> list[np.ndarray] | None:  # M x (k_m, 3)
        return self._per_region(self.f_cloud)

    def _per_region(self, stacked: np.ndarray | None) -> list[np.ndarray] | None:
        """Cut ``stacked`` into one block per region by ``split.counts``."""
        if self.split is None or stacked is None:
            return None
        return np.split(stacked, np.cumsum(self.split.counts)[:-1])


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def learner_offsets(n: int) -> np.ndarray:
    """Deterministic distinct starting translations, one per pattern learner."""
    pts = np.array([[_halton(i + 1, b) for b in (2, 3, 5)] for i in range(n)])
    return (pts - 0.5) * 0.5  # inside [-0.25, 0.25]^3


class _ParamSpec(NamedTuple):
    name: str
    shape: tuple[int, ...]
    init: str  # "zeros", "normal" (std ``scale``) or "uniform" (on [-scale, scale])
    scale: float = 0.0


def _param_layout(c: ModelConfig, flat_dim: int) -> list[_ParamSpec]:
    """Every parameter's name, shape and initial distribution, in registry
    (= checkpoint = RNG draw) order."""
    specs = []
    k = _CONV_KERNEL
    c_in = c.image_channels
    for i, c_out in enumerate(c.conv_channels):
        std = np.sqrt(2.0 / (c_in * k * k))
        specs.append(_ParamSpec(f"encoder.conv{i + 1}.weight", (c_out, c_in, k, k), "normal", std))
        specs.append(_ParamSpec(f"encoder.conv{i + 1}.bias", (c_out, 1), "zeros"))
        c_in = c_out

    def fc(prefix: str, fan_in: int, fan_out: int, split: int | None = None) -> None:
        """Glorot-uniform weight and zero bias; ``split`` stores the weight's
        first rows as ``.weight_points`` and the rest as ``.weight_feature``.
        The generator draws a matrix's entries in row-major order, so the two
        consecutive draws of a split weight equal one draw of the whole."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        if split is None:
            specs.append(_ParamSpec(f"{prefix}.weight", (fan_in, fan_out), "uniform", limit))
        else:
            specs.append(_ParamSpec(f"{prefix}.weight_points", (split, fan_out), "uniform", limit))
            specs.append(_ParamSpec(f"{prefix}.weight_feature", (fan_in - split, fan_out), "uniform", limit))
        specs.append(_ParamSpec(f"{prefix}.bias", (1, fan_out), "zeros"))

    fc("encoder.fc1", flat_dim, c.image_feat)
    fc("encoder.fc2", c.image_feat, c.image_feat)
    fc("decoder.fc", c.image_feat, 3 * c.s_points)
    # the learners, the region encoder, one modularizer per pattern
    if not (c.no_local or c.no_patterns):
        for n in range(c.patterns):
            fc(f"learner{n}.fc1", 3, 64)
            fc(f"learner{n}.fc2", 64, 256)
            fc(f"learner{n}.fc3", 256, 3)
        fc("region_encoder.fc", 3, c.region_feat)
        for n in range(c.patterns):
            fc(f"modularizer{n}.fc1", 3 + c.region_feat, 512, split=3)
            fc(f"modularizer{n}.fc2", 512, 256)
            fc(f"modularizer{n}.fc3", 256, 128)
            fc(f"modularizer{n}.fc4", 128, 3)
    if not c.no_local:
        fc("customizer.fc1", 3 + c.image_feat, 512, split=3)
        fc("customizer.fc2", 512, 128)
        fc("customizer.fc3", 128, 3)
    return specs


class PatternModel:
    """Holds all parameters and runs the reconstruction pipeline.  ``params``
    registers each parameter once by name, in initialization (= checkpoint) order."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)

        def draw(spec: _ParamSpec) -> np.ndarray:
            if spec.init == "normal":
                return rng.normal(0.0, spec.scale, size=spec.shape)
            if spec.init == "uniform":
                return rng.uniform(-spec.scale, spec.scale, size=spec.shape)
            return np.zeros(spec.shape)

        self._build(config, draw)

    @classmethod
    def _uninitialised(cls, config: ModelConfig) -> "PatternModel":
        """The model with every parameter allocated but not written: for a
        caller that overwrites each one, as ``load_checkpoint`` does."""
        model = cls.__new__(cls)
        model._build(config, lambda spec: np.empty(spec.shape))
        return model

    def _build(self, config: ModelConfig, fill) -> None:
        """Set up the model; ``fill(spec)`` gives each parameter's values, in
        the order of ``_param_layout``."""
        self.config = c = config
        self.params: dict[str, Parameter] = {}
        side = c.image_size
        for s in _CONV_STRIDES:
            side = (side + 2 * _CONV_PAD - _CONV_KERNEL) // s + 1
        self._flat_dim = c.conv_channels[-1] * side * side
        # learner MLPs run over a shared lattice, each from its own offset
        self.lattice = self.offsets = None
        if not (c.no_local or c.no_patterns):
            self.lattice = geo.grid_lattice(c.pattern_points, c.pattern_extent, c.sampling_mode)
            self.offsets = learner_offsets(c.patterns)
        for spec in _param_layout(c, self._flat_dim):
            self._register(spec.name, fill(spec))

    # ------------------------------------------------------------------
    # parameter bookkeeping

    def _register(self, name: str, values: np.ndarray) -> None:
        if name in self.params:
            raise ContractError(f"parameter {name!r} registered twice")
        self.params[name] = Parameter(name, values)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def param_count(self) -> dict[str, int]:
        """Exact trainable scalar counts per component plus the total."""
        counts: dict[str, int] = {}
        for p in self.parameters():
            component = p.name.split(".")[0]
            for digit in "0123456789":
                component = component.rstrip(digit)
            key = {"learner": "learners", "modularizer": "modularizers"}.get(component, component)
            counts[key] = counts.get(key, 0) + p.data.size
        counts["total"] = sum(v for k, v in counts.items() if k != "total")
        return counts

    # ------------------------------------------------------------------
    # sub-networks; each takes/returns DTensors so it records on the caller's tape

    def _watch_all(self, tape: ad.Tape | None) -> dict[str, DTensor]:
        if tape is None:
            return {name: p.tensor for name, p in self.params.items()}
        return {name: tape.watch(p) for name, p in self.params.items()}

    @np.errstate(over="ignore", invalid="ignore")  # _pipeline checks the image feature
    def encode_image(self, image: np.ndarray, pt: dict[str, DTensor]) -> DTensor:
        """Image feature of one image (C, H, W) -> (1, H_f), or of a batch
        (B, C, H, W) -> (B, H_f): the stack runs through the conv layers and
        the dense layers as one batch."""
        want = self.config.image_shape
        images = image[None] if image.ndim == 3 else image
        if images.ndim != 4 or images.shape[1:] != want or not len(images):
            raise ContractError(f"image shape {image.shape} does not match configured {want}")
        x = ad.constant(images)
        for i, stride in enumerate(_CONV_STRIDES):
            x = ad.conv2d(x, pt[f"encoder.conv{i + 1}.weight"], pt[f"encoder.conv{i + 1}.bias"], stride, _CONV_PAD)
        h = _linear(ad.reshape(x, (len(images), self._flat_dim)), pt, "encoder.fc1", "relu")
        return _linear(h, pt, "encoder.fc2")

    def decode_shape(self, f_i: DTensor, pt: dict[str, DTensor]) -> DTensor:
        """(B, H_f) -> (B*S, 3): member b's initial prediction is rows b*S..(b+1)*S."""
        coords = _linear(f_i, pt, "decoder.fc", "tanh")
        return ad.reshape(coords, (f_i.shape[0] * self.config.s_points, 3))

    def compute_patterns(self, pt: dict[str, DTensor]) -> list[DTensor]:
        outs = []
        for n in range(self.config.patterns):
            x = ad.constant(self.lattice + self.offsets[n])
            h = _linear(x, pt, f"learner{n}.fc1", "relu")
            h = _linear(h, pt, f"learner{n}.fc2", "relu")
            outs.append(_linear(h, pt, f"learner{n}.fc3", "tanh"))
        return outs

    def encode_region(self, centered: DTensor, pt: dict[str, DTensor], block_index, n_blocks: int) -> DTensor:
        """Pointwise FC + ReLU, then a max-pool over each region's rows -> n_blocks x E;
        row r belongs to region block_index[r], and a region without rows reads zero."""
        h = _linear(centered, pt, "region_encoder.fc", "relu")
        return ad.max_over_blocks(h, block_index, n_blocks)

    def modularize_stacked(
        self, f_r_all: DTensor, patterns: list[DTensor], pt: dict[str, DTensor], rows: np.ndarray
    ) -> DTensor:
        """Decode the first rows[m] rows of every region m against its feature
        f_r_all[m]; returns them stacked region-major in the local frame.

        Region m's rows are its N pattern blocks of P rows in pattern order,
        so pattern n supplies the first clip(rows[m] - n*P, 0, P) of them.
        A pattern that no region reaches is not decoded.
        """
        p_rows = self.config.pattern_points
        take = np.clip(rows[None, :] - p_rows * np.arange(len(patterns))[:, None], 0, p_rows)
        regions = np.arange(f_r_all.shape[0])
        outs, owners = [], []
        for n, pattern in enumerate(patterns):
            if not take[n].any():
                continue
            owner = np.repeat(regions, take[n])
            h = ad.linear_blockfeat(
                ad.gather_rows(pattern, np.concatenate([np.arange(t) for t in take[n]])),
                f_r_all,
                pt[f"modularizer{n}.fc1.weight_points"],
                pt[f"modularizer{n}.fc1.weight_feature"],
                pt[f"modularizer{n}.fc1.bias"],
                block_index=owner,
                activation="relu",
            )
            h = _linear(h, pt, f"modularizer{n}.fc2", "relu")
            h = _linear(h, pt, f"modularizer{n}.fc3", "relu")
            outs.append(_linear(h, pt, f"modularizer{n}.fc4", "tanh"))
            owners.append(owner)
        # pattern-major -> region-major; the stable sort keeps pattern order
        order = np.argsort(np.concatenate(owners), kind="stable")
        return ad.gather_rows(ad.concat(outs), order)

    def customize(self, r_prime_obj: DTensor, f_i: DTensor, pt: dict[str, DTensor], member: np.ndarray) -> DTensor:
        """Predict the per-point modularization shift from the image feature;
        row r reads the feature row of its batch member ``member[r]``."""
        h = ad.linear_blockfeat(
            r_prime_obj,
            f_i,
            pt["customizer.fc1.weight_points"],
            pt["customizer.fc1.weight_feature"],
            pt["customizer.fc1.bias"],
            block_index=member,
            activation="relu",
        )
        h = _linear(h, pt, "customizer.fc2", "relu")
        return _linear(h, pt, "customizer.fc3", "tanh")

    # ------------------------------------------------------------------
    # full pipeline

    def forward(
        self,
        image: np.ndarray,
        reference: np.ndarray | list[np.ndarray | None] | None = None,
        tape: ad.Tape | None = None,
    ) -> ForwardTrace:
        """Run the pipeline on one image (C, H, W) or on a batch (B, C, H, W).

        ``reference`` drives the region split when given (training mode): a
        cloud for an image, a list of B clouds for a batch.  Otherwise each
        initial prediction splits itself.  A batch runs as one pass; its
        trace stacks all members' regions and clouds and holds one trace per
        member in ``members``.  An image is the batch of one, and forward
        returns that member's trace.

        Each region is decoded for its real rows only: the padding rows that
        padded-index removal drops are never computed.
        """
        image = np.asarray(image, dtype=np.float64)
        single = image.ndim != 4
        if single:
            references = [reference]
        elif reference is None:
            references = [None] * len(image)
        else:
            references = list(reference)
            if len(references) != len(image):
                raise ContractError(f"a batch of {len(image)} images needs as many references, got {len(references)}")
        pt = self._watch_all(tape)
        batch = self._pipeline(self.encode_image(image, pt), references, pt)
        return batch.members[0] if single else batch

    def forward_from_code(self, code: np.ndarray) -> ForwardTrace:
        """Run the pipeline from an image feature directly (latent interpolation)."""
        pt = self._watch_all(None)
        return self._pipeline(ad.constant(code.reshape(1, -1)), [None], pt).members[0]

    @np.errstate(over="ignore", invalid="ignore")  # every stage output is checked
    def _pipeline(self, f_i: DTensor, references: list, pt: dict[str, DTensor]) -> ForwardTrace:
        """The stages after the image encoder, over the B members of ``f_i``.

        Regions are numbered member-major: member b owns blocks b*M..(b+1)*M
        of every block-indexed stage, so the members share one pass through
        the region encoder, the modularizers and the customizer.
        """
        c = self.config
        n_members, s_rows = f_i.shape[0], c.s_points
        _check_finite(f_i.data, "image feature")
        s_tensor = self.decode_shape(f_i, pt)
        _check_finite(s_tensor.data, "initial prediction")
        s_members = [_row_slice(s_tensor, b * s_rows, (b + 1) * s_rows) for b in range(n_members)]

        if c.no_local:  # the initial prediction is the reconstruction
            members = [ForwardTrace(f_i.data[b : b + 1], s, s) for b, s in enumerate(s_members)]
            return ForwardTrace(f_i.data, s_tensor, s_tensor, members=members)

        split_refs = [s.data if ref is None else ref for s, ref in zip(s_members, references)]
        split = geo.split_regions([s.data for s in s_members], split_refs, c.regions, c.region_capacity)
        kept = split.counts
        n_blocks = len(kept)

        patterns = None
        if not c.no_patterns:
            patterns = self.compute_patterns(pt)
            for p in patterns:
                _check_finite(p.data, "pattern")

        # every region's real rows at once, region-major; a block per region
        owner = np.repeat(np.arange(n_blocks), kept)
        real = ad.gather_rows(s_tensor, split.rows)
        f_r_all = None
        if c.no_patterns:
            stacked = real  # the customizer consumes the region points directly
        else:
            centers = ad.mean_over_blocks(real, owner, n_blocks)
            centered = ad.sub(real, ad.gather_rows(centers, owner))
            f_r_all = self.encode_region(centered, pt, owner, n_blocks)
            local = self.modularize_stacked(f_r_all, patterns, pt, kept)
            # back to the object frame
            stacked = ad.add(local, ad.gather_rows(centers, owner))
        _check_finite(stacked.data, "modularized region")

        if c.no_shift:
            f_tensor = stacked
        else:
            f_tensor = ad.add(stacked, self.customize(stacked, f_i, pt, owner // c.regions))
        _check_finite(f_tensor.data, "customized region")

        pattern_data = [p.data for p in patterns] if patterns else None
        f_r = None if f_r_all is None else f_r_all.data
        f_ends = np.r_[0, np.cumsum(kept.reshape(n_members, c.regions).sum(axis=1))]
        members = []
        for b, s in enumerate(s_members):
            blocks, rows = slice(b * c.regions, (b + 1) * c.regions), slice(f_ends[b], f_ends[b + 1])
            own_split = geo.RegionSplit(split.rows[rows] - b * s_rows, kept[blocks], split.boxes[b : b + 1])
            members.append(ForwardTrace(
                f_i.data[b : b + 1], s, _row_slice(f_tensor, f_ends[b], f_ends[b + 1]), split=own_split,
                patterns=pattern_data, f_r=None if f_r is None else f_r[blocks], modularized=stacked.data[rows],
            ))
        return ForwardTrace(f_i.data, s_tensor, f_tensor, split=split, patterns=pattern_data, f_r=f_r,
                            modularized=stacked.data, members=members)

    def reconstruct(self, image: np.ndarray) -> ForwardTrace:
        """Inference: the region split reads only the model's own prediction."""
        return self.forward(image, reference=None, tape=None)


def _row_slice(t: DTensor, lo: int, hi: int) -> DTensor:
    """Rows lo..hi of ``t``: ``t`` itself when that is all of it."""
    return t if (lo, hi) == (0, t.shape[0]) else ad.gather_rows(t, np.arange(lo, hi))


def _linear(x: DTensor, pt: dict[str, DTensor], prefix: str, activation: str | None = None) -> DTensor:
    return ad.linear(x, pt[f"{prefix}.weight"], pt[f"{prefix}.bias"], activation)


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalAbort(f"non-finite values in {stage}")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: PatternModel, extra_config: dict[str, str] | None = None) -> None:
    """Write magic, version, flat config block, then raw little-endian parameters.

    Each parameter's payload goes to the file straight from a byte view of
    its array (no copy for a contiguous little-endian array), so no
    whole-file buffer is built; the format is byte for byte that of every
    earlier writer.  The bytes go to ``<path>.tmp`` in the same directory,
    which then replaces ``path`` in one step, so a failed write leaves the
    previous file as it was; the temporary file is removed on failure.
    """
    flat = to_flat(model.config)
    if extra_config:
        flat.update(extra_config)
    config_blob = "\n".join(f"{k}={v}" for k, v in sorted(flat.items())).encode()
    params = model.parameters()
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(config_blob)) + config_blob)
            fh.write(struct.pack("<I", len(params)))
            for p in params:
                name = p.name.encode()
                shape = p.data.shape
                fh.write(struct.pack(f"<H{len(name)}sB{len(shape)}I", len(name), name, len(shape), *shape))
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[PatternModel, dict[str, str]]:
    """Rebuild the model from a checkpoint; returns it with the stored flat config.

    The config block must hold every ModelConfig key and no other key except
    ``train.*``; the file must hold every model parameter exactly once and
    end where the last parameter ends.  Anything else raises ContractError.

    The file is read record by record: each payload lands straight in its
    parameter's array, allocated uninitialised (every one is overwritten,
    since each name must appear exactly once), so loading holds one copy of
    the parameters and draws no random values.  The format is unchanged.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def claim(n: int) -> None:
            nonlocal offset
            if offset + n > size:
                raise ContractError(f"{path}: truncated checkpoint ({size} bytes, needs at least {offset + n})")
            offset += n

        def short_read(got: int) -> ContractError:
            """The file shrank after its size was taken."""
            return ContractError(f"{path}: truncated checkpoint ({got} bytes, needs at least {offset})")

        def take(n: int) -> bytes:
            claim(n)
            chunk = fh.read(n)
            if len(chunk) != n:
                raise short_read(offset - n + len(chunk))
            return chunk

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        def text(n: int) -> str:
            try:
                return take(n).decode()
            except UnicodeDecodeError:
                raise ContractError(f"{path}: corrupt checkpoint (undecodable text at byte {offset - n})") from None

        if size < 4 or take(4) != CHECKPOINT_MAGIC:
            raise ContractError(f"{path}: not a checkpoint (bad magic)")
        (version,) = unpack("<H")
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = unpack("<I")
        try:
            flat = parse_config_lines(text(cfg_len).splitlines(), "config block")
            config = ModelConfig.from_flat({k: v for k, v in flat.items() if not k.startswith("train.")})
        except ConfigError as exc:
            raise ContractError(f"{path}: {exc}") from None
        model = PatternModel._uninitialised(config)
        (n_params,) = unpack("<I")
        by_name = model.params
        if n_params != len(by_name):
            raise ContractError(f"{path}: checkpoint has {n_params} parameters, model has {len(by_name)}")
        seen = set()
        for _ in range(n_params):
            (name_len,) = unpack("<H")
            name = text(name_len)
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            claim(8 * math.prod(shape))
            if name not in by_name:
                raise ContractError(f"{path}: unknown parameter {name!r}")
            if name in seen:
                raise ContractError(f"{path}: parameter {name!r} is stored twice")
            seen.add(name)
            values = by_name[name].data
            if values.shape != tuple(shape):
                raise ContractError(
                    f"{path}: shape mismatch for {name!r}: checkpoint {tuple(shape)} vs model {values.shape}"
                )
            got = fh.readinto(values.reshape(-1).view(np.uint8))
            if got != values.nbytes:
                raise short_read(offset - values.nbytes + got)
            if sys.byteorder == "big":  # the payload is little-endian on every host
                values.byteswap(inplace=True)
        if offset != size:
            raise ContractError(f"{path}: {size - offset} trailing bytes after the last parameter")
    return model, flat
