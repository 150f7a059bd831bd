"""The learned pipeline: image encoder, shape decoder, pattern learners,
pattern modularizer, and modularization customizer.

The forward pass maps an image to a reconstruction in six stages: predict an
initial cloud, split it into voxel regions, encode each centered region,
decode every pattern against the region feature (modularization), translate
back to the object frame, then shift each point with an image-conditioned
residual (customization).  A region of k real points keeps the first k of its
N*P decoded rows (padded-index removal), so only those k rows are computed;
``forward(..., full_trace=True)`` computes the padding rows too.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import DTensor, Parameter
from .errors import ConfigError, ContractError, NumericalAbort

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
        if self.s_points != self.f_points:
            raise ConfigError(f"initial and final point counts must match: {self.s_points} != {self.f_points}")
        edge = round(self.regions ** (1.0 / 3.0))
        if edge**3 != self.regions:
            raise ConfigError(f"region count must be a perfect cube, got {self.regions}")
        if self.sampling_mode not in ("voxel", "plane"):
            raise ConfigError(f"sampling_mode must be voxel or plane, got {self.sampling_mode!r}")
        if len(self.conv_channels) != 7:
            raise ConfigError("image encoder uses exactly 7 conv layers")
        if self.no_local and (self.no_patterns or self.no_shift):
            raise ConfigError("no_local removes the entire local pipeline; other ablations conflict")

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


def parse_config_text(text: str, source) -> dict[str, str]:
    """Read key=value lines; '#' lines and blanks are ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
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
    """Everything a loss or a visualization needs from one forward pass."""

    f_i: np.ndarray  # (1, H)
    s_cloud: np.ndarray  # (S, 3)
    region_set: geo.RegionSet | None
    patterns: list[np.ndarray] | None  # N x (P, 3)
    f_r: np.ndarray | None  # (M, E)
    # per region: the k_m kept rows, or all N*P rows with full_trace
    r_prime: list[np.ndarray] | None  # M x (k_m, 3), object frame
    shifts: list[np.ndarray] | None  # M x (k_m, 3)
    u: list[np.ndarray] | None  # M x (k_m, 3)
    f_cloud: np.ndarray  # final reconstruction
    # tape handles used by the losses (None on tapeless inference)
    s_tensor: DTensor | None = None
    kept_tensors: list[DTensor] | None = None
    f_tensor: DTensor | None = None


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


class PatternModel:
    """Holds all parameters and runs the reconstruction pipeline.  ``params``
    registers each parameter once by name, in initialization (= checkpoint) order."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        c = config

        k = _CONV_KERNEL
        c_in = c.image_channels
        for i, c_out in enumerate(c.conv_channels):
            std = np.sqrt(2.0 / (c_in * k * k))
            self._register(f"encoder.conv{i + 1}.weight", rng.normal(0.0, std, size=(c_out, c_in, k, k)))
            self._register(f"encoder.conv{i + 1}.bias", np.zeros((c_out, 1)))
            c_in = c_out
        side = c.image_size
        for s in _CONV_STRIDES:
            side = (side + 2 * _CONV_PAD - _CONV_KERNEL) // s + 1
        self._flat_dim = c.conv_channels[-1] * side * side
        self._fc(rng, "encoder.fc1", self._flat_dim, c.image_feat)
        self._fc(rng, "encoder.fc2", c.image_feat, c.image_feat)
        self._fc(rng, "decoder.fc", c.image_feat, 3 * c.s_points)

        # learner MLPs over a shared lattice, the region encoder, one modularizer per pattern
        self.lattice = self.offsets = None
        if not (c.no_local or c.no_patterns):
            self.lattice = geo.grid_lattice(c.pattern_points, c.pattern_extent, c.sampling_mode)
            self.offsets = learner_offsets(c.patterns)
            for n in range(c.patterns):
                self._fc(rng, f"learner{n}.fc1", 3, 64)
                self._fc(rng, f"learner{n}.fc2", 64, 256)
                self._fc(rng, f"learner{n}.fc3", 256, 3)
            self._fc(rng, "region_encoder.fc", 3, c.region_feat)
            for n in range(c.patterns):
                self._fc(rng, f"modularizer{n}.fc1", 3 + c.region_feat, 512, split=3)
                self._fc(rng, f"modularizer{n}.fc2", 512, 256)
                self._fc(rng, f"modularizer{n}.fc3", 256, 128)
                self._fc(rng, f"modularizer{n}.fc4", 128, 3)
        if not c.no_local:
            self._fc(rng, "customizer.fc1", 3 + c.image_feat, 512, split=3)
            self._fc(rng, "customizer.fc2", 512, 128)
            self._fc(rng, "customizer.fc3", 128, 3)

    # ------------------------------------------------------------------
    # parameter bookkeeping

    def _register(self, name: str, values: np.ndarray) -> None:
        if name in self.params:
            raise ContractError(f"parameter {name!r} registered twice")
        self.params[name] = Parameter(name, values)

    def _fc(self, rng: np.random.Generator, prefix: str, fan_in: int, fan_out: int, split: int | None = None) -> None:
        """Glorot-uniform weight and zero bias; ``split`` stores the weight's first
        rows as ``.weight_points`` and the rest as ``.weight_feature``."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        if split is None:
            self._register(f"{prefix}.weight", weight)
        else:
            self._register(f"{prefix}.weight_points", weight[:split].copy())
            self._register(f"{prefix}.weight_feature", weight[split:].copy())
        self._register(f"{prefix}.bias", np.zeros((1, fan_out)))

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

    def encode_image(self, image: np.ndarray, pt: dict[str, DTensor]) -> DTensor:
        c = self.config
        if image.shape != (c.image_channels, c.image_size, c.image_size):
            raise ContractError(
                f"image shape {image.shape} does not match configured "
                f"{(c.image_channels, c.image_size, c.image_size)}"
            )
        x = ad.constant(image)
        for i, stride in enumerate(_CONV_STRIDES):
            x = ad.conv2d(x, pt[f"encoder.conv{i + 1}.weight"], pt[f"encoder.conv{i + 1}.bias"], stride, _CONV_PAD)
        flat = ad.reshape(x, (1, self._flat_dim))
        h = _linear(flat, pt, "encoder.fc1", "relu")
        return _linear(h, pt, "encoder.fc2")

    def decode_shape(self, f_i: DTensor, pt: dict[str, DTensor]) -> DTensor:
        coords = _linear(f_i, pt, "decoder.fc", "tanh")
        return ad.reshape(coords, (self.config.s_points, 3))

    def compute_patterns(self, pt: dict[str, DTensor]) -> list[DTensor]:
        outs = []
        for n in range(self.config.patterns):
            x = ad.constant(self.lattice + self.offsets[n])
            h = _linear(x, pt, f"learner{n}.fc1", "relu")
            h = _linear(h, pt, f"learner{n}.fc2", "relu")
            outs.append(_linear(h, pt, f"learner{n}.fc3", "tanh"))
        return outs

    def encode_region(self, centered_points: DTensor, pt: dict[str, DTensor]) -> DTensor:
        """Pointwise FC + ReLU then max-pool over the (real) rows -> 1 x E."""
        h = _linear(centered_points, pt, "region_encoder.fc", "relu")
        return ad.max_over_columns(h)

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

    def customize(self, r_prime_obj: DTensor, f_i: DTensor, pt: dict[str, DTensor]) -> DTensor:
        """Predict the per-point modularization shift from the image feature."""
        row = ad.linear(f_i, pt["customizer.fc1.weight_feature"], pt["customizer.fc1.bias"])
        h = ad.linear(r_prime_obj, pt["customizer.fc1.weight_points"], row, activation="relu")
        h = _linear(h, pt, "customizer.fc2", "relu")
        return _linear(h, pt, "customizer.fc3", "tanh")

    # ------------------------------------------------------------------
    # full pipeline

    def forward(
        self,
        image: np.ndarray,
        reference: np.ndarray | None = None,
        tape: ad.Tape | None = None,
        full_trace: bool = False,
    ) -> ForwardTrace:
        """Run the pipeline; ``reference`` drives the region split when given
        (training mode), otherwise the initial prediction splits itself.

        Each region is decoded for its real rows only; ``full_trace`` decodes
        every region to full capacity instead, padding rows included, for
        diagnostics.  The kept rows are the same either way.
        """
        pt = self._watch_all(tape)
        f_i = self.encode_image(np.asarray(image, dtype=np.float64), pt)
        return self._pipeline_from_code(f_i, reference, pt, full_trace)

    def forward_from_code(self, code: np.ndarray, reference: np.ndarray | None = None) -> ForwardTrace:
        """Run the pipeline from an image feature directly (latent interpolation)."""
        pt = self._watch_all(None)
        return self._pipeline_from_code(ad.constant(code.reshape(1, -1)), reference, pt)

    def _pipeline_from_code(
        self, f_i: DTensor, reference: np.ndarray | None, pt: dict[str, DTensor], full_trace: bool = False
    ) -> ForwardTrace:
        c = self.config
        _check_finite(f_i.data, "image feature")
        s_tensor = self.decode_shape(f_i, pt)
        s_cloud = s_tensor.data
        _check_finite(s_cloud, "initial prediction")

        if c.no_local:
            return ForwardTrace(
                f_i=f_i.data, s_cloud=s_cloud, region_set=None, patterns=None,
                f_r=None, r_prime=None, shifts=None, u=None, f_cloud=s_cloud,
                s_tensor=s_tensor, kept_tensors=None, f_tensor=s_tensor,
            )

        split_ref = s_cloud if reference is None else geo.as_cloud(reference)
        region_set = geo.split_regions(s_cloud, split_ref, c.regions, c.region_capacity)
        if all(r.is_empty for r in region_set.regions):
            raise ContractError("degenerate initial prediction: every region is empty")

        patterns = None
        if not c.no_patterns:
            patterns = self.compute_patterns(pt)
            for p in patterns:
                _check_finite(p.data, "pattern")

        # rows computed per region: the real rows, or full capacity on request
        kept = np.array([r.real_count for r in region_set.regions])
        rows = np.full(c.regions, c.region_capacity) if full_trace else kept
        f_r_all = None
        if c.no_patterns:
            # customizer consumes the region points directly; padding rows
            # read the zero row appended after the cloud
            pad = s_cloud.shape[0]
            source = ad.concat([s_tensor, ad.constant(np.zeros((1, 3)))])
            index = np.concatenate(
                [np.r_[r.source_rows, np.full(n - r.real_count, pad)] for r, n in zip(region_set.regions, rows)]
            )
            stacked = ad.gather_rows(source, index)
        else:
            f_r_items, center_items = [], []
            for region in region_set.regions:
                if region.real_count:
                    real = ad.gather_rows(s_tensor, region.source_rows)
                    center = ad.mean_over_columns(real)
                    centered = ad.sub(real, center)
                    f_r = self.encode_region(centered, pt)
                else:
                    center = ad.constant(np.zeros((1, 3)))
                    f_r = ad.constant(np.zeros((1, c.region_feat)))
                f_r_items.append(f_r)
                center_items.append(center)
            f_r_all = ad.concat(f_r_items)
            local = self.modularize_stacked(f_r_all, patterns, pt, rows)
            centers = ad.gather_rows(ad.concat(center_items), np.repeat(np.arange(c.regions), rows))
            stacked = ad.add(local, centers)  # object frame
        _check_finite(stacked.data, "modularized region")

        if c.no_shift:
            u_stacked = stacked
        else:
            shifts_t = self.customize(stacked, f_i, pt)
            u_stacked = ad.add(stacked, shifts_t)
        _check_finite(u_stacked.data, "customized region")
        # realized residual: identical to the predicted shift up to the final
        # rounding of the addition, and exactly U - R' by construction
        shift_np = u_stacked.data - stacked.data

        # the final cloud: the first k_m rows of each region's block
        bounds = np.cumsum(rows)[:-1]
        keep = np.concatenate([np.arange(lo, lo + k) for lo, k in zip(np.r_[0, bounds], kept)])
        f_tensor = u_stacked if keep.size == u_stacked.shape[0] else ad.gather_rows(u_stacked, keep)
        kept_ends = np.cumsum(kept)
        kept_tensors = [
            ad.gather_rows(f_tensor, np.arange(hi - k, hi)) if k else None for hi, k in zip(kept_ends, kept)
        ]
        f_cloud = f_tensor.data
        _check_finite(f_cloud, "final reconstruction")

        return ForwardTrace(
            f_i=f_i.data,
            s_cloud=s_cloud,
            region_set=region_set,
            patterns=[p.data for p in patterns] if patterns else None,
            f_r=None if f_r_all is None else f_r_all.data,
            r_prime=np.split(stacked.data, bounds),
            shifts=np.split(shift_np, bounds),
            u=np.split(u_stacked.data, bounds),
            f_cloud=f_cloud,
            s_tensor=s_tensor,
            kept_tensors=kept_tensors,
            f_tensor=f_tensor,
        )

    def reconstruct(self, image: np.ndarray) -> ForwardTrace:
        """Inference: the region split reads only the model's own prediction."""
        return self.forward(image, reference=None, tape=None)


def _linear(x: DTensor, pt: dict[str, DTensor], prefix: str, activation: str | None = None) -> DTensor:
    return ad.linear(x, pt[f"{prefix}.weight"], pt[f"{prefix}.bias"], activation)


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalAbort(f"non-finite values in {stage}")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: PatternModel, extra_config: dict[str, str] | None = None) -> None:
    """Write magic, version, flat config block, then raw little-endian parameters.

    The bytes go to ``<path>.tmp`` in the same directory, which then replaces
    ``path`` in one step, so a failed write leaves the previous file as it
    was; the temporary file is removed on failure.
    """
    flat = to_flat(model.config)
    if extra_config:
        flat.update(extra_config)
    config_blob = "\n".join(f"{k}={v}" for k, v in sorted(flat.items())).encode()
    params = model.parameters()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(config_blob)))
    buf.write(config_blob)
    buf.write(struct.pack("<I", len(params)))
    for p in params:
        name = p.name.encode()
        buf.write(struct.pack("<H", len(name)))
        buf.write(name)
        buf.write(struct.pack("<B", p.data.ndim))
        for dim in p.data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[PatternModel, dict[str, str]]:
    """Rebuild the model from a checkpoint; returns it with the stored flat config.

    The config block must hold every ModelConfig key and no other key except
    ``train.*``; the file must hold every model parameter exactly once and
    end where the last parameter ends.  Anything else raises ContractError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise ContractError(f"{path}: truncated checkpoint ({len(view)} bytes, needs at least {offset + n})")
        offset += n
        return view[offset - n : offset]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def text(n: int) -> str:
        try:
            return bytes(take(n)).decode()
        except UnicodeDecodeError:
            raise ContractError(f"{path}: corrupt checkpoint (undecodable text at byte {offset - n})") from None

    if len(view) < 4 or bytes(take(4)) != CHECKPOINT_MAGIC:
        raise ContractError(f"{path}: not a checkpoint (bad magic)")
    (version,) = unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = unpack("<I")
    try:
        flat = parse_config_text(text(cfg_len), "config block")
        config = ModelConfig.from_flat({k: v for k, v in flat.items() if not k.startswith("train.")})
    except ConfigError as exc:
        raise ContractError(f"{path}: {exc}") from None
    model = PatternModel(config, seed=0)
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
        values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name not in by_name:
            raise ContractError(f"{path}: unknown parameter {name!r}")
        if name in seen:
            raise ContractError(f"{path}: parameter {name!r} is stored twice")
        seen.add(name)
        param = by_name[name]
        if param.data.shape != tuple(shape):
            raise ContractError(
                f"{path}: shape mismatch for {name!r}: checkpoint {tuple(shape)} vs model {param.data.shape}"
            )
        param.data = values.copy()
    if offset != len(view):
        raise ContractError(f"{path}: {len(view) - offset} trailing bytes after the last parameter")
    return model, flat
