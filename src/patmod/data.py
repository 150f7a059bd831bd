"""Synthetic dataset: procedural shape classes, orthographic renders, file I/O.

Classes are assembled from axis-aligned boxes and cylinders that deliberately
reuse the same sub-structures (slabs, legs, poles, frames) so unseen classes
share local geometry with seen ones.  Every generator is a pure function of
(class, seed); images render deterministically from clouds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry
from .errors import ConfigError, ContractError, DomainError, allocating, at_least

GT_POINTS = 2048
NORM_HALF_EXTENT = 0.45  # leaves tanh headroom inside (-1, 1)
DEFAULT_VIEW = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
_IMAGE_SPAN = 0.8  # world half-width mapped onto the image


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True)
class BoxPrim:
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # full extents

    @property
    def area(self) -> float:
        sx, sy, sz = self.size
        return 2.0 * (sx * sy + sy * sz + sz * sx)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        sx, sy, sz = self.size
        face_areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
        counts = _apportion(face_areas, n)
        pts = []
        half = np.array(self.size) / 2.0
        for face, count in enumerate(counts):
            uv = rng.uniform(-1.0, 1.0, size=(count, 2))
            axis = face // 2  # 0:x 1:y 2:z
            sign = 1.0 if face % 2 == 0 else -1.0
            p = np.empty((count, 3))
            others = [a for a in range(3) if a != axis]
            p[:, axis] = sign * half[axis]
            p[:, others[0]] = uv[:, 0] * half[others[0]]
            p[:, others[1]] = uv[:, 1] * half[others[1]]
            pts.append(p)
        return np.vstack(pts) + np.asarray(self.center)


@dataclass(frozen=True)
class CylinderPrim:
    center: tuple[float, float, float]
    axis: int  # 0:x 1:y 2:z
    radius: float
    length: float

    @property
    def area(self) -> float:
        return 2.0 * np.pi * self.radius * self.length + 2.0 * np.pi * self.radius**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lateral = 2.0 * np.pi * self.radius * self.length
        cap = np.pi * self.radius**2
        counts = _apportion(np.array([lateral, cap, cap]), n)
        pts = []
        for part, count in enumerate(counts):
            theta = rng.uniform(0.0, 2.0 * np.pi, count)
            p = np.empty((count, 3))
            u_axis, v_axis = [a for a in range(3) if a != self.axis]
            if part == 0:
                r = self.radius
                along = rng.uniform(-self.length / 2.0, self.length / 2.0, count)
            else:
                r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, count))
                along = np.full(count, (self.length / 2.0) if part == 1 else (-self.length / 2.0))
            p[:, self.axis] = along
            p[:, u_axis] = r * np.cos(theta)
            p[:, v_axis] = r * np.sin(theta)
            pts.append(p)
        return np.vstack(pts) + np.asarray(self.center)


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment: counts proportional to weights, summing to total."""
    weights = np.asarray(weights, dtype=np.float64)
    shares = weights / weights.sum() * total
    counts = np.floor(shares).astype(int)
    remainder = total - counts.sum()
    if remainder:
        order = np.argsort(-(shares - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


# ---------------------------------------------------------------------------
# shape classes


def _legs(w: float, d: float, h: float, leg: float) -> list[BoxPrim]:
    """Four legs h tall and leg thick at the corners of a w by d footprint."""
    return [BoxPrim((sx * (w / 2.0 - leg / 2.0), h / 2.0, sz * (d / 2.0 - leg / 2.0)), (leg, h, leg))
            for sx in (-1.0, 1.0) for sz in (-1.0, 1.0)]


def _table(rng):
    w = rng.uniform(0.8, 1.2)
    d = rng.uniform(0.6, 1.2)
    h = rng.uniform(0.5, 0.9)
    top = rng.uniform(0.05, 0.10)
    leg = rng.uniform(0.05, 0.12)
    return [BoxPrim((0.0, h + top / 2.0, 0.0), (w, top, d)), *_legs(w, d, h, leg)]


def _chair(rng):
    w = rng.uniform(0.5, 0.8)
    d = rng.uniform(0.5, 0.8)
    seat_h = rng.uniform(0.4, 0.6)
    seat_t = rng.uniform(0.05, 0.09)
    back_h = rng.uniform(0.5, 0.9)
    leg = rng.uniform(0.04, 0.09)
    return [
        BoxPrim((0.0, seat_h + seat_t / 2.0, 0.0), (w, seat_t, d)),
        *_legs(w, d, seat_h, leg),
        BoxPrim((0.0, seat_h + seat_t + back_h / 2.0, -d / 2.0 + seat_t / 2.0), (w, back_h, seat_t)),
    ]


def _cross_plane(rng):
    body_l = rng.uniform(1.0, 1.4)
    body_r = rng.uniform(0.06, 0.12)
    span = rng.uniform(1.0, 1.6)
    chord = rng.uniform(0.25, 0.45)
    wing_t = rng.uniform(0.03, 0.06)
    fin_h = rng.uniform(0.15, 0.3)
    prims = [
        CylinderPrim((0.0, 0.0, 0.0), 2, body_r, body_l),  # fuselage along z
        BoxPrim((0.0, 0.0, 0.1 * body_l), (span, wing_t, chord)),  # main wing
        BoxPrim((0.0, 0.0, -body_l / 2.0 + chord / 4.0), (span * 0.4, wing_t, chord * 0.6)),
        BoxPrim((0.0, fin_h / 2.0 + body_r, -body_l / 2.0 + chord / 4.0), (wing_t, fin_h, chord * 0.6)),
    ]
    return prims


def _lamp(rng):
    base_r = rng.uniform(0.18, 0.3)
    base_t = rng.uniform(0.03, 0.07)
    pole_h = rng.uniform(0.8, 1.2)
    pole_r = rng.uniform(0.02, 0.05)
    shade_r = rng.uniform(0.15, 0.3)
    shade_h = rng.uniform(0.2, 0.35)
    return [
        CylinderPrim((0.0, base_t / 2.0, 0.0), 1, base_r, base_t),
        CylinderPrim((0.0, base_t + pole_h / 2.0, 0.0), 1, pole_r, pole_h),
        CylinderPrim((0.0, base_t + pole_h + shade_h / 2.0, 0.0), 1, shade_r, shade_h),
    ]


def _sofa_block(rng):
    w = rng.uniform(1.0, 1.6)
    d = rng.uniform(0.6, 0.9)
    seat_h = rng.uniform(0.3, 0.45)
    back_h = rng.uniform(0.4, 0.7)
    back_t = rng.uniform(0.12, 0.2)
    arm_w = rng.uniform(0.12, 0.2)
    arm_h = rng.uniform(0.15, 0.3)
    prims = [
        BoxPrim((0.0, seat_h / 2.0, 0.0), (w, seat_h, d)),
        BoxPrim((0.0, seat_h + back_h / 2.0, -d / 2.0 + back_t / 2.0), (w, back_h, back_t)),
    ]
    for sx in (-1.0, 1.0):
        cx = sx * (w / 2.0 + arm_w / 2.0)
        prims.append(BoxPrim((cx, (seat_h + arm_h) / 2.0, 0.0), (arm_w, seat_h + arm_h, d)))
    return prims


def _ring(rng):
    side = rng.uniform(0.7, 1.1)
    bar_r = rng.uniform(0.05, 0.12)
    half = side / 2.0
    return [
        CylinderPrim((0.0, 0.0, half), 0, bar_r, side),
        CylinderPrim((0.0, 0.0, -half), 0, bar_r, side),
        CylinderPrim((half, 0.0, 0.0), 2, bar_r, side),
        CylinderPrim((-half, 0.0, 0.0), 2, bar_r, side),
    ]


SHAPE_CLASSES = {
    "table": _table,
    "chair": _chair,
    "cross_plane": _cross_plane,
    "lamp": _lamp,
    "sofa_block": _sofa_block,
    "ring": _ring,
}

DEFAULT_SEEN = ("table", "chair", "lamp")
DEFAULT_UNSEEN = ("sofa_block", "ring")


def generate_shape(class_name: str, seed: int, n_points: int = GT_POINTS) -> np.ndarray:
    """Sample a normalized (n, 3) surface cloud for one class instance.

    Points are allocated across primitives proportionally to surface area,
    then the assembly is centered on its bounding box and scaled uniformly
    into the normalization cube.
    """
    if class_name not in SHAPE_CLASSES:
        raise ConfigError(f"unknown shape class {class_name!r}; have {sorted(SHAPE_CLASSES)}")
    rng = np.random.default_rng(seed)
    prims = SHAPE_CLASSES[class_name](rng)
    counts = _apportion(np.array([p.area for p in prims]), n_points)
    cloud = np.vstack([p.sample(rng, c) for p, c in zip(prims, counts)])
    return normalize_cloud(cloud)


def normalize_cloud(cloud: np.ndarray) -> np.ndarray:
    """Center on the bounding box and scale uniformly into the normalization cube."""
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    centered = cloud - (lo + hi) / 2.0
    extent = np.abs(centered).max()
    if extent > 0.0:
        centered *= NORM_HALF_EXTENT / extent
    return centered


# ---------------------------------------------------------------------------
# rendering


def render_image(cloud: np.ndarray, size: int = 64) -> np.ndarray:
    """Orthographic point-splat render along ``DEFAULT_VIEW``: 2x2 footprints,
    nearer points brighter.

    Returns a (1, size, size) array in [0, 1]; out-of-frame points are clipped
    away rather than clamped to the border.  An image too large to allocate
    raises ConfigError naming ``image_size``.
    """
    with allocating(f"image_size={size}: cannot allocate the image"):
        img = np.zeros((size, size))
    view = DEFAULT_VIEW / np.linalg.norm(DEFAULT_VIEW)
    right = np.cross(np.array([0.0, 1.0, 0.0]), view)
    right /= np.linalg.norm(right)
    up = np.cross(view, right)

    u = cloud @ right
    v = cloud @ up
    depth = cloud @ view  # larger = nearer to the camera
    px = np.floor((u + _IMAGE_SPAN) / (2.0 * _IMAGE_SPAN) * size).astype(np.intp)
    py = np.floor((_IMAGE_SPAN - v) / (2.0 * _IMAGE_SPAN) * size).astype(np.intp)
    shade = 0.2 + 0.8 * np.clip((depth + _IMAGE_SPAN) / (2.0 * _IMAGE_SPAN), 0.0, 1.0)

    for dy in (0, 1):
        for dx in (0, 1):
            qx, qy = px + dx, py + dy
            ok = (qx >= 0) & (qx < size) & (qy >= 0) & (qy < size)
            np.maximum.at(img, (qy[ok], qx[ok]), shade[ok])
    return img[None, :, :]


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass(frozen=True, eq=False)  # equal only to itself: the arrays have no truth value
class Sample:
    """One rendered image with its ground-truth cloud.

    ``gt_cloud`` is made read-only on construction, so the farthest-point
    downsample of it that ``gt_points`` computes once per target count
    stays valid for the sample's life; the cached arrays are read-only too.
    """

    image: np.ndarray  # (1, size, size) in [0, 1]
    gt_cloud: np.ndarray  # (n, 3)
    class_name: str
    seed: int
    _gt_downsamples: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.gt_cloud.flags.writeable = False

    def gt_points(self, k: int) -> np.ndarray:
        """``gt_cloud`` when k >= its size, else ``geometry.downsample(gt_cloud, k)``,
        computed on the first call for each k and kept."""
        if k >= self.gt_cloud.shape[0]:
            return self.gt_cloud
        cached = self._gt_downsamples.get(k)
        if cached is None:
            cached = geometry.downsample(self.gt_cloud, k)
            cached.flags.writeable = False
            self._gt_downsamples[k] = cached
        return cached


@dataclass
class DatasetSplit:
    seen_classes: tuple[str, ...] = DEFAULT_SEEN
    unseen_classes: tuple[str, ...] = DEFAULT_UNSEEN
    train_per_class: int = 8
    test_per_class: int = 2
    master_seed: int = 0

    def __post_init__(self):
        if not self.seen_classes:
            raise ConfigError("seen_classes must name at least one class")
        for key in ("seen_classes", "unseen_classes"):
            names = getattr(self, key)
            for name in names:
                if name not in SHAPE_CLASSES:
                    raise ConfigError(f"{key}: unknown shape class {name!r}; have {sorted(SHAPE_CLASSES)}")
                if names.count(name) > 1:
                    raise ConfigError(f"{key}: shape class {name!r} is listed more than once")
        overlap = set(self.seen_classes) & set(self.unseen_classes)
        if overlap:
            raise ConfigError(f"classes cannot be both seen and unseen: {sorted(overlap)}")
        at_least([("train_per_class", self.train_per_class, 1), ("test_per_class", self.test_per_class, 1)])


def sample_seed(master_seed: int, class_name: str, index: int) -> int:
    """Stable 63-bit seed derived by hashing (master, class, index)."""
    digest = hashlib.sha256(f"{master_seed}:{class_name}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_sample(class_name: str, seed: int, image_size: int = 64) -> Sample:
    cloud = generate_shape(class_name, seed)
    image = render_image(cloud, image_size)
    return Sample(image, cloud, class_name, seed)


def make_dataset(split: DatasetSplit, image_size: int = 64) -> dict[str, list[Sample]]:
    """Generate train / test_seen / test_unseen; unseen classes never reach train."""
    out = {"train": [], "test_seen": [], "test_unseen": []}
    for cls in split.seen_classes:
        for i in range(split.train_per_class):
            out["train"].append(make_sample(cls, sample_seed(split.master_seed, cls, i), image_size))
        for i in range(split.test_per_class):
            idx = split.train_per_class + i
            out["test_seen"].append(make_sample(cls, sample_seed(split.master_seed, cls, idx), image_size))
    for cls in split.unseen_classes:
        for i in range(split.test_per_class):
            out["test_unseen"].append(make_sample(cls, sample_seed(split.master_seed, cls, i), image_size))
    return out


# ---------------------------------------------------------------------------
# point cloud files


def read_text(path, error: type[Exception] = DomainError) -> str:
    """A file's UTF-8 text, line ends read as text-mode ``open`` reads them;
    bytes that are not UTF-8 raise ``error`` naming the file and line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _writable(cloud) -> np.ndarray:
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise DomainError("refusing to write an empty point cloud")
    return cloud


def write_xyz(path, cloud: np.ndarray) -> None:
    cloud = _writable(cloud)
    with open(path, "w") as fh:
        fh.write(("%.17g %.17g %.17g\n" * len(cloud)) % tuple(cloud.ravel().tolist()))


XYZ_MAX_ABS = 1e150  # the largest coordinate magnitude read_xyz accepts


def read_xyz(path) -> np.ndarray:
    """Three coordinates per non-blank line; a bad line raises DomainError
    naming it, the first in file order when there are several.  A coordinate
    must be finite and at most XYZ_MAX_ABS = 1e150 in magnitude, so that the
    squared distance of two points, which the nearest-neighbour search and
    the Chamfer distance form, cannot overflow: it is at most 3 * (2e150)**2
    = 1.2e301, below the float64 maximum of about 1.8e308."""
    lines = read_text(path).split("\n")  # numbered as iterating the file numbers them
    values, linenos = [], []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise DomainError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            values += map(float, parts)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not values:
        raise DomainError(f"{path}: empty point cloud")
    cloud = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    # checked once per cloud: a numpy call per line would double the parse time
    bad = np.flatnonzero(~(np.abs(cloud) <= XYZ_MAX_ABS).all(axis=1))
    if bad.size:
        point = cloud[bad[0]].tolist()
        cause = f"exceeds {XYZ_MAX_ABS:g} in magnitude" if np.isfinite(point).all() else "is not finite"
        raise DomainError(f"{path}:{linenos[bad[0]]}: coordinate {point} {cause}")
    return cloud


def write_ply(path, cloud: np.ndarray) -> None:
    """Binary little-endian vertex-only PLY with float32 coordinates."""
    cloud = _writable(cloud)
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {cloud.shape[0]}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(cloud, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# images


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; values in [0, 1] are rounded half-up onto [0, 255]."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        img = img[0]
    if img.min() < 0.0 or img.max() > 1.0:
        raise DomainError("image values must lie in [0, 1]")
    quantized = np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_pgm(path, shape: tuple[int, int, int] | None = None) -> np.ndarray:
    """A binary PGM as a (1, H, W) array in [0, 1].  A malformed file raises
    DomainError; an image that is not of ``shape``, when given, raises
    ContractError.  Both name the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise DomainError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h = (int(t) for t in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise DomainError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise DomainError(f"{path}: only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise DomainError(f"{path}: width and height must be positive, got {w}x{h}")
    payload = parts[3][: w * h]
    if len(payload) < w * h:
        raise DomainError(f"{path}: truncated pixel payload")
    if shape is not None and (1, h, w) != shape:
        raise ContractError(f"{path}: image shape {(1, h, w)} does not match the model's input {shape}")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0
    return img[None, :, :]


# ---------------------------------------------------------------------------
# manifests


def write_dataset(root, split: DatasetSplit, image_size: int = 64) -> Path:
    """Materialize a dataset on disk and return the manifest path."""
    return write_samples(root, make_dataset(split, image_size))


def write_samples(root, dataset: dict[str, list[Sample]]) -> Path:
    """Write ``make_dataset``'s splits and their manifest under ``root``, and
    return the manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for split_name, samples in dataset.items():
        sub = root / split_name
        sub.mkdir(exist_ok=True)
        for s in samples:
            stem = f"{s.class_name}_{s.seed:016x}"
            cloud_rel = f"{split_name}/{stem}.xyz"
            image_rel = f"{split_name}/{stem}.pgm"
            write_xyz(root / cloud_rel, s.gt_cloud)
            write_pgm(root / image_rel, s.image)
            records.append(
                {
                    "class": s.class_name,
                    "seed": s.seed,
                    "cloud_path": cloud_rel,
                    "image_path": image_rel,
                    "split": split_name,
                }
            )
    manifest = root / "manifest.jsonl"
    with open(manifest, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return manifest


# keys every manifest record must hold, with their value types
_MANIFEST_KEYS = {"class": str, "seed": int, "cloud_path": str, "image_path": str, "split": str}


def read_manifest(manifest_path) -> list[dict]:
    records = []
    for lineno, line in enumerate(read_text(manifest_path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        where = f"{manifest_path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{where}: {exc}") from None
        if not isinstance(rec, dict):
            raise DomainError(f"{where}: expected a JSON object, got {type(rec).__name__}")
        for key, kind in _MANIFEST_KEYS.items():
            if key not in rec:
                raise DomainError(f"{where}: missing key {key!r}")
            if not isinstance(rec[key], kind) or isinstance(rec[key], bool):
                raise DomainError(f"{where}: key {key!r} must be {kind.__name__}, got {rec[key]!r}")
        records.append(rec)
    return records


def load_samples(manifest_path, split_name: str | None = None, image_shape: tuple | None = None) -> list[Sample]:
    """Read samples back from a manifest, optionally filtered by split; each
    image is read by ``read_pgm`` against ``image_shape``."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    samples = []
    for rec in read_manifest(manifest_path):
        if split_name is not None and rec["split"] != split_name:
            continue
        samples.append(
            Sample(
                image=read_pgm(base / rec["image_path"], image_shape),
                gt_cloud=read_xyz(base / rec["cloud_path"]),
                class_name=rec["class"],
                seed=rec["seed"],
            )
        )
    return samples
