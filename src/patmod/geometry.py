"""Non-learned point-cloud machinery.

Point clouds are plain (n, 3) float64 arrays in object-centered coordinates.
Everything here is a pure function of its inputs; the differentiable pieces
(Chamfer) accept DTensors and record onto whatever tape they live on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from .autodiff import DTensor
from .errors import ContractError, DomainError

logger = logging.getLogger(__name__)

# relative slack when collecting nearest-neighbor tie candidates; covers the
# ulp-level disagreement between the KD-tree's distances and numpy's
_TIE_SLACK = 1e-12


@dataclass(frozen=True)
class AABB:
    """Axis-aligned box given by per-axis lower/upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def max_side(self) -> float:
        return float(self.sides.max())

    def union(self, other: "AABB") -> "AABB":
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))


@dataclass
class RegionSplit:
    """B member clouds split into M voxel regions each (see split_regions)."""

    rows: np.ndarray  # region-major rows into the stacked sources
    counts: np.ndarray  # (B*M,) kept rows per region; member b owns b*M..(b+1)*M
    boxes: list[AABB]  # one per member, the box its voxels divide


@dataclass
class VoxelGrid:
    resolution: int
    occupancy: np.ndarray  # (res, res, res) bool
    bounds: AABB


def as_cloud(points) -> np.ndarray:
    cloud = np.asarray(points, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise DomainError(f"point cloud must be (n, 3), got {cloud.shape}")
    return cloud


def bounding_box(cloud: np.ndarray, epsilon: float = 0.0) -> AABB:
    """Min/max corners per axis, upper corner pushed out by epsilon.

    The expansion keeps max-coordinate points strictly inside the last voxel
    when the box is later split into cells.
    """
    cloud = as_cloud(cloud)
    if cloud.shape[0] == 0:
        raise DomainError("bounding box of an empty cloud")
    lo = cloud.min(axis=0)
    hi = cloud.max(axis=0) + epsilon
    return AABB(lo, hi)


def _cube_edge(m_regions: int) -> int:
    edge = round(m_regions ** (1.0 / 3.0))
    if edge**3 != m_regions or m_regions < 1:
        raise DomainError(f"region count must be a perfect cube, got {m_regions}")
    return edge


def voxel_assign(points: np.ndarray, box: AABB, m_per_edge: int) -> np.ndarray:
    """Flat voxel id per point; points outside the box clamp to boundary cells."""
    cell = box.sides / m_per_edge
    cell = np.where(cell > 0.0, cell, 1.0)  # degenerate axes collapse to cell 0
    ijk = np.floor((points - box.lo) / cell).astype(np.intp)
    ijk = np.clip(ijk, 0, m_per_edge - 1)
    return (ijk[:, 0] * m_per_edge + ijk[:, 1]) * m_per_edge + ijk[:, 2]


def split_regions(
    sources: list[np.ndarray],
    references: list[np.ndarray],
    m_regions: int,
    capacity: int,
) -> RegionSplit:
    """Partition each member's source into the voxels of its reference's box.

    In an e-per-edge grid, member b's point in cell (i, j, k) goes to region
    b*M + (i*e + j)*e + k; points outside the box clamp to the boundary
    cells.  ``rows`` indexes the sources stacked in member order and lists
    region 0's rows, then region 1's, and so on, each region's in ascending
    order.  A region keeps at most ``capacity`` rows: an overflowing region
    keeps its lowest-index rows and logs a warning giving its number within
    the member.
    """
    m_edge = _cube_edge(m_regions)
    voxels, boxes = [], []
    for b, (source, reference) in enumerate(zip(sources, references, strict=True)):
        reference = as_cloud(reference)
        if reference.shape[0] == 0:
            raise DomainError("reference cloud for region splitting is empty")
        boxes.append(bounding_box(reference, epsilon=_split_epsilon(reference)))
        voxels.append(voxel_assign(as_cloud(source), boxes[-1], m_edge) + b * m_regions)
    region = np.concatenate(voxels)
    order = np.argsort(region, kind="stable")
    counts = np.bincount(region, minlength=len(boxes) * m_regions)
    # each sorted row's position within its region's run
    rank = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    for r in np.flatnonzero(counts > capacity):
        logger.warning(
            "region %d overflows capacity (%d > %d); keeping lowest-index points",
            r % m_regions,
            counts[r],
            capacity,
        )
    return RegionSplit(order[rank < capacity], np.minimum(counts, capacity), boxes)


def _split_epsilon(reference: np.ndarray) -> float:
    box = bounding_box(reference)
    side = box.max_side
    return 1e-6 * side if side > 0.0 else 1e-12


def grid_lattice(count: int, extent: float, mode: str = "voxel") -> np.ndarray:
    """Regular lattice of ``count`` points: a 3-D grid, or an n x n sheet at z=0."""
    if count <= 0:
        raise DomainError(f"lattice point count must be positive, got {count}")
    if not math.isfinite(2.0 * extent):  # linspace(-e, e) steps by 2e / (n - 1)
        raise DomainError(f"lattice span 2 * {extent} is not finite")
    if mode == "voxel":
        nx, ny, nz = _lattice_factors(count)
        axes = [_axis_coords(n, extent) for n in (nx, ny, nz)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grid], axis=1)
    if mode == "plane":
        n = round(count**0.5)
        if n * n != count:
            raise DomainError(f"plane mode needs a square point count, got {count}")
        axes = [_axis_coords(n, extent)] * 2
        gx, gy = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx.reshape(-1), gy.reshape(-1), np.zeros(count)], axis=1)
    raise ContractError(f"unknown lattice mode {mode!r}")


def _axis_coords(n: int, extent: float) -> np.ndarray:
    return np.linspace(-extent, extent, n) if n > 1 else np.zeros(1)


def _lattice_factors(count: int) -> tuple[int, int, int]:
    # minimize the max/min factor ratio; ties resolve to the lexicographically
    # largest triple so 256 fixes to (8, 8, 4)
    best = None
    for a in range(1, count + 1):
        if count % a:
            continue
        rest = count // a
        for b in range(1, rest + 1):
            if rest % b:
                continue
            c = rest // b
            ratio = max(a, b, c) / min(a, b, c)
            key = (-ratio, a, b, c)
            if best is None or key > best:
                best = key
    assert best is not None
    return best[1], best[2], best[3]


def nearest_neighbor(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean nearest neighbor per query via KD-tree.

    Distances are recomputed in numpy so they match a brute-force double loop
    bitwise, and equidistant targets resolve to the lowest index.  A query
    whose second-nearest target is clearly farther than its nearest takes the
    nearest directly; every other query collects its near-ties and picks
    among them.
    """
    queries = as_cloud(queries)
    targets = as_cloud(targets)
    if targets.shape[0] == 0:
        raise DomainError("nearest neighbor against an empty target cloud")
    tree = cKDTree(targets)
    dist, nearest = tree.query(queries, k=2)  # a missing second neighbor reads inf
    indices = nearest[:, 0].copy()
    distances = np.empty(queries.shape[0])
    clear = dist[:, 1] > dist[:, 0] * (1.0 + 4.0 * _TIE_SLACK)
    diffs = targets[indices[clear]] - queries[clear]
    distances[clear] = np.sqrt((diffs * diffs).sum(axis=1))
    tied = np.flatnonzero(~clear)
    candidates = tree.query_ball_point(queries[tied], dist[tied, 0] * (1.0 + _TIE_SLACK))
    for qi, cand in zip(tied, candidates):
        cand = np.sort(np.asarray(cand, dtype=np.intp))
        diffs = targets[cand] - queries[qi]
        d = np.sqrt((diffs * diffs).sum(axis=1))
        best = d.min()
        pick = np.flatnonzero(d == best)[0]
        indices[qi] = cand[pick]
        distances[qi] = best
    return indices, distances


def chamfer(a, b, pairs=None):
    """Symmetric sum of nearest-neighbor Euclidean distances (raw training
    form) over ``pairs`` of row arrays (of a, of b), by default the whole clouds.

    Each pair's nearest neighbors are found with the KD-tree within the pair;
    all pairs' distances are measured on the tape at once, differentiable
    through both point sets.  Accepts DTensors or arrays; returns a scalar.
    """
    at = a if isinstance(a, DTensor) else ad.constant(as_cloud(a))
    bt = b if isinstance(b, DTensor) else ad.constant(as_cloud(b))
    if pairs is None:
        pairs = [(np.arange(at.shape[0]), np.arange(bt.shape[0]))]
    if not pairs or any(len(rows) == 0 for pair in pairs for rows in pair):
        raise DomainError("chamfer distance of an empty cloud or pair list")
    rows_a, rows_b = zip(*pairs)
    terms = []
    for q, q_rows, t, t_rows in ((bt, rows_b, at, rows_a), (at, rows_a, bt, rows_b)):  # b queries a, a queries b
        near = [tr[nearest_neighbor(q.data[qr], t.data[tr])[0]] for qr, tr in zip(q_rows, t_rows)]
        paired = ad.sub(ad.gather_rows(t, np.concatenate(near)), ad.gather_rows(q, np.concatenate(q_rows)))
        terms.append(ad.reduce_sum(ad.row_norm(paired)))
    return ad.add(*terms)


def chamfer_brute_force(a: np.ndarray, b: np.ndarray) -> float:
    """O(n*m) oracle for the raw-sum Chamfer distance."""
    a, b = as_cloud(a), as_cloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("chamfer distance of an empty cloud")
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return float(d.min(axis=0).sum() + d.min(axis=1).sum())


def chamfer_eval(a: np.ndarray, b: np.ndarray) -> float:
    """Per-point-normalized Chamfer used for reporting.

    Average of the two directional means, i.e. ((1/|A|) sum + (1/|B|) sum) / 2,
    so values stay comparable across cloud cardinalities.
    """
    a, b = as_cloud(a), as_cloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("chamfer distance of an empty cloud")
    _, d_ab = nearest_neighbor(a, b)
    _, d_ba = nearest_neighbor(b, a)
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


def voxelize(cloud: np.ndarray, resolution: int, bounds: AABB) -> VoxelGrid:
    """Occupancy grid: a cell is on iff at least one point falls inside it."""
    cloud = as_cloud(cloud)
    if resolution < 1:
        raise DomainError(f"voxel resolution must be >= 1, got {resolution}")
    occ = np.zeros((resolution,) * 3, dtype=bool)
    occ.reshape(-1)[voxel_assign(cloud, bounds, resolution)] = True  # flat ids are C-order indices
    return VoxelGrid(resolution, occ, bounds)


def iou(a: VoxelGrid, b: VoxelGrid) -> float:
    """Intersection over union of two occupancy grids on identical bounds."""
    if a.resolution != b.resolution:
        raise ContractError(f"grid resolutions differ: {a.resolution} vs {b.resolution}")
    if not (np.array_equal(a.bounds.lo, b.bounds.lo) and np.array_equal(a.bounds.hi, b.bounds.hi)):
        raise ContractError("grid bounds differ; voxelize both clouds on shared bounds")
    union = np.logical_or(a.occupancy, b.occupancy).sum()
    if union == 0:
        raise DomainError("IoU of two empty grids")
    inter = np.logical_and(a.occupancy, b.occupancy).sum()
    return float(inter) / float(union)


def downsample(cloud: np.ndarray, k: int) -> np.ndarray:
    """Pick k points by deterministic farthest-point sampling."""
    cloud = as_cloud(cloud)
    n = cloud.shape[0]
    if k < 1:
        raise DomainError(f"downsample target k must be >= 1, got {k}")
    if k > n:
        raise DomainError(f"cannot downsample {n} points to {k}")
    if k == n:
        return cloud.copy()
    return cloud[farthest_point_indices(cloud, k)]


def farthest_point_indices(cloud: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point selection started at row 0.

    Each step adds the point whose distance to the chosen set is largest;
    ties, and the first NaN distance, resolve to the lowest index (the first
    ``argmax``).  A distance is ``sqrt((dx*dx + dy*dy) + dz*dz)`` in that
    order, which is how ``np.linalg.norm(cloud - p, axis=1)`` reduces a row,
    and the running minimum is ``np.minimum``; so the indices equal those of
    the plain norm-based loop bit for bit, ties and NaNs included.  The loop
    runs over the cloud's columns with preallocated buffers.
    """
    x, y, z = np.ascontiguousarray(cloud.T)
    n = x.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = 0
    nearest = np.full(n, np.inf)  # minimum(inf, d) == d, NaN included
    d = np.empty(n)
    sq = np.empty(n)
    for step in range(1, k):
        i = chosen[step - 1]
        np.subtract(x, x[i], out=d)
        np.multiply(d, d, out=d)
        np.subtract(y, y[i], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(d, sq, out=d)
        np.subtract(z, z[i], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(d, sq, out=d)
        np.sqrt(d, out=d)
        np.minimum(nearest, d, out=nearest)
        chosen[step] = np.argmax(nearest)
    return chosen
