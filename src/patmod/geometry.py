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

# relative gap below which a query's two nearest KD-tree distances are near-tied;
# covers the ulp-level disagreement between the KD-tree's distances and numpy's
_TIE_GAP = 4e-12


@dataclass(frozen=True)
class AABB:
    """Axis-aligned box given by per-axis lower/upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def union(self, other: "AABB") -> "AABB":
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))


@dataclass
class RegionSplit:
    """B member clouds split into M voxel regions each (see split_regions);
    in rows stacked in split order, region m's run is the next ``counts[m]``."""

    rows: np.ndarray  # region-major rows into the stacked sources
    counts: np.ndarray  # (B*M,) kept rows per region; member b owns b*M..(b+1)*M

    def per_region(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Cut ``stacked``, whose leading axis is in split order, into one
        block per region by ``counts``; the blocks are views."""
        return np.split(stacked, np.cumsum(self.counts)[:-1])


def run_ranks(counts: np.ndarray) -> np.ndarray:
    """Each row's position within its run, for rows stacked as consecutive
    runs of ``counts[i]`` rows: runs (2, 0, 3) give 0, 1, 0, 1, 2."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


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


def cube_edge(m_regions: int) -> int:
    """Regions per box edge; DomainError unless ``m_regions`` is a positive cube."""
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
    the member.  A reference's box is its ``split_box``.
    """
    m_edge = cube_edge(m_regions)
    voxels = []
    for b, (source, reference) in enumerate(zip(sources, references, strict=True)):
        reference = as_cloud(reference)
        if reference.shape[0] == 0:
            raise DomainError("reference cloud for region splitting is empty")
        voxels.append(voxel_assign(as_cloud(source), split_box(reference), m_edge) + b * m_regions)
    region = np.concatenate(voxels)
    order = np.argsort(region, kind="stable")
    counts = np.bincount(region, minlength=len(voxels) * m_regions)
    rank = run_ranks(counts)
    for r in np.flatnonzero(counts > capacity):
        logger.warning(
            "region %d overflows capacity (%d > %d); keeping lowest-index points",
            r % m_regions,
            counts[r],
            capacity,
        )
    return RegionSplit(order[rank < capacity], np.minimum(counts, capacity))


def split_box(reference: np.ndarray) -> AABB:
    """The reference's bounding box, upper corner pushed out by 1e-6 of its largest side (1e-12 if 0)."""
    box = bounding_box(reference)
    side = float(box.sides.max())
    return AABB(box.lo, box.hi + (1e-6 * side if side > 0.0 else 1e-12))


def check_lattice(count: int, extent: float, mode: str = "voxel") -> None:
    """Raise DomainError unless ``grid_lattice(count, extent, mode)`` can be
    built: count >= 1, 2 * extent finite, and a square count in plane mode.
    Pure arithmetic, so it costs the same at any count."""
    if count <= 0:
        raise DomainError(f"lattice point count must be positive, got {count}")
    if not math.isfinite(2.0 * extent):  # linspace(-e, e) steps by 2e / (n - 1)
        raise DomainError(f"lattice span 2 * {extent} is not finite")
    if mode == "plane" and math.isqrt(count) ** 2 != count:
        raise DomainError(f"plane mode needs a square point count, got {count}")
    if mode not in ("voxel", "plane"):
        raise ContractError(f"unknown lattice mode {mode!r}")


def grid_lattice(count: int, extent: float, mode: str = "voxel") -> np.ndarray:
    """Regular lattice of ``count`` points: a 3-D grid, or an n x n sheet at z=0.
    The output is allocated before ``count`` is factored, so a count too
    large for memory fails at once, not after an O(sqrt(count)) search."""
    check_lattice(count, extent, mode)
    out = np.empty((count, 3))
    sides = _lattice_factors(count) if mode == "voxel" else (math.isqrt(count),) * 2 + (1,)
    axes = [_axis_coords(n, extent) for n in sides]
    for column, grid in zip(out.T, np.meshgrid(*axes, indexing="ij")):
        column[:] = grid.reshape(-1)
    return out


def _axis_coords(n: int, extent: float) -> np.ndarray:
    return np.linspace(-extent, extent, n) if n > 1 else np.zeros(1)


def _divisors(count: int) -> list[int]:
    """Every divisor of count in ascending order, from the pairs (i, count // i)
    with i up to sqrt(count)."""
    small = [i for i in range(1, math.isqrt(count) + 1) if count % i == 0]
    return small + [count // i for i in reversed(small) if i * i != count]


def _lattice_factors(count: int) -> tuple[int, int, int]:
    """The factor triple a * b * c == count with the smallest max/min ratio;
    ties resolve to the lexicographically largest triple, so 256 gives
    (8, 8, 4).  The largest ordering of a triple is the descending one, so
    only a >= b >= c is enumerated, with c and b drawn from count's divisors."""
    divisors = _divisors(count)
    best = None
    for c in divisors:
        if c * c * c > count:
            break
        rest = count // c
        for b in divisors:
            if b * b > rest:
                break
            if b < c or rest % b:
                continue
            a = rest // b
            key = (-(a / c), a, b, c)
            if best is None or key > best:
                best = key
    return best[1], best[2], best[3]


def nearest_neighbor(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean nearest neighbor per query via KD-tree.

    Distances are recomputed in numpy so they match a brute-force double loop
    bitwise, and equidistant targets resolve to the lowest index.  A query
    whose second-nearest target is clearly farther than its nearest takes the
    nearest directly.  Every other query is near-tied and follows brute
    force's own rule: it is measured against every target by the same
    formula and takes the first ``argmin``.  So a near-tied query costs O(m)
    for m targets; a cloud of coincident or lattice points, where most
    queries are near-tied, costs up to O(n*m) for n queries.  Coordinates
    whose squared distances overflow float64, and a NaN or inf
    coordinate in either cloud, raise DomainError.
    """
    queries = as_cloud(queries)
    targets = as_cloud(targets)
    if targets.shape[0] == 0:
        raise DomainError("nearest neighbor against an empty target cloud")
    for name, cloud in (("query", queries), ("target", targets)):
        if not np.isfinite(cloud).all():
            raise DomainError(f"nearest neighbor: the {name} cloud has a non-finite coordinate")
    dist, nearest = cKDTree(targets).query(queries, k=2)  # a missing neighbor reads inf at index n
    if not np.isfinite(dist[:, 0]).all():
        raise DomainError("nearest neighbor: squared distances overflow float64")
    indices = nearest[:, 0].copy()
    diffs = targets[indices] - queries
    distances = np.sqrt((diffs * diffs).sum(axis=1))
    for qi in np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1.0 + _TIE_GAP)):
        diffs = targets - queries[qi]
        d = np.sqrt((diffs * diffs).sum(axis=1))
        indices[qi] = best = d.argmin()
        distances[qi] = d[best]
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


def voxelize(cloud: np.ndarray, resolution: int, bounds: AABB) -> np.ndarray:
    """(res, res, res) bool occupancy: a cell is on iff at least one point
    falls inside it; points outside ``bounds`` clamp to boundary cells."""
    cloud = as_cloud(cloud)
    if resolution < 1:
        raise DomainError(f"voxel resolution must be >= 1, got {resolution}")
    occ = np.zeros((resolution,) * 3, dtype=bool)
    occ.reshape(-1)[voxel_assign(cloud, bounds, resolution)] = True  # flat ids are C-order indices
    return occ


def iou(a: np.ndarray, b: np.ndarray, resolution: int) -> float:
    """Intersection over union of two clouds' occupancy at ``resolution``
    cells per edge, both voxelized on the union of their bounding boxes,
    each expanded by 1e-9.  An empty cloud raises DomainError."""
    bounds = bounding_box(a, 1e-9).union(bounding_box(b, 1e-9))
    occ_a, occ_b = voxelize(a, resolution, bounds), voxelize(b, resolution, bounds)
    return float(np.logical_and(occ_a, occ_b).sum()) / float(np.logical_or(occ_a, occ_b).sum())


def downsample(cloud: np.ndarray, k: int) -> np.ndarray:
    """Pick k points by deterministic farthest-point sampling; k == n returns
    a copy of the cloud in its own order."""
    cloud = as_cloud(cloud)
    _check_sample_count(k, cloud.shape[0])
    if k == cloud.shape[0]:
        return cloud.copy()
    return cloud[farthest_point_indices(cloud, k)]


def _check_sample_count(k, n: int) -> None:
    """DomainError naming k unless it is an integer (a Python or numpy one,
    not a bool) from 1 to n."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"downsample target k must be an integer, got {k!r}")
    if k < 1:
        raise DomainError(f"downsample target k must be >= 1, got {k}")
    if k > n:
        raise DomainError(f"cannot downsample {n} points to {k}")


def farthest_point_indices(cloud: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point selection of k of the n rows, started at row 0.

    Each step adds the point whose distance to the chosen set is largest;
    ties, and the first NaN distance, resolve to the lowest index (the first
    ``argmax``).  A distance is ``sqrt((dx*dx + dy*dy) + dz*dz)`` in that
    order, which is how ``np.linalg.norm(cloud - p, axis=1)`` reduces a row,
    and the running minimum is ``np.minimum``; so the indices equal those of
    the plain norm-based loop bit for bit, ties and NaNs included.

    The first s = 6*isqrt(n) + 3 steps update every point.  Entries only
    fall, so from then on a new point p can lower only the entry of a point
    q with d(p, q) < nearest[q], and every such q lies within the covering
    radius r = ``nearest.max()`` of p.  Those q are listed once for every p,
    from a KD-tree's pairs within r (with 1e-9 relative slack for the tree's
    rounding) and measured by the same formula, so each later step takes
    ``np.minimum`` over the new point's list alone and skips only entries
    that ``np.minimum`` would have kept.  The dense loop runs to the end
    instead when k <= 2s, when a coordinate is not finite or reaches 1e100
    in magnitude, when r <= 1e-100 (so squared distances could overflow or
    go subnormal), or when a bound on the pairs within r, from point counts
    per cell, exceeds 1024 per point.
    """
    cloud = as_cloud(cloud)
    n = cloud.shape[0]
    _check_sample_count(k, n)
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = 0
    nearest = np.full(n, np.inf)  # minimum(inf, d) == d, NaN included
    switch = 6 * math.isqrt(n) + 3
    if k <= 2 * switch or not np.abs(cloud).max() < _FPS_COORD_LIMIT:  # False for NaN and inf too
        _fps_dense_steps(cloud, nearest, chosen, 1, k)
        return chosen
    _fps_dense_steps(cloud, nearest, chosen, 1, switch + 1)
    lists = _fps_neighbour_lists(cloud, nearest)
    if lists is None:
        _fps_dense_steps(cloud, nearest, chosen, switch + 1, k)
        return chosen
    starts, neighbours, dists = lists
    argmax = nearest.argmax
    i = int(chosen[switch])
    for step in range(switch + 1, k):
        nb = neighbours[starts[i] : starts[i + 1]]
        nearest[nb] = np.minimum(nearest[nb], dists[starts[i] : starts[i + 1]])
        i = int(argmax())
        chosen[step] = i
    return chosen


# farthest-point sampling lists neighbours only where squared distances
# neither overflow nor go subnormal: every |coordinate| below the limit and
# a covering radius above the floor
_FPS_COORD_LIMIT = 1e100
_FPS_RADIUS_FLOOR = 1e-100
# the most directed pairs within the covering radius, per point, that the
# pair bound may allow before the lists are built
_FPS_PAIRS_PER_POINT = 1024


def _fps_dense_steps(cloud: np.ndarray, nearest: np.ndarray, chosen: np.ndarray, start: int, stop: int) -> None:
    """Steps start..stop-1 of the greedy loop, each over all n points, on the
    cloud's columns with preallocated buffers."""
    x, y, z = np.ascontiguousarray(cloud.T)
    xs, ys, zs = x.tolist(), y.tolist(), z.tolist()  # the same float64 values as Python floats
    d = np.empty(x.shape[0])
    sq = np.empty(x.shape[0])
    subtract, multiply, add, argmax = np.subtract, np.multiply, np.add, nearest.argmax
    i = int(chosen[start - 1])
    for step in range(start, stop):
        subtract(x, xs[i], out=d)
        multiply(d, d, out=d)
        subtract(y, ys[i], out=sq)
        multiply(sq, sq, out=sq)
        add(d, sq, out=d)
        subtract(z, zs[i], out=sq)
        multiply(sq, sq, out=sq)
        add(d, sq, out=d)
        np.sqrt(d, out=d)
        np.minimum(nearest, d, out=nearest)
        i = int(argmax())
        chosen[step] = i


def _fps_neighbour_lists(cloud: np.ndarray, nearest: np.ndarray):
    """For each point p, the points whose entry in ``nearest`` p would lower:
    those q with d(p, q) < nearest[q], itself included.  Returned as
    ``(starts, neighbours, dists)``: p's are ``neighbours[starts[p]:starts[p + 1]]``,
    with their distances, computed as ``_fps_dense_steps`` computes them,
    alongside.  Every such q lies within r = ``nearest.max()`` of p, so the
    candidates are the KD-tree's pairs within r, with 1e-9 relative slack
    for the tree's own rounding.  None when r is not above the floor or the
    pairs could exceed the budget."""
    n = cloud.shape[0]
    radius = float(nearest.max())
    if not radius > _FPS_RADIUS_FLOOR:
        return None
    reach = radius * (1.0 + 1e-9)
    if _pair_bound(cloud, reach) > _FPS_PAIRS_PER_POINT * n:
        return None
    p, q = cKDTree(cloud).query_pairs(reach, output_type="ndarray").T
    x, y, z = cloud.T
    dist = x[q] - x[p]  # the loop's sign; the squares match from either end
    dist *= dist
    sq = y[q] - y[p]
    sq *= sq
    dist += sq
    sq = z[q] - z[p]
    sq *= sq
    dist += sq
    np.sqrt(dist, out=dist)
    to_q, to_p = dist < nearest[q], dist < nearest[p]
    own = np.arange(n)
    source = np.concatenate([p[to_q], q[to_p], own])
    order = np.argsort(source)
    neighbours = np.concatenate([q[to_q], p[to_p], own]).take(order)
    dists = np.concatenate([dist[to_q], dist[to_p], np.zeros(n)]).take(order)
    starts = np.concatenate([[0], np.cumsum(np.bincount(source, minlength=n))])
    return starts.tolist(), neighbours, dists


def _pair_bound(cloud: np.ndarray, reach: float) -> int:
    """An upper bound on the directed pairs within ``reach``, self-pairs
    included, computed without listing any pair.

    In a grid of cells a little wider than ``reach``, a pair within reach
    lies in one cell or in two adjacent ones.  So with n_c points in cell c
    there are at most sum_c n_c * (points in c's 27 cells) such pairs, and
    since n_c * n_d <= (n_c**2 + n_d**2) / 2 that is at most
    27 * sum_c n_c**2.  Cell coordinates stay below 2**20 in magnitude, where
    rounding the division moves a point by far less than the extra width,
    and three of them pack into one int64 key; a cloud spread over more
    cells than that gets the trivial bound n * n."""
    n = cloud.shape[0]
    scaled = cloud / (reach * (1.0 + 2.0**-20))
    if not np.abs(scaled).max() < 2.0**20:
        return n * n
    ijk = np.floor(scaled).astype(np.int64) + 2**20
    _, counts = np.unique((ijk[:, 0] << 42) | (ijk[:, 1] << 21) | ijk[:, 2], return_counts=True)
    return 27 * int(counts @ counts)
