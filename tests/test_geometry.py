"""Geometry tests: every accelerated path is checked against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patmod import autodiff as ad
from patmod import geometry as geo
from patmod.errors import ContractError, DomainError


def random_cloud(rng, n, scale=1.0):
    return rng.uniform(-scale, scale, size=(n, 3))


# ---------------------------------------------------------------------------
# bounding box


def test_bounding_box_two_points():
    box = geo.bounding_box(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), epsilon=0.0)
    np.testing.assert_array_equal(box.lo, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(box.hi, [1.0, 2.0, 3.0])


def test_bounding_box_degenerate_expands_to_epsilon():
    box = geo.bounding_box(np.array([[0.5, 0.5, 0.5]]), epsilon=0.25)
    np.testing.assert_allclose(box.sides, [0.25, 0.25, 0.25])


def test_bounding_box_empty_rejected():
    with pytest.raises(DomainError):
        geo.bounding_box(np.zeros((0, 3)))


def test_bounding_box_contains_all_points():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 100)
    box = geo.bounding_box(cloud, epsilon=1e-9)
    assert np.all((cloud >= box.lo) & (cloud <= box.hi))


# ---------------------------------------------------------------------------
# region splitting


def test_split_m8_has_two_segments_per_edge():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 64)
    rs = geo.split_regions(cloud, cloud, 8, capacity=64)
    assert rs.m_per_edge == 2
    assert len(rs) == 8


def test_split_m1_single_region_center_is_mean():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 50)
    rs = geo.split_regions(cloud, cloud, 1, capacity=64)
    region = rs.regions[0]
    assert region.real_count == 50
    np.testing.assert_allclose(region.center, cloud.mean(axis=0))


def test_split_partitions_source_exactly():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 500)
    rs = geo.split_regions(cloud, cloud, 8, capacity=500)
    seen = np.concatenate([r.source_rows for r in rs.regions])
    assert len(seen) == 500
    assert len(np.unique(seen)) == 500  # pairwise disjoint
    assert all(r.real_points.shape == (r.real_count, 3) for r in rs.regions)  # no padding rows
    rebuilt = np.vstack([r.real_points for r in rs.regions])
    np.testing.assert_array_equal(np.sort(rebuilt, axis=0), np.sort(cloud, axis=0))


def test_split_matches_brute_force_binning():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 200)
    rs = geo.split_regions(cloud, cloud, 27, capacity=200)
    box = rs.box
    cell = box.sides / 3
    for r in rs.regions:
        i, j, k = r.voxel_index
        lo = box.lo + cell * np.array([i, j, k])
        hi = lo + cell
        inside = np.all((cloud >= lo) & (cloud < hi), axis=1)
        assert set(np.flatnonzero(inside)) == set(r.source_rows)


def test_split_clamps_outside_points():
    reference = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    source = np.array([[5.0, 5.0, 5.0], [-3.0, 0.2, 0.2]])
    rs = geo.split_regions(source, reference, 8, capacity=4)
    counts = sum(r.real_count for r in rs.regions)
    assert counts == 2  # no silent point loss
    assert rs.regions[7].real_count == 1  # (1,1,1) voxel holds the far point


def test_split_overflow_truncates_lowest_index(caplog):
    cloud = np.tile([[0.1, 0.1, 0.1]], (10, 1)) + np.arange(10)[:, None] * 1e-6
    with caplog.at_level("WARNING"):
        rs = geo.split_regions(cloud, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 1, capacity=4)
    region = rs.regions[0]
    assert region.real_count == 4
    np.testing.assert_array_equal(region.source_rows, [0, 1, 2, 3])
    assert any("overflow" in r.message for r in caplog.records)


def test_split_non_cube_rejected():
    with pytest.raises(DomainError):
        geo.split_regions(np.ones((3, 3)), np.ones((3, 3)), 9, capacity=8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 500), st.sampled_from([1, 8, 27]), st.integers(0, 10_000))
def test_partition_property(n, m, seed):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n)
    rs = geo.split_regions(cloud, cloud, m, capacity=n)
    rows = np.concatenate([r.source_rows for r in rs.regions])
    assert sorted(rows.tolist()) == list(range(n))


# ---------------------------------------------------------------------------
# centering


def test_center_region_example():
    region = _region_of(np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]))
    centered = geo.center_region(region)
    np.testing.assert_array_equal(centered.center, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(centered.real_points, [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])


def test_center_already_centered_is_identity():
    pts = np.array([[-1.0, 0.0, 2.0], [1.0, 0.0, -2.0]])
    centered = geo.center_region(_region_of(pts))
    np.testing.assert_allclose(centered.real_points, pts, atol=1e-15)


def test_centered_mean_is_zero():
    rng = np.random.default_rng(5)
    centered = geo.center_region(_region_of(random_cloud(rng, 37)))
    assert np.abs(centered.real_points.mean(axis=0)).max() < 1e-12


def test_decenter_round_trip():
    rng = np.random.default_rng(6)
    region = _region_of(random_cloud(rng, 21), capacity=32)
    centered = geo.center_region(region)
    restored = geo.decenter(centered.real_points, centered.center)
    assert np.abs(restored - region.real_points).max() < 1e-12


def test_decenter_zero_center_is_identity():
    pts = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(geo.decenter(pts, np.zeros(3)), pts)


def test_center_empty_region_untouched():
    empty = geo.Region(np.zeros((0, 3)), np.zeros(3), (0, 0, 0), np.array([], dtype=np.intp))
    out = geo.center_region(empty)
    np.testing.assert_array_equal(out.center, np.zeros(3))
    assert out.real_points.shape == (0, 3)


def _region_of(points, capacity=None):
    capacity = capacity or len(points)
    rs = geo.split_regions(points, points, 1, capacity=capacity)
    return rs.regions[0]


# ---------------------------------------------------------------------------
# lattices


def test_lattice_256_voxel_is_8x8x4():
    pts = geo.grid_lattice(256, 0.5, "voxel")
    assert pts.shape == (256, 3)
    assert len(np.unique(pts[:, 0])) == 8
    assert len(np.unique(pts[:, 1])) == 8
    assert len(np.unique(pts[:, 2])) == 4
    assert np.abs(pts).max() <= 0.5


def test_lattice_8_voxel_is_cube_corners():
    pts = geo.grid_lattice(8, 1.0, "voxel")
    expected = {(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)}
    assert {tuple(p) for p in pts} == expected


def test_lattice_256_plane_is_16x16_z0():
    pts = geo.grid_lattice(256, 0.5, "plane")
    assert pts.shape == (256, 3)
    assert np.all(pts[:, 2] == 0.0)
    assert len(np.unique(pts[:, 0])) == 16


def test_lattice_rejects_bad_counts():
    with pytest.raises(DomainError):
        geo.grid_lattice(0, 1.0, "voxel")
    with pytest.raises(DomainError):
        geo.grid_lattice(8, 1.0, "plane")


# ---------------------------------------------------------------------------
# nearest neighbor


def test_nn_trivial():
    idx, dist = geo.nearest_neighbor(
        np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    )
    assert idx[0] == 1
    assert dist[0] == 0.5


def test_nn_coincident_point():
    idx, dist = geo.nearest_neighbor(np.ones((1, 3)), np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]]))
    assert idx[0] == 1
    assert dist[0] == 0.0


def test_nn_tie_breaks_to_lowest_index():
    targets = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    idx, _ = geo.nearest_neighbor(np.zeros((1, 3)), targets)
    assert idx[0] == 0


def test_nn_matches_brute_force():
    rng = np.random.default_rng(7)
    q = random_cloud(rng, 200)
    t = random_cloud(rng, 300)
    idx, dist = geo.nearest_neighbor(q, t)
    diff = q[:, None, :] - t[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.testing.assert_array_equal(idx, d.argmin(axis=1))
    np.testing.assert_array_equal(dist, d.min(axis=1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 120),
    st.integers(1, 120),
    st.sampled_from([None, 1.0, 0.5, 0.25, 0.1]),
    st.integers(0, 60),
    st.integers(0, 10_000),
)
def test_nn_equals_brute_force_bitwise(n, m, step, duplicates, seed):
    """Lowest-index argmin and its distance, bit for bit, including exact ties
    from lattice-rounded coordinates and duplicated targets."""
    rng = np.random.default_rng(seed)
    q = random_cloud(rng, n, 2.0)
    t = random_cloud(rng, m, 2.0)
    if step is not None:
        q = np.round(q / step) * step
        t = np.round(t / step) * step
    t = np.vstack([t, t[rng.integers(0, m, size=duplicates)]])
    idx, dist = geo.nearest_neighbor(q, t)
    for i in range(n):
        diffs = t - q[i]
        d = np.sqrt((diffs * diffs).sum(axis=1))
        assert idx[i] == np.flatnonzero(d == d.min())[0]
        assert dist[i].tobytes() == d.min().tobytes()


def test_nn_empty_targets_rejected():
    with pytest.raises(DomainError):
        geo.nearest_neighbor(np.zeros((1, 3)), np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# chamfer


def test_chamfer_identity_zero():
    rng = np.random.default_rng(8)
    x = random_cloud(rng, 20)
    assert geo.chamfer(x, x).item() == 0.0


def test_chamfer_singletons():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert geo.chamfer(a, b).item() == 2.0


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(9)
    a = random_cloud(rng, 30)
    b = random_cloud(rng, 40)
    assert abs(geo.chamfer(a, b).item() - geo.chamfer_brute_force(a, b)) < 1e-12


def test_chamfer_symmetry_exact():
    rng = np.random.default_rng(10)
    a = random_cloud(rng, 25)
    b = random_cloud(rng, 35)
    assert geo.chamfer(a, b).item() == geo.chamfer(b, a).item()


def test_chamfer_gradient_both_sides():
    rng = np.random.default_rng(11)
    a = random_cloud(rng, 5)
    b = random_cloud(rng, 7)
    assert ad.grad_check(lambda x: geo.chamfer(x, b), a) < 1e-4
    assert ad.grad_check(lambda x: geo.chamfer(a, x), b) < 1e-4


def test_chamfer_empty_rejected():
    with pytest.raises(DomainError):
        geo.chamfer(np.zeros((0, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# voxel grids


def _unit_box():
    return geo.AABB(np.zeros(3), np.ones(3))


def test_voxelize_single_center_point():
    grid = geo.voxelize(np.array([[0.5, 0.5, 0.5]]), 1, _unit_box())
    assert grid.occupancy.sum() == 1


def test_voxelize_identical_clouds_identical_grids():
    rng = np.random.default_rng(12)
    cloud = rng.uniform(0, 1, (50, 3))
    g1 = geo.voxelize(cloud, 8, _unit_box())
    g2 = geo.voxelize(cloud, 8, _unit_box())
    np.testing.assert_array_equal(g1.occupancy, g2.occupancy)
    assert geo.iou(g1, g2) == 1.0


def test_voxelize_matches_brute_force_binning():
    rng = np.random.default_rng(13)
    cloud = rng.uniform(0, 1, (100, 3))
    grid = geo.voxelize(cloud, 4, _unit_box())
    expected = np.zeros((4, 4, 4), dtype=bool)
    for p in cloud:
        i, j, k = np.minimum((p * 4).astype(int), 3)
        expected[i, j, k] = True
    np.testing.assert_array_equal(grid.occupancy, expected)


def test_iou_disjoint_zero():
    a = geo.voxelize(np.array([[0.1, 0.1, 0.1]]), 2, _unit_box())
    b = geo.voxelize(np.array([[0.9, 0.9, 0.9]]), 2, _unit_box())
    assert geo.iou(a, b) == 0.0


def test_iou_matches_set_arithmetic():
    rng = np.random.default_rng(14)
    ca = rng.uniform(0, 1, (60, 3))
    cb = rng.uniform(0, 1, (60, 3))
    ga = geo.voxelize(ca, 8, _unit_box())
    gb = geo.voxelize(cb, 8, _unit_box())
    sa = {tuple(x) for x in np.argwhere(ga.occupancy)}
    sb = {tuple(x) for x in np.argwhere(gb.occupancy)}
    assert geo.iou(ga, gb) == len(sa & sb) / len(sa | sb)


def test_iou_contract_errors():
    a = geo.voxelize(np.array([[0.5, 0.5, 0.5]]), 2, _unit_box())
    b = geo.voxelize(np.array([[0.5, 0.5, 0.5]]), 4, _unit_box())
    with pytest.raises(ContractError):
        geo.iou(a, b)


# ---------------------------------------------------------------------------
# downsampling


def test_downsample_k_equals_n():
    rng = np.random.default_rng(15)
    cloud = random_cloud(rng, 10)
    out = geo.downsample(cloud, 10, "fps")
    np.testing.assert_array_equal(np.sort(out, axis=0), np.sort(cloud, axis=0))


def test_fps_collinear_picks_endpoints():
    cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    out = geo.downsample(cloud, 2, "fps")
    np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])


def test_fps_spreads_better_than_random():
    rng = np.random.default_rng(16)
    cloud = random_cloud(rng, 200)
    fps_pts = geo.downsample(cloud, 20, "fps")
    fps_spread = _min_pairwise(fps_pts)
    wins = 0
    for seed in range(50):
        rnd = cloud[np.random.default_rng(seed).choice(200, size=20, replace=False)]
        if fps_spread >= _min_pairwise(rnd):
            wins += 1
    assert wins == 50


def test_downsample_too_many_rejected():
    with pytest.raises(DomainError):
        geo.downsample(np.ones((3, 3)), 4)


@pytest.mark.parametrize("k", [0, -1])
def test_downsample_below_one_rejected(k):
    with pytest.raises(DomainError, match=f"k must be >= 1, got {k}"):
        geo.downsample(np.ones((3, 3)), k)


def _fps_norm_loop(cloud, k):
    """Oracle: the greedy loop over ``np.linalg.norm`` rows."""
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = 0
    d = np.linalg.norm(cloud - cloud[0], axis=1)
    for step in range(1, k):
        nxt = int(np.argmax(d))
        chosen[step] = nxt
        d = np.minimum(d, np.linalg.norm(cloud - cloud[nxt], axis=1))
    return chosen


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 150),
    st.sampled_from(["one", "all", "some"]),
    st.sampled_from([None, 1.0, 0.5, 0.25]),
    st.integers(0, 40),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 2),
    st.integers(0, 10_000),
)
def test_fps_equals_norm_loop_bitwise(n, k_kind, step, duplicates, scale, nans, seed):
    """Same indices as the norm-based loop, including exact distance ties
    from lattice-rounded coordinates, duplicated points and NaN coordinates."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n, 2.0)
    if step is not None:
        cloud = np.round(cloud / step) * step
    cloud = np.vstack([cloud, cloud[rng.integers(0, n, size=duplicates)]]) * scale
    cloud[rng.integers(0, cloud.shape[0], size=nans), rng.integers(0, 3, size=nans)] = np.nan
    total = cloud.shape[0]
    k = {"one": 1, "all": total, "some": int(rng.integers(1, total + 1))}[k_kind]
    np.testing.assert_array_equal(geo.farthest_point_indices(cloud, k), _fps_norm_loop(cloud, k))


def test_downsample_accepts_only_fps():
    with pytest.raises(ContractError, match="unknown downsample method 'random'"):
        geo.downsample(np.ones((3, 3)), 2, "random")


def _min_pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return d[np.triu_indices(len(points), k=1)].min()
