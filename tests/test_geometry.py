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


def _split_one(source, reference, m, capacity):
    return geo.split_regions([source], [reference], m, capacity)


def _region_rows(split):
    """Each region's rows, one array per region."""
    return np.split(split.rows, np.cumsum(split.counts)[:-1])


def test_split_m8_has_two_segments_per_edge():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 64)
    split = _split_one(cloud, cloud, 8, capacity=64)
    assert len(split.counts) == 8
    box = geo.bounding_box(cloud, epsilon=geo._split_epsilon(cloud))
    np.testing.assert_array_equal(split.counts, np.bincount(geo.voxel_assign(cloud, box, 2), minlength=8))


def test_split_m1_single_region_center_is_mean():
    """One region holds every point, and the model's block mean of its rows
    is the cloud's mean."""
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 50)
    split = _split_one(cloud, cloud, 1, capacity=64)
    assert split.counts.tolist() == [50]
    center = ad.mean_over_blocks(cloud[split.rows], np.zeros(50, dtype=np.intp), 1).data[0]
    np.testing.assert_allclose(center, cloud.mean(axis=0))


def test_split_partitions_source_exactly():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 500)
    split = _split_one(cloud, cloud, 8, capacity=500)
    seen = split.rows
    assert len(seen) == 500
    assert len(np.unique(seen)) == 500  # pairwise disjoint
    assert split.counts.sum() == len(seen)  # no padding rows
    rebuilt = cloud[seen]
    np.testing.assert_array_equal(np.sort(rebuilt, axis=0), np.sort(cloud, axis=0))


def test_split_matches_brute_force_binning():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 200)
    split = _split_one(cloud, cloud, 27, capacity=200)
    (box,) = split.boxes
    cell = box.sides / 3
    for m, rows in enumerate(_region_rows(split)):
        i, rem = divmod(m, 9)
        j, k = divmod(rem, 3)
        lo = box.lo + cell * np.array([i, j, k])
        hi = lo + cell
        inside = np.all((cloud >= lo) & (cloud < hi), axis=1)
        assert set(np.flatnonzero(inside)) == set(rows)


def test_split_clamps_outside_points():
    reference = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    source = np.array([[5.0, 5.0, 5.0], [-3.0, 0.2, 0.2]])
    split = _split_one(source, reference, 8, capacity=4)
    assert split.counts.sum() == 2  # no silent point loss
    assert split.counts[7] == 1  # (1,1,1) voxel holds the far point


def test_split_overflow_truncates_lowest_index(caplog):
    cloud = np.tile([[0.1, 0.1, 0.1]], (10, 1)) + np.arange(10)[:, None] * 1e-6
    with caplog.at_level("WARNING"):
        split = _split_one(cloud, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 1, capacity=4)
    assert split.counts.tolist() == [4]
    np.testing.assert_array_equal(split.rows, [0, 1, 2, 3])
    assert any("overflow" in r.message for r in caplog.records)


def test_split_non_cube_rejected():
    with pytest.raises(DomainError):
        _split_one(np.ones((3, 3)), np.ones((3, 3)), 9, capacity=8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 500), st.sampled_from([1, 8, 27]), st.integers(0, 10_000))
def test_partition_property(n, m, seed):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n)
    split = _split_one(cloud, cloud, m, capacity=n)
    assert sorted(split.rows.tolist()) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 120), min_size=1, max_size=4),
    st.sampled_from([1, 8, 27]),
    st.sampled_from([1, 3, 10, None]),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_batched_split_equals_per_member_loop(sizes, m, capacity, own_reference, seed):
    """One split of B members gives, bit for bit, the rows and counts of a
    per-member ``flatnonzero`` loop: unequal (even empty) members, sources
    reaching outside a separate reference's box, overflowing regions."""
    rng = np.random.default_rng(seed)
    sources = [random_cloud(rng, n, 1.5) for n in sizes]
    references = [s if own_reference and len(s) else random_cloud(rng, 5) for s in sources]
    capacity = capacity or max(sizes) + 1
    split = geo.split_regions(sources, references, m, capacity)

    want_rows, want_counts, offset = [], [], 0
    for source, reference in zip(sources, references):
        box = geo.bounding_box(reference, epsilon=geo._split_epsilon(reference))
        flat = geo.voxel_assign(source, box, geo._cube_edge(m))
        for region in range(m):
            rows = np.flatnonzero(flat == region)[:capacity]
            want_rows.append(rows + offset)
            want_counts.append(len(rows))
        offset += len(source)
    np.testing.assert_array_equal(split.rows, np.concatenate(want_rows))
    np.testing.assert_array_equal(split.counts, want_counts)
    assert split.rows.dtype == np.intp and len(split.boxes) == len(sizes)


# ---------------------------------------------------------------------------
# centering, as the model runs it: gather a region's rows, subtract their
# block mean, and add the mean back in the object frame


def _centered(points, capacity=None):
    """(rows, centers, centered) of the single region holding ``points``."""
    capacity = capacity or len(points)
    split = _split_one(points, points, 1, capacity=capacity)
    owner = np.zeros(len(split.rows), dtype=np.intp)
    real = ad.gather_rows(ad.constant(points), split.rows)
    centers = ad.mean_over_blocks(real, owner, 1)
    return real, centers, ad.sub(real, ad.gather_rows(centers, owner))


def test_center_region_example():
    _, centers, centered = _centered(np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]))
    np.testing.assert_array_equal(centers.data[0], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(centered.data, [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])


def test_center_already_centered_is_identity():
    pts = np.array([[-1.0, 0.0, 2.0], [1.0, 0.0, -2.0]])
    _, _, centered = _centered(pts)
    np.testing.assert_allclose(centered.data, pts, atol=1e-15)


def test_centered_mean_is_zero():
    rng = np.random.default_rng(5)
    _, _, centered = _centered(random_cloud(rng, 37))
    assert np.abs(centered.data.mean(axis=0)).max() < 1e-12


def test_decenter_round_trip():
    rng = np.random.default_rng(6)
    real, centers, centered = _centered(random_cloud(rng, 21), capacity=32)
    restored = ad.add(centered, ad.gather_rows(centers, np.zeros(21, dtype=np.intp)))
    assert np.abs(restored.data - real.data).max() < 1e-12


def test_decenter_zero_center_is_identity():
    pts = np.array([[1.0, 2.0, 3.0]])
    restored = ad.add(ad.constant(pts), ad.gather_rows(ad.constant(np.zeros((1, 3))), [0]))
    np.testing.assert_array_equal(restored.data, pts)


def test_center_empty_region_untouched():
    """A region without rows has a zero center and no centered rows."""
    split = _split_one(np.array([[0.1, 0.1, 0.1]]), np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 8, capacity=4)
    owner = np.repeat(np.arange(8), split.counts)
    empty = np.flatnonzero(split.counts == 0)
    assert len(empty) == 7
    centers = ad.mean_over_blocks(ad.constant(np.array([[0.1, 0.1, 0.1]])[split.rows]), owner, 8)
    np.testing.assert_array_equal(centers.data[empty], np.zeros((7, 3)))
    assert not np.isin(empty, owner).any()


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


def _row_pairs(rng, n_a, n_b, n_pairs):
    """Disjoint, shuffled row sets of a and b, one nonempty pair each (rows
    of a or b that no pair takes are left out)."""
    cuts_a = np.sort(rng.choice(np.arange(1, n_a), n_pairs, replace=False))
    cuts_b = np.sort(rng.choice(np.arange(1, n_b), n_pairs, replace=False))
    rows_a = np.split(rng.permutation(n_a), cuts_a)[:n_pairs]
    rows_b = np.split(rng.permutation(n_b), cuts_b)[:n_pairs]
    return list(zip(rows_a, rows_b))


def test_chamfer_over_pairs_equals_sum_of_pair_chamfers():
    """One call over row pairs sums the Chamfer of each pair, to 1e-12, in
    value and in the gradient of both sides; both gradients pass the
    finite-difference check."""
    rng = np.random.default_rng(12)
    a, b = random_cloud(rng, 60), random_cloud(rng, 50)
    pairs = _row_pairs(rng, 60, 50, 5)
    want = sum(geo.chamfer(a[ra], b[rb]).item() for ra, rb in pairs)
    assert abs(geo.chamfer(a, b, pairs).item() - want) <= 1e-12 * want

    def grads(loss_of):
        tape = ad.Tape()
        pa, pb = ad.Parameter("a", a), ad.Parameter("b", b)
        g = ad.backward(loss_of(tape.watch(pa), tape.watch(pb)))
        return g["a"].data, g["b"].data

    def per_pair(at, bt):
        terms = [geo.chamfer(ad.gather_rows(at, ra), ad.gather_rows(bt, rb)) for ra, rb in pairs]
        return ad.reduce_sum(ad.concat([ad.reshape(t, (1, 1)) for t in terms]))

    for got, expected in zip(grads(lambda at, bt: geo.chamfer(at, bt, pairs)), grads(per_pair)):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    assert ad.grad_check(lambda x: geo.chamfer(x, b, pairs), a) < 1e-4
    assert ad.grad_check(lambda x: geo.chamfer(a, x, pairs), b) < 1e-4


def test_chamfer_one_whole_pair_equals_plain_call_bitwise():
    rng = np.random.default_rng(13)
    a, b = random_cloud(rng, 30), random_cloud(rng, 40)
    whole = [(np.arange(30), np.arange(40))]
    assert geo.chamfer(a, b, whole).item() == geo.chamfer(a, b).item()


def test_chamfer_rejects_an_empty_pair_or_no_pairs():
    a, b = np.ones((3, 3)), np.zeros((2, 3))
    with pytest.raises(DomainError, match="empty cloud"):
        geo.chamfer(a, b, [(np.arange(3), np.arange(2)), (np.arange(0), np.arange(2))])
    with pytest.raises(DomainError, match="empty cloud or pair list"):
        geo.chamfer(a, b, [])


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
    out = geo.downsample(cloud, 10)
    np.testing.assert_array_equal(np.sort(out, axis=0), np.sort(cloud, axis=0))


def test_fps_collinear_picks_endpoints():
    cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    out = geo.downsample(cloud, 2)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])


def test_fps_spreads_better_than_random():
    rng = np.random.default_rng(16)
    cloud = random_cloud(rng, 200)
    fps_pts = geo.downsample(cloud, 20)
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


def _min_pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return d[np.triu_indices(len(points), k=1)].min()
