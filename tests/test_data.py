"""Dataset tests: generator determinism and bounds, area-weighted sampling,
render determinism, split disjointness, and file-format round trips."""

import hashlib

import numpy as np
import pytest

from patmod import data, geometry
from patmod.errors import ConfigError, DomainError


def test_generators_deterministic():
    for cls in data.SHAPE_CLASSES:
        a = data.generate_shape(cls, 7)
        b = data.generate_shape(cls, 7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2048, 3)


def test_generators_within_normalization_bounds():
    for cls in data.SHAPE_CLASSES:
        for seed in (0, 1, 99):
            cloud = data.generate_shape(cls, seed)
            assert np.abs(cloud).max() <= 0.45 + 1e-12


def test_different_seeds_different_shapes():
    a = data.generate_shape("table", 1)
    b = data.generate_shape("table", 2)
    assert not np.allclose(a, b)


def test_unknown_class_rejected():
    with pytest.raises(ConfigError):
        data.generate_shape("teapot", 0)


def test_surface_sampling_proportional_to_area():
    """Point counts per primitive track surface areas within 5% at 10k points."""
    rng = np.random.default_rng(3)
    prims = data.SHAPE_CLASSES["table"](rng)
    areas = np.array([p.area for p in prims])
    counts = data._apportion(areas, 10_000)
    expected = areas / areas.sum() * 10_000
    assert np.all(np.abs(counts - expected) / expected < 0.05)
    assert counts.sum() == 10_000


def test_apportion_exactness():
    counts = data._apportion(np.array([1.0, 1.0, 1.0]), 10)
    assert counts.sum() == 10
    assert counts.max() - counts.min() <= 1


def test_box_sampling_on_surface():
    box = data.BoxPrim((1.0, 2.0, 3.0), (0.5, 1.0, 2.0))
    pts = box.sample(np.random.default_rng(0), 500) - np.array([1.0, 2.0, 3.0])
    half = np.array([0.25, 0.5, 1.0])
    on_face = np.isclose(np.abs(pts), half).any(axis=1)
    inside = (np.abs(pts) <= half + 1e-12).all(axis=1)
    assert on_face.all() and inside.all()


def test_box_sample_of_one_point_draws_once():
    """A face apportioned no point draws nothing: one point on a box moves
    the generator exactly as one (1, 2) uniform draw does."""
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    data.BoxPrim((0.0, 0.0, 0.0), (0.5, 1.0, 2.0)).sample(rng, 1)
    ref.uniform(-1.0, 1.0, size=(1, 2))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_cylinder_sampling_on_surface():
    cyl = data.CylinderPrim((0.0, 0.0, 0.0), 1, 0.5, 2.0)
    pts = cyl.sample(np.random.default_rng(0), 500)
    radial = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
    on_wall = np.isclose(radial, 0.5)
    on_cap = np.isclose(np.abs(pts[:, 1]), 1.0) & (radial <= 0.5 + 1e-12)
    assert (on_wall | on_cap).all()


# ---------------------------------------------------------------------------
# rendering


def test_render_deterministic_bytes():
    cloud = data.generate_shape("chair", 5)
    a = data.render_image(cloud)
    b = data.render_image(cloud)
    assert a.tobytes() == b.tobytes()


def test_render_corners_empty_for_centered_shape():
    cloud = data.generate_shape("lamp", 2) * 0.3  # small centered shape
    img = data.render_image(cloud)[0]
    assert img[0, 0] == 0.0 and img[0, -1] == 0.0 and img[-1, 0] == 0.0 and img[-1, -1] == 0.0


def test_render_out_of_frame_is_all_zero():
    # translate perpendicular to the view axis so the projection leaves frame
    cloud = data.generate_shape("table", 1) + np.array([50.0, 0.0, 0.0])
    img = data.render_image(cloud)
    np.testing.assert_array_equal(img, np.zeros_like(img))


def test_render_range_and_shape():
    img = data.render_image(data.generate_shape("ring", 3), size=32)
    assert img.shape == (1, 32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0


# ---------------------------------------------------------------------------
# dataset assembly


def test_dataset_counts():
    split = data.DatasetSplit(train_per_class=8, test_per_class=2)
    ds = data.make_dataset(split, image_size=16)
    assert len(ds["train"]) == 3 * 8
    assert len(ds["test_seen"]) == 3 * 2
    assert len(ds["test_unseen"]) == 2 * 2


def test_unseen_classes_never_in_train():
    split = data.DatasetSplit(train_per_class=2, test_per_class=1)
    ds = data.make_dataset(split, image_size=16)
    train_classes = {s.class_name for s in ds["train"]}
    assert train_classes.isdisjoint(set(split.unseen_classes))


def test_overlapping_split_rejected():
    with pytest.raises(ConfigError):
        data.DatasetSplit(seen_classes=("table",), unseen_classes=("table",))


def test_same_master_seed_identical_manifests(tmp_path):
    split = data.DatasetSplit(train_per_class=1, test_per_class=1)
    m1 = data.write_dataset(tmp_path / "a", split, image_size=16)
    m2 = data.write_dataset(tmp_path / "b", split, image_size=16)
    assert m1.read_bytes() == m2.read_bytes()
    rec = data.read_manifest(m1)[0]
    assert (tmp_path / "a" / rec["cloud_path"]).read_bytes() == (
        tmp_path / "b" / rec["cloud_path"]
    ).read_bytes()


def test_sample_seed_stable():
    assert data.sample_seed(0, "table", 0) == data.sample_seed(0, "table", 0)
    assert data.sample_seed(0, "table", 0) != data.sample_seed(0, "table", 1)
    assert data.sample_seed(0, "table", 0) != data.sample_seed(1, "table", 0)


def test_gt_points_equal_the_downsample_bit_for_bit():
    sample = data.make_sample("chair", 3, image_size=8)
    for k in (1, 24, 1024, 2047):
        got = sample.gt_points(k)
        assert got.tobytes() == geometry.downsample(sample.gt_cloud, k).tobytes()
        assert sample.gt_points(k) is got  # computed once, then kept
    for k in (2048, 5000):
        assert sample.gt_points(k) is sample.gt_cloud


def test_gt_cloud_and_its_downsamples_are_read_only():
    sample = data.make_sample("lamp", 4, image_size=8)
    for cloud in (sample.gt_cloud, sample.gt_points(16)):
        with pytest.raises(ValueError, match="read-only"):
            cloud[0, 0] = 1.0


def test_cached_downsamples_stay_out_of_repr():
    a, b = (data.make_sample("ring", 5, image_size=8) for _ in range(2))
    a.gt_points(16)
    assert repr(a) == repr(b)


def test_samples_compare_by_identity():
    """A sample equals only itself, so comparing two samples never asks an
    array for its truth value, and ``in`` finds a sample in a list."""
    a, b = data.make_sample("table", 1, image_size=8), data.make_sample("chair", 2, image_size=8)
    assert (a == b) is False
    assert (a == a) is True
    assert b in [a, b]


def test_images_rerender_identically_from_stored_clouds(tmp_path):
    split = data.DatasetSplit(train_per_class=1, test_per_class=1)
    manifest = data.write_dataset(tmp_path, split, image_size=16)
    for rec in data.read_manifest(manifest)[:3]:
        cloud = data.read_xyz(tmp_path / rec["cloud_path"])
        stored = data.read_pgm(tmp_path / rec["image_path"])
        rerendered = data.render_image(cloud, size=16)
        # stored image is quantized to 8 bits; rerender must match at that precision
        q = np.clip(np.floor(rerendered * 255.0 + 0.5), 0, 255) / 255.0
        np.testing.assert_array_equal(stored, q)


def test_load_samples_filters_by_split(tmp_path):
    split = data.DatasetSplit(train_per_class=1, test_per_class=1)
    manifest = data.write_dataset(tmp_path, split, image_size=16)
    train = data.load_samples(manifest, "train")
    assert len(train) == 3
    assert all(isinstance(s.image, np.ndarray) for s in train)


@pytest.mark.parametrize(
    "line, message",
    [
        ('"table"', "expected a JSON object"),
        ('{"class": "table", "seed": 1, "cloud_path": "a.xyz", "image_path": "a.pgm"}', "missing key 'split'"),
        ('{"class": "table", "seed": true, "cloud_path": "a.xyz", "image_path": "a.pgm", "split": "train"}',
         "'seed' must be int"),
        ('{"class": "table", "seed": 1, "cloud_path": 5, "image_path": "a.pgm", "split": "train"}',
         "'cloud_path' must be str"),
        ('{"class": "table"', "Expecting ',' delimiter"),
    ],
    ids=["not_object", "missing_key", "bool_seed", "numeric_path", "not_json"],
)
def test_manifest_record_checked(tmp_path, line, message):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n" + line + "\n")
    with pytest.raises(DomainError, match=f"manifest.jsonl:2: .*{message}"):
        data.read_manifest(path)


# ---------------------------------------------------------------------------
# point cloud files


def test_xyz_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((100, 3))
    path = tmp_path / "c.xyz"
    data.write_xyz(path, cloud)
    np.testing.assert_array_equal(data.read_xyz(path), cloud)


def test_xyz_text_is_pinned(tmp_path):
    """Pins the bytes write_xyz produces: %.17g per coordinate, so negative
    zero, subnormals, huge values, inexact decimals and integers all keep
    their form; a deliberate format change updates this digest."""
    cloud = np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, 2.0], [-7.0, 0.0, 123456789.0], [1 / 3, -0.1, -1e308]])
    path = tmp_path / "pin.xyz"
    data.write_xyz(path, cloud)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "fd48afa2861f4e4d300ba1832d6c22475b1aa83e8bdfab522b30686b9c91ac19"
    )
    with pytest.raises(DomainError, match=r"pin.xyz:1: coordinate .* exceeds"):
        data.read_xyz(path)  # written, but refused on reading: 1e308 could overflow a squared distance
    cloud[[0, 3], 2] = [data.XYZ_MAX_ABS, -data.XYZ_MAX_ABS]
    data.write_xyz(path, cloud)
    np.testing.assert_array_equal(data.read_xyz(path), cloud)
    assert np.signbit(data.read_xyz(path)[0, 0])


def test_xyz_empty_cloud_rejected_naming_file(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("\n\n")
    with pytest.raises(DomainError, match="empty.xyz: empty point cloud"):
        data.read_xyz(path)


def test_xyz_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(DomainError, match="bad.xyz:2"):
        data.read_xyz(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("0 0 0\n1 x 2", "2: could not convert string to float: 'x'"),
        ("1 x 2\n1 2", "1: could not convert string to float: 'x'"),
        ("0 0 0\n1 2\n1 x 2", "2: expected 3 coordinates, got 2"),
    ],
    ids=["bad_token", "bad_token_before_short_line", "short_line_before_bad_token"],
)
def test_xyz_first_bad_line_in_file_order(tmp_path, text, where):
    """A bad token and a short line are reported by the same rule: the
    first bad line in the file, whatever its fault."""
    path = tmp_path / "bad.xyz"
    path.write_text(text)
    with pytest.raises(DomainError) as info:
        data.read_xyz(path)
    assert str(info.value) == f"{path}:{where}"


def test_xyz_huge_coordinate_rejected_naming_line(tmp_path):
    """A finite coordinate above XYZ_MAX_ABS would overflow a squared
    distance; the bound itself and its negative are accepted."""
    path = tmp_path / "huge.xyz"
    path.write_text("0 0 0\n1e200 0 0\n")
    with pytest.raises(DomainError, match=r"huge.xyz:2: coordinate .* exceeds 1e\+150 in magnitude"):
        data.read_xyz(path)
    path.write_text(f"{data.XYZ_MAX_ABS} 0 {-data.XYZ_MAX_ABS}\n")
    np.testing.assert_array_equal(data.read_xyz(path), [[data.XYZ_MAX_ABS, 0.0, -data.XYZ_MAX_ABS]])


def test_ply_single_point_layout(tmp_path):
    path = tmp_path / "p.ply"
    data.write_ply(path, np.array([[1.0, 2.0, 3.0]]))
    blob = path.read_bytes()
    header_end = blob.find(b"end_header\n") + len(b"end_header\n")
    assert len(blob) - header_end == 12  # 3 float32 values
    np.testing.assert_array_equal(
        np.frombuffer(blob[header_end:], dtype="<f4"), np.array([1.0, 2.0, 3.0], dtype=np.float32)
    )


def _ply_vertices(path) -> np.ndarray:
    """The vertices of a PLY file as ``write_ply`` lays it out: a 7-line
    header, then float32 x y z records."""
    blob = path.read_bytes()
    lines = blob.split(b"\n", 7)
    assert lines[:2] == [b"ply", b"format binary_little_endian 1.0"]
    assert lines[3:7] == [b"property float x", b"property float y", b"property float z", b"end_header"]
    count = int(lines[2].removeprefix(b"element vertex "))
    assert len(lines[7]) == 12 * count
    return np.frombuffer(lines[7], dtype="<f4").reshape(count, 3).astype(np.float64)


def test_ply_round_trip_within_float32(tmp_path):
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((50, 3))
    path = tmp_path / "c.ply"
    data.write_ply(path, cloud)
    back = _ply_vertices(path)
    ulp = np.abs(np.spacing(cloud.astype(np.float32)))
    assert np.all(np.abs(back - cloud) <= ulp)


def test_empty_cloud_write_rejected(tmp_path):
    with pytest.raises(DomainError):
        data.write_xyz(tmp_path / "e.xyz", np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# images


def test_pgm_header_and_zero_payload(tmp_path):
    path = tmp_path / "z.pgm"
    data.write_pgm(path, np.zeros((1, 64, 64)))
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n64 64\n255\n")
    assert blob[len(b"P5\n64 64\n255\n") :] == b"\x00" * (64 * 64)


def test_pgm_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.uniform(0.0, 1.0, (1, 16, 16))
    path = tmp_path / "i.pgm"
    data.write_pgm(path, img)
    back = data.read_pgm(path)
    assert back.shape == (1, 16, 16)
    assert np.abs(back - img).max() <= 1.0 / 255.0 + 1e-12


def test_pgm_rounding_half_up(tmp_path):
    path = tmp_path / "r.pgm"
    data.write_pgm(path, np.full((1, 1, 1), 0.5 / 255.0))
    assert data.read_pgm(path)[0, 0, 0] == 1.0 / 255.0


def test_pgm_bad_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(DomainError):
        data.read_pgm(path)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"P5\nx 8\n255\n" + bytes(64), "malformed PGM header"),
        (b"P5\n8 8\n65535\n" + bytes(128), "only maxval 255 supported, got 65535"),
        (b"P5\n8 8\n255\n" + bytes(10), "truncated pixel payload"),
    ],
    ids=["bad_width", "maxval_65535", "short_payload"],
)
def test_pgm_malformed_file_named(tmp_path, blob, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(DomainError) as info:
        data.read_pgm(path)
    assert str(info.value) == f"{path}: {message}"


def test_pgm_range_check():
    with pytest.raises(DomainError):
        data.write_pgm("/tmp/никогда.pgm", np.full((1, 2, 2), 1.5))
