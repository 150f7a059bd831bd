"""Dataset tests: generator determinism and bounds, area-weighted sampling,
render determinism, split disjointness, and file-format round trips."""

import numpy as np
import pytest

from patmod import data
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


def test_view_from_seed():
    np.testing.assert_allclose(np.linalg.norm(data.view_from_seed(None)), 1.0)
    a, b = data.view_from_seed(1), data.view_from_seed(2)
    assert not np.allclose(a, b)


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
    ],
    ids=["not_object", "missing_key", "bool_seed", "numeric_path"],
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


def test_xyz_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(DomainError, match="bad.xyz:2"):
        data.read_xyz(path)


def test_ply_single_point_layout(tmp_path):
    path = tmp_path / "p.ply"
    data.write_ply(path, np.array([[1.0, 2.0, 3.0]]))
    blob = path.read_bytes()
    header_end = blob.find(b"end_header\n") + len(b"end_header\n")
    assert len(blob) - header_end == 12  # 3 float32 values
    np.testing.assert_array_equal(
        np.frombuffer(blob[header_end:], dtype="<f4"), np.array([1.0, 2.0, 3.0], dtype=np.float32)
    )


def test_ply_round_trip_within_float32(tmp_path):
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((50, 3))
    path = tmp_path / "c.ply"
    data.write_ply(path, cloud)
    back = data.read_ply(path)
    ulp = np.abs(np.spacing(cloud.astype(np.float32)))
    assert np.all(np.abs(back - cloud) <= ulp)


def test_ply_truncation_detected(tmp_path):
    path = tmp_path / "t.ply"
    data.write_ply(path, np.ones((4, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(DomainError, match="truncated"):
        data.read_ply(path)


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


def test_pgm_range_check():
    with pytest.raises(DomainError):
        data.write_pgm("/tmp/никогда.pgm", np.full((1, 2, 2), 1.5))
