"""Model tests: shape contracts, algebraic identities, ablation structure,
checkpoint round trips.  Heavy paper-scale runs live in the acceptance suite."""

import hashlib
import struct

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod import geometry as geo
from patmod.data import make_sample
from patmod.errors import ConfigError, ContractError
from patmod.model import (
    MINI_CONFIG,
    ModelConfig,
    PatternModel,
    learner_offsets,
    load_checkpoint,
    save_checkpoint,
    to_flat,
)
from patmod.training import TrainConfig, total_loss

TINY = dict(
    s_points=24,
    f_points=24,
    regions=8,
    patterns=2,
    pattern_points=4,
    image_feat=8,
    region_feat=4,
    image_size=8,
    conv_channels=(4, 4, 8, 8, 8, 8, 8),
)


@pytest.fixture(scope="module")
def tiny_model():
    return PatternModel(ModelConfig(**TINY), seed=3)


@pytest.fixture(scope="module")
def tiny_inputs():
    rng = np.random.default_rng(11)
    image = rng.uniform(0.0, 1.0, (1, 8, 8))
    gt = rng.uniform(-0.45, 0.45, (40, 3))
    return image, gt


def test_default_config_matches_stated_hyperparameters():
    c = ModelConfig()
    assert (c.s_points, c.f_points) == (2048, 2048)
    assert c.regions == 8
    assert c.patterns == 8
    assert c.pattern_points == 256
    assert c.image_feat == 1024
    assert c.region_feat == 64
    assert c.region_capacity == 2048


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(s_points=100, f_points=200)
    with pytest.raises(ConfigError):
        ModelConfig(regions=9)
    with pytest.raises(ConfigError):
        ModelConfig(sampling_mode="spiral")
    with pytest.raises(ConfigError):
        ModelConfig(no_local=True, no_shift=True)


def test_config_flat_round_trip():
    c = ModelConfig(**MINI_CONFIG)
    assert ModelConfig.from_flat(to_flat(c)) == c


def test_learner_offsets_distinct_and_bounded():
    off = learner_offsets(8)
    assert off.shape == (8, 3)
    assert np.abs(off).max() <= 0.25
    assert len({tuple(o) for o in off}) == 8


def test_encode_image_output_shape(tiny_model, tiny_inputs):
    image, _ = tiny_inputs
    pt = tiny_model._watch_all(None)
    f_i = tiny_model.encode_image(image, pt)
    assert f_i.shape == (1, 8)


def test_encode_image_zero_input_finite(tiny_model):
    pt = tiny_model._watch_all(None)
    f_i = tiny_model.encode_image(np.zeros((1, 8, 8)), pt)
    assert np.isfinite(f_i.data).all()


def test_encode_image_wrong_size_rejected(tiny_model):
    pt = tiny_model._watch_all(None)
    with pytest.raises(ContractError):
        tiny_model.encode_image(np.zeros((1, 16, 16)), pt)


def test_encode_image_records_one_node_per_layer(tiny_model, tiny_inputs):
    """Each conv layer is one node (bias and ReLU fused), then the flatten
    and the two dense layers."""
    image, _ = tiny_inputs
    tape = ad.Tape()
    pt = tiny_model._watch_all(tape)
    start = len(tape.nodes)
    tiny_model.encode_image(image, pt)
    kinds = [node.kind for node in tape.nodes[start:]]
    assert kinds == ["conv2d"] * 7 + ["reshape", "linear", "linear"]


def test_encoder_conv_gradients_match_finite_differences(tiny_inputs):
    """Scalar head over the full conv stack, checked per kernel coordinate."""
    image, _ = tiny_inputs
    model = PatternModel(ModelConfig(**TINY), seed=5)
    for i in range(1, 8):
        param = model.params[f"encoder.conv{i}.weight"]

        def head(values):
            pt = model._watch_all(None)
            pt[param.name] = values
            return model.encode_image(image, pt)

        err = ad.grad_check(head, param.data.copy())
        assert err < 1e-4, f"conv{i}: {err}"


def test_decode_shape_range_and_shape(tiny_model, tiny_inputs):
    image, _ = tiny_inputs
    pt = tiny_model._watch_all(None)
    s = tiny_model.decode_shape(tiny_model.encode_image(image, pt), pt)
    assert s.shape == (24, 3)
    assert np.abs(s.data).max() < 1.0


def test_decoder_parameter_count_closed_form(tiny_model):
    counts = tiny_model.param_count()
    h, s = 8, 24
    assert counts["decoder"] == h * 3 * s + 3 * s


def test_pattern_learner_structure(tiny_model):
    learner = [name for name in tiny_model.params if name.startswith("learner")]
    assert learner == [
        f"learner{n}.fc{i}.{kind}" for n in range(2) for i in (1, 2, 3) for kind in ("weight", "bias")
    ]
    shapes = [tiny_model.params[f"learner0.fc{i}.weight"].data.shape for i in (1, 2, 3)]
    assert shapes == [(3, 64), (64, 256), (256, 3)]
    pt = tiny_model._watch_all(None)
    patterns = tiny_model.compute_patterns(pt)
    for p in patterns:
        assert p.shape == (4, 3)
        assert np.abs(p.data).max() < 1.0


def test_same_weights_different_offsets_different_patterns():
    cfg = ModelConfig(**TINY)
    model = PatternModel(cfg, seed=7)
    # copy learner 0 weights onto learner 1; offsets still differ
    for layer in ("fc1", "fc2", "fc3"):
        for kind in ("weight", "bias"):
            model.params[f"learner1.{layer}.{kind}"].data = model.params[f"learner0.{layer}.{kind}"].data.copy()
    pt = model._watch_all(None)
    p0, p1 = model.compute_patterns(pt)
    assert not np.allclose(p0.data, p1.data)


def test_region_encoder_permutation_invariance(tiny_model):
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((10, 3)) * 0.1
    pt = tiny_model._watch_all(None)
    f1 = tiny_model.encode_region(ad.constant(pts), pt)
    f2 = tiny_model.encode_region(ad.constant(pts[rng.permutation(10)]), pt)
    np.testing.assert_array_equal(f1.data, f2.data)
    assert f1.shape == (1, 4)


def test_forward_trace_shapes_and_ranges(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    kept = tiny_model.forward(image, reference=gt)
    for r, t, u, region in zip(kept.r_prime, kept.shifts, kept.u, kept.region_set.regions):
        assert r.shape == t.shape == u.shape == (region.real_count, 3)
    trace = tiny_model.forward(image, reference=gt, full_trace=True)
    c = tiny_model.config
    npn = c.patterns * c.pattern_points
    assert trace.s_cloud.shape == (24, 3)
    assert len(trace.r_prime) == 8
    for r, t, u in zip(trace.r_prime, trace.shifts, trace.u):
        assert r.shape == t.shape == u.shape == (npn, 3)
    assert trace.f_r.shape == (8, 4)
    total_real = sum(r.real_count for r in trace.region_set.regions)
    assert trace.f_cloud.shape == (total_real, 3)
    assert np.isfinite(trace.f_cloud).all()


def test_forward_padding_rows_never_reach_region_encoder(tiny_model, tiny_inputs):
    """f_R must equal the encoding of exactly the real (centered) rows."""
    image, gt = tiny_inputs
    trace = tiny_model.forward(image, reference=gt)
    pt = tiny_model._watch_all(None)
    for m, region in enumerate(trace.region_set.regions):
        if region.is_empty:
            np.testing.assert_array_equal(trace.f_r[m], np.zeros(4))
            continue
        centered = region.real_points - region.real_points.mean(axis=0)
        expected = tiny_model.encode_region(ad.constant(centered), pt)
        np.testing.assert_allclose(trace.f_r[m], expected.data[0], atol=1e-12)


def test_residual_identity_exact(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    trace = tiny_model.forward(image, reference=gt)
    for r, t, u in zip(trace.r_prime, trace.shifts, trace.u):
        np.testing.assert_array_equal(u - r, t)


def test_zeroed_final_customizer_layer_gives_identity(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY), seed=9)
    model.params["customizer.fc3.weight"].data = np.zeros_like(model.params["customizer.fc3.weight"].data)
    model.params["customizer.fc3.bias"].data = np.zeros_like(model.params["customizer.fc3.bias"].data)
    trace = model.forward(image, reference=gt)
    for r, t, u in zip(trace.r_prime, trace.shifts, trace.u):
        np.testing.assert_array_equal(t, np.zeros_like(t))
        np.testing.assert_array_equal(u, r)


def test_pattern_block_structure(tiny_inputs):
    """Perturbing modularizer j touches only rows [j*P, (j+1)*P) of each region."""
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY), seed=21)
    base = model.forward(image, reference=gt, full_trace=True)
    model.params["modularizer1.fc2.weight"].data = model.params["modularizer1.fc2.weight"].data + 0.05
    bumped = model.forward(image, reference=gt, full_trace=True)
    p_rows = model.config.pattern_points
    for r0, r1 in zip(base.r_prime, bumped.r_prime):
        np.testing.assert_array_equal(r0[:p_rows], r1[:p_rows])  # pattern 0 rows
        assert not np.allclose(r0[p_rows:], r1[p_rows:])  # pattern 1 rows moved


def _assert_kept_rows_agree(model, image, reference, gt):
    """The default pass and the full-trace pass agree on losses, gradients
    and kept rows; returns the kept row count per region."""
    runs = []
    for full_trace in (False, True):
        tape = ad.Tape()
        trace = model.forward(image, reference=reference, tape=tape, full_trace=full_trace)
        loss, _ = total_loss(trace, gt, TrainConfig(), model.config)
        runs.append((trace, loss.item(), {k: v.data for k, v in ad.backward(loss).items()}))
    (pruned, loss_p, grads_p), (full, loss_f, grads_f) = runs
    assert abs(loss_p - loss_f) <= 1e-12 * abs(loss_f)
    assert grads_p.keys() == grads_f.keys()
    for name, g in grads_f.items():
        assert np.abs(grads_p[name] - g).max() <= 1e-10 * np.abs(g).max(), name
    np.testing.assert_allclose(pruned.f_cloud, full.f_cloud, rtol=0, atol=1e-14)
    capacity = model.config.region_capacity
    for u_p, u_f, region in zip(pruned.u, full.u, pruned.region_set.regions):
        k = region.real_count
        assert u_p.shape == (k, 3) and u_f.shape == (capacity, 3)
        np.testing.assert_allclose(u_p, u_f[:k], rtol=0, atol=1e-14)
    return [r.real_count for r in pruned.region_set.regions]


def test_pruned_pass_equals_full_trace_on_kept_rows(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY), seed=3)
    # split by the prediction: empty regions, regions inside pattern 0 and
    # regions reaching into pattern 1
    counts = _assert_kept_rows_agree(model, image, None, gt)
    p = model.config.pattern_points
    assert 0 in counts and any(0 < k < p for k in counts) and any(p < k < 2 * p for k in counts)
    _assert_kept_rows_agree(model, image, gt, gt)


def test_pruned_pass_equals_full_trace_at_paper_scale():
    sample = make_sample("chair", 501)
    model = PatternModel(ModelConfig(), seed=0)
    counts = _assert_kept_rows_agree(model, sample.image, sample.gt_cloud, sample.gt_cloud)
    assert sum(counts) == model.config.f_points and max(counts) < model.config.region_capacity


def test_patterns_input_independent(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    rng = np.random.default_rng(17)
    other = rng.uniform(0.0, 1.0, (1, 8, 8))
    t1 = tiny_model.forward(image, reference=gt)
    t2 = tiny_model.forward(other, reference=gt)
    for a, b in zip(t1.patterns, t2.patterns):
        np.testing.assert_array_equal(a, b)


def test_inference_ignores_poisoned_ground_truth(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    reference_run = tiny_model.forward(image, reference=gt)
    inference = tiny_model.reconstruct(image)
    # inference has no ground-truth channel at all; a poisoned dataset entry
    # cannot change its output
    poisoned_inference = tiny_model.reconstruct(image.copy())
    np.testing.assert_array_equal(inference.f_cloud, poisoned_inference.f_cloud)
    assert np.isfinite(inference.f_cloud).all()
    # and the split really came from the prediction, not the (different) gt box
    assert inference.region_set.box.max_side != reference_run.region_set.box.max_side


def test_no_shift_equals_modularized_regions(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY, no_shift=True), seed=9)
    trace = model.forward(image, reference=gt)
    for r, t, u in zip(trace.r_prime, trace.shifts, trace.u):
        np.testing.assert_array_equal(t, np.zeros_like(t))
        np.testing.assert_array_equal(u, r)
    rebuilt = np.vstack(
        [u[: reg.real_count] for u, reg in zip(trace.u, trace.region_set.regions) if reg.real_count]
    )
    np.testing.assert_array_equal(trace.f_cloud, rebuilt)


def test_no_patterns_feeds_regions_to_customizer(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY, no_patterns=True), seed=9)
    names = set(model.params)
    assert not any(n.startswith(("learner", "modularizer", "region_encoder")) for n in names)
    trace = model.forward(image, reference=gt, full_trace=True)
    for block, region in zip(trace.r_prime, trace.region_set.regions):
        k = region.real_count
        np.testing.assert_array_equal(block[:k], region.real_points)
        np.testing.assert_array_equal(block[k:], 0.0)


def test_no_local_returns_initial_prediction(tiny_inputs):
    image, _ = tiny_inputs
    model = PatternModel(ModelConfig(**TINY, no_local=True), seed=9)
    names = set(model.params)
    assert all(n.startswith(("encoder", "decoder")) for n in names)
    trace = model.forward(image)
    np.testing.assert_array_equal(trace.f_cloud, trace.s_cloud)


def test_forward_deterministic(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    a = tiny_model.forward(image, reference=gt)
    b = tiny_model.forward(image, reference=gt)
    np.testing.assert_array_equal(a.f_cloud, b.f_cloud)


def test_pattern_learner_count_closed_form(tiny_model):
    counts = tiny_model.param_count()
    per_learner = (3 * 64 + 64) + (64 * 256 + 256) + (256 * 3 + 3)
    assert counts["learners"] == 2 * per_learner


def test_modularizer_count_closed_form(tiny_model):
    e = tiny_model.config.region_feat
    per = ((3 + e) * 512 + 512) + (512 * 256 + 256) + (256 * 128 + 128) + (128 * 3 + 3)
    assert tiny_model.param_count()["modularizers"] == 2 * per


def test_customizer_count_closed_form(tiny_model):
    h = tiny_model.config.image_feat
    expected = ((3 + h) * 512 + 512) + (512 * 128 + 128) + (128 * 3 + 3)
    assert tiny_model.param_count()["customizer"] == expected


def test_checkpoint_round_trip_bit_exact(tmp_path, tiny_model):
    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model, {"train.note": "unit"})
    loaded, flat = load_checkpoint(path)
    assert flat["train.note"] == "unit"
    originals = {p.name: p.data for p in tiny_model.parameters()}
    for p in loaded.parameters():
        np.testing.assert_array_equal(p.data, originals[p.name])
    # and the reloaded model reproduces outputs bitwise
    rng = np.random.default_rng(1)
    image = rng.uniform(0, 1, (1, 8, 8))
    np.testing.assert_array_equal(
        tiny_model.reconstruct(image).f_cloud, loaded.reconstruct(image).f_cloud
    )


@pytest.mark.parametrize(
    "flags, digest",
    [
        ({}, "a61ea235e81b1ef0109a2022f941596fc434d87895e92ab772610142bc68a3d1"),
        ({"no_patterns": True}, "c24ccbc2750014773fe54319c545a8ab1fc5b994516aa2c23709ec61d23c0725"),
    ],
    ids=["mini", "mini_no_patterns"],
)
def test_initial_checkpoint_digest_is_pinned(tmp_path, flags, digest):
    """Pins the RNG draw order of initialization and the parameter order of
    the file; a deliberate change to either updates these digests."""
    path = tmp_path / "init.pmod"
    save_checkpoint(path, PatternModel(ModelConfig(**MINI_CONFIG, **flags), seed=0))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parameters_follow_registry_order(tiny_model):
    names = list(tiny_model.params)
    assert [p.name for p in tiny_model.parameters()] == names
    assert names[:2] == ["encoder.conv1.weight", "encoder.conv1.bias"]
    assert names[-2:] == ["customizer.fc3.weight", "customizer.fc3.bias"]
    with pytest.raises(ContractError, match="registered twice"):
        tiny_model._register("customizer.fc3.bias", np.zeros((1, 3)))


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, tiny_model, monkeypatch):
    import patmod.model as model_module

    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)
    before = path.read_bytes()

    class HalfWrite:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(model_module, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
    tiny_model.params["customizer.fc3.bias"].data += 1.0
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, tiny_model)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.pmod"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.pmod"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_checkpoint_rejects_repeated_and_missing_parameter(tmp_path, tiny_model, monkeypatch):
    params = tiny_model.parameters()
    assert params[-1].name == "customizer.fc3.bias"
    # the first record stored twice in place of the last one
    monkeypatch.setattr(tiny_model, "parameters", lambda: params[:-1] + params[:1])
    path = tmp_path / "dup.pmod"
    save_checkpoint(path, tiny_model)
    monkeypatch.undo()
    with pytest.raises(ContractError, match="stored twice"):
        load_checkpoint(path)


def test_checkpoint_truncation_is_a_contract_error(tmp_path, tiny_model):
    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)
    blob = path.read_bytes()
    cut = tmp_path / "cut.pmod"
    # inside the version, the config length, the config block, a parameter
    # header and the last parameter's values
    for size in (5, 8, 20, 500, len(blob) // 2, len(blob) - 1):
        cut.write_bytes(blob[:size])
        with pytest.raises(ContractError, match="truncated"):
            load_checkpoint(cut)


def test_checkpoint_trailing_bytes_rejected(tmp_path, tiny_model):
    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ContractError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_undecodable_name_is_a_contract_error(tmp_path, tiny_model):
    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)
    blob = bytearray(path.read_bytes())
    first = tiny_model.parameters()[0].name.encode()
    blob[blob.index(first)] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match="undecodable"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("pattern_extent=0.3\n", ""), r"missing keys \['pattern_extent'\]"),
        (lambda text: text + "\nextent=0.3", r"unknown keys \['extent'\]"),
        (lambda text: text + "\npattern_extent", "expected key=value"),
    ],
    ids=["missing_key", "unknown_key", "line_without_equals"],
)
def test_checkpoint_config_block_is_strict(tmp_path, edit, message):
    path = tmp_path / "model.pmod"
    save_checkpoint(path, PatternModel(ModelConfig(**TINY, pattern_extent=0.3), seed=2))
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[6:10])  # after magic and version
    text = edit(blob[10 : 10 + size].decode()).encode()
    path.write_bytes(blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + size :])
    with pytest.raises(ContractError, match=message):
        load_checkpoint(path)


def test_config_from_flat_rejects_non_boolean_words():
    flat = to_flat(ModelConfig(**MINI_CONFIG))
    for word in ("1", "yes", "TRUE", "True"):
        assert ModelConfig.from_flat({**flat, "no_shift": word}).no_shift is True
    for word in ("0", "no", "FALSE", "False"):
        assert ModelConfig.from_flat({**flat, "no_shift": word}).no_shift is False
    for word in ("ture", "", "2", "on"):
        with pytest.raises(ConfigError):
            ModelConfig.from_flat({**flat, "no_shift": word})


def test_end_to_end_gradients_flow_to_every_component(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    tape = ad.Tape()
    trace = tiny_model.forward(image, reference=gt, tape=tape)
    loss = geo.chamfer(trace.f_tensor, gt)
    grads = ad.backward(loss)
    zero_components = [
        name for name, g in grads.items() if not np.any(g.data) and "bias" not in name
    ]
    # every weight matrix should receive signal on a generic input
    assert zero_components == []
