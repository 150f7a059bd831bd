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
    with pytest.raises(ConfigError, match="plane mode needs a square point count"):
        ModelConfig(**{**MINI_CONFIG, "sampling_mode": "plane"})  # 8 points
    for flags in ({}, {"no_patterns": True}):
        with pytest.raises(ConfigError, match="pattern_points"):
            ModelConfig(**{**MINI_CONFIG, "pattern_points": 0}, **flags)
    # linspace(-e, e) overflows once 2e is not finite
    with pytest.raises(ConfigError, match="lattice span 2 \\* 1e\\+308 is not finite"):
        ModelConfig(**{**MINI_CONFIG, "pattern_extent": 1e308})
    assert np.isfinite(PatternModel(ModelConfig(**{**MINI_CONFIG, "pattern_extent": 8e307})).lattice).all()
    # no lattice is built without patterns, so any point count is a valid plane
    assert ModelConfig(**{**MINI_CONFIG, "sampling_mode": "plane"}, no_patterns=True).pattern_points == 8


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
    one_block = np.zeros(10, dtype=np.intp)
    f1 = tiny_model.encode_region(ad.constant(pts), pt, one_block, 1)
    f2 = tiny_model.encode_region(ad.constant(pts[rng.permutation(10)]), pt, one_block, 1)
    np.testing.assert_array_equal(f1.data, f2.data)
    assert f1.shape == (1, 4)


def test_forward_trace_shapes_and_ranges(tiny_model, tiny_inputs):
    image, gt = tiny_inputs
    trace = tiny_model.forward(image, reference=gt)
    assert trace.s_cloud.shape == (24, 3)
    assert len(trace.r_prime) == 8
    for r, t, u, k in zip(trace.r_prime, trace.shifts, trace.u, trace.split.counts):
        assert r.shape == t.shape == u.shape == (k, 3)
    assert trace.f_r.shape == (8, 4)
    total_real = trace.split.counts.sum()
    assert trace.f_cloud.shape == (total_real, 3)
    assert np.isfinite(trace.f_cloud).all()


def test_forward_padding_rows_never_reach_region_encoder(tiny_model, tiny_inputs):
    """f_R must equal the encoding of exactly the real (centered) rows."""
    image, gt = tiny_inputs
    trace = tiny_model.forward(image, reference=gt)
    pt = tiny_model._watch_all(None)
    ends = np.cumsum(trace.split.counts)
    for m, (end, k) in enumerate(zip(ends, trace.split.counts)):
        if not k:
            np.testing.assert_array_equal(trace.f_r[m], np.zeros(4))
            continue
        real = trace.s_cloud[trace.split.rows[end - k : end]]
        centered = real - real.mean(axis=0)
        expected = tiny_model.encode_region(ad.constant(centered), pt, np.zeros(len(centered), dtype=np.intp), 1)
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
    """Perturbing modularizer j touches only kept rows [j*P, (j+1)*P) of each region."""
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY), seed=21)
    base = model.forward(image, reference=gt)
    model.params["modularizer1.fc2.weight"].data = model.params["modularizer1.fc2.weight"].data + 0.05
    bumped = model.forward(image, reference=gt)
    p_rows = model.config.pattern_points
    assert any(len(r) > p_rows for r in base.r_prime)  # some region reaches into pattern 1
    for r0, r1 in zip(base.r_prime, bumped.r_prime):
        np.testing.assert_array_equal(r0[:p_rows], r1[:p_rows])  # pattern 0 rows
        if len(r0) > p_rows:
            assert not np.allclose(r0[p_rows:], r1[p_rows:])  # pattern 1 rows moved


def _per_region_oracle(model, image, reference, gt, tape):
    """The region stage as a loop over regions, each region centered and
    encoded on its own (a one-block call of the block ops), its kept rows
    gathered one region at a time for the loss.  Returns (loss, f_cloud, u
    per region)."""
    c = model.config
    pt = model._watch_all(tape)
    f_i = model.encode_image(image, pt)
    s_tensor = model.decode_shape(f_i, pt)
    split_ref = s_tensor.data if reference is None else reference
    split = geo.split_regions([s_tensor.data], [split_ref], c.regions, c.region_capacity)
    patterns = model.compute_patterns(pt)
    kept = split.counts
    f_r_items, center_items = [], []
    for rows in np.split(split.rows, np.cumsum(kept)[:-1]):
        if len(rows):
            one_block = np.zeros(len(rows), dtype=np.intp)
            real = ad.gather_rows(s_tensor, rows)
            center = ad.mean_over_blocks(real, one_block, 1)
            f_r = model.encode_region(ad.sub(real, ad.gather_rows(center, one_block)), pt, one_block, 1)
        else:
            center = ad.constant(np.zeros((1, 3)))
            f_r = ad.constant(np.zeros((1, c.region_feat)))
        f_r_items.append(f_r)
        center_items.append(center)
    local = model.modularize_stacked(ad.concat(f_r_items), patterns, pt, kept)
    stacked = ad.add(local, ad.gather_rows(ad.concat(center_items), np.repeat(np.arange(c.regions), kept)))
    u = ad.add(stacked, model.customize(stacked, f_i, pt, np.zeros(stacked.shape[0], dtype=np.intp)))
    ends = np.cumsum(kept)
    gt_split = geo.split_regions([gt], [gt], c.regions, gt.shape[0])
    gt_regions = np.split(gt[gt_split.rows], np.cumsum(gt_split.counts)[:-1])
    terms = [
        geo.chamfer(ad.gather_rows(u, np.arange(hi - k, hi)), gt_region)
        for hi, k, gt_region in zip(ends, kept, gt_regions)
        if k and len(gt_region)
    ]
    l_reg = terms[0]
    for t in terms[1:]:
        l_reg = ad.add(l_reg, t)
    l_reg = ad.scale(l_reg, 1.0 / len(terms))
    loss = ad.add(l_reg, ad.scale(geo.chamfer(s_tensor, gt), TrainConfig().alpha))
    return loss, u.data, np.split(u.data, ends[:-1])


@pytest.mark.parametrize("case", ["tiny_prediction_split", "tiny_gt_split", "paper"])
def test_block_region_stage_equals_per_region_loop(tiny_inputs, case):
    """One block pass over all regions agrees with the per-region loop on
    loss, every gradient, the final cloud and each region's rows; at paper
    scale no region overflows and the forward records at most 61 op nodes."""
    if case == "paper":
        sample = make_sample("table", 500)
        model, image, gt = PatternModel(ModelConfig(), seed=0), sample.image, sample.gt_cloud
    else:
        (image, gt), model = tiny_inputs, PatternModel(ModelConfig(**TINY), seed=3)
    reference = None if case == "tiny_prediction_split" else gt

    tape = ad.Tape()
    trace = model.forward(image, reference=reference, tape=tape)
    op_nodes = sum(node.kind != "leaf" for node in tape.nodes)
    loss, _ = total_loss(trace, gt, TrainConfig(), model.config)
    grads = {k: v.data for k, v in ad.backward(loss).items()}
    oracle_tape = ad.Tape()
    want_loss, want_f, want_u = _per_region_oracle(model, image, reference, gt, oracle_tape)
    want_grads = {k: v.data for k, v in ad.backward(want_loss).items()}

    assert abs(loss.item() - want_loss.item()) <= 1e-12 * abs(want_loss.item())
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    np.testing.assert_allclose(trace.f_cloud, want_f, rtol=0, atol=1e-14)
    assert len(trace.u) == len(want_u)
    for u, want in zip(trace.u, want_u):
        np.testing.assert_allclose(u, want, rtol=0, atol=1e-14)
    counts = trace.split.counts.tolist()
    p = model.config.pattern_points
    if case == "tiny_prediction_split":  # empty, partial and two-pattern regions
        assert 0 in counts and any(0 < k < p for k in counts) and any(p < k < 2 * p for k in counts)
    if case == "paper":
        assert sum(counts) == model.config.f_points and max(counts) < model.config.region_capacity
        assert op_nodes <= 61


@pytest.mark.parametrize("regions", [1, 8, 27])
def test_region_stage_records_one_node_per_op(tiny_inputs, regions):
    """Centering and region encoding are one pass over all regions, whatever
    their count: one block mean, one subtraction, one block max.  The loss
    records 21 nodes for any count: two Chamfer calls of 9 (per direction a
    gather of the prediction, a difference, a norm and a sum, then their
    add), the region mean's scale, alpha's scale and the final add."""
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**{**TINY, "regions": regions}), seed=3)
    tape = ad.Tape()
    trace = model.forward(image, reference=gt, tape=tape)
    assert len(trace.split.counts) == regions
    kinds = [node.kind for node in tape.nodes]
    assert (kinds.count("mean_over_blocks"), kinds.count("sub"), kinds.count("max_over_blocks")) == (1, 1, 1)
    total_loss(trace, gt, TrainConfig(), model.config)
    assert len(tape.nodes) - len(kinds) == 21


def test_paper_batch_step_records_at_most_160_op_nodes():
    """A paper-scale batch of 4 records one conv stack and one loss per
    member, with no per-image or per-region loop on the tape."""
    batch = [make_sample(name, 7 + i) for i, name in enumerate(("table", "chair", "lamp", "table"))]
    model = PatternModel(ModelConfig(), seed=0)
    tape = ad.Tape()
    trace = model.forward(np.stack([s.image for s in batch]), reference=[s.gt_cloud for s in batch], tape=tape)
    for sample, member in zip(batch, trace.members):
        total_loss(member, sample.gt_cloud, TrainConfig(), model.config)
    kinds = [node.kind for node in tape.nodes if node.kind != "leaf"]
    assert kinds.count("conv2d") == 7
    assert len(kinds) <= 160


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
    assert inference.split.boxes[0].max_side != reference_run.split.boxes[0].max_side


def test_no_shift_equals_modularized_regions(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY, no_shift=True), seed=9)
    trace = model.forward(image, reference=gt)
    for r, t, u in zip(trace.r_prime, trace.shifts, trace.u):
        np.testing.assert_array_equal(t, np.zeros_like(t))
        np.testing.assert_array_equal(u, r)
    rebuilt = np.vstack([u[:k] for u, k in zip(trace.u, trace.split.counts) if k])
    np.testing.assert_array_equal(trace.f_cloud, rebuilt)


def test_no_patterns_feeds_regions_to_customizer(tiny_inputs):
    image, gt = tiny_inputs
    model = PatternModel(ModelConfig(**TINY, no_patterns=True), seed=9)
    names = set(model.params)
    assert not any(n.startswith(("learner", "modularizer", "region_encoder")) for n in names)
    trace = model.forward(image, reference=gt)
    real = np.split(trace.s_cloud[trace.split.rows], np.cumsum(trace.split.counts)[:-1])
    for block, region in zip(trace.r_prime, real):
        np.testing.assert_array_equal(block, region)


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


def test_batch_trace_stacks_member_traces(tiny_model, tiny_inputs):
    """A (B, C, H, W) stack runs as one pass: the batch trace stacks every
    member's regions and clouds, and each member trace matches the pass on
    that image alone."""
    image, gt = tiny_inputs
    rng = np.random.default_rng(23)
    images = np.stack([image, rng.uniform(0.0, 1.0, image.shape), image])
    references = [gt, rng.uniform(-0.45, 0.45, (30, 3)), None]
    batch = tiny_model.forward(images, reference=references)
    m = tiny_model.config.regions
    assert len(batch.members) == 3 and len(batch.u) == 3 * m and batch.f_r.shape[0] == 3 * m
    np.testing.assert_array_equal(batch.f_cloud, np.vstack([t.f_cloud for t in batch.members]))
    np.testing.assert_array_equal(batch.s_cloud, np.vstack([t.s_cloud for t in batch.members]))
    for b, member in enumerate(batch.members):
        alone = tiny_model.forward(images[b], reference=references[b])
        assert alone.members is None and member.members is None
        assert member.f_i.shape == (1, tiny_model.config.image_feat)
        np.testing.assert_array_equal(member.split.counts, alone.split.counts)
        np.testing.assert_array_equal(member.split.rows, alone.split.rows)
        np.testing.assert_allclose(member.f_cloud, alone.f_cloud, rtol=0, atol=1e-14)
        for u, want in zip(member.u, alone.u):
            np.testing.assert_allclose(u, want, rtol=0, atol=1e-14)
    with pytest.raises(ContractError, match="as many references"):
        tiny_model.forward(images, reference=references[:2])
    with pytest.raises(ContractError, match="image shape"):
        tiny_model.forward(images[:, :, :4])


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


@pytest.mark.parametrize(
    "config, model_seed, sample_seed, digest",
    [
        (MINI_CONFIG, 1, 40, "17a32e218e2844c2d340c1484cbb22b3aee1da515067f793946a6b5678190b50"),
        ({}, 0, 500, "40fbf3b4dfc1dfca7212814bf22925af693bb121773c60e5c276a220a12d7d20"),
    ],
    ids=["mini", "paper"],
)
def test_reconstruct_digest_is_pinned(config, model_seed, sample_seed, digest):
    """Pins the bytes of a single-image reconstruction (a table render), so
    the one-image pass stays bit-identical to the per-image pipeline it
    replaced; a deliberate change to the forward arithmetic updates these."""
    model = PatternModel(ModelConfig(**config), seed=model_seed)
    image = make_sample("table", sample_seed, image_size=model.config.image_size).image
    f_cloud = model.reconstruct(image).f_cloud
    assert f_cloud.shape == (model.config.f_points, 3)
    assert hashlib.sha256(f_cloud.tobytes()).hexdigest() == digest


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


def test_checkpoint_load_draws_no_random_values(tmp_path, tiny_model, monkeypatch):
    import patmod.model as model_module

    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random values")

    monkeypatch.setattr(model_module.np.random, "default_rng", no_rng)
    loaded, _ = load_checkpoint(path)
    for p in loaded.parameters():
        np.testing.assert_array_equal(p.data, tiny_model.params[p.name].data)


def test_loaded_parameters_are_plain_owned_arrays(tmp_path, tiny_model):
    """Adam updates parameters in place: each loaded array must be a
    writeable, C-contiguous, native float64 array that owns its memory."""
    path = tmp_path / "model.pmod"
    save_checkpoint(path, tiny_model)
    loaded, _ = load_checkpoint(path)
    for p in loaded.parameters():
        assert p.data.flags.writeable and p.data.flags.c_contiguous and p.data.flags.owndata, p.name
        assert p.data.dtype == np.float64 and p.data.dtype.isnative, p.name


def test_training_a_loaded_model_equals_training_the_original(tmp_path):
    """One Adam step on a reloaded MINI model, saved, gives the same bytes as
    the same step on the model it was saved from."""
    from patmod.training import AdamState, _train_step

    config = TrainConfig(epochs=1, batch_size=2)
    batch = [make_sample(cls, 40 + i, image_size=MINI_CONFIG["image_size"]) for i, cls in enumerate(("table", "lamp"))]
    original = PatternModel(ModelConfig(**MINI_CONFIG), seed=5)
    save_checkpoint(tmp_path / "init.pmod", original)
    loaded, _ = load_checkpoint(tmp_path / "init.pmod")
    blobs = []
    for name, model in (("original", original), ("loaded", loaded)):
        _train_step(model, batch, config, AdamState(), lr=1e-3)
        save_checkpoint(tmp_path / f"{name}.pmod", model)
        blobs.append((tmp_path / f"{name}.pmod").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] != (tmp_path / "init.pmod").read_bytes()


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


def _edit_config(edit):
    """A checkpoint edit that rewrites the config block's text."""

    def apply(blob):
        (size,) = struct.unpack("<I", blob[6:10])  # after magic and version
        text = edit(blob[10 : 10 + size].decode()).encode()
        return blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + size :]

    return apply


def _edit_records(edit):
    """A checkpoint edit of the bytes from the parameter count on: ``edit``
    gets them and the offset of the first record's dimensions."""

    def apply(blob):
        (size,) = struct.unpack("<I", blob[6:10])
        records = blob[10 + size :]
        (name_len,) = struct.unpack("<H", records[4:6])
        return blob[: 10 + size] + edit(records, 4 + 2 + name_len + 1)

    return apply


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_config(lambda text: text.replace("pattern_extent=0.3\n", "")), r"missing keys \['pattern_extent'\]"),
        (_edit_config(lambda text: text + "\nextent=0.3"), r"unknown keys \['extent'\]"),
        (_edit_config(lambda text: text + "\npattern_extent"), "expected key=value"),
        (_edit_config(lambda text: text + "\npattern_extent=0.4"), r"'pattern_extent' is already set at config block:\d+"),
        (lambda blob: blob[:4] + struct.pack("<H", 2) + blob[6:], "unsupported checkpoint version 2"),
        (
            _edit_records(lambda rec, _: struct.pack("<I", struct.unpack("<I", rec[:4])[0] - 1) + rec[4:]),
            "checkpoint has 58 parameters, model has 59",
        ),
        (_edit_records(lambda rec, _: rec.replace(b"encoder.conv1.weight", b"encoder.conv1.wEight", 1)),
         "unknown parameter 'encoder.conv1.wEight'"),
        # (4, 1, 3, 3) stored as (1, 4, 3, 3): the same byte count
        (_edit_records(lambda rec, at: rec[:at] + struct.pack("<4I", 1, 4, 3, 3) + rec[at + 16 :]),
         r"shape mismatch for 'encoder.conv1.weight'"),
    ],
    ids=[
        "missing_key", "unknown_key", "line_without_equals", "repeated_key",
        "version", "parameter_count", "unknown_parameter", "shape_mismatch",
    ],
)
def test_checkpoint_config_block_is_strict(tmp_path, edit, message):
    """Every corruption of the header, the config block or a parameter
    record is a ContractError that names the fault."""
    path = tmp_path / "model.pmod"
    save_checkpoint(path, PatternModel(ModelConfig(**TINY, pattern_extent=0.3), seed=2))
    path.write_bytes(edit(path.read_bytes()))
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
