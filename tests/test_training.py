"""Training tests: losses against brute-force oracles, optimizer behavior,
determinism, ablation switches, evaluation, and interpolation."""

import math

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod import geometry as geo
from patmod import training as tr
from patmod.data import Sample, make_sample
from patmod.errors import ConfigError, DomainError, NumericalAbort
from patmod.model import MINI_CONFIG, ForwardTrace, ModelConfig, PatternModel, load_checkpoint, save_checkpoint
from patmod.runconfig import RunConfig

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


def tiny_samples(n=4, image_size=8):
    classes = ["table", "chair", "lamp", "ring", "sofa_block", "cross_plane"]
    return [make_sample(classes[i % 6], 100 + i, image_size=image_size) for i in range(n)]


def tiny_model(seed=1, **flags):
    return PatternModel(ModelConfig(**TINY, **flags), seed=seed)


# ---------------------------------------------------------------------------
# losses


def _loss_shape(s_cloud, gt_cloud):
    """The whole-shape term on the initial prediction, as total_loss reports it."""
    trace = ForwardTrace(f_i=np.zeros((1, 2)), s_tensor=ad.constant(s_cloud), f_tensor=ad.constant(s_cloud))
    _, parts = tr.total_loss(trace, gt_cloud, tr.TrainConfig(), ModelConfig(**TINY, no_local=True))
    return parts["loss_shape"]


def test_loss_shape_identity_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    assert _loss_shape(x, x) == 0.0


def test_loss_shape_singletons():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.0, 3.0, 0.0]])
    assert _loss_shape(a, b) == 6.0


def test_loss_shape_matches_brute_force():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal((20, 3))
    assert abs(_loss_shape(a, b) - geo.chamfer_brute_force(a, b)) < 1e-12


def _gt_regions(gt_cloud, capacity, m_regions=8):
    """Each region's points of the ground truth split against itself."""
    split = geo.split_regions([gt_cloud], [gt_cloud], m_regions, capacity)
    return np.split(gt_cloud[split.rows], np.cumsum(split.counts)[:-1])


def _trace_with_kept(kept_clouds, gt_cloud, m_regions=8):
    """Minimal trace whose region m keeps the rows kept_clouds[m] (None for an
    empty region), stacked region-major in f_tensor; the split carries the
    box of the gt split."""
    gt_split = geo.split_regions([gt_cloud], [gt_cloud], m_regions, gt_cloud.shape[0])
    clouds = [np.zeros((0, 3)) if cloud is None else np.asarray(cloud) for cloud in kept_clouds]
    counts = np.array([len(cloud) for cloud in clouds])
    f_cloud = np.vstack(clouds)
    return ForwardTrace(
        f_i=np.zeros((1, 2)), s_tensor=ad.constant(gt_cloud), f_tensor=ad.constant(f_cloud),
        split=geo.RegionSplit(np.arange(counts.sum()), counts, gt_split.boxes),
    )


def test_loss_region_zero_when_regions_match():
    rng = np.random.default_rng(2)
    gt = rng.uniform(-0.4, 0.4, (64, 3))
    kept = [r if len(r) else None for r in _gt_regions(gt, 64)]
    trace = _trace_with_kept(kept, gt)
    assert tr.loss_region(trace, gt, ModelConfig(**TINY)).item() == 0.0


def test_loss_region_single_pair_no_averaging():
    # two clustered points share a voxel; the far anchor's pair is left empty,
    # so exactly one pair survives and no averaging happens
    gt = np.array([[0.1, 0.1, 0.1], [0.12, 0.1, 0.1], [0.9, 0.9, 0.9]])
    regions = _gt_regions(gt, 3)
    target = next(i for i, r in enumerate(regions) if len(r) == 2)
    cluster = regions[target]
    offset = cluster + 0.01
    kept = [None] * 8
    kept[target] = offset
    trace = _trace_with_kept(kept, gt)
    expected = geo.chamfer_brute_force(offset, cluster)
    assert abs(tr.loss_region(trace, gt, ModelConfig(**TINY)).item() - expected) < 1e-12


def test_loss_region_matches_hand_assembled_brute_force():
    rng = np.random.default_rng(3)
    gt = rng.uniform(-0.4, 0.4, (128, 3))
    kept, expected_terms = [], []
    for region in _gt_regions(gt, 128):
        if len(region):
            fake = region + rng.normal(0, 0.02, region.shape)
            kept.append(fake)
            expected_terms.append(geo.chamfer_brute_force(fake, region))
        else:
            kept.append(None)
    trace = _trace_with_kept(kept, gt)
    got = tr.loss_region(trace, gt, ModelConfig(**TINY)).item()
    assert abs(got - np.mean(expected_terms)) < 1e-10


def test_loss_region_all_empty_rejected():
    gt = np.array([[0.1, 0.1, 0.1]])
    trace = _trace_with_kept([None] * 8, gt)
    with pytest.raises(DomainError):
        tr.loss_region(trace, gt, ModelConfig(**TINY))


def test_total_loss_falls_back_to_whole_shape_term(caplog):
    """When every nonempty prediction region faces an empty ground-truth
    region, the region term becomes the whole-shape Chamfer on F."""
    gt = np.array([[0.1, 0.1, 0.1], [0.12, 0.1, 0.1], [0.9, 0.9, 0.9]])
    empty = [m for m, r in enumerate(_gt_regions(gt, 3)) if not len(r)]
    kept = [None] * 8
    kept[empty[0]] = np.array([[0.5, 0.2, 0.3], [0.4, 0.6, 0.2]])
    kept[empty[-1]] = np.array([[0.3, 0.7, 0.8]])
    trace = _trace_with_kept(kept, gt)
    trace.s_tensor = ad.constant(gt + 0.05)
    with caplog.at_level("WARNING", logger="patmod.training"):
        total, parts = tr.total_loss(trace, gt, tr.TrainConfig(), ModelConfig(**TINY))
    assert "no valid region pair; substituting whole-shape term" in caplog.text
    l_f = geo.chamfer_brute_force(trace.f_cloud, gt)
    l_shape = geo.chamfer_brute_force(gt + 0.05, gt)
    assert abs(parts["loss_region"] - l_f) < 1e-12
    assert abs(total.item() - (l_f + 0.1 * l_shape)) < 1e-12


def test_total_loss_composition():
    model = tiny_model()
    sample = tiny_samples(1)[0]
    trace = model.forward(sample.image, reference=sample.gt_cloud)
    cfg = tr.TrainConfig()
    assert cfg.alpha == 0.1
    total, parts = tr.total_loss(trace, sample.gt_cloud, cfg, model.config)
    recomputed = parts["loss_region"] + 0.1 * parts["loss_shape"]
    assert abs(total.item() - recomputed) / recomputed < 1e-15

    zero_alpha, parts0 = tr.total_loss(trace, sample.gt_cloud, tr.TrainConfig(alpha=0.0), model.config)
    assert zero_alpha.item() == parts0["loss_region"]


def test_total_loss_ablations():
    model = tiny_model()
    sample = tiny_samples(1)[0]
    trace = model.forward(sample.image, reference=sample.gt_cloud)
    gt = sample.gt_cloud

    _, base = tr.total_loss(trace, gt, tr.TrainConfig(), model.config)
    no_shape, parts = tr.total_loss(trace, gt, tr.TrainConfig(no_l_shape=True), model.config)
    assert no_shape.item() == parts["loss_region"]

    no_region, parts = tr.total_loss(trace, gt, tr.TrainConfig(no_l_region=True), model.config)
    whole_shape_on_f = geo.chamfer_brute_force(trace.f_cloud, gt)
    assert abs(parts["loss_region"] - whole_shape_on_f) < 1e-10

    nl_model = tiny_model(no_local=True)
    nl_trace = nl_model.forward(sample.image)
    nl_total, nl_parts = tr.total_loss(nl_trace, gt, tr.TrainConfig(), nl_model.config)
    assert nl_total.item() == nl_parts["loss_shape"]


def test_contradictory_flags_rejected():
    """A no_local model has no region losses to ablate."""
    with pytest.raises(ConfigError):
        RunConfig(model=ModelConfig(no_local=True), train=tr.TrainConfig(no_l_region=True))
    with pytest.raises(ConfigError):
        RunConfig(model=ModelConfig(no_local=True), train=tr.TrainConfig(no_l_shape=True))


def test_negative_checkpoint_interval_rejected():
    """A negative interval would divide every epoch count evenly."""
    with pytest.raises(ConfigError, match="checkpoint_every"):
        tr.TrainConfig(checkpoint_every=-1)


def test_padded_rows_contribute_nothing_to_losses():
    """The same geometry at two padding capacities yields identical losses."""
    rng = np.random.default_rng(4)
    gt = rng.uniform(-0.4, 0.4, (64, 3))
    regions_small = _gt_regions(gt, 64)
    regions_big = _gt_regions(gt, 256)
    for a, b in zip(regions_small, regions_big):
        np.testing.assert_array_equal(a, b)
    kept = [r + 0.01 if len(r) else None for r in regions_small]
    t1 = _trace_with_kept(kept, gt)
    t2 = _trace_with_kept(kept, gt)
    v1 = tr.loss_region(t1, gt, ModelConfig(**TINY)).item()
    v2 = tr.loss_region(t2, gt, ModelConfig(**TINY)).item()
    assert v1 == v2


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_leaves_parameters():
    p = ad.Parameter("w", np.array([1.0, -2.0]))
    state = tr.AdamState()
    before = p.data.copy()
    tr.adam_step([p], {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_closed_form():
    p = ad.Parameter("w", np.array([0.0, 0.0]))
    g = np.array([3.0, -0.5])
    tr.adam_step([p], {"w": g}, tr.AdamState(), lr=0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-9)


def test_adam_scalar_quadratic_matches_simulation_oracle():
    p = ad.Parameter("w", np.array([1.0]))
    state = tr.AdamState()
    traj = [1.0]
    for _ in range(50):
        tr.adam_step([p], {"w": 2.0 * p.data}, state, lr=0.1)
        traj.append(abs(float(p.data[0])))
    first_below = next(i for i, x in enumerate(traj) if x < 0.2)
    assert all(traj[i + 1] < traj[i] for i in range(first_below))  # monotone descent
    assert traj[-1] < 0.2
    # frozen from an independent hand-rolled simulation of the same schedule
    assert abs(float(p.data[0]) - (-0.004818223222661105)) < 1e-12


def test_adam_nan_gradient_aborts_naming_parameter():
    p = ad.Parameter("customizer.fc1.weight_points", np.zeros(2))
    with pytest.raises(NumericalAbort, match="customizer.fc1.weight_points"):
        tr.adam_step([p], {p.name: np.array([np.nan, 0.0])}, tr.AdamState(), lr=0.1)


def _whole_array_adam(params, grads, state, lr):
    """The update as it was before the blocked pass: Adam applied to whole
    arrays, one temporary per operation."""
    state.t += 1
    b1, b2, eps = tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p in params:
        g = grads[p.name]
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        m, v = state.m[p.name], state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fused_adam_matches_two_stage_oracle_bitwise(seed):
    """The blocked pass over one gradient map equals the whole-array update
    bit for bit, across block boundaries and ragged tails."""
    block = tr.ADAM_BLOCK
    shapes = {
        "small": (7,),  # below one block
        "one_block": (block // 256, 256),  # exactly one block
        "ragged": (3, 7, 41, 83),  # 71463 elements: two full blocks and a ragged tail
    }
    assert math.prod(shapes["ragged"]) % block != 0 and math.prod(shapes["ragged"]) > 2 * block
    rng = np.random.default_rng(seed)
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    fused = [ad.Parameter(name, x.copy()) for name, x in init.items()]
    oracle = [ad.Parameter(name, x.copy()) for name, x in init.items()]
    s_fused, s_oracle = tr.AdamState(), tr.AdamState()
    for step in range(6):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-3, 3), size=shape) for name, shape in shapes.items()}
        lr = 1e-3 * (step + 1)
        tr.adam_step(fused, grads, s_fused, lr)
        _whole_array_adam(oracle, grads, s_oracle, lr)
        assert s_fused.t == s_oracle.t == step + 1
        for a, b in zip(fused, oracle):
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(s_fused.m[a.name], s_oracle.m[b.name])
            np.testing.assert_array_equal(s_fused.v[a.name], s_oracle.v[b.name])


def test_nan_member_gradient_aborts_before_later_parameters(tmp_path, monkeypatch):
    samples = tiny_samples(4)
    model = tiny_model(seed=3)
    initial = {p.name: p.data.copy() for p in model.parameters()}
    names = list(model.params)
    target = "customizer.fc2.weight"  # 512 x 128: two blocks; three parameters follow it
    assert model.params[target].data.size == 2 * tr.ADAM_BLOCK
    real = tr._batch_gradients

    def planted(*args):
        grads, parts, traces = real(*args)
        grads[target] = grads[target].copy()
        grads[target].flat[-1] = np.nan  # in the second block
        return grads, parts, traces

    monkeypatch.setattr(tr, "_batch_gradients", planted)
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(NumericalAbort, match=target):
        tr.train(samples, model, tr.TrainConfig(epochs=1, batch_size=2, seed=0), out_dir=out)
    dumped, _ = load_checkpoint(out / "abort_last_good.pmod")
    later = names[names.index(target) + 1 :]
    assert len(later) == 3
    for net in (model, dumped):
        for name in later:
            np.testing.assert_array_equal(net.params[name].data, initial[name])
        flat, flat0 = net.params[target].data.reshape(-1), initial[target].reshape(-1)
        np.testing.assert_array_equal(flat[tr.ADAM_BLOCK :], flat0[tr.ADAM_BLOCK :])
        assert not np.array_equal(flat[: tr.ADAM_BLOCK], flat0[: tr.ADAM_BLOCK])
        assert not np.array_equal(net.params[names[0]].data, initial[names[0]])


def _fallback_sample(image):
    """A member whose whole prediction lands in the one voxel where the
    ground truth has no point, so its loss takes the whole-shape fallback:
    the three points' box is [1, 1.5]^3, every tanh-bounded prediction
    point clamps to its lowest voxel, and each point sits in another one."""
    gt = np.array([[1.0, 1.5, 1.5], [1.5, 1.0, 1.5], [1.5, 1.5, 1.0]])
    return Sample(image, gt, "fallback", 0)


@pytest.mark.parametrize(
    "members, model_flags, train_flags",
    [
        (1, {}, {}),
        (3, {}, {}),
        (4, {}, {}),
        (4, {"no_patterns": True}, {}),
        (4, {"no_shift": True}, {}),
        (4, {"no_local": True}, {}),
        (4, {}, {"no_l_region": True}),
    ],
    ids=["B1", "B3", "B4", "no_patterns", "no_shift", "no_local", "no_l_region"],
)
def test_batch_tape_equals_mean_of_member_tapes(caplog, members, model_flags, train_flags):
    """One tape over the batch gives the mean of single-sample tapes: each
    member's loss parts, and every gradient."""
    rng = np.random.default_rng(5)
    first, second, last = tiny_samples(3)
    batch = [first, second, _fallback_sample(rng.uniform(0.0, 1.0, (1, 8, 8))), last][:members]
    model = tiny_model(seed=2, **model_flags)
    config = tr.TrainConfig(**train_flags)
    with caplog.at_level("WARNING", logger="patmod.training"):
        grads, parts, traces = tr._batch_gradients(model, batch, config)

    want_parts, want_grads = [], {}
    for sample, batch_trace in zip(batch, traces):
        tape = ad.Tape()
        trace = model.forward(sample.image, reference=sample.gt_cloud, tape=tape)
        loss, member_parts = tr.total_loss(trace, sample.gt_cloud, config, model.config)
        want_parts.append(member_parts)
        for name, g in ad.backward(loss).items():
            want_grads[name] = want_grads.get(name, 0.0) + g.data / len(batch)
        np.testing.assert_allclose(batch_trace.f_cloud, trace.f_cloud, rtol=0, atol=1e-14)

    assert len(parts) == len(traces) == len(batch)
    for got, want in zip(parts, want_parts):
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), key
    mean_loss = np.mean([p["loss_total"] for p in want_parts])
    assert abs(np.mean([p["loss_total"] for p in parts]) - mean_loss) <= 1e-12 * mean_loss
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    if members >= 3 and not model.config.no_local:  # the batch holds the fallback member
        counts = [k for t in traces for k in t.split.counts]
        p = model.config.pattern_points
        assert 0 in counts and any(0 < k < p for k in counts) and any(p < k < 2 * p for k in counts)
        assert ("substituting whole-shape term" in caplog.text) == (not config.no_l_region)


def test_lr_schedule():
    cfg = tr.TrainConfig()
    assert tr.lr_at(0, cfg) == 1e-4
    assert tr.lr_at(69, cfg) == 1e-4
    assert tr.lr_at(140, cfg) == 1e-4 * 0.95**2
    lrs = [tr.lr_at(e, cfg) for e in range(0, 400, 7)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


# ---------------------------------------------------------------------------
# training loop


def test_one_epoch_four_samples_batch_four_is_one_step():
    samples = tiny_samples(4)
    model = tiny_model()
    _, state = tr.train(samples, model, tr.TrainConfig(epochs=1, batch_size=4, seed=0))
    assert state.t == 1


def test_same_seed_bitwise_identical_checkpoints(tmp_path):
    samples = tiny_samples(4)
    paths = []
    for run in ("a", "b"):
        model = tiny_model(seed=2)
        out = tmp_path / run
        out.mkdir()
        tr.train(samples, model, tr.TrainConfig(epochs=2, batch_size=2, seed=7), out_dir=out)
        paths.append(out / "checkpoint.pmod")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_zero_lr_leaves_checkpoint_bitwise_unchanged(tmp_path):
    samples = tiny_samples(2)
    model = tiny_model(seed=4)
    before = tmp_path / "before.pmod"
    save_checkpoint(before, model)
    out = tmp_path / "run"
    out.mkdir()
    tr.train(samples, model, tr.TrainConfig(epochs=1, batch_size=2, seed=0, lr=0.0), out_dir=out)
    after_params = {p.name: p.data for p in model.parameters()}
    reference = PatternModel(ModelConfig(**TINY), seed=4)
    for p in reference.parameters():
        np.testing.assert_array_equal(after_params[p.name], p.data)


def test_threaded_batches_match_sequential():
    samples = tiny_samples(4)
    results = []
    for threads in (1, 3):
        model = tiny_model(seed=6)
        records, _ = tr.train(samples, model, tr.TrainConfig(epochs=2, batch_size=4, seed=3, threads=threads))
        results.append((records, {p.name: p.data.copy() for p in model.parameters()}))
    (rec1, par1), (rec2, par2) = results
    for a, b in zip(rec1, rec2):
        assert a.loss_total == b.loss_total
        assert a.cd_eval == b.cd_eval
    for name in par1:
        np.testing.assert_array_equal(par1[name], par2[name])


def test_train_metrics_are_finite_and_loss_drops():
    samples = tiny_samples(4)
    model = tiny_model(seed=8)
    records, _ = tr.train(samples, model, tr.TrainConfig(epochs=6, batch_size=2, seed=1, lr=1e-3))
    for rec in records:
        for value in (rec.cd_eval, rec.iou, rec.loss_shape, rec.loss_region, rec.loss_total, rec.wall_ms):
            assert np.isfinite(value)
        assert rec.cd_eval >= 0.0
        assert 0.0 <= rec.iou <= 1.0
    assert records[-1].loss_total < records[0].loss_total


def test_non_finite_loss_aborts_and_dumps_checkpoint(tmp_path):
    samples = tiny_samples(2)
    model = tiny_model(seed=9)
    model.params["decoder.fc.weight"].data[0, 0] = np.nan
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(NumericalAbort):
        tr.train(samples, model, tr.TrainConfig(epochs=1, batch_size=2, seed=0), out_dir=out)
    assert (out / "abort_last_good.pmod").exists()


def test_checkpoint_every_saves_after_each_multiple_of_epochs(tmp_path, monkeypatch):
    """checkpoint_every=2 over 4 epochs of 2 steps writes checkpoint.pmod
    after epochs 2 and 4, then once more at the end; the last periodic file
    holds the final parameters."""
    samples, model = tiny_samples(4), tiny_model(seed=5)
    steps, saves = [], []
    real_step, real_save = tr._train_step, tr.save_checkpoint

    def counting_step(*args):
        steps.append(None)
        return real_step(*args)

    def recording_save(path, *args):
        real_save(path, *args)
        saves.append((path.name, len(steps), path.read_bytes()))

    monkeypatch.setattr(tr, "_train_step", counting_step)
    monkeypatch.setattr(tr, "save_checkpoint", recording_save)
    out = tmp_path / "run"
    out.mkdir()
    tr.train(samples, model, tr.TrainConfig(epochs=4, batch_size=2, seed=0, checkpoint_every=2), out_dir=out)
    assert [(name, n) for name, n, _ in saves] == [("checkpoint.pmod", n) for n in (4, 8, 8)]  # 2 steps an epoch
    assert saves[0][2] != saves[1][2] == saves[2][2]
    periodic = tmp_path / "periodic.pmod"
    periodic.write_bytes(saves[1][2])
    loaded, _ = load_checkpoint(periodic)
    for p in model.parameters():
        np.testing.assert_array_equal(loaded.params[p.name].data, p.data)


def test_empty_dataset_rejected():
    with pytest.raises(DomainError):
        tr.train([], tiny_model(), tr.TrainConfig())


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_rows_per_class_plus_mean():
    samples = tiny_samples(4)
    model = tiny_model(seed=1)
    records = tr.evaluate(model, samples, "seen")
    labels = [r.class_label for r in records]
    assert labels[-1] == "mean"
    assert len(set(labels)) == len(labels)
    by_class = [r.cd_eval for r in records[:-1]]
    assert abs(records[-1].cd_eval - np.mean(by_class)) < 1e-12


def test_evaluate_permutation_invariant_metric():
    rng = np.random.default_rng(5)
    cloud = rng.uniform(-0.4, 0.4, (50, 3))
    assert geo.chamfer_eval(cloud, cloud[rng.permutation(50)]) == 0.0


def test_evaluate_downsampling_path():
    samples = tiny_samples(2)
    model = tiny_model(seed=1)
    records = tr.evaluate(model, samples, "seen", eval_points=16)
    assert all(np.isfinite(r.cd_eval) for r in records)


@pytest.mark.parametrize("eval_points", [0, -3])
def test_evaluate_rejects_eval_points_below_one(eval_points):
    with pytest.raises(DomainError, match="eval_points"):
        tr.evaluate(tiny_model(seed=1), tiny_samples(1), "seen", eval_points=eval_points)


def test_evaluate_rejects_empty_split():
    with pytest.raises(DomainError, match="split 'unseen'"):
        tr.evaluate(tiny_model(seed=1), [], "unseen")


# (class, cd_eval, iou) per row; the untrained model's 8 or 32 points share
# no 32^3 voxel with the ground truth, so every iou reads 0.0
PINNED_EVAL = {
    8: [
        ("chair", 0.34011194295562164, 0.0),
        ("lamp", 0.17202481865052502, 0.0),
        ("ring", 0.4200563121883736, 0.0),
        ("table", 0.49147118827049385, 0.0),
        ("mean", 0.35591606551625354, 0.0),
    ],
    None: [
        ("chair", 0.20919094976292568, 0.0),
        ("lamp", 0.18701213945264014, 0.0),
        ("ring", 0.38417224909261005, 0.0),
        ("table", 0.3646364467487552, 0.0),
        ("mean", 0.28625294626423275, 0.0),
    ],
}


@pytest.mark.parametrize("eval_points", [8, None])
def test_evaluate_values_pinned(eval_points):
    """Both sides downsampled (8) or only the ground truth (None, 2048 -> 32)."""
    model = PatternModel(ModelConfig(**MINI_CONFIG), seed=1)
    records = tr.evaluate(model, tiny_samples(4), "seen", eval_points=eval_points)
    assert [(r.class_label, r.cd_eval, r.iou) for r in records] == PINNED_EVAL[eval_points]


# ---------------------------------------------------------------------------
# interpolation


def test_interpolation_endpoints_bitwise():
    samples = tiny_samples(2)
    model = tiny_model(seed=1)
    out = tr.interpolate_latent(model, samples[0].image, samples[1].image, steps=5)
    lams = [lam for lam, _ in out]
    assert lams == [0.0, 0.25, 0.5, 0.75, 1.0]
    np.testing.assert_array_equal(out[0][1], model.reconstruct(samples[0].image).f_cloud)
    np.testing.assert_array_equal(out[-1][1], model.reconstruct(samples[1].image).f_cloud)


def test_interpolation_needs_two_steps():
    samples = tiny_samples(2)
    with pytest.raises(DomainError):
        tr.interpolate_latent(tiny_model(), samples[0].image, samples[1].image, steps=1)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_single_value_single_row():
    samples = tiny_samples(4)
    dataset = {"train": samples[:2], "test_seen": samples[2:3], "test_unseen": samples[3:]}
    rows = tr.sweep("alpha", [0.1], RunConfig(ModelConfig(**TINY), tr.TrainConfig(epochs=1, batch_size=2)), dataset)
    assert len(rows) == 1
    assert rows[0]["parameter"] == "alpha"


def test_sweep_invalid_values_skipped():
    samples = tiny_samples(3)
    dataset = {"train": samples[:1], "test_seen": samples[1:2], "test_unseen": samples[2:]}
    rows = tr.sweep("M", [6], RunConfig(ModelConfig(**TINY), tr.TrainConfig(epochs=1, batch_size=1)), dataset)
    assert rows == []
    # the plane lattice needs a square point count: ModelConfig rejects 8
    eight = ModelConfig(**{**TINY, "pattern_points": 8})
    assert tr.sweep("sampling_mode", ["plane"], RunConfig(eight, tr.TrainConfig(epochs=1, batch_size=1)), dataset) == []
    with pytest.raises(ConfigError):
        tr.sweep("gamma", [1], RunConfig(ModelConfig(**TINY), tr.TrainConfig()), dataset)


def test_metrics_csv_format(tmp_path):
    rec = tr.MetricsRecord(0, "train", "all", 0.5, 0.25, 1.0, 2.0, 2.1, 12.0)
    path = tmp_path / "metrics.csv"
    tr.write_metrics_csv(path, [rec])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == tr.METRICS_HEADER
    assert lines[2].startswith("0,train,all,")
