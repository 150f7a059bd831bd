"""Training tests: losses against brute-force oracles, optimizer behavior,
determinism, ablation switches, evaluation, and interpolation."""

import hashlib
import math

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod import geometry as geo
from patmod import training as tr
from patmod.data import Sample, generate_shape, make_sample, render_image
from patmod.errors import ConfigError, DomainError, NumericalAbort
from patmod.model import ForwardTrace, ModelConfig, PatternModel, load_checkpoint, save_checkpoint
from patmod.runconfig import RunConfig

import oracles
from oracles import MINI_CONFIG

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
    trace = ForwardTrace(s_tensor=ad.constant(s_cloud), f_tensor=ad.constant(s_cloud))
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
    assert abs(_loss_shape(a, b) - oracles.chamfer_brute_force(a, b)) < 1e-12


def _gt_regions(gt_cloud, capacity, m_regions=8):
    """Each region's points of the ground truth split against itself."""
    split = geo.split_regions([gt_cloud], [gt_cloud], m_regions, capacity)
    return np.split(gt_cloud[split.rows], np.cumsum(split.counts)[:-1])


def _trace_with_kept(kept_clouds, gt_cloud, m_regions=8):
    """Minimal trace whose region m keeps the rows kept_clouds[m] (None for an
    empty region), stacked region-major in f_tensor."""
    clouds = [np.zeros((0, 3)) if cloud is None else np.asarray(cloud) for cloud in kept_clouds]
    counts = np.array([len(cloud) for cloud in clouds])
    f_cloud = np.vstack(clouds)
    return ForwardTrace(
        s_tensor=ad.constant(gt_cloud), f_tensor=ad.constant(f_cloud),
        split=geo.RegionSplit(np.arange(counts.sum()), counts),
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
    expected = oracles.chamfer_brute_force(offset, cluster)
    assert abs(tr.loss_region(trace, gt, ModelConfig(**TINY)).item() - expected) < 1e-12


def test_loss_region_matches_hand_assembled_brute_force():
    rng = np.random.default_rng(3)
    gt = rng.uniform(-0.4, 0.4, (128, 3))
    kept, expected_terms = [], []
    for region in _gt_regions(gt, 128):
        if len(region):
            fake = region + rng.normal(0, 0.02, region.shape)
            kept.append(fake)
            expected_terms.append(oracles.chamfer_brute_force(fake, region))
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
    l_f = oracles.chamfer_brute_force(trace.f_cloud, gt)
    l_shape = oracles.chamfer_brute_force(gt + 0.05, gt)
    assert abs(parts["loss_region"] - l_f) < 1e-12
    assert abs(total.item() - (l_f + 0.1 * l_shape)) < 1e-12


def test_loss_region_substitutes_whole_shape_term(caplog):
    """With no region pair nonempty on both sides, loss_region itself
    returns the whole-shape Chamfer on F and warns once."""
    gt = np.array([[0.1, 0.1, 0.1], [0.12, 0.1, 0.1], [0.9, 0.9, 0.9]])
    kept = [None if len(r) else np.array([[0.5, 0.2, 0.3]]) for r in _gt_regions(gt, 3)]
    trace = _trace_with_kept(kept, gt)
    with caplog.at_level("WARNING", logger="patmod.training"):
        got = tr.loss_region(trace, gt, ModelConfig(**TINY))
    assert got.data.tobytes() == geo.chamfer(trace.f_tensor, gt).data.tobytes()
    warnings = [r for r in caplog.records if r.name == "patmod.training"]
    assert [r.getMessage() for r in warnings] == ["no valid region pair; substituting whole-shape term for this sample"]


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
    whole_shape_on_f = oracles.chamfer_brute_force(trace.f_cloud, gt)
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
    arrays, one temporary per operation, a missing name read as zeros."""
    state.t += 1
    b1, b2, eps = tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p in params:
        g = grads.get(p.name, np.zeros(p.data.shape))
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


@pytest.mark.parametrize("first_reached", [1, 2, 5])
def test_adam_skips_a_parameter_until_its_first_gradient(first_reached):
    """A parameter missing from the gradient map has no moments and is not
    written; from its first gradient on, values and moments equal the
    whole-array update that ran on zeros, bit for bit, -0.0 included."""
    shapes = {"reached": (5, 3), "late": (3, 7, 41, 83)}  # "late" spans two blocks and a ragged tail
    rng = np.random.default_rng(first_reached)
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    init["late"].flat[::7] = -0.0
    fused = [ad.Parameter(name, x.copy()) for name, x in init.items()]
    oracle = [ad.Parameter(name, x.copy()) for name, x in init.items()]
    s_fused, s_oracle = tr.AdamState(), tr.AdamState()
    for step in range(1, first_reached + 4):
        grads = {"reached": rng.normal(size=shapes["reached"])}
        if step >= first_reached:
            grads["late"] = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=shapes["late"])
        lr = 1e-3 * step
        tr.adam_step(fused, grads, s_fused, lr)
        _whole_array_adam(oracle, grads, s_oracle, lr)
        assert s_fused.t == s_oracle.t == step
        assert ("late" in s_fused.m, "late" in s_fused.v) == (step >= first_reached,) * 2
        for a, b in zip(fused, oracle):
            assert a.data.tobytes() == b.data.tobytes()
            if a.name in s_fused.m:
                assert s_fused.m[a.name].tobytes() == s_oracle.m[b.name].tobytes()
                assert s_fused.v[a.name].tobytes() == s_oracle.v[b.name].tobytes()


@pytest.mark.parametrize("schedule", ["RMR", "RRMMRM", "MRMMR"])
def test_adam_round_trips_a_parameter_through_missing_gradients(schedule):
    """A parameter reached (R) at some steps and missing (M) from the map at
    others: while missing after its first gradient, its moments decay under
    a zero gradient, and values and moments equal the whole-array update
    bit for bit at every step, -0.0 included."""
    shape = (3, 7, 41, 83)  # spans two blocks and a ragged tail
    rng = np.random.default_rng(len(schedule))
    init = rng.normal(size=shape)
    init.flat[::7] = -0.0
    fused, oracle = ad.Parameter("p", init.copy()), ad.Parameter("p", init.copy())
    s_fused, s_oracle = tr.AdamState(), tr.AdamState()
    for step, mark in enumerate(schedule, start=1):
        grads = {}
        if mark == "R":
            grads["p"] = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=shape)
            grads["p"].flat[3::5] = -0.0
        lr = 1e-3 * step
        tr.adam_step([fused], grads, s_fused, lr)
        _whole_array_adam([oracle], grads, s_oracle, lr)
        assert s_fused.t == s_oracle.t == step
        assert fused.data.tobytes() == oracle.data.tobytes()
        if "p" in s_fused.m:
            assert s_fused.m["p"].tobytes() == s_oracle.m["p"].tobytes()
            assert s_fused.v["p"].tobytes() == s_oracle.v["p"].tobytes()
        else:
            assert "R" not in schedule[:step] and "p" not in s_fused.v
    assert "p" in s_fused.m


def _criterion_1_sample():
    """Acceptance criterion 1's model and sample: MINI_CONFIG at model seed
    1 on table 40, where no region holds more than P = 8 kept rows, so
    ``learner1`` and ``modularizer1`` get no gradient."""
    cloud = generate_shape("table", 40)
    sample = Sample(render_image(cloud, size=8), geo.downsample(cloud, 64), "table", 40)
    return PatternModel(ModelConfig(**MINI_CONFIG), seed=1), sample


def test_backward_map_names_exactly_the_reached_parameters():
    """On criterion 1's sample the gradient map holds every parameter but
    pattern 1's learner and modularizer, in watch order, each as a writable
    float64 array of its parameter's shape."""
    model, sample = _criterion_1_sample()
    tape = ad.Tape()
    trace = model.forward(sample.image, reference=sample.gt_cloud, tape=tape)
    loss, _ = tr.total_loss(trace, sample.gt_cloud, tr.TrainConfig(), model.config)
    grads = ad.backward(loss)
    unreached = [name for name in model.params if name.startswith(("learner1.", "modularizer1."))]
    assert len(unreached) == 15
    assert list(grads) == [name for name in model.params if name not in unreached]
    for name, g in grads.items():
        assert type(g) is np.ndarray and g.flags.writeable, name
        assert g.dtype == np.float64 and g.shape == model.params[name].data.shape, name


def test_training_allocates_no_moments_for_unreached_parameters(tmp_path, monkeypatch):
    """Training on criterion 1's sample keeps no Adam moments for pattern 1's
    learner and modularizer, and writes the checkpoint the whole-array
    update writes, byte for byte."""
    config = tr.TrainConfig(epochs=3, batch_size=1, seed=0, lr=1e-3)
    model, sample = _criterion_1_sample()
    (tmp_path / "fused").mkdir()
    _, state = tr.train([sample], model, config, out_dir=tmp_path / "fused")
    unreached = [name for name in model.params if name.startswith(("learner1.", "modularizer1."))]
    assert len(unreached) == 15 and state.t == 3
    assert set(state.m) == set(state.v) == set(model.params) - set(unreached)

    monkeypatch.setattr(tr, "adam_step", _whole_array_adam)
    model, sample = _criterion_1_sample()
    (tmp_path / "oracle").mkdir()
    _, oracle_state = tr.train([sample], model, config, out_dir=tmp_path / "oracle")
    assert set(oracle_state.m) == set(model.params)
    fused_bytes = (tmp_path / "fused" / "checkpoint.pmod").read_bytes()
    assert fused_bytes == (tmp_path / "oracle" / "checkpoint.pmod").read_bytes()


def test_nan_member_gradient_aborts_before_later_parameters(tmp_path, monkeypatch):
    """A non-finite entry in the second block of a parameter that three
    others follow aborts the step before any parameter is written: the
    model and its dump both hold the initial parameters."""
    samples = tiny_samples(4)
    model = tiny_model(seed=3)
    initial = {p.name: p.data.copy() for p in model.parameters()}
    names = list(model.params)
    target = "customizer.fc2.weight"  # 512 x 128: two blocks; three parameters follow it
    assert model.params[target].data.size == 2 * tr.ADAM_BLOCK
    assert len(names) - names.index(target) - 1 == 3
    real = tr.adam_step

    def planted(params, grads, *args):
        grads[target] = grads[target].copy()
        grads[target].flat[-1] = np.nan  # in the second block
        return real(params, grads, *args)

    monkeypatch.setattr(tr, "adam_step", planted)
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(NumericalAbort, match=target):
        tr.train(samples, model, tr.TrainConfig(epochs=1, batch_size=2, seed=0), out_dir=out)
    dumped, _ = load_checkpoint(out / "abort_last_good.pmod")
    for net in (model, dumped):
        for name, values in initial.items():
            np.testing.assert_array_equal(net.params[name].data, values)


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
        batch_loss, parts, traces = tr._batch_loss(model, batch, config, ad.Tape())
        grads = ad.backward(batch_loss)

    want_parts, want_grads = [], {}
    for sample, batch_trace in zip(batch, traces):
        tape = ad.Tape()
        trace = model.forward(sample.image, reference=sample.gt_cloud, tape=tape)
        loss, member_parts = tr.total_loss(trace, sample.gt_cloud, config, model.config)
        want_parts.append(member_parts)
        for name, g in ad.backward(loss).items():
            want_grads[name] = want_grads.get(name, 0.0) + g / len(batch)
        np.testing.assert_allclose(batch_trace.f_cloud, trace.f_cloud, rtol=0, atol=1e-14)

    assert len(parts) == len(traces) == len(batch)
    for got, want in zip(parts, want_parts):
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), key
    mean_loss = np.mean([p["loss_total"] for p in want_parts])
    assert abs(np.mean([p["loss_total"] for p in parts]) - mean_loss) <= 1e-12 * mean_loss
    assert abs(batch_loss.item() - mean_loss) <= 1e-12 * mean_loss
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    if members >= 3 and not model.config.no_local:  # the batch holds the fallback member
        counts = [k for t in traces for k in t.split.counts]
        p = model.config.pattern_points
        assert 0 in counts and any(0 < k < p for k in counts) and any(p < k < 2 * p for k in counts)
        assert ("substituting whole-shape term" in caplog.text) == (not config.no_l_region)


# the desk scale of acceptance criterion 7 and perfbench's desk_train_eval
DESK = dict(
    s_points=256,
    f_points=256,
    regions=8,
    patterns=4,
    pattern_points=64,
    image_feat=128,
    region_feat=32,
    image_size=32,
    conv_channels=(8, 8, 16, 16, 32, 32, 32),
)


@pytest.mark.parametrize(
    "shape, digest",
    [
        (MINI_CONFIG, "cc01f1a23c58ec4fcff3c5fdce2b5d874ba47b4958ee90b43c73d3ce22b608b8"),
        (DESK, "bf6029bcae2fb97bf402696d96bfa3b77e5d7d87e7a192620beaa8e6abb1f2f5"),
    ],
    ids=["mini", "desk"],
)
def test_batch_gradient_bytes_are_pinned(shape, digest):
    """The gradient map of one batch-4 step, hashed over the sorted parameter
    names and each gradient's bytes (zeros for a name the map omits), keeps
    its bits when backward changes how it holds or releases memory.  The
    same digests hold at 1 and 2 BLAS threads; paper scale is not pinned, as
    its bits depend on the BLAS thread count."""
    config = ModelConfig(**shape)
    classes = ("table", "chair", "lamp", "table")
    batch = [make_sample(name, 500 + i, image_size=config.image_size) for i, name in enumerate(classes)]
    model = PatternModel(config, seed=0)
    loss, _, _ = tr._batch_loss(model, batch, tr.TrainConfig(), ad.Tape())
    grads = ad.backward(loss)
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(grads.get(name, np.zeros(model.params[name].data.shape)).tobytes())
    assert h.hexdigest() == digest


# Step and tolerance of the directional gradient guard below.  At this step
# its three directions read relative errors up to 1.3e-8 at desk and 2.3e-8
# at paper scale, and scaling the first half of the rows of linear's weight
# gradient by 1 + 1e-4 reads 5.1e-5 and 2.0e-5.  A step of 1e-7 already reads
# 3.5e-5 at desk scale, from ReLU and nearest-neighbor kinks inside the step.
GUARD_EPS = 3e-9
GUARD_TOL = 1e-6


@pytest.mark.slow
@pytest.mark.parametrize("shape, missing", [(DESK, 45), ({}, 90)], ids=["desk", "paper"])
def test_batch_gradient_matches_directional_differences(shape, missing):
    """The gradient of one batch-4 step at renders 500-503 and model seed 0
    agrees with the central difference of the batch loss along three fixed
    directions over every parameter, a name missing from the map read as
    zero; the directions move the ``missing`` arrays backward did not reach.

    Each array moves by N(0, 1) noise scaled by its mean |p|, or by 1 when
    it is all zero.  The conv biases stay put: they are 0 at initialization,
    so a window over black background or padding has a pre-activation of
    exactly 0 whatever the conv weights, on the ReLU kink, where the tape
    takes slope 0 and a central difference sees half the slope."""
    config = ModelConfig(**shape)
    model = PatternModel(config, seed=0)
    classes = ("table", "chair", "lamp", "table")
    batch = [make_sample(name, 500 + i, image_size=config.image_size) for i, name in enumerate(classes)]
    train_config = tr.TrainConfig()
    loss, _, _ = tr._batch_loss(model, batch, train_config, ad.Tape())
    grads = ad.backward(loss)
    assert len(model.params) - len(grads) == missing
    initial = {name: p.data for name, p in model.params.items()}
    moved = [name for name in model.params if not (name.startswith("encoder.conv") and name.endswith(".bias"))]
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = {name: rng.standard_normal(initial[name].shape) * (np.abs(initial[name]).mean() or 1.0) for name in moved}
        analytic = sum(float(np.vdot(grads[name], v)) for name, v in d.items() if name in grads)
        values = []
        for sign in (1.0, -1.0):
            for name, v in d.items():
                model.params[name].data = initial[name] + sign * GUARD_EPS * v
            values.append(tr._batch_loss(model, batch, train_config)[0].item())
        for name in moved:
            model.params[name].data = initial[name]
        fd = (values[0] - values[1]) / (2.0 * GUARD_EPS)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic)))
    assert worst < GUARD_TOL


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


@pytest.mark.parametrize("run", [tr.dataset_loss, lambda *args: oracles.overfit_harness(*args, max_steps=5)],
                         ids=["dataset_loss", "overfit_harness"])
def test_empty_dataset_rejected_before_any_pass(monkeypatch, run):
    """An empty dataset raises DomainError, as in train, before any pass:
    not the NaN mean of no losses, nor a harness loop that never steps."""

    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran on an empty dataset")

    monkeypatch.setattr(tr, "_batch_loss", no_pass)
    with pytest.raises(DomainError, match="nonempty dataset"):
        run(tiny_model(), [], tr.TrainConfig())


@pytest.mark.parametrize(
    "n_samples, max_steps, steps, reached, final_loss, digest",
    [
        (5, 0, 0, False, "0x1.71fdfb76e5692p+7", "1fbdd6f963a7b6f47e1bd16054120b62e3665d14d5484c610abb4e8b24e70529"),
        (5, 1, 1, False, "0x1.92ad417b82cd6p+7", "751f639e717f526ccc404075fcd06d1c4b6f60e6658b74b6cd54c92efe51c5c2"),
        (5, 7, 7, False, "0x1.83d787af1027ep+6", "c6ac0c72f39805d5c3a8537b3bc7e07db6ae63c95eb0e41b59c0dea62968b42f"),
        (5, 10, 10, False, "0x1.8de6040ebfa52p+6", "60f0b8fc5fb03d854a054c7a6ac59acec5de81f1e478493a150dc00e9ccc52b8"),
        (5, 23, 23, False, "0x1.2d34fb7ea6eaap+6", "cfefa491b1651677007a7015a1f6c9c580df3043f9b301b6dd97820f8881c821"),
        (2, 60, 50, True, "0x1.72a6532c98c66p+5", "0be00a300bbf21ea555c4fe07a93fabee70d801741d5d6d89a06cc7e60c5d455"),
    ],
    ids=["0", "1", "7", "10", "23", "target_at_50"],
)
def test_overfit_harness_is_pinned(n_samples, max_steps, steps, reached, final_loss, digest):
    """Pins the harness's step count, final loss and parameter bytes on the
    mini config: batches of 2 over 5 renders cross epoch boundaries, and 2
    renders reach the target at step 50 of 60.  A deliberate change to the
    training arithmetic updates these."""
    classes = ["table", "chair", "lamp", "ring", "sofa_block"]
    samples = [make_sample(classes[i], 300 + i, image_size=MINI_CONFIG["image_size"]) for i in range(n_samples)]
    model = PatternModel(ModelConfig(**MINI_CONFIG), seed=1)
    result = oracles.overfit_harness(model, samples, tr.TrainConfig(batch_size=2, lr=1e-2, seed=0), max_steps=max_steps)
    assert (result["steps"], result["reached"], result["final_loss"].hex()) == (steps, reached, final_loss)
    assert hashlib.sha256(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest() == digest


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


@pytest.mark.parametrize("eval_points", [8, None])
def test_evaluate_twice_gives_identical_rows(eval_points):
    """The second call reads the cached ground-truth downsamples and returns
    the first call's rows; only the wall-clock column may differ."""
    model, samples = tiny_model(), tiny_samples(4)
    first, second = (tr.evaluate(model, samples, "seen", eval_points=eval_points) for _ in range(2))
    masked = [[{**vars(r), "wall_ms": 0.0} for r in rows] for rows in (first, second)]
    assert masked[0] == masked[1]


def test_evaluate_runs_fps_once_per_sample_and_target(monkeypatch):
    """Each ground truth is farthest-point sampled once per target count over
    any number of evaluate calls; a prediction, new every call, each time."""
    samples = tiny_samples(3)
    gt_calls, pred_calls = [], []
    real = geo.farthest_point_indices

    def counted(cloud, k):
        owner = [i for i, s in enumerate(samples) if cloud is s.gt_cloud]
        if owner:
            gt_calls.append((owner[0], k))
        else:
            pred_calls.append(k)
        return real(cloud, k)

    monkeypatch.setattr(geo, "farthest_point_indices", counted)
    model = tiny_model()
    for eval_points in (None, None, 8, 8, None):
        tr.evaluate(model, samples, "seen", eval_points=eval_points)
    # f_points = 24 sets the target when eval_points is None
    assert sorted(gt_calls) == [(i, k) for i in range(3) for k in (8, 24)]
    assert pred_calls == [8] * 6


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
