"""The benchmark in ``perfbench/`` patches patmod functions by name and wraps
them by signature (``total_loss(trace, gt_cloud, config, model_config)``,
``PatternModel.forward`` returning a trace).  These tests run a miniature
train, reconstruct and evaluate under its instrumentation, so a change that
breaks the benchmark fails here first."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from patmod import autodiff as ad
from patmod import data, geometry, model, training
from patmod.model import ModelConfig, PatternModel

from oracles import MINI_CONFIG

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_every_traced_function_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TRACED if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_train_reconstruct_evaluate_record_no_failure(tmp_path):
    split = data.DatasetSplit(train_per_class=1, test_per_class=1)
    dataset = data.make_dataset(split, image_size=MINI_CONFIG["image_size"])
    net = PatternModel(ModelConfig(**MINI_CONFIG), seed=0)
    rec = spans.Recorder(tracing=True)
    with spans.instrument(rec):
        rec.begin("train_step")
        training.train(dataset["train"], net, training.TrainConfig(epochs=1, batch_size=2), out_dir=tmp_path)
        rec.end()
        loaded, _ = model.load_checkpoint(tmp_path / "checkpoint.pmod")
        cloud = loaded.reconstruct(dataset["test_seen"][0].image).f_cloud
        training.evaluate(loaded, dataset["test_unseen"], "unseen")
    assert rec.failures == []
    assert spans.check_cloud(cloud, MINI_CONFIG["f_points"]) is None
    names = {span[0] for span in rec.spans}
    assert {"training.total_loss", "training.adam_step", "model.forward", "model.save_checkpoint",
            "model.load_checkpoint", "training.evaluate", "geometry.voxel_iou", "geometry.chamfer_eval"} <= names
    # each IoU is one traced iou call around its two traced voxelize calls, so
    # a caller that reaches either through a local name fails here
    iou = {i for i, span in enumerate(rec.spans) if span[0] == "geometry.voxel_iou"}
    outer = [i for i in iou if rec.spans[i][3] not in iou]
    inner = Counter(rec.spans[i][3] for i in iou if rec.spans[i][3] in iou)
    assert outer and [inner[i] for i in outer] == [2] * len(outer)


def test_taped_batch_step_records_every_backward_kind():
    """perfbench times backward per node kind in ``BACKWARD_KINDS``; a kind
    that no training step records would read zero without any failure, so a
    fusion or rename of a tape op must show up here."""
    config = ModelConfig(**MINI_CONFIG)
    batch = [data.make_sample(name, 500 + i, image_size=config.image_size)
             for i, name in enumerate(("table", "chair", "lamp", "table"))]
    tape = ad.Tape()
    training._batch_loss(PatternModel(config, seed=0), batch, training.TrainConfig(), tape)
    recorded = Counter(node.kind for node in tape.nodes)
    assert {kind: recorded[kind] for kind in spans.BACKWARD_KINDS if not recorded[kind]} == {}


def test_warning_counters_count_real_overflows_and_fallbacks():
    """perfbench counts region overflows and whole-shape fallbacks by the
    start of their log messages (``spans._WARNINGS``); a reworded message
    would read zero without any failure.  The forward pass at MINI_CONFIG
    overflows too, so the counts are at least one, not exactly one."""
    config = ModelConfig(**MINI_CONFIG)
    cloud = np.tile([[0.1, 0.1, 0.1]], (10, 1)) + np.arange(10)[:, None] * 1e-6
    image = np.random.default_rng(0).uniform(0.0, 1.0, config.image_shape)
    # every prediction point clamps to the lowest voxel of [1, 1.5]^3, where no truth point is
    gt = np.array([[1.0, 1.5, 1.5], [1.5, 1.0, 1.5], [1.5, 1.5, 1.0]])
    rec = spans.Recorder(tracing=False)

    def count(metric: str) -> float:
        return sum(v for (_op, name), v in rec.counts.items() if name == metric)

    with spans.instrument(rec):
        geometry.split_regions([cloud], [np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])], 1, capacity=4)
        assert count("geometry.region_overflows") >= 1
        sample = data.Sample(image, gt, "fallback", 0)
        training.dataset_loss(PatternModel(config, seed=0), [sample], training.TrainConfig())
    assert count("training.shape_fallbacks") >= 1
