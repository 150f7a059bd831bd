"""The benchmark in ``perfbench/`` patches patmod functions by name and wraps
them by signature (``total_loss(trace, gt_cloud, config, model_config)``,
``PatternModel.forward`` returning a trace).  These tests run a miniature
train, reconstruct and evaluate under its instrumentation, so a change that
breaks the benchmark fails here first."""

import importlib.util
from collections import Counter
from pathlib import Path

from patmod import autodiff as ad
from patmod import data, model, training
from patmod.model import MINI_CONFIG, ModelConfig, PatternModel

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
            "model.load_checkpoint", "training.evaluate"} <= names


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
