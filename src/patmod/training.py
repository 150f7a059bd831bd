"""Losses, optimizer, training loop, evaluation, latent interpolation, sweeps.

The combined objective is a per-region Chamfer term plus a small-weight
whole-shape Chamfer on the initial prediction; ablation switches degrade the
objective or the architecture for the comparison grids.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import DTensor
from .data import Sample
from .errors import ConfigError, DomainError, NumericalAbort
from .model import ForwardTrace, ModelConfig, PatternModel, save_checkpoint, to_flat

if TYPE_CHECKING:
    from .runconfig import RunConfig

logger = logging.getLogger(__name__)

METRICS_HEADER = "epoch,split,class,cd_eval,iou,loss_shape,loss_region,loss_total,wall_ms"
METRICS_NOTE = (
    "# cd_eval is per-point normalized: (mean over A of nn-dist + mean over B of nn-dist) / 2; "
    "training losses are raw symmetric nearest-neighbor sums"
)


@dataclass
class TrainConfig:
    """Objective, optimizer and schedule of one training run.

    The global-only objective has no switch here: ``total_loss`` reads the
    model's ``no_local``.  ``threads`` (from ``PATMOD_THREADS`` on the
    command line) is accepted and validated but does not change the
    computation: a batch runs as one tape, so there are no member passes to
    spread over threads.
    """

    alpha: float = 0.1
    lr: float = 1e-4
    batch_size: int = 4
    lr_decay: float = 0.95
    decay_every_epochs: int = 70
    epochs: int = 1
    seed: int = 0
    threads: int = 1
    checkpoint_every: int = 0  # 0 = final checkpoint only
    no_l_region: bool = False
    no_l_shape: bool = False

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("decay_every_epochs", 1), ("epochs", 0), ("seed", 0), ("threads", 1),
                          ("checkpoint_every", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("alpha", "lr", "lr_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    class_label: str
    cd_eval: float
    iou: float
    loss_shape: float
    loss_region: float
    loss_total: float
    wall_ms: float

    def row(self) -> str:
        return ",".join(
            [
                str(self.epoch),
                self.split,
                self.class_label,
                f"{self.cd_eval:.17g}",
                f"{self.iou:.17g}",
                f"{self.loss_shape:.17g}",
                f"{self.loss_region:.17g}",
                f"{self.loss_total:.17g}",
                f"{self.wall_ms:.3f}",
            ]
        )


def write_metrics_csv(path, records: list[MetricsRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_NOTE + "\n")
        fh.write(METRICS_HEADER + "\n")
        for rec in records:
            fh.write(rec.row() + "\n")


# ---------------------------------------------------------------------------
# losses


def loss_region(trace: ForwardTrace, gt_cloud: np.ndarray, model_config: ModelConfig) -> DTensor:
    """Mean Chamfer over region pairs that are nonempty on both sides.

    Ground-truth regions come from splitting the ground truth against its own
    bounding box, which is the same box the forward pass used in training
    mode, so pairs align by region number.  Region m's prediction is its run
    of ``trace.split.counts[m]`` kept rows in ``trace.f_tensor``.
    """
    # capacity = cloud size: ground-truth regions never truncate
    gt = geo.split_regions([gt_cloud], [gt_cloud], model_config.regions, gt_cloud.shape[0])
    f_rows = np.split(np.arange(len(trace.f_cloud)), np.cumsum(trace.split.counts)[:-1])
    gt_rows = np.split(gt.rows, np.cumsum(gt.counts)[:-1])
    pairs = [(f, g) for f, g in zip(f_rows, gt_rows) if len(f) and len(g)]
    if not pairs:
        raise DomainError("no region pair is nonempty on both sides")
    return ad.scale(geo.chamfer(trace.f_tensor, gt_cloud, pairs), 1.0 / len(pairs))


def total_loss(
    trace: ForwardTrace, gt_cloud: np.ndarray, config: TrainConfig, model_config: ModelConfig
) -> tuple[DTensor, dict[str, float]]:
    """Combined objective with ablation switches; returns (loss, component
    values).  A ``no_local`` model is trained on the whole-shape term alone."""
    l_shape = geo.chamfer(trace.s_tensor, gt_cloud)
    if model_config.no_local:
        return l_shape, {"loss_shape": l_shape.item(), "loss_region": 0.0, "loss_total": l_shape.item()}
    if config.no_l_region:
        l_reg = geo.chamfer(trace.f_tensor, gt_cloud)  # second whole-shape term on F
    else:
        try:
            l_reg = loss_region(trace, gt_cloud, model_config)
        except DomainError:
            # degenerate early state: the prediction occupies only voxels whose
            # ground-truth region is empty; fall back to a whole-shape term so
            # every module still receives a gradient
            logger.warning("no valid region pair; substituting whole-shape term for this sample")
            l_reg = geo.chamfer(trace.f_tensor, gt_cloud)
    if config.no_l_shape:
        total = l_reg
    else:
        total = ad.add(l_reg, ad.scale(l_shape, config.alpha))
    return total, {
        "loss_shape": l_shape.item(),
        "loss_region": l_reg.item(),
        "loss_total": total.item(),
    }


# ---------------------------------------------------------------------------
# optimizer


# Elements per block of the fused Adam pass (256 KiB of float64 per array):
# a block's gradients, moments and scratch stay in cache from the reduction
# to the update.
ADAM_BLOCK = 2**15
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place, from one ``name -> gradient``
    map: the gradient of the batch loss, which is already the mean over
    the members.

    Each parameter is walked in blocks of ``ADAM_BLOCK`` elements; a block
    is checked for finiteness, and only then are ``m``, ``v`` and the
    parameter updated.  The arithmetic is the same, operation for
    operation, as applying ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps)`` to whole arrays.

    A non-finite block raises NumericalAbort naming its parameter.  By then
    every parameter before it in ``params`` (and the earlier blocks of the
    same parameter) has taken this step; no later one has.
    """
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    a_buf, b_buf = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for p in params:
        if not p.data.flags.c_contiguous:  # the flat views below must alias p.data
            p.data = np.ascontiguousarray(p.data)
        if p.name not in state.m:
            state.m[p.name] = np.zeros(p.data.shape)
            state.v[p.name] = np.zeros(p.data.shape)
        p_flat, m_flat, v_flat = (np.ravel(x) for x in (p.data, state.m[p.name], state.v[p.name]))
        g_flat = np.ravel(grads[p.name])
        for start in range(0, p_flat.size, ADAM_BLOCK):
            stop = min(start + ADAM_BLOCK, p_flat.size)
            g, a, b = g_flat[start:stop], a_buf[: stop - start], b_buf[: stop - start]
            if not np.isfinite(g).all():
                raise NumericalAbort(f"non-finite gradient for parameter {p.name!r}")
            m, v, w = m_flat[start:stop], v_flat[start:stop], p_flat[start:stop]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, g, out=a)
            v += np.multiply(a, 1.0 - b2, out=a)
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, c1, out=b)
            b *= lr
            w -= np.divide(b, a, out=b)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step-decayed learning rate: lr * decay^(epoch // interval)."""
    return config.lr * config.lr_decay ** (epoch // config.decay_every_epochs)


# ---------------------------------------------------------------------------
# training loop


@np.errstate(over="ignore", invalid="ignore")  # the losses are checked here, the gradients by adam_step
def _batch_gradients(model: PatternModel, batch: list[Sample], config: TrainConfig):
    """Gradient of the batch loss, the mean of the member losses, from one
    tape over the whole batch.

    The members run through ``PatternModel.forward`` as one stacked pass;
    each member's loss comes from ``total_loss`` on its own trace.  Returns
    (one ``name -> ndarray`` map, parts per member, traces per member).
    """
    tape = ad.Tape()
    images = np.stack([s.image for s in batch])
    trace = model.forward(images, reference=[s.gt_cloud for s in batch], tape=tape)
    losses, parts = [], []
    for sample, member in zip(batch, trace.members):
        loss, member_parts = total_loss(member, sample.gt_cloud, config, model.config)
        if not np.isfinite(loss.data).all():
            raise NumericalAbort(f"non-finite loss on sample ({sample.class_name}, {sample.seed})")
        losses.append(loss)
        parts.append(member_parts)
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    grads = {name: g.data for name, g in ad.backward(ad.scale(total, 1.0 / len(batch))).items()}
    return grads, parts, trace.members


def _train_step(model: PatternModel, batch: list[Sample], config: TrainConfig, state: AdamState, lr: float):
    """One optimizer step on a batch; returns (parts, traces) per member.

    The batch gradient dies with this frame, so it is not alive while the
    next step runs.
    """
    grads, parts, traces = _batch_gradients(model, batch, config)
    adam_step(model.parameters(), grads, state, lr)
    return parts, traces


def train(
    samples: list[Sample],
    model: PatternModel,
    config: TrainConfig,
    out_dir=None,
) -> tuple[list[MetricsRecord], AdamState]:
    """Epoch loop with seeded shuffling; returns per-epoch records.

    Writes ``checkpoint.pmod`` under out_dir at the end (and every
    ``checkpoint_every`` epochs), each time once a tapeless forward pass of
    the last batch has every stage finite.  On a NumericalAbort the current
    parameters are dumped next to it as ``abort_last_good.pmod``.  After a
    non-finite loss or forward pass these are the parameters of the last
    completed step.
    After a non-finite gradient they are not all from one step: the
    parameters before the named one in registry order, and the blocks of it
    already visited, have taken the aborted step; the rest have not.
    """
    if not samples:
        raise DomainError("training requires a nonempty dataset")
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    records: list[MetricsRecord] = []
    batch = None  # the batch of the last step
    train_flat = {f"train.{k}": v for k, v in to_flat(config).items()}

    def save_checked() -> None:
        if batch is not None:  # raises NumericalAbort on a non-finite stage
            model.forward(np.stack([s.image for s in batch]), reference=[s.gt_cloud for s in batch], tape=None)
        save_checkpoint(Path(out_dir) / "checkpoint.pmod", model, train_flat)

    try:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(samples))
            part_sums = {"loss_shape": 0.0, "loss_region": 0.0, "loss_total": 0.0}
            cd_sum = iou_sum = 0.0
            n_seen = 0
            lr = lr_at(epoch, config)
            for start in range(0, len(order), config.batch_size):
                batch = [samples[i] for i in order[start : start + config.batch_size]]
                parts, traces = _train_step(model, batch, config, state, lr)
                for sample, p, tr in zip(batch, parts, traces):
                    for k in part_sums:
                        part_sums[k] += p[k]
                    cd_sum += geo.chamfer_eval(tr.f_cloud, sample.gt_cloud)
                    iou_sum += _iou_32(tr.f_cloud, sample.gt_cloud)
                    n_seen += 1
            wall_ms = (time.perf_counter() - t0) * 1e3
            records.append(
                MetricsRecord(
                    epoch=epoch,
                    split="train",
                    class_label="all",
                    cd_eval=cd_sum / n_seen,
                    iou=iou_sum / n_seen,
                    loss_shape=part_sums["loss_shape"] / n_seen,
                    loss_region=part_sums["loss_region"] / n_seen,
                    loss_total=part_sums["loss_total"] / n_seen,
                    wall_ms=wall_ms,
                )
            )
            logger.info(
                "epoch %d: loss %.4f (shape %.4f, region %.4f) lr %.2e [%.0f ms]",
                epoch,
                records[-1].loss_total,
                records[-1].loss_shape,
                records[-1].loss_region,
                lr,
                wall_ms,
            )
            if out_dir is not None and config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                save_checked()
        if out_dir is not None:
            save_checked()
    except NumericalAbort:
        if out_dir is not None:
            save_checkpoint(Path(out_dir) / "abort_last_good.pmod", model, train_flat)
        raise
    return records, state


def _iou_32(pred: np.ndarray, gt: np.ndarray) -> float:
    bounds = geo.bounding_box(pred, 1e-9).union(geo.bounding_box(gt, 1e-9))
    return geo.iou(geo.voxelize(pred, 32, bounds), geo.voxelize(gt, 32, bounds))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    model: PatternModel,
    samples: list[Sample],
    split_name: str,
    eval_points: int | None = None,
) -> list[MetricsRecord]:
    """Inference-mode metrics: per-class means plus an overall mean row, all
    recorded as epoch 0.

    The region split reads only the model's own prediction.  Prediction and
    ground truth are matched in cardinality (farthest-point downsampling)
    before the normalized Chamfer and the 32^3 IoU on their union box;
    ``eval_points``, when given, caps both sides at that count.
    """
    if eval_points is not None and eval_points < 1:
        raise DomainError(f"eval_points must be >= 1, got {eval_points}")
    if not samples:
        raise DomainError(f"no samples to evaluate in split {split_name!r}")
    per_class: dict[str, list[tuple[float, float, float]]] = {}
    for sample in samples:
        t0 = time.perf_counter()
        trace = model.reconstruct(sample.image)
        pred, gt = _match_cardinality(trace.f_cloud, sample.gt_cloud, eval_points)
        cd = geo.chamfer_eval(pred, gt)
        iou_val = _iou_32(pred, gt)
        wall = (time.perf_counter() - t0) * 1e3
        per_class.setdefault(sample.class_name, []).append((cd, iou_val, wall))

    records = []
    all_cd, all_iou, all_wall = [], [], []
    for cls in sorted(per_class):
        vals = np.asarray(per_class[cls])
        records.append(
            MetricsRecord(0, split_name, cls, float(vals[:, 0].mean()), float(vals[:, 1].mean()),
                          0.0, 0.0, 0.0, float(vals[:, 2].sum()))
        )
        all_cd.append(vals[:, 0].mean())
        all_iou.append(vals[:, 1].mean())
        all_wall.append(vals[:, 2].sum())
    records.append(
        MetricsRecord(0, split_name, "mean", float(np.mean(all_cd)), float(np.mean(all_iou)),
                      0.0, 0.0, 0.0, float(np.sum(all_wall)))
    )
    return records


def _match_cardinality(pred: np.ndarray, gt: np.ndarray, eval_points: int | None):
    target = eval_points if eval_points is not None else min(pred.shape[0], gt.shape[0])
    target = min(target, pred.shape[0], gt.shape[0])
    pred = geo.downsample(pred, target) if pred.shape[0] > target else pred
    gt = geo.downsample(gt, target) if gt.shape[0] > target else gt
    return pred, gt


# ---------------------------------------------------------------------------
# latent interpolation


def interpolate_latent(
    model: PatternModel, image_a: np.ndarray, image_b: np.ndarray, steps: int
) -> list[tuple[float, np.ndarray]]:
    """Reconstructions from uniformly interpolated image codes.

    Endpoints bypass the blend entirely so they reproduce the plain
    reconstructions bit for bit.
    """
    if steps < 2:
        raise DomainError(f"interpolation needs at least 2 steps, got {steps}")
    pt = model._watch_all(None)
    code_a = model.encode_image(np.asarray(image_a, dtype=np.float64), pt).data
    code_b = model.encode_image(np.asarray(image_b, dtype=np.float64), pt).data
    out = []
    for lam in np.linspace(0.0, 1.0, steps):
        lam = float(lam)
        if lam == 0.0:
            code = code_a
        elif lam == 1.0:
            code = code_b
        else:
            code = (1.0 - lam) * code_a + lam * code_b
        trace = model.forward_from_code(code)
        out.append((lam, trace.f_cloud))
    return out


# ---------------------------------------------------------------------------
# sweeps


# sweep parameter -> the config key it sets
SWEEP_PARAMETERS = {"alpha": "alpha", "M": "regions", "N": "patterns", "sampling_mode": "sampling_mode"}


def sweep(parameter: str, values: list, run_config: RunConfig, dataset: dict[str, list[Sample]]) -> list[dict]:
    """Train/evaluate one run per value; returns one result row per valid value.
    Each value is applied as ``--set`` text; one that fails is skipped with a warning."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_PARAMETERS)}, got {parameter!r}")
    rows = []
    for value in values:
        try:
            cfg = run_config.apply({SWEEP_PARAMETERS[parameter]: str(value)})
        except ConfigError as exc:
            logger.warning("skipping %s=%r: %s", parameter, value, exc)
            continue
        model = PatternModel(cfg.model, seed=cfg.model_seed)
        train(dataset["train"], model, cfg.train)
        cd_seen = evaluate(model, dataset["test_seen"], "seen")[-1].cd_eval
        cd_unseen = evaluate(model, dataset["test_unseen"], "unseen")[-1].cd_eval
        rows.append({"parameter": parameter, "value": value, "cd_seen": cd_seen, "cd_unseen": cd_unseen})
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("parameter,value,cd_seen,cd_unseen\n")
        for r in rows:
            fh.write(f"{r['parameter']},{r['value']},{r['cd_seen']:.17g},{r['cd_unseen']:.17g}\n")


# ---------------------------------------------------------------------------
# overfit harness


def overfit_harness(
    model: PatternModel,
    samples: list[Sample],
    config: TrainConfig,
    max_steps: int = 500,
) -> dict:
    """Drive optimizer steps until the full-dataset loss falls to a quarter
    of its initial value (or the step budget runs out), checking it every
    10 steps."""
    initial = dataset_loss(model, samples, config)
    target = 0.25 * initial
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    steps = 0
    current = initial
    t0 = time.perf_counter()
    while steps < max_steps:
        order = rng.permutation(len(samples))
        for start in range(0, len(order), config.batch_size):
            batch = [samples[i] for i in order[start : start + config.batch_size]]
            _train_step(model, batch, config, state, lr_at(0, config))
            steps += 1
            if steps % 10 == 0 or steps >= max_steps:
                current = dataset_loss(model, samples, config)
                if current <= target or steps >= max_steps:
                    break
        if current <= target:
            break
    return {
        "initial_loss": initial,
        "final_loss": current,
        "steps": steps,
        "seconds": time.perf_counter() - t0,
        "reached": current <= target,
    }


def dataset_loss(model: PatternModel, samples: list[Sample], config: TrainConfig) -> float:
    """Mean training objective over a dataset, without touching parameters."""
    vals = []
    for s in samples:
        trace = model.forward(s.image, reference=s.gt_cloud, tape=None)
        _, parts = total_loss(trace, s.gt_cloud, config, model.config)
        vals.append(parts["loss_total"])
    return float(np.mean(vals))
