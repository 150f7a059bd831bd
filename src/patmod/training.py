"""Losses, optimizer, training loop, evaluation, latent interpolation, sweeps.

The combined objective is a per-region Chamfer term plus a small-weight
whole-shape Chamfer on the initial prediction; ablation switches degrade the
objective or the architecture for the comparison grids.
"""

from __future__ import annotations

import functools
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
from .errors import ConfigError, DomainError, NumericalAbort, at_least
from .model import ForwardTrace, ModelConfig, PatternModel, save_checkpoint

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
    model's ``no_local``.  A batch runs as one tape, so there is no thread
    setting: the only parallelism is inside BLAS.  Acceptance criterion 9
    checks that 1 and 2 BLAS threads give the same bytes at its scale; at
    paper scale they do not yet.
    """

    alpha: float = 0.1
    lr: float = 1e-4
    batch_size: int = 4
    lr_decay: float = 0.95
    decay_every_epochs: int = 70
    epochs: int = 1
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    no_l_region: bool = False
    no_l_shape: bool = False

    def __post_init__(self):
        at_least((name, getattr(self, name), low) for name, low in (
            ("batch_size", 1), ("decay_every_epochs", 1), ("epochs", 0), ("seed", 0), ("checkpoint_every", 0)))
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

    With no such pair, a degenerate early state where the prediction occupies
    only voxels whose ground-truth region is empty, it logs a warning and
    returns the whole-shape Chamfer on F instead, so every module still
    receives a gradient.
    """
    # capacity = cloud size: ground-truth regions never truncate
    gt = geo.split_regions([gt_cloud], [gt_cloud], model_config.regions, gt_cloud.shape[0])
    f_rows = trace.split.per_region(np.arange(len(trace.f_cloud)))
    pairs = [(f, g) for f, g in zip(f_rows, gt.per_region(gt.rows)) if len(f) and len(g)]
    if not pairs:
        logger.warning("no valid region pair; substituting whole-shape term for this sample")
        return geo.chamfer(trace.f_tensor, gt_cloud)
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
        l_reg = loss_region(trace, gt_cloud, model_config)
    total = l_reg if config.no_l_shape else ad.add(l_reg, ad.scale(l_shape, config.alpha))
    return total, {"loss_shape": l_shape.item(), "loss_region": l_reg.item(), "loss_total": total.item()}


# ---------------------------------------------------------------------------
# optimizer


# Elements per block of the fused Adam pass (256 KiB of float64 per array):
# a block's gradient, moments, parameter and two scratch arrays stay in cache
# through the dozen operations of its update, and neither the finiteness scan
# nor the update allocates a temporary the size of a whole parameter.
ADAM_BLOCK = 2**15
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place, from one ``name -> gradient
    array`` map as ``autodiff.backward`` returns it: the gradient of the
    batch loss, which is already the mean over the members.

    A name missing from the map has gradient zero.  Every gradient in the
    map is checked for finiteness first, in blocks of ``ADAM_BLOCK``
    elements and in the order of ``params``; a non-finite block raises
    NumericalAbort naming its parameter before anything is written, so the
    parameters and ``state`` stay as they were.  Then each parameter is
    updated in blocks with the same arithmetic, operation for operation, as
    applying ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps)`` to whole arrays.

    A parameter that has no moments and no gradient is skipped: it gets no
    ``m``/``v`` entry and is not written.  This is exact: with only zero
    gradients the whole-array update leaves ``m = v = +0.0`` and
    ``p - 0.0 == p`` bit for bit, and ``c1``/``c2`` depend only on
    ``state.t``, so a parameter first reached at step t gets the moments and
    values of the whole-array update from then on.
    """
    params = [p for p in params if p.name in grads or p.name in state.m]
    for name in [p.name for p in params if p.name in grads]:
        g_flat = np.ravel(grads[name])
        for start in range(0, g_flat.size, ADAM_BLOCK):
            if not np.isfinite(g_flat[start : start + ADAM_BLOCK]).all():
                raise NumericalAbort(f"non-finite gradient for parameter {name!r}")
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
        g_flat = np.ravel(grads[p.name]) if p.name in grads else np.zeros(p_flat.size)
        for start in range(0, p_flat.size, ADAM_BLOCK):
            stop = min(start + ADAM_BLOCK, p_flat.size)
            g, a, b = g_flat[start:stop], a_buf[: stop - start], b_buf[: stop - start]
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


@np.errstate(over="ignore", invalid="ignore")  # the losses are checked here
def _batch_loss(model: PatternModel, batch: list[Sample], config: TrainConfig, tape: ad.Tape | None = None):
    """The batch loss, the mean of the member losses, from one stacked pass.

    The members run through ``PatternModel.forward`` as one pass, recorded
    on ``tape`` when given; each member's loss comes from ``total_loss`` on
    its own trace.  Returns (batch loss, parts per member, traces per member).
    """
    images = np.stack([s.image for s in batch])
    trace = model.forward(images, reference=[s.gt_cloud for s in batch], tape=tape)
    losses, parts = [], []
    for sample, member in zip(batch, trace.members):
        loss, member_parts = total_loss(member, sample.gt_cloud, config, model.config)
        if not np.isfinite(loss.data).all():
            raise NumericalAbort(f"non-finite loss on sample ({sample.class_name}, {sample.seed})")
        losses.append(loss)
        parts.append(member_parts)
    return ad.scale(functools.reduce(ad.add, losses), 1.0 / len(batch)), parts, trace.members


def _train_step(model: PatternModel, batch: list[Sample], config: TrainConfig, state: AdamState, lr: float):
    """One optimizer step on a batch; returns (parts, traces) per member.

    The batch gradient dies with this frame, so it is not alive while the
    next step runs.
    """
    loss, parts, traces = _batch_loss(model, batch, config, ad.Tape())
    with np.errstate(over="ignore", invalid="ignore"):  # adam_step checks the gradients
        grads = ad.backward(loss)
    adam_step(model.parameters(), grads, state, lr)
    return parts, traces


def _batches(samples: list[Sample], size: int, rng: np.random.Generator):
    """One epoch's batches: a seeded shuffle cut into runs of ``size``."""
    order = rng.permutation(len(samples))
    for start in range(0, len(order), size):
        yield [samples[i] for i in order[start : start + size]]


def train(
    samples: list[Sample],
    model: PatternModel,
    config: TrainConfig,
    out_dir=None,
) -> tuple[list[MetricsRecord], AdamState]:
    """Epoch loop with seeded shuffling; returns per-epoch records.

    An epoch's row holds the means over the samples of CD, IoU and the three
    loss parts, each summed in sample order in one running array.  Writes
    ``checkpoint.pmod`` under out_dir at the end (and every
    ``checkpoint_every`` epochs), each time once a tapeless forward pass of
    the last batch has every stage finite.  On a NumericalAbort the current
    parameters, those of the last completed step, are dumped next to it as
    ``abort_last_good.pmod``.  Each checkpoint records ``config``.
    """
    if not samples:
        raise DomainError("training requires a nonempty dataset")
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    records: list[MetricsRecord] = []
    batch = None  # the batch of the last step

    def save_checked() -> None:
        if batch is not None:  # raises NumericalAbort on a non-finite stage
            model.forward(np.stack([s.image for s in batch]), reference=[s.gt_cloud for s in batch], tape=None)
        save_checkpoint(Path(out_dir) / "checkpoint.pmod", model, config)

    try:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            sums = np.zeros(5)  # CD, IoU, loss_shape, loss_region, loss_total
            lr = lr_at(epoch, config)
            for batch in _batches(samples, config.batch_size, rng):
                parts, traces = _train_step(model, batch, config, state, lr)
                for sample, p, tr in zip(batch, parts, traces):
                    sums += (*_score(tr.f_cloud, sample.gt_cloud), p["loss_shape"], p["loss_region"], p["loss_total"])
            wall_ms = (time.perf_counter() - t0) * 1e3
            # every sample is in exactly one batch of the epoch
            records.append(MetricsRecord(epoch, "train", "all", *(sums / len(samples)).tolist(), wall_ms))
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
            save_checkpoint(Path(out_dir) / "abort_last_good.pmod", model, config)
        raise
    return records, state


def _score(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """The evaluation score of a prediction against its ground truth: the
    normalized Chamfer distance and the 32^3 IoU."""
    return geo.chamfer_eval(pred, gt), geo.iou(pred, gt, 32)


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
    ``eval_points``, when given, caps both sides at that count.  The
    ground-truth downsample is computed once per sample and target count
    (``Sample.gt_points``) and reused by later calls; ``gt_cloud`` is
    read-only, so it cannot go stale.
    """
    if eval_points is not None and eval_points < 1:
        raise DomainError(f"eval_points must be >= 1, got {eval_points}")
    if not samples:
        raise DomainError(f"no samples to evaluate in split {split_name!r}")
    per_class: dict[str, list[tuple[float, float, float]]] = {}
    for sample in samples:
        t0 = time.perf_counter()
        trace = model.reconstruct(sample.image)
        pred, gt = _match_cardinality(trace.f_cloud, sample, eval_points)
        cd, iou_val = _score(pred, gt)
        wall = (time.perf_counter() - t0) * 1e3
        per_class.setdefault(sample.class_name, []).append((cd, iou_val, wall))
    records = [_eval_row(split_name, cls, per_class[cls]) for cls in sorted(per_class)]
    records.append(_eval_row(split_name, "mean", [(r.cd_eval, r.iou, r.wall_ms) for r in records]))
    return records


def _eval_row(split: str, label: str, scores) -> MetricsRecord:
    """An epoch-0 row over (CD, IoU, wall ms) triples: the mean CD, the mean
    IoU and the total wall time."""
    scores = np.asarray(scores)
    return MetricsRecord(0, split, label, float(scores[:, 0].mean()), float(scores[:, 1].mean()),
                         0.0, 0.0, 0.0, float(scores[:, 2].sum()))


def _match_cardinality(pred: np.ndarray, sample: Sample, eval_points: int | None):
    """The prediction and ``sample``'s ground truth, each farthest-point
    downsampled to the smaller size, or to ``eval_points`` when that is
    smaller still; the ground-truth side comes from the sample's cache."""
    target = min(pred.shape[0], sample.gt_cloud.shape[0])
    if eval_points is not None:
        target = min(target, eval_points)
    pred = geo.downsample(pred, target) if pred.shape[0] > target else pred
    return pred, sample.gt_points(target)


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
    code_a = model.encode_image(np.asarray(image_a, dtype=np.float64), model.params).data
    code_b = model.encode_image(np.asarray(image_b, dtype=np.float64), model.params).data
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


def sweep_configs(parameter: str, values: list, run_config: RunConfig) -> list[tuple[object, RunConfig]]:
    """(value, run config) per value that applies as ``--set`` text; one that fails is skipped with a warning."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_PARAMETERS)}, got {parameter!r}")
    configs = []
    for value in values:
        try:
            configs.append((value, run_config.apply({SWEEP_PARAMETERS[parameter]: str(value)})))
        except ConfigError as exc:
            logger.warning("skipping %s=%r: %s", parameter, value, exc)
    return configs


def sweep(parameter: str, values: list, run_config: RunConfig, dataset: dict[str, list[Sample]]) -> list[dict]:
    """Train/evaluate one run per value that ``sweep_configs`` keeps; returns one result row each."""
    rows = []
    for value, cfg in sweep_configs(parameter, values, run_config):
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


def dataset_loss(model: PatternModel, samples: list[Sample], config: TrainConfig) -> float:
    """Mean training objective over a dataset, each sample a tapeless
    ``_batch_loss`` batch of one; parameters are not touched.  An empty
    dataset raises DomainError, as ``train`` does."""
    if not samples:
        raise DomainError("dataset_loss requires a nonempty dataset")
    return float(np.mean([_batch_loss(model, [s], config)[0].item() for s in samples]))
