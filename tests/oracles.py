"""What only the tests run: reference oracles, harnesses and fixtures.

A definition belongs here when no program path loads it, neither the CLI
nor the benchmark in ``perfbench/``, and tests do: the finite-difference
gradient oracle, the brute-force Chamfer oracle, acceptance criterion 5's
parameter accounting, criterion 6's overfit harness and the miniature model
configuration.  ``test_every_definition_is_used`` keeps the package free of
such code, so each one lives in this module instead.
"""

import itertools
import time
from typing import Callable

import numpy as np

from patmod import autodiff as ad
from patmod import training as tr
from patmod.data import Sample
from patmod.errors import DomainError
from patmod.geometry import as_cloud
from patmod.model import PatternModel

MINI_CONFIG = dict(
    s_points=32,
    f_points=32,
    regions=8,
    patterns=2,
    pattern_points=8,
    image_feat=16,
    region_feat=8,
    image_size=8,
    conv_channels=(4, 4, 8, 8, 8, 8, 8),
)


def grad_check(f: Callable, x, eps: float = 1e-6, floor: float = 1e-2) -> float:
    """Worst relative deviation between tape gradients and central differences.

    ``f`` maps a DTensor to a tensor; non-scalar outputs are summed before
    differentiation; an ``x`` the loss does not reach has gradient zero.
    Each coordinate of ``x`` is perturbed by +-eps.  The relative error uses
    max(|fd|, |g|, floor) as denominator so near-zero gradients are compared
    with an absolute floor.  NaN anywhere reports inf.
    """
    x = np.asarray(x, dtype=np.float64)

    def f_scalar(values: np.ndarray) -> float:
        return float(f(ad.DTensor(values)).data.sum())

    tape = ad.Tape()
    p = ad.Parameter("x", x.copy())
    out = f(tape.watch(p))
    if out.data.size != 1:
        out = ad.reduce_sum(out)
    if not np.isfinite(out.data).all():
        return float("inf")
    analytic = ad.backward(out).get("x", np.zeros(x.shape))

    worst = 0.0
    flat = x.copy().reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f_scalar(flat.reshape(x.shape))
        flat[i] = orig - eps
        f_minus = f_scalar(flat.reshape(x.shape))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            return float("inf")
        fd = (f_plus - f_minus) / (2.0 * eps)
        g = analytic.reshape(-1)[i]
        rel = abs(fd - g) / max(abs(fd), abs(g), floor)
        worst = max(worst, rel)
    return worst


def chamfer_brute_force(a: np.ndarray, b: np.ndarray) -> float:
    """O(n*m) oracle for the raw-sum Chamfer distance."""
    a, b = as_cloud(a), as_cloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("chamfer distance of an empty cloud")
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return float(d.min(axis=0).sum() + d.min(axis=1).sum())


def param_count(model: PatternModel) -> dict[str, int]:
    """Exact trainable scalar counts per component of a PatternModel, plus
    the total."""
    counts: dict[str, int] = {}
    for p in model.parameters():
        component = p.name.split(".")[0].rstrip("0123456789")
        key = {"learner": "learners", "modularizer": "modularizers"}.get(component, component)
        counts[key] = counts.get(key, 0) + p.data.size
    counts["total"] = sum(v for k, v in counts.items() if k != "total")
    return counts


def overfit_harness(
    model: PatternModel,
    samples: list[Sample],
    config: tr.TrainConfig,
    max_steps: int = 500,
) -> dict:
    """Drive optimizer steps until the full-dataset loss falls to a quarter
    of its initial value (or the step budget runs out), checking it every
    10 steps.  An empty dataset raises DomainError from the first
    ``dataset_loss``, before any step."""
    initial = tr.dataset_loss(model, samples, config)
    target = 0.25 * initial
    state = tr.AdamState()
    rng = np.random.default_rng(config.seed)
    batches = (b for _ in itertools.count() for b in tr._batches(samples, config.batch_size, rng))
    steps, current = 0, initial
    t0 = time.perf_counter()
    for steps, batch in zip(range(1, max_steps + 1), batches):
        tr._train_step(model, batch, config, state, tr.lr_at(0, config))
        if steps % 10 == 0 or steps == max_steps:
            current = tr.dataset_loss(model, samples, config)
            if current <= target:
                break
    return {
        "initial_loss": initial,
        "final_loss": current,
        "steps": steps,
        "seconds": time.perf_counter() - t0,
        "reached": current <= target,
    }
