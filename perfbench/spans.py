"""In-memory record of one benchmark pass: ops, output checks and spans.

An op is one unit of work the benchmark issues or observes: a training step,
a ``reconstruct`` call, an ``evaluate`` call, a ``dataset_loss`` call or a
checked nearest-neighbour call.  Every pass records ops and output checks.
A traced pass also wraps patmod's public functions from outside and keeps a
span per call (name, start, end, parent span, op id, thread), written out
only when the run ends.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from patmod import autodiff, data, geometry, model, training

# Tape-op kinds that get their own backward time and node count; the rest are
# pooled under "other".
BACKWARD_KINDS = ("linear", "linear_blockfeat", "conv2d", "gather_rows", "concat")

# (owner, attribute, span name).  Each function is patched at the name its
# callers look up: training imports save_checkpoint by name, everything else
# is reached through a module or class attribute.
TRACED = [
    (autodiff, "backward", "autodiff.backward"),
    (model.PatternModel, "forward", "model.forward"),
    (model.PatternModel, "encode_image", "model.encode_image"),
    (model.PatternModel, "decode_shape", "model.decode_shape"),
    (model.PatternModel, "compute_patterns", "model.compute_patterns"),
    (model.PatternModel, "encode_region", "model.encode_region"),
    (model.PatternModel, "modularize_stacked", "model.modularize"),
    (model.PatternModel, "customize", "model.customize"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (training, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (geometry, "nearest_neighbor", "geometry.nearest_neighbor"),
    (geometry, "chamfer", "geometry.chamfer"),
    (geometry, "chamfer_eval", "geometry.chamfer_eval"),
    (geometry, "split_regions", "geometry.split_regions"),
    (geometry, "farthest_point_indices", "geometry.fps"),
    (geometry, "voxelize", "geometry.voxel_iou"),
    (geometry, "iou", "geometry.voxel_iou"),
    (training, "total_loss", "training.total_loss"),
    (training, "adam_step", "training.adam_step"),
    (training, "evaluate", "training.evaluate"),
    (data, "make_dataset", "data.make_dataset"),
    (data, "write_dataset", "data.write_dataset"),
    (data, "load_samples", "data.load_samples"),
]

# Spans reported as mean self time per call over the whole run (set-up work);
# every other span is reported as self time per workload op.
PER_CALL = (
    "model.save_checkpoint",
    "model.load_checkpoint",
    "data.make_dataset",
    "data.write_dataset",
    "data.load_samples",
)

_WARNINGS = {
    ("patmod.geometry", "region %d overflows"): "geometry.region_overflows",
    ("patmod.training", "no valid region pair"): "training.shape_fallbacks",
}


class Recorder:
    """Ops, failed checks, counters and (when tracing) spans of one pass."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.ops: list[dict] = []
        self.spans: list[list] = []  # [name, start, end, parent, op, thread]
        self.counts: dict[tuple[int | None, str], float] = defaultdict(float)
        self.failures: list[str] = []
        self.missed = 0  # planned ops that never ran because an earlier one raised
        self._op: int | None = None
        self._op_span: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- ops ----------------------------------------------------------------

    def begin(self, kind: str) -> int:
        now = time.perf_counter()
        self.ops.append({"kind": kind, "start": now, "end": None, "failed": False})
        self._op = len(self.ops) - 1
        self._op_span = self._open(f"op.{kind}", now, None) if self.tracing else None
        return self._op

    def end(self) -> float:
        now = time.perf_counter()
        op = self.ops[self._op]
        op["end"] = now
        if self._op_span is not None:
            self.spans[self._op_span][2] = now
        self._op = self._op_span = None
        return now - op["start"]

    def relabel(self, kind: str) -> None:
        self.ops[self._op]["kind"] = kind
        if self._op_span is not None:
            self.spans[self._op_span][0] = f"op.{kind}"

    def fail(self, message: str, op: int | None = None) -> None:
        """Count ``op`` (default: the current op) as failed; the run goes on."""
        op = self._op if op is None else op
        if op is not None:
            self.ops[op]["failed"] = True
        self.failures.append(message)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self._op, name)] += value

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.missed

    @property
    def failed(self) -> int:
        return sum(op["failed"] for op in self.ops) + self.missed

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, start: float, parent: int | None) -> int:
        with self._lock:
            self.spans.append([name, start, None, parent, self._op, threading.get_ident()])
            return len(self.spans) - 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = self._open(name, time.perf_counter(), stack[-1] if stack else self._op_span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[sid][2] = time.perf_counter()
                stack.pop()

        return traced


# ---------------------------------------------------------------------------
# patching


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install output checks and step boundaries, plus spans when tracing.

    Untraced passes patch only ``training.adam_step`` (one timestamp per step)
    and ``training.total_loss`` (one output check per batch member).
    """
    wrapped = {}
    if rec.tracing:
        for owner, attr, name in TRACED:
            wrapped[(owner, attr)] = rec._wrap(name, getattr(owner, attr))
        for key, extra in (
            ((autodiff, "backward"), _timed_backward),
            ((model.PatternModel, "forward"), _counted_forward),
            ((geometry, "nearest_neighbor"), _counted_nn),
        ):
            wrapped[key] = extra(rec, wrapped[key])
    for key, extra in (((training, "total_loss"), _checked_total_loss), ((training, "adam_step"), _step_boundary)):
        wrapped[key] = extra(rec, wrapped.get(key, getattr(*key)))
    saved = {key: getattr(*key) for key in wrapped}
    handler = _WarningCounter(rec)
    loggers = [logging.getLogger(name) for name, _ in _WARNINGS]
    try:
        for (owner, attr), fn in wrapped.items():
            setattr(owner, attr, fn)
        for lg in loggers:
            lg.addHandler(handler)
        yield
    finally:
        for (owner, attr), fn in saved.items():
            setattr(owner, attr, fn)
        for lg in loggers:
            lg.removeHandler(handler)


@contextlib.contextmanager
def capture_nearest_neighbor(every: int, limit: int):
    """Keep the inputs and outputs of every ``every``-th nearest-neighbour call."""
    calls: list[tuple] = []
    seen = [0]
    inner = geometry.nearest_neighbor

    def capturing(queries, targets):
        out = inner(queries, targets)
        if seen[0] % every == 0 and len(calls) < limit:
            calls.append((np.array(queries), np.array(targets), out[0].copy(), out[1].copy()))
        seen[0] += 1
        return out

    geometry.nearest_neighbor = capturing
    try:
        yield calls
    finally:
        geometry.nearest_neighbor = inner


class _WarningCounter(logging.Handler):
    def __init__(self, rec: Recorder):
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        for (logger_name, prefix), metric in _WARNINGS.items():
            if record.name == logger_name and str(record.msg).startswith(prefix):
                self.rec.count(metric)


def _step_boundary(rec: Recorder, fn):
    """A training step ends when its Adam update returns."""

    def adam_step(*args, **kwargs):
        out = fn(*args, **kwargs)
        if rec._op is not None and rec.ops[rec._op]["kind"] == "train_step":
            rec.end()
            rec.begin("train_step")
        return out

    return adam_step


def _checked_total_loss(rec: Recorder, fn):
    def total_loss(trace, gt_cloud, config, model_config):
        loss, parts = fn(trace, gt_cloud, config, model_config)
        problem = check_cloud(trace.f_cloud, model_config.f_points) or check_scalar(loss.data, "loss")
        if problem:
            rec.fail(f"total_loss: {problem}")
        return loss, parts

    return total_loss


def _timed_backward(rec: Recorder, fn):
    """Time every tape node's backward rule by kind, then run the sweep."""

    def backward(loss, *args, **kwargs):
        nodes = loss.tape.nodes
        kinds = Counter(node.kind if node.kind in BACKWARD_KINDS else "other" for node in nodes)
        for node in nodes:
            if node.backward is not None:
                kind = node.kind if node.kind in BACKWARD_KINDS else "other"
                node.backward = _timed_rule(rec, f"autodiff.backward.{kind}_s", node.backward)
        rec.count("autodiff.tape_nodes", len(nodes))
        for kind, n in kinds.items():
            rec.count(f"autodiff.tape_nodes.{kind}", n)
        return fn(loss, *args, **kwargs)

    return backward


def _timed_rule(rec: Recorder, key: str, rule):
    def timed(g):
        t0 = time.perf_counter()
        out = rule(g)
        rec.count(key, time.perf_counter() - t0)
        return out

    return timed


def _counted_forward(rec: Recorder, fn):
    def forward(self, *args, **kwargs):
        trace = fn(self, *args, **kwargs)
        if trace.u is not None:
            rec.count("model.rows_computed", sum(u.shape[0] for u in trace.u))
        rec.count("model.rows_kept", trace.f_cloud.shape[0])
        return trace

    return forward


def _counted_nn(rec: Recorder, fn):
    def nearest_neighbor(queries, targets):
        rec.count("geometry.nearest_neighbor.calls")
        rec.count("geometry.nearest_neighbor.queries", len(queries))
        return fn(queries, targets)

    return nearest_neighbor


# ---------------------------------------------------------------------------
# output checks


def check_cloud(cloud, max_points: int) -> str | None:
    """Return why ``cloud`` is not a finite (F, 3) array with 1 <= F <= max_points."""
    cloud = np.asarray(cloud)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or not 1 <= cloud.shape[0] <= max_points:
        return f"cloud shape {cloud.shape}, expected (F, 3) with 1 <= F <= {max_points}"
    if not np.isfinite(cloud).all():
        return "cloud has non-finite values"
    return None


def check_scalar(value, what: str) -> str | None:
    value = np.asarray(value)
    if value.size != 1:
        return f"{what} has shape {value.shape}, expected a scalar"
    if not np.isfinite(value).all():
        return f"{what} is not finite: {value.item()}"
    return None


def brute_force_nn(queries: np.ndarray, targets: np.ndarray, rows: np.ndarray):
    """Argmin over every target for the chosen query rows; ties go to the lowest index.

    Distances use the same per-row arithmetic as ``geometry.nearest_neighbor``,
    so an exact implementation agrees bit for bit.
    """
    idx = np.empty(rows.size, dtype=np.intp)
    dist = np.empty(rows.size)
    for i, q in enumerate(rows):
        diffs = targets - queries[q]
        d = np.sqrt((diffs * diffs).sum(axis=1))
        idx[i] = int(np.argmin(d))
        dist[i] = d[idx[i]]
    return idx, dist


# ---------------------------------------------------------------------------
# aggregation


def layer_metrics(rec: Recorder, measured_ops: list[int], per_op: int) -> dict[str, float]:
    """Per-layer numbers from a traced pass.

    Times are self time (a span's duration minus its direct children's),
    summed over the measured ops and divided by ``per_op``; ``PER_CALL`` spans
    are the mean self time per call over the whole pass.  Tape-node backward
    rules are timed by kind but are not spans, so ``autodiff.backward_s``
    includes them.
    """
    spans = rec.spans
    child = np.zeros(len(spans))
    for name, start, end, parent, _op, _tid in spans:
        if parent is not None:
            child[parent] += end - start
    measured = set(measured_ops)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)
    for sid, (name, start, end, _parent, op, _tid) in enumerate(spans):
        if name.startswith("op."):
            continue
        own = (end - start) - child[sid]
        if name in PER_CALL:
            totals[name] += own
            calls[name] += 1
        elif op in measured:
            totals[name] += own
        if op in measured:
            covered[op] += own

    out: dict[str, float] = {}
    for name in dict.fromkeys(name for _owner, _attr, name in TRACED):
        if name in PER_CALL:
            out[f"{name}_s"] = totals[name] / calls[name] if calls[name] else 0.0
        elif name in ("model.forward", "training.evaluate"):
            out[f"{name}.self_s"] = totals[name] / per_op
        else:
            out[f"{name}_s"] = totals[name] / per_op

    kinds = BACKWARD_KINDS + ("other",)
    summed = (
        ["autodiff.tape_nodes"]
        + [f"autodiff.tape_nodes.{k}" for k in kinds]
        + [f"autodiff.backward.{k}_s" for k in kinds]
        + ["model.rows_computed", "model.rows_kept"]
        + ["geometry.nearest_neighbor.calls", "geometry.nearest_neighbor.queries"]
    )
    for key in summed:
        out[key] = sum(v for (op, name), v in rec.counts.items() if name == key and op in measured) / per_op
    computed = out["model.rows_computed"]
    out["model.rows_kept_ratio"] = out["model.rows_kept"] / computed if computed else 1.0
    for metric in _WARNINGS.values():
        out[metric] = sum(v for (_op, name), v in rec.counts.items() if name == metric)

    steps = [i for i in measured_ops if rec.ops[i]["kind"] in ("train_step", "reconstruct")]
    shares = [covered[i] / (rec.ops[i]["end"] - rec.ops[i]["start"]) for i in steps]
    out["trace.attributed_share"] = float(np.median(shares)) if shares else 0.0
    return out


def dump_spans(rec: Recorder, path) -> None:
    """Write the pass's spans as one JSON object per line."""
    import json

    t0 = rec.ops[0]["start"] if rec.ops else 0.0
    with open(path, "w") as fh:
        for sid, (name, start, end, parent, op, tid) in enumerate(rec.spans):
            fh.write(json.dumps({
                "id": sid, "name": name, "start_s": start - t0, "end_s": end - t0,
                "parent": parent, "op": op, "thread": tid,
            }) + "\n")
