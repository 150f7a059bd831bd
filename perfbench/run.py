"""patmod benchmark: one workload per process, metrics as JSON on stdout.

    python3 perfbench/run.py --workload paper_train --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off.  ``--trace 1`` runs the thread-policy diagnostic's short loop in a child
process and in this one, then the same pass untraced and traced, and reports
the per-layer metrics, the tracing overhead and the spans.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full report: provenance, every metric under its per-workload name, failures.
Reports and spans go to ``.perfbench_out/`` at the repository root.  Exit
code 2 means the benchmark could not run (no patmod sources, bad arguments),
and no result is printed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PATMOD_THREADS")
DIAG_TIMEOUT_S = 120


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diag-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "patmod" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: patmod sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads  # imports numpy, scipy and patmod: timed as part of set-up

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.diag_child:
            threads = max(1, int(os.environ["PATMOD_THREADS"]))  # as the CLI reads it
            op_s, rec = workloads.run_short(workload, args.seed, workdir, threads=threads)
            if rec.failed:
                print("error: " + "; ".join(rec.failures), file=sys.stderr)
                return 1
            print(json.dumps({"op_ms.p50": 1e3 * workloads.median(op_s), "ops": len(op_s), "threads": threads}))
            return 0
        report, result = measure(workload, spec, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(workload, spec: dict, args, import_s: float, workdir: Path) -> tuple[dict, dict]:
    from spans import Recorder, dump_spans, instrument, layer_metrics
    from workloads import median, run_pass, run_short

    if args.trace:
        # The diagnostic child and this process run the same short loop from
        # a cold start, so their medians compare.  The loop here also warms
        # the allocator, so the untraced and traced passes below compare.
        diag = thread_diagnostic(args)
        default_op_s, warm = run_short(workload, args.seed, workdir)

    base = Recorder(tracing=False)
    with instrument(base):
        res = run_pass(workload, args.seed, args.seconds, base, workdir)
    e2e = end_to_end(res, base, import_s)
    recs = [base]
    report = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "end_to_end": pick(spec["end_to_end"], e2e),
        "by_workload_name": by_workload_name(workload, res, e2e, base),
    }
    metrics = report["end_to_end"]

    if args.trace:
        traced = Recorder(tracing=True)
        with instrument(traced):
            tres = run_pass(workload, args.seed, args.seconds, traced, workdir)
        recs += [warm, traced]
        layers = layer_metrics(traced, tres.measured_ops, len(tres.op_s) or 1)
        untraced_s, traced_s = res.main_s + res.eval_s, tres.main_s + tres.eval_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_share"] = traced_s / untraced_s - 1.0
        layers["diag.default.op_ms.p50"] = 1e3 * median(default_op_s)
        layers["diag.threads_nproc_blas1.op_ms.p50"] = diag.get("op_ms.p50", 0.0)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        dump_spans(traced, spans_path)
        report["per_layer"] = metrics = pick(spec["per_layer"], layers)
        report["traced_end_to_end"] = pick(spec["end_to_end"], end_to_end(tres, traced, import_s))
        report["thread_diagnostic"] = diag
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    report.update(ops_attempted=attempted, ops_failed=failed, failures=[m for r in recs for m in r.failures][:50])
    return report, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(res, rec, import_s: float) -> dict[str, float]:
    from workloads import median

    return {
        "setup_s": import_s + median(res.setup_s),
        "samples_per_s": res.main_samples / res.main_s,
        "op_ms.p50": 1e3 * median(res.op_s),
        "eval_samples_per_s": median(res.eval_rates),
        "train_loss_final": res.train_loss_final,
        "cd_eval": res.cd_eval,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": (rec.attempted - rec.failed) / rec.attempted,
    }


def pick(entries: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order and units; non-finite reads 0."""
    out = {}
    for m in entries:
        value = float(values[m["name"]])
        out[m["name"]] = {"value": value if math.isfinite(value) else 0.0, "unit": m["unit"]}
    return out


def by_workload_name(workload, res, e2e: dict[str, float], rec) -> dict[str, dict]:
    """The end-to-end numbers under the names that fit this workload's op."""
    import numpy as np

    out = {
        "setup_s": {"value": e2e["setup_s"], "unit": "s"},
        "eval_samples_per_s": {"value": e2e["eval_samples_per_s"], "unit": "1/s"},
        "train_loss_final": {"value": e2e["train_loss_final"], "unit": "loss"},
        "cd_eval": {"value": e2e["cd_eval"], "unit": "dist"},
        "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        "ops_attempted": {"value": rec.attempted, "unit": "count"},
        "ops_failed": {"value": rec.failed, "unit": "count"},
        "ops_failed_share": {"value": rec.failed / rec.attempted, "unit": "ratio"},
    }
    n = len(res.op_s)
    if workload.op_kind == "reconstruct":
        ms = 1e3 * np.asarray(res.op_s)
        p90 = float(np.quantile(ms, 0.9)) if n else float("nan")
        out["reconstruct_ms.p50"] = {"value": e2e["op_ms.p50"], "unit": "ms", "samples": n}
        out["reconstruct_ms.p90"] = {"value": p90, "unit": "ms", "samples": n, "beyond": int(np.sum(ms > p90))}
    else:
        out["train_samples_per_s"] = {"value": e2e["samples_per_s"], "unit": "1/s"}
        out["train_step_s.p50"] = {"value": e2e["op_ms.p50"] / 1e3, "unit": "s", "samples": n}
    return out


def thread_diagnostic(args) -> dict:
    """The workload's short loop with PATMOD_THREADS=nproc and one BLAS thread, in a child."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PATMOD_THREADS=str(nproc), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--diag-child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = {"label": "diagnostic, not an end-to-end metric", "env": {k: env[k] for k in ("PATMOD_THREADS", "OPENBLAS_NUM_THREADS")}}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=DIAG_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {**out, "error": f"timed out after {DIAG_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {**out, "error": (proc.stderr.strip().splitlines() or ["failed"])[-1]}
    return {**out, **json.loads(proc.stdout.strip().splitlines()[-1])}


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above the checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/patmod/*.py: identifies the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "patmod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
