"""Median and quartile spread of benchmark results, one workload per file.

    python3 perfbench/spread.py results.jsonl [more.jsonl ...]

Each input file holds the last stdout line of several runs of one workload,
one JSON object per line.  For every metric it prints the median and the
distance between the first and third quartile as a share of the median, next
to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m.get("bound") for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for path in paths:
        runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
        print(f"{path}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            bound = bounds.get(name)
            line = f"  {name:40s} median {statistics.median(values):12.6g}  spread {spread(values):7.4f}"
            if bound is not None:
                line += f"  bound {bound}  {'ok' if spread(values) <= bound / 3 else 'WIDE'}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
