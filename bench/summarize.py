"""Spread of the benchmark metrics over a set of result files.

Usage (from the repository root):

    python3 bench/summarize.py [--baseline OUT.json] [RESULT_JSON ...]

Without result files it reads every result in ``.bench_work/results/``.
For each workload and metric it prints the number of runs, the median and
the distance between the first and third quartile as a share of the
median, computed with ``statistics.quantiles(values, n=4)``. With
``--baseline`` it also writes those figures, with the environment of the
runs and the sha256 of every artifact per workload and seed, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_work" / "results"


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units, environments = {}, {}
    artifacts = defaultdict(dict)
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        environments[json.dumps(result["environment"], sort_keys=True)] = result["environment"]
        artifacts[result["workload"]][str(result["seed"])] = result["artifact_sha256"]
        for name, metric in result["metrics"].items():
            units[name] = metric["unit"]
            if metric["value"] is not None:
                values[result["workload"]][name].append(metric["value"])
    table = {}
    for workload, metrics in sorted(values.items()):
        table[workload] = {}
        for name, vs in metrics.items():
            median = statistics.median(vs)
            row = {"n": len(vs), "median": median, "unit": units[name]}
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                row |= {"q1": q1, "q3": q3}
                if median:
                    row["spread"] = (q3 - q1) / abs(median)
            table[workload][name] = row
    return {
        "environments": list(environments.values()),
        "workloads": table,
        "artifact_sha256": dict(sorted(artifacts.items())),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="write the summary to this JSON file")
    p.add_argument("results", nargs="*")
    args = p.parse_args(argv)
    paths = args.results or sorted(RESULTS.glob("*-t[01].json"))
    summary = summarize(paths)
    for workload, metrics in summary["workloads"].items():
        for name, row in metrics.items():
            spread = row.get("spread", float("nan"))
            print(f"{workload:17} {name:40} n={row['n']:2d} "
                  f"median={row['median']:<12.6g} spread={spread:.4f}")
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
