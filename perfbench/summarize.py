"""Summarise result files of several runs into medians and quartiles.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json > summary.json

Groups the runs by workload and trace mode and gives, for every metric the
runs printed, the median, the quartiles (as `statistics.quantiles(n=4)`
gives them), the spread (interquartile distance over the median) and the
run count, together with the provenance the runs share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(results: list[dict]) -> dict:
    groups = defaultdict(list)
    for result in results:
        prov = result["provenance"]
        groups[f"{prov['workload']} trace={prov['trace']}"].append(result)
    summary = {}
    for key, runs in sorted(groups.items()):
        values = defaultdict(list)
        units = {}
        for run in runs:
            for name, metric in run["provenance"]["all_metrics"].items():
                values[name].append(metric["value"])
                units[name] = metric["unit"]
        first = runs[0]["provenance"]
        metrics = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            metrics[name] = {
                "unit": units[name],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(vals),
            }
        summary[key] = {
            "commit": first["commit"],
            "nproc": first["nproc"],
            "versions": first["versions"],
            "seconds": first["seconds"],
            "seeds": sorted(run["provenance"]["seed"] for run in runs),
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "point_tail": [run["provenance"]["point_tail"] for run in runs],
            "metrics": metrics,
        }
    return summary


def main(paths: list[str]) -> int:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    json.dump(summarize(results), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
