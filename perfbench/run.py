"""secrecy-sim benchmark: one workload, one fresh measuring process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The command starts fresh worker processes one after another: with
--trace 0, SETUP_SAMPLES - 1 that only set up, then one that also measures;
with --trace 1, one that measures untraced and then traced.  It prints every
metric by name and unit, writes the result with its provenance under
perfbench/out/, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("figures-mc", "closed-form", "cross-check", "mc-wide")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
RUN_LIMIT_S = 170


def worker(args, *extra, timeout):
    """Run one worker process to completion; returns (report, start time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), start


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**63 and seconds > 0")
    if not (ROOT / "src" / "secrecy_sim" / "__init__.py").is_file():
        print(f"no secrecy_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                report, start = worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S)
                setups.append(report["ready"] - start)
        extra = ["--spans", str(OUT / f"{stem}.spans.json.gz")] if args.trace else []
        report, start = worker(args, *extra, timeout=max(deadline - time.monotonic(), 1.0))
        setups.append(report["ready"] - start)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = {
        "setup_s": statistics.median(setups),
        "points_per_s": report["points_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "error_rate": report["failed"] / report["attempted"],
    }
    if report["mtrials_per_s"]:
        values["mtrials_per_s"] = report["mtrials_per_s"]
    if "point_p50_ms" in report:
        values["point_p50_ms"] = report["point_p50_ms"]
    if report.get("point_tail"):
        values["point_tail_ms"] = report["point_tail"][1]

    if args.trace:
        shown = {name: (report["layers"][name], unit) for name, unit in PER_LAYER}
    else:
        shown = {name: (values[name], unit) for name, unit in END_TO_END + REPORTED if name in values}
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if report.get("point_tail") and not args.trace:
        p, _, n = report["point_tail"]
        print(f"{args.workload} point_tail_ms is p{p:g} of {n} points")
    print(f"{args.workload} attempted={report['attempted']} failed={report['failed']} "
          f"(known defects: {report['known_failed']})")
    for reason in report["reasons"]:
        print(f"  failed: {reason}")

    correct = report["failed"] == report["known_failed"]
    gated = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": shown[name][0], "unit": unit} for name, unit in gated},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "versions": report["versions"],
        "setup_samples_s": setups,
        "passes": report["passes"],
        "traced_passes": report.get("traced_passes"),
        "point_tail": report.get("point_tail"),
        "reasons": report["reasons"],
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(dict(result, provenance=provenance), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
