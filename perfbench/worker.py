"""One fresh benchmark process: set up, run timed passes, check, report JSON.

Started by run.py, never by hand.  With --setup-only it stops after set-up
and reports only when set-up ended, so run.py can take the median of several
fresh set-ups.  Otherwise it runs whole passes of the workload until
--seconds have elapsed; with --trace 1 every untraced pass is followed by
the same pass traced, so that both sample the same moments of a shared
machine and the tracing overhead is the difference between the two.  The
last line of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def timed_pass(workload) -> tuple[int, int, float]:
    """One whole pass: (points, Monte Carlo trials, seconds)."""
    start = time.perf_counter()
    points, trials = workload.run_pass()
    return points, trials, time.perf_counter() - start


def traced_pass(workload, tracer) -> tuple[int, int, float]:
    workload.tracer = tracer
    tracer.install()
    try:
        return timed_pass(workload)
    finally:
        tracer.uninstall()
        workload.tracer = None


def per_s(passes, column: int) -> float:
    """Median over passes of one column (0: points, 1: trials) per second.

    The passes of a run are identical, so their median rate resists bursts
    of contention from other processes on the machine.
    """
    return statistics.median(p[column] / p[2] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import secrecy_sim

    import checks
    import workloads

    if Path(secrecy_sim.__file__).resolve().parent != SRC / "secrecy_sim":
        print(f"secrecy_sim imported from {secrecy_sim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    config_build_s = time.perf_counter() - t0
    workload.warm_up()
    ready = time.monotonic()
    report = {"ready": ready}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    passes, traced = [], []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(timed_pass(workload))
        if args.trace:
            traced.append(traced_pass(workload, tracer))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        layers = tracing.layer_values(tracer, len(traced))
        layers["model.config_build_s"] = config_build_s
        layers["trace.timed_s"] = sum(p[2] for p in traced)
        layers["trace.overhead_pct"] = (per_s(passes, 0) / per_s(traced, 0) - 1.0) * 100.0
        if args.spans:
            tracer.write(args.spans)

    workload.verify()
    tally = workload.tally
    report.update(
        passes=passes,
        points_per_s=per_s(passes, 0),
        mtrials_per_s=per_s(passes, 1) / 1e6,
        attempted=tally.attempted,
        failed=tally.failed,
        known_failed=tally.known,
        reasons=tally.reasons,
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "secrecy_sim": secrecy_sim.__version__,
        },
    )
    if workload.per_point_latency and not args.trace:
        report["point_p50_ms"] = statistics.median(workload.latencies_ms)
        report["point_tail"] = checks.tail_percentile(workload.latencies_ms)
    if args.trace:
        layers["analytic.max_rel_err"] = workload.max_rel_err
        report.update(layers=layers, traced_passes=traced)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
