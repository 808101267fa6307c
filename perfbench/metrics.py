"""Names and units of every metric the benchmark reports (standard library only)."""

# The metrics BENCHMARK.json gates: defined, and never zero, on every workload.
END_TO_END = (("setup_s", "s"), ("points_per_s", "1/s"), ("peak_rss_mb", "MiB"))

# Reported by the untraced run where the workload defines them, and kept in
# its result file, but not gated: each is missing or zero on some workload.
REPORTED = (
    ("error_rate", "ratio"),
    ("mtrials_per_s", "Mtrials/s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
)

# Per-layer metrics of the traced run, in report order, with their units.
PER_LAYER = (
    ("special.e1_scaled.calls", "count"),
    ("special.e1_scaled.elements", "count"),
    ("special.e1_scaled.busy_s", "s"),
    ("special.e1_scaled.ns_per_element", "ns"),
    ("analytic.intercept_sc_rjs.calls", "count"),
    ("analytic.intercept_sc_rjs.busy_s", "s"),
    ("analytic.intercept_sc_rjs.self_s", "s"),
    ("analytic.intercept_sc_ojs.calls", "count"),
    ("analytic.intercept_sc_ojs.busy_s", "s"),
    ("analytic.intercept_sc_ojs.self_s", "s"),
    ("analytic.ojs_terms", "count"),
    ("analytic.oracle.calls", "count"),
    ("analytic.oracle.busy_s", "s"),
    ("analytic.oracle.failures", "count"),
    ("analytic.max_rel_err", "ratio"),
    ("simulate.estimate_intercept.calls", "count"),
    ("simulate.estimate_intercept.busy_s", "s"),
    ("simulate.trials", "count"),
    ("simulate.mtrials_per_s.nonc", "Mtrials/s"),
    ("simulate.mtrials_per_s.rjs", "Mtrials/s"),
    ("simulate.mtrials_per_s.ojs", "Mtrials/s"),
    ("simulate.cpu_per_wall", "ratio"),
    ("simulate.bytes_per_trial", "B"),
    ("simulate.coupled_dominance_check.busy_s", "s"),
    ("simulate.dominance_violations", "count"),
    ("diversity.fit_diversity.calls", "count"),
    ("diversity.fit_diversity.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("model.config_build_s", "s"),
    ("trace.timed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)
