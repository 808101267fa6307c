"""Spans and counts recorded at the program's public call boundaries.

The wrappers are installed on the module attributes that callers look up at
call time (for example `secrecy_sim.analytic.e1_scaled`, which the closed
forms call by that name, and `secrecy_sim.simulate.estimate_intercept`,
which the CLI reaches as a module attribute), so no file of the program is
changed.  Spans stay in memory and are written out once, when the run ends.

Only the benchmark's own thread calls wrapped functions: the Monte Carlo
worker threads run code below `estimate_intercept`, which is not wrapped, so
one parent stack is enough.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from secrecy_sim import analytic, cli, diversity, simulate
from secrecy_sim.simulate import draws_per_trial

# (module, attribute, span name).  Both assembled oracles share one span name.
WRAPPED = (
    (analytic, "e1_scaled", "special.e1_scaled"),
    (analytic, "intercept_sc_rjs", "analytic.intercept_sc_rjs"),
    (analytic, "intercept_sc_ojs", "analytic.intercept_sc_ojs"),
    (analytic, "intercept_sc_rjs_oracle", "analytic.oracle"),
    (analytic, "intercept_sc_ojs_oracle", "analytic.oracle"),
    (simulate, "estimate_intercept", "simulate.estimate_intercept"),
    (simulate, "coupled_dominance_check", "simulate.coupled_dominance_check"),
    (diversity, "fit_diversity", "diversity.fit_diversity"),
    (cli, "main", "cli.main"),
)


def _config(args, kwargs):
    return args[0] if args else kwargs["config"]


def _count_e1(tracer, args, kwargs, result, wall, cpu):
    x = args[0] if args else kwargs["x"]
    tracer.add("special.e1_scaled.elements", getattr(x, "size", 1))


def _count_ojs(tracer, args, kwargs, result, wall, cpu):
    # Computed, not observed: the subset sum's term count for N pairs.
    n = _config(args, kwargs).n_pairs
    tracer.add("analytic.ojs_terms", n * ((1 << (n - 1)) - 1))


def _count_oracle(tracer, args, kwargs, result, wall, cpu):
    # Every cooperative intercept probability at finite SNR is positive, so
    # an oracle that returns 0.0 has lost the value.
    if result == 0.0:
        tracer.add("analytic.oracle.failures", 1)


def _count_estimate(tracer, args, kwargs, result, wall, cpu):
    n = _config(args, kwargs).n_pairs
    tracer.add("simulate.trials", result.trials)
    tracer.add("simulate.trials." + result.scheme, result.trials)
    tracer.add("simulate.busy_s." + result.scheme, wall)
    tracer.add("simulate.bytes", result.trials * draws_per_trial(n) * 8)
    tracer.add("simulate.cpu_s", cpu)


def _count_dominance(tracer, args, kwargs, result, wall, cpu):
    tracer.add("simulate.dominance_violations", result)


_COUNTERS = {
    "special.e1_scaled": _count_e1,
    "analytic.intercept_sc_ojs": _count_ojs,
    "analytic.oracle": _count_oracle,
    "simulate.estimate_intercept": _count_estimate,
    "simulate.coupled_dominance_check": _count_dominance,
}


class Tracer:
    """In-memory span list plus counters keyed by metric name."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, point id]
        self.counts = defaultdict(float)
        self.point = 0
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.point]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self.add(name + ".calls", 1)
            cpu = time.process_time()
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "analytic.oracle":
                    self.add("analytic.oracle.failures", 1)
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                wall = (span[2] - span[1]) * 1e-9
                counter(self, args, kwargs, result, wall, time.process_time() - cpu)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def busy_and_self(self) -> tuple[dict, dict]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the union of its direct
        children's intervals.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        busy = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0
            cursor = start
            for a, b in sorted(children.get(index, ())):
                a = max(a, cursor)
                if b > a:
                    covered += b - a
                    cursor = b
            busy[name] += (end - start) * 1e-9
            own[name] += (end - start - covered) * 1e-9
        return busy, own

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "point"],
            "names": names,
            "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_values(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers from the spans and counts of one traced run.

    `analytic.ojs_terms` and `simulate.bytes_per_trial` are computed from N
    rather than observed; the term count is per pass over the workload's
    points, so both repeat exactly between runs of one seed.
    """
    c = tracer.counts
    busy, own = tracer.busy_and_self()
    values = {}
    for name in (
        "special.e1_scaled",
        "analytic.intercept_sc_rjs",
        "analytic.intercept_sc_ojs",
        "analytic.oracle",
        "simulate.estimate_intercept",
        "diversity.fit_diversity",
    ):
        values[name + ".calls"] = c[name + ".calls"]
        values[name + ".busy_s"] = busy[name]
    for name in ("analytic.intercept_sc_rjs", "analytic.intercept_sc_ojs", "cli.main"):
        values[name + ".self_s"] = own[name]
    values["cli.main.busy_s"] = busy["cli.main"]
    values["special.e1_scaled.elements"] = c["special.e1_scaled.elements"]
    values["special.e1_scaled.ns_per_element"] = _ratio(
        busy["special.e1_scaled"], c["special.e1_scaled.elements"], 1e9
    )
    values["analytic.ojs_terms"] = _ratio(c["analytic.ojs_terms"], passes)
    values["analytic.oracle.failures"] = c["analytic.oracle.failures"]
    values["simulate.trials"] = c["simulate.trials"]
    for scheme in ("nonc", "rjs", "ojs"):
        values["simulate.mtrials_per_s." + scheme] = _ratio(
            c["simulate.trials." + scheme], c["simulate.busy_s." + scheme], 1e-6
        )
    values["simulate.cpu_per_wall"] = _ratio(c["simulate.cpu_s"], busy["simulate.estimate_intercept"])
    values["simulate.bytes_per_trial"] = _ratio(c["simulate.bytes"], c["simulate.trials"])
    values["simulate.coupled_dominance_check.busy_s"] = busy["simulate.coupled_dominance_check"]
    values["simulate.dominance_violations"] = c["simulate.dominance_violations"]
    values["cli.csv_bytes"] = c["cli.csv_bytes"]
    values["trace.spans"] = len(tracer.spans)
    return values
