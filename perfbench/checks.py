"""Correctness rules and statistics helpers shared by the benchmark's workloads.

A reported result (a "point") fails when its call raises, when its value is
non-finite or outside [0, 1], when a closed form and its quadrature oracle
differ by more than ORACLE_REL_TOL, when a Monte Carlo estimate lies outside
a Bernstein bound around its closed form, when the coupled dominance check
reports a violation, or when two runs of one CSV experiment differ in bytes.
The workloads apply these rules (and their own pass-to-pass and ordering
checks) and count every point in a Tally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

# Tolerance of acceptance criterion 1 and of `secrecy-sim --experiment validate`.
ORACLE_REL_TOL = 1e-8

# Per-point false-alarm probability of the Monte Carlo bound.  A workload
# compares at most a few thousand distinct estimates per run, so the
# false-alarm rate over a whole run stays below 1e-3.
MC_DELTA = 1e-7

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_MIN_BEYOND = 10


def probability_problem(value) -> str | None:
    """Why `value` is not a valid probability, or None if it is one."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return f"not a number: {value!r}"
    if not math.isfinite(v):
        return f"non-finite value {v}"
    if not 0.0 <= v <= 1.0:
        return f"value {v} outside [0, 1]"
    return None


def relative_error(closed: float, oracle: float) -> float:
    """|closed - oracle| / |oracle|; 1.0 when the oracle is exactly zero."""
    if oracle == 0.0:
        return 0.0 if closed == 0.0 else 1.0
    return abs(closed - oracle) / abs(oracle)


def oracle_problem(closed: float, oracle: float) -> str | None:
    """Failure reason when a closed form disagrees with its oracle."""
    for name, v in (("closed form", closed), ("oracle", oracle)):
        problem = probability_problem(v)
        if problem is not None:
            return f"{name}: {problem}"
    rel = relative_error(closed, oracle)
    if rel > ORACLE_REL_TOL:
        return f"closed form {closed:.17g} vs oracle {oracle:.17g}: rel err {rel:.3e}"
    return None


def is_disagreement(closed: float, oracle: float) -> bool:
    """Both values are probabilities, and they differ beyond ORACLE_REL_TOL.

    On the cross-check workload this, and an oracle raising QuadratureError,
    are the kinds of failure ROADMAP item 5 lists as open (oracle failure,
    oracle returning zero, closed-form drift at high SNR).  They count as
    failed points but are known; any other failure makes a run incorrect.
    """
    return (
        probability_problem(closed) is None
        and probability_problem(oracle) is None
        and relative_error(closed, oracle) > ORACLE_REL_TOL
    )


def mc_bound(p_ref: float, trials_per_pair: int, max_alpha: float, delta: float = MC_DELTA) -> float:
    """Bernstein half-width for a stratified estimate around its true value.

    The estimate is sum_i alpha_i * successes_i / m with m trials per pair, a
    sum of independent terms in [0, alpha_i / m].  Its variance is at most
    max_alpha * p / m, so with L = ln(2 / delta)

        P(|p_hat - p| >= b L / 3 + sqrt((b L / 3)^2 + 2 V L)) <= delta,

    where b = max_alpha / m and V = max_alpha * p / m.
    """
    if trials_per_pair < 1:
        raise ValueError("trials_per_pair must be positive")
    log_term = math.log(2.0 / delta)
    b = max_alpha / trials_per_pair
    variance = max_alpha * max(p_ref, 0.0) / trials_per_pair
    lin = b * log_term / 3.0
    return lin + math.sqrt(lin * lin + 2.0 * variance * log_term)


def mc_problem(p_hat: float, p_ref: float, trials_per_pair: int, max_alpha: float) -> str | None:
    """Failure reason when a Monte Carlo estimate misses its closed form."""
    problem = probability_problem(p_hat)
    if problem is not None:
        return f"estimate: {problem}"
    bound = mc_bound(p_ref, trials_per_pair, max_alpha)
    if abs(p_hat - p_ref) > bound:
        return f"estimate {p_hat:.6e} vs closed form {p_ref:.6e}: off by more than {bound:.3e}"
    return None


def csv_problem(first: bytes, again: bytes) -> str | None:
    """Failure reason when two runs of one experiment wrote different bytes."""
    if first == again:
        return None
    at = next((k for k, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
    return f"CSV bytes differ at offset {at} ({len(first)} vs {len(again)} bytes)"


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """Highest percentile with at least TAIL_MIN_BEYOND samples above it.

    That is the nearest-rank percentile 100 * (n - 10) / n, whose value is
    the 11th largest sample.  Returns (percentile, value, sample count), or
    None when there are too few samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        return None
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, xs[n - TAIL_MIN_BEYOND - 1], n


@dataclass
class Tally:
    """Attempted and failed points of one run, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    known: int = 0
    reasons: list = field(default_factory=list)

    def record(self, label: str, problem: str | None, known_defect: bool = False) -> None:
        """Count one point; `known_defect` marks a failure of a kind listed as open."""
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if known_defect:
            self.known += 1
        if len(self.reasons) < 20:
            self.reasons.append(" ".join(f"{label}: {problem}".split()))
