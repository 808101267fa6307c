"""The benchmark's workloads: inputs from the seed, one pass, and the checks.

Every workload is a closed loop with one caller: each call into secrecy-sim
waits for the previous one, and there is no arrival rate.  A run repeats
whole passes over a workload's fixed list of points, so every run measures
the same mix.  Results are kept during the passes and checked afterwards,
outside the timed region.

Functions of the program are looked up on their modules at call time
(`analytic.intercept_sc_rjs`, not a reference taken at set-up), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np

from secrecy_sim import analytic, cli, diversity, simulate
from secrecy_sim.model import (
    SC_OJS,
    SC_RJS,
    SCHEMES,
    PairParams,
    SystemConfig,
    make_symmetric_config,
)

import checks

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
FIGURE_TRIALS = 100_000
# Pair count of the CLI's default symmetric system, used by figures without
# an `n` column.
FIGURE_DEFAULT_PAIRS = 4

CLOSED_FORM_PAIRS = (4, 8, 12, 16, 18)
CLOSED_FORM_GAMMA_DB = (-10.0, 25.0, 60.0)
FIT_PAIRS = (4, 8)

CROSS_PAIRS = tuple(range(3, 11))
CROSS_GAMMAS = tuple(10.0**e for e in range(-1, 9))
DOMINANCE_TRIALS = 200_000

WIDE_PAIRS = (64, 72)
WIDE_GAMMA = 10.0
WIDE_WORKERS = 2
# One full Monte Carlo batch per pair: 65536 trials, the batch size of
# `simulate` when this benchmark was written.  Fixed here so the workload
# stays the same when the program's batching changes.
WIDE_TRIALS_PER_PAIR = 1 << 16


def asymmetric_config(rng: np.random.Generator, n: int, decades: float) -> SystemConfig:
    """N pairs with gains spread over 10^(-decades..decades), random duty cycles summing to 1.

    The log-gains are stratified: each of the N equal slices of the range
    holds one main and one eavesdropper gain, uniform within its slice and
    matched to pairs in random order.  Configs of different seeds then span
    the range alike, so how long the program takes on them varies little
    from seed to seed.
    """
    slices = (np.arange(n)[:, None] + rng.random((n, 2))) / n
    u = np.column_stack([rng.permutation(slices[:, 0]), rng.permutation(slices[:, 1])])
    gains = 10.0 ** (decades * (2.0 * u - 1.0))
    weights = rng.uniform(0.5, 1.5, size=n)
    alphas = weights / weights.sum()
    return SystemConfig(
        tuple(PairParams(float(sd), float(se), float(a)) for (sd, se), a in zip(gains, alphas))
    )


def spread_defect_config() -> SystemConfig:
    """The 10-pair config on which the OJS oracle raises at gamma = 1e8.

    Gains 10^U(-2, 2) from numpy `default_rng(0)`, equal duty cycles; listed
    as a known defect in ROADMAP item 5.
    """
    gains = 10.0 ** np.random.default_rng(0).uniform(-2.0, 2.0, size=(10, 2))
    return SystemConfig(tuple(PairParams(float(sd), float(se), 0.1) for sd, se in gains))


def attempt(fn, *args, **kwargs):
    """(result, None), or (None, reason) when the call raises."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a raising call is a failed point, not a crash
        return None, f"raised {type(exc).__name__}: {exc}"


class Workload:
    """A fixed list of points, repeated in passes; subclasses fill in the rest."""

    name = ""
    # Whether each point is a single call, so that per-point latency exists.
    per_point_latency = False

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.point_id = 0
        self.latencies_ms = []
        self.tally = checks.Tally()
        self.max_rel_err = 0.0

    def point(self, fn, *args, **kwargs):
        """Run one point's call, timing it and tagging its spans."""
        self.point_id += 1
        if self.tracer is not None:
            self.tracer.point = self.point_id
        start = time.perf_counter()
        outcome = attempt(fn, *args, **kwargs)
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        return outcome

    def warm_up(self) -> None:
        """One small call per entry point the workload uses."""
        raise NotImplementedError

    def run_pass(self) -> tuple[int, int]:
        """Run every point once; returns (points, Monte Carlo trials)."""
        raise NotImplementedError

    def verify(self) -> None:
        """Check every stored result and count points in `self.tally`."""
        raise NotImplementedError


class FiguresMC(Workload):
    name = "figures-mc"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.argv = {
            fig: ["--experiment", fig, "--trials", str(FIGURE_TRIALS), "--seed", str(seed),
                  "--workers", "1", "--out", "-"]
            for fig in FIGURES
        }
        self.outputs = []  # (figure, return code, CSV bytes, error)

    def _main(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue().encode("utf-8")

    def warm_up(self) -> None:
        self._main(["--experiment", "fig2", "--gamma-db", "10", "--trials", "1000",
                    "--seed", str(self.seed), "--out", "-"])

    def run_pass(self) -> tuple[int, int]:
        points = trials = 0
        for fig in FIGURES:
            result, error = self.point(self._main, self.argv[fig])
            code, payload = result if result else (None, b"")
            self.outputs.append((fig, code, payload, error))
            if self.tracer is not None:
                self.tracer.add("cli.csv_bytes", len(payload))
            rows = _csv_rows(payload)
            points += max(len(rows), 1)
            trials += sum(_row_trials(row) for row in rows)
        return points, trials

    def verify(self) -> None:
        reference = {}
        for fig, code, payload, error in self.outputs:
            if error is None and code == 0:
                reference.setdefault(fig, payload)
        row_problems = {fig: [_row_problem(row) for row in _csv_rows(payload)]
                        for fig, payload in reference.items()}
        for fig, code, payload, error in self.outputs:
            problems = row_problems.get(fig, [None])
            if error is None and code != 0:
                error = f"cli.main returned {code}"
            if error is None:
                error = checks.csv_problem(reference[fig], payload)
            for k, problem in enumerate(problems):
                self.tally.record(f"{fig} row {k}", error or problem)


def _csv_rows(payload: bytes) -> list[dict]:
    lines = payload.decode("utf-8").splitlines()
    if len(lines) < 2:
        return []
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def _row_pairs(row: dict) -> int:
    return int(row["n"]) if "n" in row else FIGURE_DEFAULT_PAIRS


def _row_trials(row: dict) -> int:
    if "p_mc" not in row:
        return 0
    n = _row_pairs(row)
    return -(-FIGURE_TRIALS // n) * n


def _row_problem(row: dict) -> str | None:
    """A figure row fails when a value is not a probability or MC misses the closed form."""
    problem = checks.probability_problem(row.get("p_analytic"))
    if problem is not None:
        return "p_analytic: " + problem
    n = _row_pairs(row)
    return checks.mc_problem(
        float(row["p_mc"]), float(row["p_analytic"]), -(-FIGURE_TRIALS // n), 1.0 / n
    )


class ClosedForm(Workload):
    name = "closed-form"
    per_point_latency = True

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        # One config per (N, gamma), so a pass averages over many configs.
        self.configs = {
            (n, 10.0 ** (db / 10.0)): asymmetric_config(rng, n, 1.0)
            for n in CLOSED_FORM_PAIRS
            for db in CLOSED_FORM_GAMMA_DB
        }
        self.values = {}  # (n, gamma, scheme) or ("fit", n, scheme) -> [(value, error)]

    def _fit_config(self, n: int) -> SystemConfig:
        return next(c for (m, _), c in self.configs.items() if m == n)

    def warm_up(self) -> None:
        config = self._fit_config(CLOSED_FORM_PAIRS[0])
        analytic.intercept_sc_rjs(config, 10.0)
        analytic.intercept_sc_ojs(config, 10.0)
        diversity.fit_diversity(SC_RJS, config, diversity.DEFAULT_WINDOW)

    def run_pass(self) -> tuple[int, int]:
        points = 0
        for (n, gamma), config in self.configs.items():
            for scheme in (SC_RJS, SC_OJS):
                fn = getattr(analytic, "intercept_sc_" + scheme)
                self.values.setdefault((n, gamma, scheme), []).append(
                    self.point(fn, config, gamma)
                )
                points += 1
        for n in FIT_PAIRS:
            for scheme in SCHEMES:
                self.values.setdefault(("fit", n, scheme), []).append(
                    self.point(diversity.fit_diversity, scheme, self._fit_config(n),
                               diversity.DEFAULT_WINDOW)
                )
                points += 1
        return points, 0

    def verify(self) -> None:
        for key, outcomes in self.values.items():
            if key[0] == "fit":
                problem = self._fit_problem(outcomes[0][0])
            else:
                problem = self._value_problem(*key)
            for value, error in outcomes:
                if error is None and value != outcomes[0][0]:
                    error = f"differs from the first pass: {value!r} vs {outcomes[0][0]!r}"
                self.tally.record(str(key), error or problem)

    @staticmethod
    def _fit_problem(fit) -> str | None:
        if fit is None:
            return "no fit"
        d = fit.diversity
        if not (math.isfinite(d) and -1e-8 <= d <= 1.0 + 1e-8):
            return f"diversity {d} outside [0, 1]"
        return None

    def _value_problem(self, n, gamma, scheme) -> str | None:
        value = self.values[(n, gamma, scheme)][0][0]
        if value is None:
            return "no value"
        config = self.configs[(n, gamma)]
        oracle, error = attempt(getattr(analytic, f"intercept_sc_{scheme}_oracle"), config, gamma)
        if error is not None:
            return "oracle " + error
        self.max_rel_err = max(self.max_rel_err, checks.relative_error(value, oracle))
        problem = checks.oracle_problem(value, oracle)
        if problem is not None:
            return problem
        # Criterion 4: ojs <= rjs <= nonc on every config.
        nonc = analytic.intercept_noncoop(config)
        rjs = self.values[(n, gamma, SC_RJS)][0][0]
        tol = 1e-12 * nonc
        if scheme == SC_OJS and rjs is not None and value > rjs + tol:
            return f"ojs {value} above rjs {rjs}"
        if scheme == SC_RJS and value > nonc + tol:
            return f"rjs {value} above nonc {nonc}"
        return None


class CrossCheck(Workload):
    name = "cross-check"
    per_point_latency = True

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        # One config per (N, gamma), so a pass averages over many configs.
        self.cases = [
            (asymmetric_config(rng, n, 2.0), gamma) for n in CROSS_PAIRS for gamma in CROSS_GAMMAS
        ]
        self.symmetric = make_symmetric_config(4, 1.0)
        # ROADMAP item 5's known defects stay in every pass.
        self.fixed = ((spread_defect_config(), 1e8), (self.symmetric, 1e300))
        self.comparisons = []  # (label, (closed, oracle) or None, error)
        self.violations = []  # (count or None, error)

    @staticmethod
    def _compare(scheme, config, gamma):
        """(closed form, oracle value or the QuadratureError it raised)."""
        closed = getattr(analytic, "intercept_sc_" + scheme)(config, gamma)
        try:
            oracle = getattr(analytic, f"intercept_sc_{scheme}_oracle")(config, gamma)
        except analytic.QuadratureError as exc:
            oracle = exc
        return closed, oracle

    def warm_up(self) -> None:
        for scheme in (SC_RJS, SC_OJS):
            self._compare(scheme, self.symmetric, 10.0)
        simulate.coupled_dominance_check(self.symmetric, 10.0, 1000, self.seed)

    def run_pass(self) -> tuple[int, int]:
        cases = self.cases + list(self.fixed)
        for config, gamma in cases:
            for scheme in (SC_RJS, SC_OJS):
                result, error = self.point(self._compare, scheme, config, gamma)
                label = f"{scheme} N={config.n_pairs} gamma={gamma:g}"
                self.comparisons.append((label, result, error))
        self.violations.append(
            self.point(simulate.coupled_dominance_check, self.symmetric, 10.0,
                       DOMINANCE_TRIALS, self.seed)
        )
        return 2 * len(cases) + 1, DOMINANCE_TRIALS

    def verify(self) -> None:
        for label, result, error in self.comparisons:
            known = False
            if error is None:
                closed, oracle = result
                if isinstance(oracle, analytic.QuadratureError):
                    error, known = f"oracle raised QuadratureError: {oracle}", True
                else:
                    self.max_rel_err = max(self.max_rel_err, checks.relative_error(closed, oracle))
                    error = checks.oracle_problem(closed, oracle)
                    known = error is not None and checks.is_disagreement(closed, oracle)
            self.tally.record(label, error, known_defect=known)
        for count, error in self.violations:
            if error is None and count:
                error = f"{count} dominance violations"
            self.tally.record("coupled_dominance_check", error)


class MCWide(Workload):
    name = "mc-wide"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Symmetric systems with a seeded MER: the OJS oracle, the only
        # reference for OJS beyond 20 pairs, refuses spread gains at this width.
        self.mer = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0)
        self.configs = {n: make_symmetric_config(n, self.mer) for n in WIDE_PAIRS}
        self.estimates = {}  # (n, scheme) -> [(estimate, error)]

    def warm_up(self) -> None:
        simulate.estimate_intercept(self.configs[WIDE_PAIRS[0]], SC_RJS, WIDE_GAMMA, 1000,
                                    self.seed, workers=WIDE_WORKERS)

    def run_pass(self) -> tuple[int, int]:
        trials = 0
        for n, config in self.configs.items():
            for scheme in (SC_RJS, SC_OJS):
                outcome = self.point(simulate.estimate_intercept, config, scheme, WIDE_GAMMA,
                                     n * WIDE_TRIALS_PER_PAIR, self.seed, workers=WIDE_WORKERS)
                self.estimates.setdefault((n, scheme), []).append(outcome)
                trials += outcome[0].trials if outcome[0] is not None else 0
        return len(self.configs) * 2, trials

    def verify(self) -> None:
        for (n, scheme), outcomes in self.estimates.items():
            config = self.configs[n]
            if scheme == SC_RJS:
                # Every (i, j) term of a symmetric system is the same, so the
                # RJS value does not depend on N (acceptance criterion 8);
                # two pairs give it without N^2 scalar E1 calls.
                ref, ref_error = attempt(analytic.intercept_sc_rjs,
                                         make_symmetric_config(2, self.mer), WIDE_GAMMA)
            else:
                # The OJS closed form refuses more than 20 pairs; its oracle does not.
                ref, ref_error = attempt(analytic.intercept_sc_ojs_oracle, config, WIDE_GAMMA)
            first = next((e.p_hat for e, err in outcomes if err is None), None)
            for estimate, error in outcomes:
                if error is None and ref_error is not None:
                    error = "reference " + ref_error
                if error is None and estimate.p_hat != first:
                    error = f"estimate differs from the first pass: {estimate.p_hat!r} vs {first!r}"
                if error is None:
                    error = checks.mc_problem(estimate.p_hat, ref, WIDE_TRIALS_PER_PAIR, 1.0 / n)
                self.tally.record(f"{scheme} N={n}", error)


WORKLOADS = {w.name: w for w in (FiguresMC, ClosedForm, CrossCheck, MCWide)}
