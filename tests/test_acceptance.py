"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Criterion 7's estimate-agreement clause is expected to fail: for three or
more pairs the optimal-selection curve has no ln(gamma) factor (the
alternating subset sum cancels it), so its finite-window diversity estimate
is nearly unbiased (~1.000) while the random-selection estimate keeps the
~1/ln(gamma) bias (~0.906).  The gap of ~0.094 on the prescribed window is
a property of the closed forms themselves, verified against the all-positive
quadrature oracle; both schemes do reach diversity one in the limit.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from secrecy_sim import analytic, cli, diversity, simulate
from secrecy_sim.model import make_symmetric_config
from secrecy_sim.special import e1, e1_bounds
from secrecy_sim.validation import _e1_quadrature_reference as quadrature_e1


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_closed_form_vs_quadrature_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 6):
        for mer in (0.1, 1.0, 10.0):
            config = make_symmetric_config(n, mer)
            for gamma in np.logspace(-1, 6, 15):
                rjs = analytic.intercept_sc_rjs(config, gamma)
                rjs_ref = analytic.intercept_sc_rjs_oracle(config, gamma)
                ojs = analytic.intercept_sc_ojs(config, gamma)
                ojs_ref = analytic.intercept_sc_ojs_oracle(config, gamma)
                worst = max(
                    worst,
                    abs(rjs - rjs_ref) / rjs_ref,
                    abs(ojs - ojs_ref) / ojs_ref,
                )
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 30.0
    _report("1 closed-form-vs-oracle", passed, f"max_rel={worst:.2e} elapsed={elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    grid = [
        (n, mer, gamma)
        for n in (2, 4, 8)
        for mer in (0.1, 1.0, 10.0)
        for gamma in (1.0, 10.0, 100.0, 1e3, 1e4)
    ]

    def run(seed: int) -> list[tuple]:
        misses = []
        for n, mer, gamma in grid:
            config = make_symmetric_config(n, mer)
            estimates = simulate.estimate_intercepts(config, ("rjs", "ojs"), gamma, 10**6, seed)
            refs = analytic.intercepts(config, ("rjs", "ojs"), gamma)
            for scheme, est, ref in zip(("rjs", "ojs"), estimates, refs):
                if abs(est.p_hat - ref.value) > 3.0 * max(est.std_err, 1e-300):
                    misses.append((n, mer, gamma, scheme))
        return misses

    misses = run(42)
    retried = False
    if len(misses) > 0.01 * 2 * len(grid):
        retried = True
        misses = run(43)
    elapsed = time.perf_counter() - start
    ok = len(misses) <= 0.01 * 2 * len(grid)
    _report(
        "2 closed-form-vs-mc",
        ok and elapsed < 300.0,
        f"cells={2*len(grid)} misses={len(misses)} retried={retried} elapsed={elapsed:.0f}s",
    )
    assert ok, f"3-sigma misses after retry: {misses}"
    assert elapsed < 300.0


def test_criterion_3_noncoop_symmetric_exact_half():
    exact = True
    for n in range(1, 13):
        config = make_symmetric_config(n, 1.0)
        values = [analytic.intercepts(config, ("nonc",), g)[0].value for g in (1.0, 1e3, 1e6)]
        exact &= values[0] == 0.5 and values[0] == values[1] == values[2]
    _report("3 noncoop-exact-half", exact, "N=1..12, bit-identical across gamma")
    assert exact


def test_criterion_4_scheme_ordering_and_dominance():
    ordered = True
    for n in (2, 3, 4, 6):
        for mer in (0.1, 1.0, 10.0):
            config = make_symmetric_config(n, mer)
            nonc = analytic.intercept_noncoop(config)
            # exact, down to the SNRs where the computed values agree to rounding
            for gamma in np.concatenate((np.logspace(-1, 6, 15), np.logspace(-300, -20, 15))):
                rjs = analytic.intercept_sc_rjs(config, gamma)
                ojs = analytic.intercept_sc_ojs(config, gamma)
                ordered &= ojs <= rjs <= nonc
    violations = simulate.coupled_dominance_check(make_symmetric_config(4, 1.0), 10.0, 10**6, 42)
    passed = ordered and violations == 0
    _report("4 ordering-and-dominance", passed, f"analytic ordered={ordered} violations={violations}")
    assert ordered
    assert violations == 0


def test_criterion_5_degenerate_coincidences():
    bitwise = all(
        analytic.intercept_sc_ojs(make_symmetric_config(2, mer), gamma)
        == analytic.intercept_sc_rjs(make_symmetric_config(2, mer), gamma)
        for mer in (0.1, 1.0, 10.0)
        for gamma in np.logspace(-1, 6, 15)
    )
    single = make_symmetric_config(1, 1.0)
    nonc = analytic.intercept_noncoop(single)
    flags = []
    for scheme in ("rjs", "ojs"):
        [result] = analytic.intercepts(single, (scheme,), 10.0)
        flags.append(result.degraded and result.value == nonc)
        est = simulate.estimate_intercept(single, scheme, 10.0, 10_000, 0)
        flags.append(est.degraded)
    passed = bitwise and all(flags)
    _report("5 degenerate-coincidences", passed, f"n2_bitwise={bitwise} n1_flags={all(flags)}")
    assert bitwise
    assert all(flags)


def test_criterion_6_e1_bounds_and_quadrature():
    xs = [float(x) for x in np.logspace(-6, 3, 200)]
    bracket_ok = all(lo <= e1(x) <= hi for x, (lo, hi) in zip(xs, map(e1_bounds, xs)))
    worst = max(
        abs(e1(float(x)) - quadrature_e1(float(x))) / quadrature_e1(float(x))
        for x in np.logspace(-8, math.log10(700.0), 60)
    )
    passed = bracket_ok and worst <= 1e-12
    _report("6 e1-bounds-and-quadrature", passed, f"bracket={bracket_ok} max_rel={worst:.2e}")
    assert bracket_ok
    assert worst <= 1e-12


def test_criterion_7_secrecy_diversity():
    config = make_symmetric_config(4, 1.0)
    window = diversity.DEFAULT_WINDOW
    d_nonc = diversity.fit_diversity("nonc", config, window).diversity
    d_rjs = diversity.fit_diversity("rjs", config, window).diversity
    d_ojs = diversity.fit_diversity("ojs", config, window).diversity
    gap = abs(d_rjs - d_ojs)
    passed = abs(d_nonc) <= 1e-8 and 0.85 <= d_rjs <= 1.0 and 0.85 <= d_ojs <= 1.0 and gap <= 0.02
    _report(
        "7 secrecy-diversity",
        passed,
        f"nonc={d_nonc:.1e} rjs={d_rjs:.4f} ojs={d_ojs:.4f} gap={gap:.4f}",
    )
    assert abs(d_nonc) <= 1e-8
    assert 0.85 <= d_rjs <= 1.0
    assert 0.85 <= d_ojs <= 1.0
    # Known-unattainable clause (see module docstring): the gap between the
    # ln-biased random-selection estimate and the unbiased optimal-selection
    # estimate on this window is ~0.094 by construction of the closed forms.
    assert gap <= 0.02, (
        "estimate gap exceeds 0.02: the optimal-selection curve has no "
        "ln(gamma) factor for N >= 3, so its finite-window estimate is "
        f"unbiased while the random-selection one is not (gap={gap:.4f}); "
        "both schemes reach diversity one in the limit"
    )


def test_criterion_8_symmetric_collapses():
    rjs_ref = analytic.intercept_sc_rjs(make_symmetric_config(2, 1.0), 10.0)
    rjs_same = all(
        analytic.intercept_sc_rjs(make_symmetric_config(n, 1.0), 10.0)
        == pytest.approx(rjs_ref, rel=1e-14, abs=0.0)
        for n in range(2, 9)
    )
    ojs_monotone = True
    for gamma in np.logspace(-1, 6, 15):
        values = [
            analytic.intercept_sc_ojs(make_symmetric_config(n, 1.0), gamma)
            for n in range(2, 9)
        ]
        ojs_monotone &= all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))
    passed = rjs_same and ojs_monotone
    _report("8 symmetric-collapses", passed, f"rjs_constant={rjs_same} ojs_monotone={ojs_monotone}")
    assert rjs_same
    assert ojs_monotone


def test_criterion_9_reproducible_csv(tmp_path):
    passed = True
    for name, argv in (
        ("fig2", ["--experiment", "fig2", "--trials", "20000", "--seed", "42", "--gamma-db", "0:20:4"]),
        ("fig3", ["--experiment", "fig3", "--trials", "10000", "--seed", "0x2A"]),
    ):
        paths = [tmp_path / f"{name}_run{k}.csv" for k in range(3)]
        assert cli.main(argv + ["--out", str(paths[0])]) == 0
        assert cli.main(argv + ["--out", str(paths[1])]) == 0
        assert cli.main(argv + ["--out", str(paths[2]), "--workers", "4"]) == 0
        blobs = [p.read_bytes() for p in paths]
        passed &= blobs[0] == blobs[1] == blobs[2]
    _report("9 reproducible-csv", passed, "repeat runs + worker-count variation byte-identical")
    assert passed
