"""The benchmark's correctness checker and report helpers."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import metrics
import workloads
from secrecy_sim import analytic, simulate

ROOT = Path(__file__).resolve().parents[2]


def _fake_cross_check(monkeypatch, closed=0.25, oracle=0.25):
    """A cross-check workload whose program calls are cheap stand-ins."""
    for scheme in ("rjs", "ojs"):
        monkeypatch.setattr(analytic, f"intercept_sc_{scheme}", lambda c, g: closed)
        monkeypatch.setattr(analytic, f"intercept_sc_{scheme}_oracle", lambda c, g: oracle)
    monkeypatch.setattr(simulate, "coupled_dominance_check", lambda *a, **k: 0)
    return workloads.CrossCheck(seed=1)


def _comparisons(wl) -> int:
    return len(wl.comparisons)


def test_agreeing_values_pass(monkeypatch):
    wl = _fake_cross_check(monkeypatch)
    points, _ = wl.run_pass()
    wl.verify()
    assert wl.tally.attempted == points
    assert wl.tally.failed == 0


def test_perturbed_closed_form_fails(monkeypatch):
    wl = _fake_cross_check(monkeypatch, closed=0.25 * (1 + 1e-7))
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == _comparisons(wl)
    assert "rel err" in wl.tally.reasons[0]


def test_raised_quadrature_error_fails(monkeypatch):
    wl = _fake_cross_check(monkeypatch)

    def broken(config, gamma):
        raise analytic.QuadratureError("quadrature did not converge")

    monkeypatch.setattr(analytic, "intercept_sc_ojs_oracle", broken)
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == wl.tally.known == _comparisons(wl) // 2
    assert "QuadratureError" in wl.tally.reasons[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3, 1.5])
def test_non_finite_or_out_of_range_value_fails(monkeypatch, bad):
    wl = _fake_cross_check(monkeypatch, closed=bad, oracle=bad)
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == _comparisons(wl)


def test_only_item5_kinds_of_failure_count_as_known(monkeypatch):
    wl = _fake_cross_check(monkeypatch, closed=0.3)
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == wl.tally.known == _comparisons(wl)

    wl = _fake_cross_check(monkeypatch, closed=math.nan, oracle=0.25)
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == _comparisons(wl)
    assert wl.tally.known == 0


def test_dominance_violation_fails(monkeypatch):
    wl = _fake_cross_check(monkeypatch)
    monkeypatch.setattr(simulate, "coupled_dominance_check", lambda *a, **k: 3)
    wl.run_pass()
    wl.verify()
    assert wl.tally.failed == 1
    assert "dominance" in wl.tally.reasons[0]


def _csv(p_mc: str) -> bytes:
    lines = ["# secrecy-sim v1", "gamma_db,scheme,p_analytic,p_mc,mc_stderr",
             f"0,nonc,5.000000000000e-01,{p_mc},1.0e-03", "2,nonc,5.000000000000e-01,5.0e-01,1.0e-03"]
    return ("\n".join(lines) + "\n").encode()


def test_csv_byte_mismatch_fails():
    wl = workloads.FiguresMC(seed=1)
    first = _csv("5.000000000000e-01")
    wl.outputs = [("fig2", 0, first, None), ("fig2", 0, first, None),
                  ("fig2", 0, _csv("5.000000000001e-01"), None)]
    wl.verify()
    assert wl.tally.attempted == 6
    assert wl.tally.failed == 2
    assert "CSV bytes differ" in wl.tally.reasons[0]


def test_nonzero_exit_and_missed_estimate_fail():
    wl = workloads.FiguresMC(seed=1)
    wl.outputs = [("fig2", 0, _csv("4.000000000000e-01"), None), ("fig2", 2, b"", None)]
    wl.verify()
    assert wl.tally.failed == 3
    assert any("returned 2" in r for r in wl.tally.reasons)


def test_mc_bound_accepts_noise_and_rejects_bias():
    p, m, alpha = 0.2, 25_000, 0.25
    sigma = math.sqrt(alpha * p * (1 - p) / m)
    assert checks.mc_problem(p + 4 * sigma, p, m, alpha) is None
    assert checks.mc_problem(p + 20 * sigma, p, m, alpha) is not None
    assert checks.mc_problem(0.0, 0.0, m, alpha) is None


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert checks.tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert checks.tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert checks.tail_percentile(range(11)) == (100.0 / 11, 0, 11)
    assert checks.tail_percentile(range(10)) is None
    for n in (11, 57, 200, 1234):
        xs = [(k * 7919) % n for k in range(n)]
        p, value, count = checks.tail_percentile(xs)
        assert count == n
        assert sum(1 for x in xs if x > value) == checks.TAIL_MIN_BEYOND
        # One step higher would leave fewer than ten samples beyond.
        assert math.ceil(p / 100 * n) == n - checks.TAIL_MIN_BEYOND


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in metrics.END_TO_END + metrics.REPORTED + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert checks.METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
