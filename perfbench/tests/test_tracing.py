"""Spans and counts recorded by the traced run."""

from __future__ import annotations

import pytest

import tracing
from secrecy_sim import analytic, make_symmetric_config, simulate


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_uninstall_restores_the_program():
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    t = tracing.Tracer()
    t.install()
    assert analytic.e1_scaled is not originals[0]
    t.uninstall()
    assert [getattr(module, attr) for module, attr, _ in tracing.WRAPPED] == originals


def test_nested_spans_and_self_time(tracer):
    # With two pairs the OJS closed form delegates to the RJS one, which
    # calls E1 once per (i, j) pair.
    tracer.point = 7
    analytic.intercept_sc_ojs(make_symmetric_config(2, 1.0), 10.0)
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["analytic.intercept_sc_ojs", "analytic.intercept_sc_rjs"]
    assert names.count("special.e1_scaled") == 2
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 1
    assert {s[4] for s in tracer.spans} == {7}
    busy, own = tracer.busy_and_self()
    assert 0.0 <= own["analytic.intercept_sc_rjs"] <= busy["analytic.intercept_sc_rjs"]
    assert own["special.e1_scaled"] == pytest.approx(busy["special.e1_scaled"])
    assert busy["analytic.intercept_sc_ojs"] >= busy["analytic.intercept_sc_rjs"]


def test_computed_counts_repeat_exactly(tracer):
    config = make_symmetric_config(4, 1.0)
    for _ in range(2):
        analytic.intercept_sc_ojs(config, 10.0)
        simulate.estimate_intercept(config, "rjs", 10.0, 4000, 3)
    values = tracing.layer_values(tracer, passes=2)
    assert values["analytic.ojs_terms"] == 4 * (2**3 - 1)
    assert values["simulate.bytes_per_trial"] == simulate.draws_per_trial(4) * 8
    assert values["simulate.trials"] == 8000
    assert values["special.e1_scaled.elements"] == 2 * 4 * (2**3 - 1)


def test_oracle_failures_are_counted(monkeypatch):
    def broken(config, gamma):
        raise analytic.QuadratureError("did not converge")

    monkeypatch.setattr(analytic, "intercept_sc_ojs_oracle", broken)
    t = tracing.Tracer()
    t.install()
    try:
        with pytest.raises(analytic.QuadratureError):
            analytic.intercept_sc_ojs_oracle(make_symmetric_config(3, 1.0), 1e8)
    finally:
        t.uninstall()
    assert analytic.intercept_sc_ojs_oracle is broken
    assert t.counts["analytic.oracle.failures"] == 1
    assert t.counts["analytic.oracle.calls"] == 1
    assert t.spans[0][2] >= t.spans[0][1]
