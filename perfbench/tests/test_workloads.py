"""Workload inputs come from the seed argument alone."""

from __future__ import annotations

import pytest

import run
import workloads


def _inputs(wl):
    if isinstance(wl, workloads.FiguresMC):
        return wl.argv
    if isinstance(wl, workloads.CrossCheck):
        return wl.cases
    return wl.configs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name]
    assert _inputs(make(7)) == _inputs(make(7))
    assert _inputs(make(7)) != _inputs(make(8))


def test_asymmetric_configs_are_stratified_and_valid():
    rng = workloads.np.random.default_rng(5)
    config = workloads.asymmetric_config(rng, 10, 2.0)
    assert config.n_pairs == 10
    assert abs(sum(p.alpha for p in config.pairs) - 1.0) < 1e-12
    for gains in ([p.sigma2_sd for p in config.pairs], [p.sigma2_se for p in config.pairs]):
        logs = sorted(workloads.np.log10(gains))
        for k, value in enumerate(logs):
            assert -2.0 + 0.4 * k <= value <= -2.0 + 0.4 * (k + 1)


def test_runner_lists_every_workload():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
