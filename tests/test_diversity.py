from __future__ import annotations

import math

import numpy as np
import pytest

from secrecy_sim.analytic import intercept_sc_ojs, intercept_sc_rjs
from secrecy_sim.diversity import DiversityFit, fit_diversity
from secrecy_sim.model import PairParams, SnrSweep, SystemConfig, make_symmetric_config

WINDOW = SnrSweep.log_spaced(1e5, 1e6, 9)


def test_sc_local_slopes_inside_unit_band_and_approach_minus_one():
    cfg = make_symmetric_config(4, 1.0)
    g = np.logspace(2, 8, 13)
    for curve_fn in (intercept_sc_rjs, intercept_sc_ojs):
        p = np.array([curve_fn(cfg, x) for x in g])
        slopes = np.diff(np.log(p)) / np.diff(np.log(g))
        assert all(-1.0 < s < 0.0 for s in slopes)
        for a, b in zip(slopes, slopes[1:]):
            assert b < a  # monotone approach to -1


def test_noncoop_slopes_are_zero_to_roundoff():
    cfg = make_symmetric_config(4, 1.0)
    fit = fit_diversity("nonc", cfg, SnrSweep.log_spaced(1e4, 1e6, 9))
    assert abs(fit.diversity) <= 1e-10
    assert fit.max_residual <= 1e-12


def test_rjs_diversity_estimate_in_band():
    cfg = make_symmetric_config(4, 1.0)
    fit = fit_diversity("rjs", cfg, WINDOW)
    assert 0.85 <= fit.diversity <= 1.0
    # ln-gamma bias: estimate sits near 1 - 1/ln(gamma)
    assert fit.diversity == pytest.approx(1.0 - 1.0 / math.log(3e5), abs=0.02)


def test_ojs_diversity_estimate_in_band():
    cfg = make_symmetric_config(4, 1.0)
    fit = fit_diversity("ojs", cfg, WINDOW)
    assert 0.85 <= fit.diversity <= 1.0


def test_two_pair_schemes_have_identical_estimates():
    cfg = make_symmetric_config(2, 1.0)
    d_rjs = fit_diversity("rjs", cfg, WINDOW).diversity
    d_ojs = fit_diversity("ojs", cfg, WINDOW).diversity
    assert d_rjs == d_ojs
    assert abs(d_rjs - d_ojs) <= 0.02


def test_optimal_selection_estimate_converges_faster():
    # with three or more pairs the alternating sum cancels the log factor,
    # so the optimal-selection fit is nearly unbiased while the random one
    # keeps the ~1/ln(gamma) bias
    cfg = make_symmetric_config(4, 1.0)
    d_rjs = fit_diversity("rjs", cfg, WINDOW).diversity
    d_ojs = fit_diversity("ojs", cfg, WINDOW).diversity
    assert d_ojs > d_rjs
    assert d_ojs == pytest.approx(1.0, abs=1e-3)


def test_fit_reports_window_and_residual():
    cfg = make_symmetric_config(4, 1.0)
    fit = fit_diversity("rjs", cfg, WINDOW)
    assert fit.window == (1e5, 1e6)
    assert fit.points == 9
    assert 0.0 < fit.max_residual < 0.01
    assert isinstance(fit, DiversityFit)


def test_fit_diversity_zero_probability_errors():
    # every duty cycle zero: the non-cooperation probability is exactly 0
    cfg = SystemConfig(pairs=(PairParams(1.0, 1.0, 0.0),) * 2)
    with pytest.raises(ValueError, match="zero or non-finite"):
        fit_diversity("nonc", cfg, WINDOW)


def test_fit_diversity_input_validation():
    cfg = make_symmetric_config(2, 1.0)
    with pytest.raises(ValueError):
        fit_diversity("rjs", cfg, SnrSweep((10.0,)))
