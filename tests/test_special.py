from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_sim.special import _TAIL_CUTOFF, e1, e1_bounds, e1_scaled
from secrecy_sim.validation import _e1_quadrature_reference as quadrature_e1

EULER_GAMMA = 0.5772156649015329
EPS = np.finfo(float).eps


def test_e1_at_one():
    assert e1(1.0) == pytest.approx(0.219384, abs=1e-6)
    assert e1(1.0) == pytest.approx(quadrature_e1(1.0), rel=1e-12, abs=0.0)


def test_e1_matches_quadrature_oracle_across_range():
    for x in np.logspace(-8, math.log10(700.0), 60):
        ref = quadrature_e1(float(x))
        assert e1(float(x)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_e1_matches_scipy_exp1():
    xs = np.logspace(-8, 2.5, 80)
    ours = np.array([e1(float(x)) for x in xs])
    ref = scipy.special.exp1(xs)
    assert np.allclose(ours, ref, rtol=1e-12, atol=0.0)


def test_e1_inside_analytic_bracket_at_0_4():
    lower = 0.5 * math.exp(-0.4) * math.log(6.0)
    upper = math.exp(-0.4) * math.log(3.5)
    assert lower <= e1(0.4) <= upper


def test_small_x_behavior():
    for x in (1e-6, 1e-8):
        series = -EULER_GAMMA - math.log(x) + x - x * x / 4.0
        assert e1(x) == pytest.approx(series, rel=1e-12, abs=0.0)
        assert e1(x) + math.log(x) == pytest.approx(-EULER_GAMMA, abs=2 * x)


def test_e1_underflows_gracefully():
    assert e1(800.0) == 0.0
    assert e1(700.0) > 0.0


def test_e1_scaled_at_one():
    assert e1_scaled(1.0) == pytest.approx(0.596347, abs=1e-5)
    assert e1_scaled(1.0) == pytest.approx(math.e * quadrature_e1(1.0), rel=1e-12, abs=0.0)


def test_e1_scaled_asymptotic_series_at_1000():
    x = 1000.0
    series = (1.0 / x) * (1.0 - 1.0 / x + 2.0 / x**2 - 6.0 / x**3)
    assert e1_scaled(x) == pytest.approx(series, rel=1e-9, abs=0.0)


def test_e1_scaled_no_overflow_for_huge_arguments():
    for x in (1e3, 1e6, 1e12, 1e300):
        value = e1_scaled(x)
        assert math.isfinite(value)
        assert value == pytest.approx(1.0 / x, rel=1e-2, abs=0.0)


def test_scaled_unscaled_consistency():
    for x in (0.1, 1.0, 10.0):
        assert e1_scaled(x) * math.exp(-x) == pytest.approx(e1(x), rel=1e-12, abs=0.0)


def test_x_times_scaled_tends_to_one():
    assert abs(1e4 * e1_scaled(1e4) - 1.0) <= 1e-3
    assert abs(1e8 * e1_scaled(1e8) - 1.0) <= 1e-7


def test_bounds_bracket_on_log_grid():
    for x in np.logspace(-6, 3, 200):
        lo, hi = e1_bounds(float(x))
        assert lo <= e1(float(x)) <= hi
        # same bracket, scaled form
        assert 0.5 * math.log1p(2.0 / x) <= e1_scaled(float(x)) <= math.log1p(1.0 / x)


def test_bounds_at_large_argument():
    lo, hi = e1_bounds(100.0)
    assert 0.0 < lo <= e1(100.0) <= hi
    assert hi < 1e-43


def test_bounds_formula():
    lo, hi = e1_bounds(0.5)
    assert lo == pytest.approx(0.5 * math.exp(-0.5) * math.log(5.0), rel=1e-15, abs=0.0)
    assert hi == pytest.approx(math.exp(-0.5) * math.log(3.0), rel=1e-15, abs=0.0)


def test_vectorized_scaled_matches_scalar():
    # The original 1e-5..1e4 grid plus both regimes interleaved in one array,
    # cutoff and its neighbour included.
    xs = np.concatenate(
        (
            np.logspace(-5, 4, 53),
            np.logspace(-5, 300, 123),
            [_TAIL_CUTOFF, np.nextafter(_TAIL_CUTOFF, np.inf)],
        )
    )
    xs = np.random.default_rng(0).permutation(xs)
    vec = e1_scaled(xs)
    assert vec.shape == xs.shape
    assert np.array_equal(vec, np.array([e1_scaled(float(x)) for x in xs]))
    assert np.array_equal(e1_scaled(xs.reshape(2, -1)), vec.reshape(2, -1))


def test_e1_scaled_strictly_decreasing_across_tail_cutoff():
    xs = _TAIL_CUTOFF * np.array([1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6])
    values = e1_scaled(xs)
    assert np.all(np.diff(values) < 0.0)


def test_e1_scaled_tail_inside_bracket():
    # Beyond x ~ 1e8 the bracket is narrower than one ulp, so each computed
    # endpoint gets a two-ulp rounding allowance.
    xs = np.append(np.logspace(2, 300, 500), _TAIL_CUTOFF)
    values = e1_scaled(xs)
    assert np.all(values >= 0.5 * np.log1p(2.0 / xs) * (1.0 - 2.0 * EPS))
    assert np.all(values <= np.log1p(1.0 / xs) * (1.0 + 2.0 * EPS))


def test_e1_scaled_tail_asymptote():
    # x*e^x*E1(x) = 1 - 1/x + O(1/x^2); the product x*value adds a rounding
    # error of at most two ulps of 1.
    xs = np.logspace(3, 300, 500)
    assert np.all(np.abs(xs * e1_scaled(xs) - 1.0) <= 2.0 / xs + 2.0 * EPS)


def _assert_rejected(bad):
    with pytest.raises(ValueError):
        e1(bad)
    with pytest.raises(ValueError):
        e1_scaled(bad)
    with pytest.raises(ValueError):
        e1_bounds(bad)
    with pytest.raises(ValueError):
        e1_scaled(np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_rejects_nonpositive_arguments(bad):
    _assert_rejected(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_nonfinite_arguments(bad):
    _assert_rejected(bad)


def test_e1_rejects_arrays():
    with pytest.raises(TypeError):
        e1(np.array([1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=70.0),
    st.floats(min_value=1.0 + 1e-9, max_value=10.0),
)
def test_e1_strictly_decreasing_and_positive(x, factor):
    # e1 underflows to 0 beyond ~745, so strictness is asserted inside the
    # representable range only; the scaled form never underflows.
    lo, hi = x, x * factor
    assert e1(lo) > e1(hi) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e12),
    st.floats(min_value=1.0 + 1e-9, max_value=10.0),
)
def test_e1_scaled_strictly_decreasing_and_positive(x, factor):
    assert e1_scaled(x) > e1_scaled(x * factor) > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3))
def test_bracket_holds_everywhere(x):
    lo, hi = e1_bounds(x)
    assert lo <= e1(x) <= hi
