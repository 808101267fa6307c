from __future__ import annotations

import functools
import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecy_sim import analytic
from secrecy_sim.analytic import (
    QuadratureError,
    intercept_noncoop,
    intercept_sc_ojs,
    intercept_sc_ojs_oracle,
    intercept_sc_rjs,
    intercept_sc_rjs_oracle,
    intercepts,
)
from secrecy_sim.model import SCHEMES, PairParams, SystemConfig, make_symmetric_config
from secrecy_sim.special import e1_scaled
from secrecy_sim.validation import _spread_config

from ojs_reference import EPSREL as REFERENCE_EPSREL
from ojs_reference import symmetric_ojs, symmetric_ojs_mpmath
from ojs_subsets import SubsetIterator, phi_ojs

ASYMMETRIC = SystemConfig(
    pairs=(
        PairParams(sigma2_sd=2.0, sigma2_se=0.7, alpha=0.3),
        PairParams(sigma2_sd=0.5, sigma2_se=1.9, alpha=0.25),
        PairParams(sigma2_sd=1.1, sigma2_se=1.2, alpha=0.2),
    )
)


def _varphi(config, i, j, gamma):
    """E1 argument 2/(se_j*gamma) + 2*se_i/(sd_i*se_j*gamma) for pair i jammed by j."""
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    se_j = config.pairs[j].sigma2_se
    return 2.0 / (se_j * gamma) + 2.0 * se_i / (sd_i * se_j * gamma)


def _rjs_term(config, i, j, gamma):
    """Per-(i, j) RJS term from _varphi and a scalar e1_scaled call."""
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    se_j = config.pairs[j].sigma2_se
    phi = _varphi(config, i, j, gamma)
    return 2.0 * se_i * e1_scaled(phi) / (sd_i * se_j * gamma)


# --- non-cooperation ---------------------------------------------------------


def test_noncoop_symmetric_is_exactly_half():
    assert intercept_noncoop(make_symmetric_config(2, 1.0)) == 0.5


def test_noncoop_single_pair_value():
    cfg = SystemConfig(pairs=(PairParams(10.0, 1.0, 1.0),))
    assert intercept_noncoop(cfg) == pytest.approx(1.0 / 11.0, rel=1e-15, abs=0.0)


def test_noncoop_independent_of_snr():
    cfg = make_symmetric_config(3, 2.0)
    values = {intercepts(cfg, ("nonc",), g)[0].value for g in (1.0, 1e3, 1e6)}
    assert len(values) == 1


def test_noncoop_rejects_invalid_config():
    with pytest.raises(ValueError, match="nonpositive gain"):
        intercept_noncoop(SystemConfig(pairs=(PairParams(0.0, 1.0, 0.5),)))


# --- RJS closed form --------------------------------------------------------


def test_rjs_two_pair_reference_value():
    cfg = make_symmetric_config(2, 1.0)
    assert intercept_sc_rjs(cfg, 10.0) == pytest.approx(0.2095656016912013, rel=1e-12, abs=0.0)
    assert intercept_sc_rjs(cfg, 10.0) == pytest.approx(
        0.2 * e1_scaled(0.4), rel=1e-14, abs=0.0
    )


def test_rjs_matches_per_pair_fsum():
    # gamma = 1e-3 puts every E1 argument in the asymptotic tail.
    n = ASYMMETRIC.n_pairs
    for gamma in (1e-3, 0.5, 10.0, 1e3, 1e6):
        reference = math.fsum(
            ASYMMETRIC.pairs[i].alpha / (n - 1) * _rjs_term(ASYMMETRIC, i, j, gamma)
            for i in range(n)
            for j in range(n)
            if j != i
        )
        assert intercept_sc_rjs(ASYMMETRIC, gamma) == pytest.approx(reference, rel=1e-15, abs=0.0)


def test_rjs_symmetric_constant_in_pair_count():
    reference = intercept_sc_rjs(make_symmetric_config(2, 1.0), 10.0)
    for n in range(3, 9):
        value = intercept_sc_rjs(make_symmetric_config(n, 1.0), 10.0)
        assert value == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_rjs_strictly_decreasing_in_snr():
    cfg = make_symmetric_config(4, 1.0)
    p = [intercept_sc_rjs(cfg, g) for g in (1e2, 1e4, 1e6)]
    assert p[0] > p[1] > p[2] > 0.0


def test_rjs_matches_integral_oracle():
    for gamma in (0.5, 10.0, 1e3, 1e6):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            closed = _rjs_term(ASYMMETRIC, i, j, gamma)
            assert analytic._jammed_oracle(ASYMMETRIC, i, [j], gamma) == pytest.approx(
                closed, rel=1e-8, abs=0.0
            )


def test_rjs_oracle_high_snr_envelope():
    cfg = make_symmetric_config(2, 1.0)
    gamma = 1e6
    term = analytic._jammed_oracle(cfg, 0, [1], gamma)
    phi = _varphi(cfg, 0, 1, gamma)
    # c = 2*se_i/(sd_i*se_j) = 2; term*gamma in [c/2*ln(1+2/phi), c*ln(1+1/phi)]
    assert math.log1p(2.0 / phi) <= term * gamma <= 2.0 * math.log1p(1.0 / phi)


def test_rjs_term_ratio_approaches_log_limit():
    cfg = make_symmetric_config(2, 1.0)
    ratios = [
        analytic._jammed_oracle(cfg, 0, [1], g) * g / math.log(g) for g in (1e2, 1e4, 1e6)
    ]
    assert ratios[0] < ratios[1] < ratios[2] < 2.0
    # the closed form carries the trend on to higher SNRs
    far = [intercept_sc_rjs(cfg, g) * g / math.log(g) for g in (1e8, 1e12, 1e15)]
    assert ratios[2] < far[0] < far[1] < far[2] < 2.0


def test_rjs_term_vanishes_for_perfect_main_channel():
    strong = SystemConfig(pairs=(PairParams(1e9, 1.0, 0.5), PairParams(1.0, 1.0, 0.5)))
    assert analytic._jammed_oracle(strong, 0, [1], 10.0) < 1e-8


# --- subset machinery and OJS ------------------------------------------------


def test_subset_iterator_binary_counter_order():
    subsets = list(SubsetIterator((1, 2, 3)))
    assert subsets == [
        (1,),
        (2,),
        (1, 2),
        (3,),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]
    assert len(SubsetIterator((1, 2, 3))) == 7
    assert len(set(subsets)) == 7


def test_subset_iterator_counts():
    for m in range(1, 8):
        it = SubsetIterator(tuple(range(m)))
        assert len(list(it)) == 2**m - 1 == len(it)


def test_phi_ojs_singleton_matches_varphi():
    cfg = make_symmetric_config(4, 1.0)
    assert phi_ojs(cfg, 0, (1,), 10.0) == pytest.approx(
        _varphi(cfg, 0, 1, 10.0), rel=1e-15, abs=0.0
    )


def test_phi_ojs_symmetric_triple():
    cfg = make_symmetric_config(4, 1.0)
    assert phi_ojs(cfg, 0, (1, 2, 3), 10.0) == pytest.approx(1.2, rel=1e-15, abs=0.0)


def test_phi_ojs_reciprocal_gain_scaling():
    doubled = SystemConfig(
        pairs=(
            PairParams(1.0, 1.0, 0.25),
            PairParams(1.0, 2.0, 0.25),
            PairParams(1.0, 2.0, 0.25),
        )
    )
    base = SystemConfig(
        pairs=(
            PairParams(1.0, 1.0, 0.25),
            PairParams(1.0, 1.0, 0.25),
            PairParams(1.0, 1.0, 0.25),
        )
    )
    assert phi_ojs(doubled, 0, (1, 2), 5.0) == pytest.approx(
        phi_ojs(base, 0, (1, 2), 5.0) / 2.0, rel=1e-14, abs=0.0
    )


def test_phi_ojs_rejects_bad_subsets():
    cfg = make_symmetric_config(4, 1.0)
    with pytest.raises(ValueError):
        phi_ojs(cfg, 0, (), 10.0)
    with pytest.raises(ValueError):
        phi_ojs(cfg, 0, (0, 1), 10.0)
    with pytest.raises(ValueError):
        phi_ojs(cfg, 0, (1, 1), 10.0)


def test_ojs_two_pairs_identical_to_rjs_bitwise():
    for mer in (0.1, 1.0, 10.0):
        cfg = make_symmetric_config(2, mer)
        for gamma in (0.5, 10.0, 1e4):
            assert intercept_sc_ojs(cfg, gamma) == intercept_sc_rjs(cfg, gamma)
    two_asym = SystemConfig(pairs=ASYMMETRIC.pairs[:2])
    assert intercept_sc_ojs(two_asym, 7.0) == intercept_sc_rjs(two_asym, 7.0)
    # asymmetric inputs: the one-candidate bracket is the singleton RJS term itself
    rng = np.random.default_rng(12)
    for _ in range(200):
        sd, se = 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 2))
        alpha = rng.uniform(0.0, 0.5, size=2)
        cfg = SystemConfig(tuple(map(PairParams, sd, se, alpha)))
        gamma = 10.0 ** rng.uniform(-4.0, 12.0)
        assert intercept_sc_ojs(cfg, gamma) == intercept_sc_rjs(cfg, gamma)


def test_ojs_four_pair_reference_value():
    cfg = make_symmetric_config(4, 1.0)
    assert intercept_sc_ojs(cfg, 10.0) == pytest.approx(0.11476304684707683, rel=1e-12, abs=0.0)


def _subset_value(config, i, gamma):
    """Pair i's OJS subset sum, asked for alone."""
    return analytic._ojs_subset_values(analytic._gains(config), [i], gamma)[0]


def test_ojs_matches_subset_iterator_form():
    # independent slow path: explicit subsets via SubsetIterator and phi_ojs
    gamma = 25.0
    for i in range(ASYMMETRIC.n_pairs):
        sd = ASYMMETRIC.pairs[i].sigma2_sd
        se = ASYMMETRIC.pairs[i].sigma2_se
        candidates = [j for j in range(ASYMMETRIC.n_pairs) if j != i]
        total = 0.0
        for subset in SubsetIterator(candidates):
            phi = phi_ojs(ASYMMETRIC, i, subset, gamma)
            inner = sum(
                2.0 * se / (sd * ASYMMETRIC.pairs[j].sigma2_se * gamma) for j in subset
            )
            total += (-1.0) ** (len(subset) + 1) * inner * e1_scaled(phi)
        assert _subset_value(ASYMMETRIC, i, gamma) == pytest.approx(
            total, rel=1e-12, abs=0.0
        )


REPEATED_CLASSES = SystemConfig(
    pairs=tuple(
        PairParams(sigma2_sd=sd, sigma2_se=se, alpha=1.0 / 6.0)
        for sd, se in [(2.0, 0.7), (0.5, 1.9), (2.0, 0.7), (1.3, 3.1), (0.5, 1.9), (4.0, 1.9)]
    )
)


def test_ojs_bracket_with_repeated_gain_classes():
    # two multi-member classes (0.7 twice, 1.9 three times) interleaved with a
    # singleton, and pairs 0/2 and 1/4 with equal gains, which share a bracket
    cfg = REPEATED_CLASSES
    for gamma in (0.5, 25.0, 1e3):
        for i in range(cfg.n_pairs):
            sd = cfg.pairs[i].sigma2_sd
            se = cfg.pairs[i].sigma2_se
            candidates = [j for j in range(cfg.n_pairs) if j != i]
            explicit = math.fsum(
                (-1.0) ** (len(subset) + 1)
                * math.fsum(2.0 * se / (sd * cfg.pairs[j].sigma2_se * gamma) for j in subset)
                * e1_scaled(phi_ojs(cfg, i, subset, gamma))
                for subset in SubsetIterator(candidates)
            )
            assert _subset_value(cfg, i, gamma) == pytest.approx(
                explicit, rel=1e-12, abs=0.0
            )
    for gamma in (0.5, 50.0, 5e4, 1e6):
        value = intercept_sc_ojs(cfg, gamma)
        assert value == pytest.approx(intercept_sc_ojs_oracle(cfg, gamma), rel=1e-8, abs=0.0)
        for order in itertools.permutations(range(cfg.n_pairs)):
            permuted = SystemConfig(tuple(cfg.pairs[k] for k in order))
            assert intercept_sc_ojs(permuted, gamma) == value


@pytest.mark.parametrize(
    "evaluate, pair_values, rel",
    [
        (intercept_sc_rjs,
         lambda cfg, rows, g: analytic._rjs_values(analytic._gains(cfg), rows, g), 0.0),
        (intercept_sc_ojs,
         lambda cfg, rows, g: analytic._ojs_subset_values(analytic._gains(cfg), rows, g), 0.0),
        (
            intercept_sc_rjs_oracle,
            lambda cfg, rows, g: [math.fsum(
                analytic._jammed_oracle(cfg, i, [j], g) for j in analytic._candidates(cfg, i)
            ) / (cfg.n_pairs - 1) for i in rows],
            1e-15,
        ),
        (
            intercept_sc_ojs_oracle,
            lambda cfg, rows, g: [
                analytic._jammed_oracle(cfg, i, analytic._candidates(cfg, i), g) for i in rows
            ],
            1e-15,
        ),
    ],
    ids=["rjs", "ojs", "rjs-oracle", "ojs-oracle"],
)
def test_equal_pairs_share_one_value(evaluate, pair_values, rel):
    # pairs 0/2 and 1/4 have equal gains; pair 5 shares only pair 1's sigma2_se
    cfg = REPEATED_CLASSES
    for gamma in (0.5, 25.0, 1e3):
        per_pair = pair_values(cfg, list(range(cfg.n_pairs)), gamma)
        expected = math.fsum(p.alpha * v for p, v in zip(cfg.pairs, per_pair))
        assert evaluate(cfg, gamma) == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize(
    "evaluate, spied, expected",
    [
        (intercept_sc_rjs, "_rjs_values", [[2, 4, 3, 5]]),
        (intercept_sc_ojs, "_ojs_subset_values", [[2, 4, 3, 5]]),
        (intercept_sc_rjs_oracle, "_jammed_oracle", [i for i in (2, 4, 3, 5) for _ in range(5)]),
        (intercept_sc_ojs_oracle, "_jammed_oracle", [2, 4, 3, 5]),
    ],
    ids=["rjs", "ojs", "rjs-oracle", "ojs-oracle"],
)
def test_each_distinct_pair_is_evaluated_once(monkeypatch, evaluate, spied, expected):
    # four distinct (sd, se) among six pairs, each evaluated at its last pair: 2, 4, 3, 5.  A
    # closed form gets all four rows in one call; the oracles integrate pair by pair, the RJS
    # oracle once per candidate, N - 1 = 5 times
    seen = []
    original = getattr(analytic, spied)

    def spy(cfg, which, *rest):
        seen.append(which)
        return original(cfg, which, *rest)

    monkeypatch.setattr(analytic, spied, spy)
    evaluate(REPEATED_CLASSES, 25.0)
    assert seen == expected


def test_ojs_matches_integral_oracle():
    cfg = make_symmetric_config(4, 1.0)
    assert intercept_sc_ojs(cfg, 10.0) == pytest.approx(
        intercept_sc_ojs_oracle(cfg, 10.0), rel=1e-8, abs=0.0
    )
    for gamma in (0.5, 50.0, 5e4):
        assert intercept_sc_ojs(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_ojs_oracle(ASYMMETRIC, gamma), rel=1e-8, abs=0.0
        )


def test_ojs_alternating_sum_cancellation_stress():
    cfg = make_symmetric_config(8, 1.0)
    closed = intercept_sc_ojs(cfg, 1e6)
    reference = intercept_sc_ojs_oracle(cfg, 1e6)
    assert closed == pytest.approx(reference, rel=1e-8, abs=0.0)


def test_ojs_oracle_weak_jamming_limit():
    # every product factor is 1 - exp(0) = 0 at z = 1, so the value stays
    # strictly below the full density mass se/(sd+se); with negligible
    # jamming power the deficit shrinks toward zero
    cfg = make_symmetric_config(4, 1.0)
    deficit = 0.5 - analytic._jammed_oracle(cfg, 0, [1, 2, 3], 1e-9)
    assert 0.0 < deficit < 1e-6
    assert 0.5 - analytic._jammed_oracle(cfg, 0, [1, 2, 3], 1e-3) > deficit


def test_ojs_answers_past_the_subset_sum():
    # 21 pairs, past the old limit of 20: the trapezoid answers
    for gamma in (1e-2, 10.0, 1e6):
        assert intercept_sc_ojs(make_symmetric_config(21, 1.0), gamma) == pytest.approx(
            symmetric_ojs(21, 1.0, gamma), rel=1e-12, abs=0.0
        )


def _assert_schemes_ordered(cfg, gamma):
    """ojs <= rjs <= nonc exactly where both answer, ojs <= nonc where rjs refuses.

    A closed form may refuse only as an SNR range error.
    """
    nonc = intercept_noncoop(cfg)
    try:
        ojs = intercept_sc_ojs(cfg, gamma)
    except ValueError as exc:
        assert "out of range for these channel gains" in str(exc)
        return
    try:
        rjs = intercept_sc_rjs(cfg, gamma)
    except ValueError as exc:
        assert "out of range for these channel gains" in str(exc)
        rjs = nonc
    assert 0.0 <= ojs <= rjs <= nonc <= 1.0


def test_scheme_ordering_across_grid():
    # N = 12 on is the trapezoid; at gamma <= 1e-14 the schemes' sums agree to rounding, and
    # only the closed forms' min keeps them in order
    gammas = np.concatenate((np.logspace(-1, 6, 15), np.logspace(-300, 12, 157)))
    for n in (2, 3, 4, 6, 11, 12, 16, 24, 40, 200):
        for mer in (0.1, 1.0, 10.0):
            cfg = make_symmetric_config(n, mer)
            for gamma in gammas:
                _assert_schemes_ordered(cfg, gamma)


@st.composite
def _asymmetric_systems(draw):
    """N = 2..16 pairs, each gain 10^U(-3, 3) on its own, duty cycles summing to at most 1."""
    n = draw(st.integers(2, 16))
    log_gains = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                              min_size=n, max_size=n))
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = draw(st.floats(0.0, 1.0))
    # share / norm stays finite when the shares are subnormal; total / norm may not
    norm = math.fsum(shares) or 1.0
    return SystemConfig(tuple(
        PairParams(10.0**sd, 10.0**se, share / norm * total)
        for (sd, se), share in zip(log_gains, shares)
    ))


@settings(max_examples=200, deadline=None)
@given(_asymmetric_systems(), st.floats(-300.0, 12.0))
# a subnormal duty cycle: alpha_i/(N-1) rounds to 0.0
@example(SystemConfig((PairParams(1.0, 1.0, 0.0),) * 3 + (PairParams(1.0, 10.0, 5e-324),)
                      + (PairParams(1.0, 1.0, 0.0),) * 2), 0.0)
def test_scheme_ordering_on_asymmetric_systems(cfg, log_gamma):
    # the abstract's claim ojs <= rjs <= nonc, also where the main channel is
    # weaker than the eavesdropper's (MER < 1 for many drawn pairs), on both
    # sides of the OJS switch at 11 pairs
    _assert_schemes_ordered(cfg, 10.0**log_gamma)


def test_ojs_monotone_nonincreasing_in_pair_count():
    for gamma in (1.0, 10.0, 1e3):
        values = [intercept_sc_ojs(make_symmetric_config(n, 1.0), gamma) for n in range(2, 9)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-12)


def test_degraded_single_pair_falls_back_to_noncoop():
    cfg = SystemConfig(pairs=(PairParams(4.0, 1.0, 1.0),))
    nonc = intercept_noncoop(cfg)
    assert intercept_sc_rjs(cfg, 10.0) == nonc
    assert intercept_sc_ojs(cfg, 10.0) == nonc
    for scheme in ("rjs", "ojs"):
        result = intercepts(cfg, (scheme,), 10.0)[0]
        assert result.value == nonc
        assert result.degraded is True
    assert intercepts(cfg, ("nonc",), 10.0)[0].degraded is False


def test_scheme_intercept_multi_pair_not_degraded():
    cfg = make_symmetric_config(3, 1.0)
    assert [v.degraded for v in intercepts(cfg, SCHEMES, 5.0)] == [False] * 3


def test_scheme_intercept_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        intercepts(make_symmetric_config(2, 1.0), ("rjs", "best"), 1.0)
    with pytest.raises(ValueError, match="need at least one scheme"):
        intercepts(make_symmetric_config(2, 1.0), (), 1.0)


@pytest.mark.parametrize("gamma", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_intercept_refuses_bad_snr_for_every_scheme(scheme, gamma):
    # nonc does not read the SNR, but a bad one is refused all the same
    with pytest.raises(ValueError, match="SNR must be positive and finite"):
        intercepts(make_symmetric_config(4, 1.0), (scheme,), gamma)


_ORDERINGS = [order for k in (1, 2, 3) for order in itertools.permutations(SCHEMES, k)]


# the spread configs sit on both sides of the OJS switch at 11 pairs
_SINGLE_CALL_CONFIGS = {
    f"sym{n}-mer{mer:g}": make_symmetric_config(n, mer)
    for n in (1, 2, 4, 11, 12, 64) for mer in (0.1, 1.0, 10.0)
} | {f"spread{n}": _spread_config(n) for n in (3, 8, 11, 12, 16)}


@pytest.mark.parametrize("cfg", _SINGLE_CALL_CONFIGS.values(), ids=_SINGLE_CALL_CONFIGS.keys())
def test_intercepts_match_one_scheme_calls_in_every_order(cfg):
    for gamma in (1e-300, 1e-20, 0.5, 10.0, 1e6, 1e12):
        single = {"nonc": intercept_noncoop(cfg), "rjs": intercept_sc_rjs(cfg, gamma),
                  "ojs": intercept_sc_ojs(cfg, gamma)}
        for order in _ORDERINGS:
            values = intercepts(cfg, order, gamma)
            assert [repr(v.value) for v in values] == [repr(single[s]) for s in order]
            assert [v.degraded for v in values] == [cfg.n_pairs == 1 and s != "nonc" for s in order]


def test_intercepts_raise_rjs_refusal_where_only_ojs_answers():
    # the wide config of test_ojs_trapezoid_answers_past_a_pair_own_scale_and_rjs_range
    wide = SystemConfig(
        (PairParams(1e3, 1e3, 1.0 / 12),) + (PairParams(1e-3, 1.0, 1.0 / 12),) * 11
    )
    with pytest.raises(ValueError, match="out of range for these channel gains") as refusal:
        intercept_sc_rjs(wide, 1e306)
    [ojs] = intercepts(wide, ("ojs",), 1e306)
    assert 0.0 < ojs.value < intercept_noncoop(wide)
    assert ojs.value == intercept_sc_ojs(wide, 1e306)
    assert intercepts(wide, ("nonc", "ojs"), 1e306)[1] == ojs
    for order in (order for order in _ORDERINGS if "rjs" in order):
        with pytest.raises(ValueError) as info:
            intercepts(wide, order, 1e306)
        assert str(info.value) == str(refusal.value)


def test_intercepts_evaluate_each_distinct_rjs_pair_once(monkeypatch):
    # four distinct (sd, se) among six pairs, each evaluated at its last pair: 2, 4, 3, 5
    seen = []
    rjs_values = analytic._rjs_values

    def spy(gains, rows, gamma):
        seen.append(rows)
        return rjs_values(gains, rows, gamma)

    monkeypatch.setattr(analytic, "_rjs_values", spy)
    intercepts(REPEATED_CLASSES, SCHEMES, 25.0)
    assert seen == [[2, 4, 3, 5]]
    seen.clear()
    intercepts(REPEATED_CLASSES, ("nonc",), 25.0)
    assert seen == []


def test_quadrature_nonconvergence_raises(monkeypatch):
    def fake_quad(*args, **kwargs):
        return 0.0, 1.0, {}, "subdivision limit reached"

    monkeypatch.setattr(analytic.integrate, "quad", fake_quad)
    with pytest.raises(QuadratureError, match="subdivision limit"):
        intercept_sc_rjs_oracle(make_symmetric_config(2, 1.0), 10.0)


def test_quadrature_refusal_is_one_line(monkeypatch):
    # scipy explains a subdivision limit in six lines; a validate row keeps to the first
    message = (
        "The maximum number of subdivisions (300) has been achieved.\n"
        "  If increasing the limit yields no improvement it is advised to analyze \n"
        "  the integrand in order to determine the difficulties.  If the position of a \n"
        "  local difficulty can be determined (singularity, discontinuity) one will \n"
        "  probably gain from splitting up the interval and calling the integrator \n"
        "  on the subranges.  Perhaps a special-purpose integrator should be used."
    )
    monkeypatch.setattr(analytic.integrate, "quad", lambda *args, **kwargs: (0.0, 1.0, {}, message))
    for oracle in (intercept_sc_rjs_oracle, intercept_sc_ojs_oracle):
        with pytest.raises(QuadratureError) as info:
            oracle(make_symmetric_config(3, 1.0), 10.0)
        assert str(info.value) == (
            "quadrature did not converge: "
            "The maximum number of subdivisions (300) has been achieved."
        )


@pytest.mark.parametrize("n", [300, 1024])
def test_ojs_oracle_refuses_more_knees_than_its_subdivision_limit(monkeypatch, n):
    # all-distinct gains give every pair N - 1 jammer knees and the knee at 0; QUADPACK refuses
    # as many breakpoints as subintervals as invalid input, so the oracle refuses before quad
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called")

    monkeypatch.setattr(analytic.integrate, "quad", no_quad)
    cfg = _distinct_config(np.random.default_rng(5), n, 1.0)
    with pytest.raises(QuadratureError, match=f"^quadrature cannot run: {n} knees, limit 300$"):
        intercept_sc_ojs_oracle(cfg, 10.0)


def test_assembled_oracles_match_closed_forms():
    for gamma in (0.5, 50.0):
        assert intercept_sc_rjs_oracle(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_rjs(ASYMMETRIC, gamma), rel=1e-8, abs=0.0
        )
        assert intercept_sc_ojs_oracle(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_ojs(ASYMMETRIC, gamma), rel=1e-8, abs=0.0
        )


def test_high_snr_scaling_constants():
    cfg = make_symmetric_config(4, 1.0)
    # random selection keeps the log factor; gamma*P/ln(gamma) grows toward
    # a positive constant while gamma*P_ojs is already constant (no log term
    # survives the alternating sum for three or more candidates)
    r = [intercept_sc_rjs(cfg, g) * g / math.log(g) for g in (1e6, 1e9, 1e12)]
    assert r[0] < r[1] < r[2] < 2.1
    o = [intercept_sc_ojs(cfg, g) * g for g in (1e6, 1e9, 1e12)]
    limit = 2.0 * (6.0 * math.log(2.0) - 3.0 * math.log(3.0))
    for value in o:
        assert value == pytest.approx(limit, rel=1e-4, abs=0.0)


# --- oracle domain and accuracy ---------------------------------------------


def _distinct_config(rng, n, decades):
    """N pairs with every gain 10^U(-decades, decades) on its own, equal duty cycles."""
    gains = 10.0 ** rng.uniform(-decades, decades, size=(n, 2))
    return SystemConfig(tuple(PairParams(float(sd), float(se), 1.0 / n) for sd, se in gains))


@pytest.mark.parametrize(
    "scheme, config, gamma",
    [
        ("ojs", _spread_config(10), 1e8),
        ("rjs", make_symmetric_config(4, 1.0), 1e12),
        ("ojs", make_symmetric_config(4, 1.0), 1e12),
        ("ojs", make_symmetric_config(4, 1.0), 1e300),
        ("ojs", _spread_config(40), 10.0),
    ],
    ids=["ojs-spread10-1e8", "rjs-sym4-1e12", "ojs-sym4-1e12", "ojs-sym4-1e300", "ojs-spread40"],
)
def test_oracle_high_snr_and_wide_system_cases(scheme, config, gamma):
    oracle = {"rjs": intercept_sc_rjs_oracle, "ojs": intercept_sc_ojs_oracle}[scheme]
    value = oracle(config, gamma)
    closed = {"rjs": intercept_sc_rjs, "ojs": intercept_sc_ojs}[scheme]
    # abs=0: pytest.approx otherwise passes anything within 1e-12, which
    # would let an oracle that returns 0.0 at high SNR through
    assert value == pytest.approx(closed(config, gamma), rel=1e-8, abs=0.0)


def test_oracles_refuse_out_of_range_snr():
    # kappa = sd/(2*(sd + se))*gamma*se_j is 2.5e307 at gamma 1e305, where the oracles answer
    # though rjs's sd*gamma overflows, and overflows at 1e306, where they refuse
    mp = pytest.importorskip("mpmath")
    cfg = SystemConfig(pairs=(PairParams(1e3, 1e3, 0.5),) * 2)
    with pytest.raises(ValueError, match="out of range for these channel gains"):
        intercept_sc_rjs(cfg, 1e305)
    with mp.workdps(50):
        exact = float(_mp_bracket(mp, cfg, 0, [1], 1e305))
    for oracle in (intercept_sc_rjs_oracle, intercept_sc_ojs_oracle):
        assert oracle(cfg, 1e305) == pytest.approx(exact, rel=analytic._QUAD_EPSREL, abs=0.0)
        with pytest.raises(ValueError, match="out of range for these channel gains"):
            oracle(cfg, 1e306)


def test_closed_forms_refuse_subnormal_intermediates():
    # a subnormal intermediate has lost precision: OJS here would be 2.1e-8 off a
    # 50-digit sum, past validate's 1e-8 bound
    cfg = SystemConfig(tuple(PairParams(*p) for p in (
        (2.114280023198534, 0.02568001550412222, 0.0782392987294246),
        (3.1541361771203884, 868.187783726706, 0.2139094962648911),
        (3.846308821067173, 359.8840528799313, 0.19893839367490967),
        (0.10858069381731135, 0.4527796375125611, 0.09875294943310774),
        (0.003999329562754263, 422.9057113071928, 0.15965399201008768),
        (652.4103950001229, 0.018852720942761476, 0.17826503315777328),
        (28.738328123002034, 49.78897727349738, 0.07224083672980583),
    )))
    for closed_form in (intercept_sc_rjs, intercept_sc_ojs):
        with pytest.raises(ValueError, match="out of range for these channel gains"):
            closed_form(cfg, 10**303.14742240283783)


def test_closed_forms_refuse_an_underflowing_scalar_step():
    # sd * gamma underflows to 0.0 before any array is formed
    cfg = SystemConfig((PairParams(1e-200, 1.0, 0.5), PairParams(1.0, 1.0, 0.5)))
    for closed_form in (intercept_sc_rjs, intercept_sc_ojs):
        with pytest.raises(ValueError, match="out of range for these channel gains"):
            closed_form(cfg, 1e-200)


def _mp_bracket(mp, config, i, jammers, gamma):
    """Subset sum of pair i's intercept probability past `jammers`, in mpmath."""
    sd = mp.mpf(config.pairs[i].sigma2_sd)
    se = mp.mpf(config.pairs[i].sigma2_se)
    gamma = mp.mpf(gamma)
    total = mp.mpf(0)
    for size in range(1, len(jammers) + 1):
        for subset in itertools.combinations(jammers, size):
            recip = mp.fsum(1 / mp.mpf(config.pairs[j].sigma2_se) for j in subset)
            phi = 2 * (sd + se) / (sd * gamma) * recip
            total += (-1) ** (size + 1) * 2 * se / (sd * gamma) * recip * mp.exp(phi) * mp.e1(phi)
    return total


@pytest.mark.parametrize("gamma", [1e8, 1e9, 1e12, 1e300])
@pytest.mark.parametrize(
    "config",
    [make_symmetric_config(3, 1.0), make_symmetric_config(4, 1.0),
     make_symmetric_config(8, 1.0), ASYMMETRIC],
    ids=["sym3", "sym4", "sym8", "asym"],
)
def test_oracles_match_mpmath_at_high_snr(config, gamma):
    mp = pytest.importorskip("mpmath")
    n = config.n_pairs
    with mp.workdps(50):
        rjs = mp.fsum(
            config.pairs[i].alpha / (n - 1) * _mp_bracket(mp, config, i, [j], gamma)
            for i in range(n)
            for j in range(n)
            if j != i
        )
        ojs = mp.fsum(
            config.pairs[i].alpha * _mp_bracket(mp, config, i, [j for j in range(n) if j != i], gamma)
            for i in range(n)
        )
    # every per-pair quadrature is asked for _QUAD_EPSREL and all terms are
    # positive, so the assembled value is held to the same relative error
    tol = analytic._QUAD_EPSREL
    assert intercept_sc_rjs_oracle(config, gamma) == pytest.approx(float(rjs), rel=tol, abs=0.0)
    assert intercept_sc_ojs_oracle(config, gamma) == pytest.approx(float(ojs), rel=tol, abs=0.0)


# --- cancellation-free symmetric OJS reference (tests/ojs_reference.py) ----


@pytest.mark.parametrize("n", range(2, 21))
def test_symmetric_ojs_reference_matches_mpmath(n):
    mp = pytest.importorskip("mpmath")
    for mer in (0.1, 1.0, 10.0):
        for gamma in (1e-3, 1e-1, 10.0, 1e3, 1e6, 1e9):
            with mp.workdps(60):
                exact = float(symmetric_ojs_mpmath(mp, n, mer, gamma))
            # one positive integrand, so the requested relative error is the bound
            assert symmetric_ojs(n, mer, gamma) == pytest.approx(
                exact, rel=REFERENCE_EPSREL, abs=0.0
            )


@pytest.mark.parametrize("n, gamma", [(64, 10.0), (64, 1e6), (200, 10.0), (200, 1e6)])
def test_ojs_oracle_matches_reference_on_wide_systems(n, gamma):
    # the Renyi reference checks the oracle where no subset sum can
    oracle = intercept_sc_ojs_oracle(make_symmetric_config(n, 1.0), gamma)
    assert oracle == pytest.approx(symmetric_ojs(n, 1.0, gamma), rel=analytic._QUAD_EPSREL, abs=0.0)


@pytest.mark.parametrize("n", range(3, 21))
def test_ojs_closed_form_matches_reference(n):
    # validate's oracle bound: the subset sum answers up to 11 pairs, the trapezoid beyond
    for mer in (0.1, 1.0, 10.0):
        for gamma in (1e-3, 1.0, 1e3, 1e6):
            closed = intercept_sc_ojs(make_symmetric_config(n, mer), gamma)
            assert closed == pytest.approx(symmetric_ojs(n, mer, gamma), rel=1e-8, abs=0.0)


# --- trapezoidal OJS (_ojs_trapezoid) -----------------------------------------


def _trapezoid(config, i, gamma):
    """T_h for pair i, once the a-posteriori estimate |T_h - T_{h/2}| <= 1e-13 T_h holds.

    The estimate is an estimate, not a bound: T_{h/2} adds the midpoints to T_h's nodes.  Both
    are the pair values intercept_sc_ojs sums, before its min with intercept_sc_rjs.
    """
    [value] = analytic._ojs_trapezoid(analytic._gains(config), [i], gamma)
    half = analytic._ojs_trapezoid_step(config.n_pairs) / 2.0
    with mock.patch.object(analytic, "_ojs_trapezoid_step", lambda n_pairs: half):
        [refined] = analytic._ojs_trapezoid(analytic._gains(config), [i], gamma)
    assert refined == pytest.approx(value, rel=1e-13, abs=0.0)
    return value


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 14, 15, 21, 33, 64, 120, 200])
def test_ojs_trapezoid_matches_symmetric_reference(n):
    for mer in (0.1, 1.0, 10.0):
        for gamma in (1e-3, 1.0, 1e3, 1e6, 1e9):
            value = _trapezoid(make_symmetric_config(n, mer), 0, gamma)
            assert value == pytest.approx(
                symmetric_ojs(n, mer, gamma), rel=REFERENCE_EPSREL, abs=0.0
            )


def test_ojs_trapezoid_matches_mpmath_subset_sums():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    for _ in range(12):
        cfg = _distinct_config(rng, int(rng.integers(2, 9)), 3.0)
        gamma = 10.0 ** rng.uniform(-4.0, 12.0)
        for i in range(cfg.n_pairs):
            with mp.workdps(50):
                exact = float(_mp_bracket(mp, cfg, i, analytic._candidates(cfg, i), gamma))
            assert _trapezoid(cfg, i, gamma) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "config, gamma",
    [
        (_spread_config(32), 10.0),
        (_spread_config(64), 1e6),
        (make_symmetric_config(1024, 1.0), 10.0),
        (make_symmetric_config(16, 1.0), 1e-100),
        (make_symmetric_config(16, 1.0), 1e100),
    ],
    ids=["spread32", "spread64", "sym1024", "sym16-1e-100", "sym16-1e100"],
)
def test_ojs_trapezoid_matches_oracle(config, gamma):
    for i in (0, config.n_pairs - 1):
        assert _trapezoid(config, i, gamma) == pytest.approx(
            analytic._jammed_oracle(config, i, analytic._candidates(config, i), gamma),
            rel=analytic._QUAD_EPSREL, abs=0.0,
        )


@pytest.mark.parametrize(
    "config", [_spread_config(32), make_symmetric_config(1024, 1.0)], ids=["spread32", "sym1024"]
)
def test_ojs_matches_oracle_on_wide_systems(config):
    # spread40 in test_oracle_high_snr_and_wide_system_cases is a third
    assert intercept_sc_ojs(config, 10.0) == pytest.approx(
        intercept_sc_ojs_oracle(config, 10.0), rel=analytic._QUAD_EPSREL, abs=0.0
    )


@pytest.mark.parametrize("n", range(15, 21))
def test_ojs_subset_sum_and_trapezoid_agree_past_the_switch(n):
    # the closed-form benchmark's shape: all-distinct gains over one decade each way;
    # worst difference measured 1.6e-10 (N=20, gamma 1e6)
    cfg = _distinct_config(np.random.default_rng(n), n, 1.0)
    for gamma in (10.0, 1e6):
        for i in (0, n - 1):
            assert _subset_value(cfg, i, gamma) == pytest.approx(
                _trapezoid(cfg, i, gamma), rel=1e-8, abs=0.0
            )


def _alternating_config(n):
    """N pairs alternating between two gain pairs, equal duty cycles: two interleaved classes."""
    gains = [(2.0, 0.7), (0.5, 1.9)]
    return SystemConfig(tuple(PairParams(*gains[k % 2], 1.0 / n) for k in range(n)))


@pytest.mark.parametrize("n", range(9, 15))
def test_ojs_subset_sum_and_trapezoid_agree_on_repeated_gains(n):
    # the configs whose candidates repeat a gain, on both sides of the switch at 11 pairs
    for cfg in (make_symmetric_config(n, 0.1), make_symmetric_config(n, 10.0),
                _alternating_config(n)):
        for gamma in (10.0, 1e6):
            for i in (0, n - 1):
                assert _subset_value(cfg, i, gamma) == pytest.approx(
                    _trapezoid(cfg, i, gamma), rel=1e-8, abs=0.0
                )


def test_ojs_routes_by_pair_count(monkeypatch):
    seen = []

    def spy(name):
        evaluator = getattr(analytic, name)

        def record(*args):
            seen.append(name)
            return evaluator(*args)

        return record

    # one symmetric system: one subset sum per call, or one trapezoid lattice
    for name in ("_ojs_subset_values", "_ojs_trapezoid"):
        monkeypatch.setattr(analytic, name, spy(name))
    intercept_sc_ojs(make_symmetric_config(11, 1.0), 10.0)
    intercept_sc_ojs(make_symmetric_config(12, 1.0), 10.0)
    assert seen == ["_ojs_subset_values", "_ojs_trapezoid"]


@pytest.mark.parametrize("seed, n, gamma", [(4, 14, 1e8), (1, 12, 1e10)])
def test_ojs_matches_oracle_on_wide_gain_spreads_above_the_switch(seed, n, gamma):
    # gains 10^U(-3, 3): the subset sum was 1.28e-8 and 1.27e-8 off here, past validate's 1e-8
    cfg = _distinct_config(np.random.default_rng(seed), n, 3.0)
    assert intercept_sc_ojs(cfg, gamma) == pytest.approx(
        intercept_sc_ojs_oracle(cfg, gamma), rel=analytic._QUAD_EPSREL, abs=0.0
    )


def test_ojs_trapezoid_working_set_is_bounded():
    # trapezoid, all-distinct N=1024: 1024 classes at about 1700 nodes would be 13 MiB in one
    # array; the shared lattice holds one float per node, and a pair's arrays are node-sized.
    # Subset sum, all-distinct N=11, every pair a row: one unchunked block of 11 rows x 1023
    # subsets, 88 KiB per array (0.52 MiB peak measured)
    for cfg, evaluate, rows, bound in [
        (_spread_config(1024), analytic._ojs_trapezoid, [0], 4 * 2**20),
        (_spread_config(11), analytic._ojs_subset_values, list(range(11)), 2**20),
    ]:
        tracemalloc.start()
        try:
            values = evaluate(analytic._gains(cfg), rows, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for i, value in zip(rows, values, strict=True):
            pair = cfg.pairs[i]
            assert 0.0 < value < pair.sigma2_se / (pair.sigma2_sd + pair.sigma2_se)
        assert peak < bound, evaluate


def test_ojs_trapezoid_refuses_out_of_range_snr():
    # the jamming scale kappa = sd*gamma*se_j/(2*(sd + se)) overflows, then goes subnormal
    cfg = SystemConfig((PairParams(1e3, 1e3, 1.0 / 16),) * 16)
    for gamma in (1e306, 1e-309):
        with pytest.raises(ValueError, match="out of range for these channel gains"):
            intercept_sc_ojs(cfg, gamma)


def test_ojs_trapezoid_answers_past_a_pair_own_scale_and_rjs_range():
    # gamma 1e306: pair 0's own kappa 1e3*1e306*1e3/4e3 and its sd*gamma overflow, so rjs
    # refuses; but no pair jams itself, and no candidate's kappa overflows
    mp = pytest.importorskip("mpmath")
    cfg = SystemConfig((PairParams(1e3, 1e3, 1.0 / 3),) + (PairParams(1e-3, 1.0, 1.0 / 3),) * 2)
    for i in (0, 2):
        with mp.workdps(50):
            exact = float(_mp_bracket(mp, cfg, i, analytic._candidates(cfg, i), 1e306))
        assert _trapezoid(cfg, i, 1e306) == pytest.approx(exact, rel=1e-13, abs=0.0)
    wide = SystemConfig(
        (PairParams(1e3, 1e3, 1.0 / 12),) + (PairParams(1e-3, 1.0, 1.0 / 12),) * 11
    )
    with pytest.raises(ValueError, match="out of range for these channel gains"):
        intercept_sc_rjs(wide, 1e306)
    value = intercept_sc_ojs(wide, 1e306)
    assert 0.0 < value < intercept_noncoop(wide)
    # the oracle forms kappa_j as the trapezoid does, so no sd*gamma overflows on the way
    assert intercept_sc_ojs_oracle(wide, 1e306) == pytest.approx(value, rel=1e-8, abs=0.0)


def test_ojs_trapezoid_never_exceeds_rjs():
    # the true ojs_i <= rjs_i; the trapezoid alone came up to 3 ulp above rjs at gamma <= 1e-16
    for n in (12, 16, 40, 200):
        for mer in (0.1, 1.0, 10.0):
            cfg = make_symmetric_config(n, mer)
            for gamma in np.logspace(-300, 12, 157):
                assert intercept_sc_ojs(cfg, gamma) <= intercept_sc_rjs(cfg, gamma)


@pytest.mark.parametrize("n", [5, 9, 11, 16, 20])
def test_ojs_trapezoid_is_independent_of_pair_order(n):
    # sorted candidates, sorted classes and exact fsums: any reordering of the pairs gives the
    # same bits from rjs, from ojs on both sides of its switch at 11 pairs and, up to 9 pairs,
    # from both oracles (the ojs oracle's product in config order moved 6 of these at 9 pairs)
    rng = np.random.default_rng(n)
    drawn = 10.0 ** rng.uniform(-2.0, 2.0, size=(4, 2))  # four gain pairs, drawn with repeats
    repeats = SystemConfig(tuple(
        PairParams(float(drawn[k, 0]), float(drawn[k, 1]), 1.0 / n) for k in rng.integers(0, 4, n)
    ))
    evaluations = [intercept_sc_rjs, intercept_sc_ojs]
    if n <= 9:
        evaluations += [intercept_sc_rjs_oracle, intercept_sc_ojs_oracle]
    for cfg in (_distinct_config(rng, n, 2.0), _alternating_config(n), repeats):
        for gamma in (10.0, 1e6):
            shuffled = [SystemConfig(tuple(cfg.pairs[k] for k in rng.permutation(n)))
                        for _ in range(5)]
            for evaluate in evaluations:
                value = repr(evaluate(cfg, gamma))
                assert [repr(evaluate(other, gamma)) for other in shuffled] == [value] * 5, evaluate


# --- batched evaluators ------------------------------------------------------

# symmetric, repeated-class and all-distinct systems on both sides of the OJS switch at 11 pairs
_BATCH_CONFIGS = {
    "sym4": make_symmetric_config(4, 0.1),
    "sym13": make_symmetric_config(13, 10.0),
    "repeated6": REPEATED_CLASSES,
    "alternating12": _alternating_config(12),
    "distinct7": _distinct_config(np.random.default_rng(7), 7, 2.0),
    "distinct13": _distinct_config(np.random.default_rng(13), 13, 2.0),
}
_EVALUATORS = {
    "rjs": analytic._rjs_values,
    "subset": analytic._ojs_subset_values,
    "trapezoid": analytic._ojs_trapezoid,
}


@pytest.mark.parametrize("one_row_chunks", [False, True], ids=["chunked", "one-row-chunks"])
@pytest.mark.parametrize("evaluator", _EVALUATORS)
@pytest.mark.parametrize("cfg", _BATCH_CONFIGS.values(), ids=_BATCH_CONFIGS.keys())
def test_batched_values_equal_one_row_calls(monkeypatch, cfg, evaluator, one_row_chunks):
    # every pair as a row, repeats and reversed order included: each row's value has the bits
    # of the same evaluator asked for that row alone, whatever chunk it falls in
    if one_row_chunks:
        monkeypatch.setattr(analytic, "_CHUNK_BYTES", 1)
    rows = list(range(cfg.n_pairs)) + list(range(cfg.n_pairs))[::-1]
    for gamma in (0.5, 10.0, 1e6):
        pair_values = functools.partial(_EVALUATORS[evaluator], analytic._gains(cfg))
        batched = pair_values(rows, gamma)
        assert [repr(v) for v in batched] == [repr(pair_values([i], gamma)[0]) for i in rows]


@pytest.mark.parametrize("chunk_bytes, calls", [(None, 2), (1, 5)], ids=["default", "one-row"])
def test_intercepts_make_one_e1_call_per_chunk(monkeypatch, chunk_bytes, calls):
    # four distinct pairs: one rjs call, one e1_scaled call per chunk, and one subset-sum call,
    # one e1_scaled call for all its rows; the same bits however the rows are chunked
    expected = intercepts(REPEATED_CLASSES, SCHEMES, 25.0)
    if chunk_bytes is not None:
        monkeypatch.setattr(analytic, "_CHUNK_BYTES", chunk_bytes)
    sizes = []

    def spy(x):
        sizes.append(np.shape(x))
        return e1_scaled(x)

    monkeypatch.setattr(analytic, "e1_scaled", spy)
    assert intercepts(REPEATED_CLASSES, SCHEMES, 25.0) == expected
    assert len(sizes) == calls
    assert sum(math.prod(size) for size in sizes) == 4 * 5 + 4 * 31


def _pinned_lines():
    """repr of every intercepts answer, or its refusal, over configs and SNRs wider than the CLI's.

    Each point is asked for all schemes at once and for ojs alone, which answers where rjs
    refuses.  Symmetric, spread, repeated-class and all-distinct systems sit on both sides of
    the OJS switch at 11 pairs; SNRs run from subnormal to the edge of overflow.
    """
    configs = [make_symmetric_config(n, mer) for n in (1, 2, 3, 5, 8, 11, 12, 16, 40)
               for mer in (0.1, 1.0, 10.0)]
    configs += [_spread_config(n) for n in (2, 3, 5, 8, 11, 12, 16, 24, 40)]
    configs += [REPEATED_CLASSES] + [_alternating_config(n) for n in (9, 11, 12, 14, 40)]
    configs += [_distinct_config(np.random.default_rng(n), n, 3.0) for n in (4, 9, 11, 13, 20)]
    configs.append(SystemConfig(
        (PairParams(1e3, 1e3, 1.0 / 12),) + (PairParams(1e-3, 1.0, 1.0 / 12),) * 11
    ))
    gammas = (1e-310, 1e-300, 1e-200, 1e-100, 1e-20, 1e-3, 0.5, 10.0, 1e3, 1e6, 1e9, 1e12,
              1e20, 1e100, 1e200, 1e300, 1e306, 1.7e308)
    for cfg, gamma in itertools.product(configs, gammas):
        for schemes in (SCHEMES, ("ojs",)):
            try:
                answer = repr([tuple(v) for v in intercepts(cfg, schemes, gamma)])
            except ValueError as refusal:
                answer = f"refused: {refusal}"
            yield f"{cfg.pairs!r} {gamma!r} {schemes}: {answer}"


def test_intercepts_bits_are_pinned():
    # the digest was recorded before the closed forms were batched over pairs; a change to any
    # bit of any value, or to any refusal message, moves it
    lines = list(_pinned_lines())
    assert len(lines) == 2 * 18 * 48
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ef2590d86ea23eb0551c14a1e4aed4314be3e9452cd62d765441eb5aa8dc2364"
