from __future__ import annotations

import math

import numpy as np
import pytest

from secrecy_sim import analytic
from secrecy_sim.analytic import (
    OJS_EXACT_MAX_PAIRS,
    QuadratureError,
    SubsetIterator,
    intercept_noncoop,
    intercept_sc_ojs,
    intercept_sc_ojs_oracle,
    intercept_sc_rjs,
    intercept_sc_rjs_oracle,
    ojs_integral_oracle,
    phi_ojs,
    rjs_integral_oracle,
    scheme_intercept,
    varphi_rjs,
)
from secrecy_sim.model import PairParams, SystemConfig, make_symmetric_config
from secrecy_sim.special import e1_scaled

ASYMMETRIC = SystemConfig(
    pairs=(
        PairParams(sigma2_sd=2.0, sigma2_se=0.7, alpha=0.3),
        PairParams(sigma2_sd=0.5, sigma2_se=1.9, alpha=0.25),
        PairParams(sigma2_sd=1.1, sigma2_se=1.2, alpha=0.2),
    )
)


def _rjs_term(config, i, j, gamma):
    """Per-(i, j) RJS term from varphi_rjs and a scalar e1_scaled call."""
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    se_j = config.pairs[j].sigma2_se
    phi = varphi_rjs(config, i, j, gamma)
    return 2.0 * se_i * e1_scaled(phi) / (sd_i * se_j * gamma)


# --- non-cooperation ---------------------------------------------------------


def test_noncoop_symmetric_is_exactly_half():
    assert intercept_noncoop(make_symmetric_config(2, 1.0)) == 0.5


def test_noncoop_single_pair_value():
    cfg = SystemConfig(pairs=(PairParams(10.0, 1.0, 1.0),))
    assert intercept_noncoop(cfg) == pytest.approx(1.0 / 11.0, rel=1e-15)


def test_noncoop_independent_of_snr():
    cfg = make_symmetric_config(3, 2.0)
    values = {scheme_intercept(cfg, "nonc", g).value for g in (1.0, 1e3, 1e6)}
    assert len(values) == 1


def test_noncoop_rejects_invalid_config():
    bad = SystemConfig(pairs=(PairParams(0.0, 1.0, 0.5),))
    with pytest.raises(ValueError, match="nonpositive gain"):
        intercept_noncoop(bad)


# --- RJS argument and closed form -------------------------------------------


def test_varphi_symmetric_value():
    cfg = make_symmetric_config(2, 1.0)
    assert varphi_rjs(cfg, 0, 1, 10.0) == pytest.approx(0.4, rel=1e-15)


def test_varphi_scales_inversely_with_snr():
    phi1 = varphi_rjs(ASYMMETRIC, 0, 2, 3.0)
    phi2 = varphi_rjs(ASYMMETRIC, 0, 2, 30.0)
    assert phi2 == pytest.approx(phi1 / 10.0, rel=1e-14)


def test_varphi_substitution_example():
    cfg = SystemConfig(pairs=(PairParams(2.0, 1.0, 0.5), PairParams(3.0, 1.0, 0.5)))
    # 2/(se_j*gamma) + 2*se_i/(sd_i*se_j*gamma) = 2 + 1
    assert varphi_rjs(cfg, 0, 1, 1.0) == pytest.approx(3.0, rel=1e-15)


def test_varphi_rejects_self_jamming_and_bad_inputs():
    cfg = make_symmetric_config(3, 1.0)
    with pytest.raises(ValueError):
        varphi_rjs(cfg, 1, 1, 10.0)
    with pytest.raises(IndexError):
        varphi_rjs(cfg, 0, 5, 10.0)
    with pytest.raises(ValueError):
        varphi_rjs(cfg, 0, 1, 0.0)


def test_rjs_two_pair_reference_value():
    cfg = make_symmetric_config(2, 1.0)
    assert intercept_sc_rjs(cfg, 10.0) == pytest.approx(0.2095656016912013, rel=1e-12)
    assert intercept_sc_rjs(cfg, 10.0) == pytest.approx(
        0.2 * e1_scaled(0.4), rel=1e-14
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
        assert intercept_sc_rjs(ASYMMETRIC, gamma) == pytest.approx(reference, rel=1e-15)


def test_rjs_symmetric_constant_in_pair_count():
    reference = intercept_sc_rjs(make_symmetric_config(2, 1.0), 10.0)
    for n in range(3, 9):
        value = intercept_sc_rjs(make_symmetric_config(n, 1.0), 10.0)
        assert value == pytest.approx(reference, rel=1e-14)


def test_rjs_strictly_decreasing_in_snr():
    cfg = make_symmetric_config(4, 1.0)
    p = [intercept_sc_rjs(cfg, g) for g in (1e2, 1e4, 1e6)]
    assert p[0] > p[1] > p[2] > 0.0


def test_rjs_matches_integral_oracle():
    for gamma in (0.5, 10.0, 1e3, 1e6):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            closed = _rjs_term(ASYMMETRIC, i, j, gamma)
            assert rjs_integral_oracle(ASYMMETRIC, i, j, gamma) == pytest.approx(
                closed, rel=1e-8
            )


def test_rjs_oracle_high_snr_envelope():
    cfg = make_symmetric_config(2, 1.0)
    gamma = 1e6
    term = rjs_integral_oracle(cfg, 0, 1, gamma)
    phi = varphi_rjs(cfg, 0, 1, gamma)
    # c = 2*se_i/(sd_i*se_j) = 2; term*gamma in [c/2*ln(1+2/phi), c*ln(1+1/phi)]
    assert math.log1p(2.0 / phi) <= term * gamma <= 2.0 * math.log1p(1.0 / phi)


def test_rjs_term_ratio_approaches_log_limit():
    cfg = make_symmetric_config(2, 1.0)
    ratios = [
        rjs_integral_oracle(cfg, 0, 1, g) * g / math.log(g) for g in (1e2, 1e4, 1e6)
    ]
    assert ratios[0] < ratios[1] < ratios[2] < 2.0
    # closed form carries the trend to SNRs beyond the oracle's range
    far = [intercept_sc_rjs(cfg, g) * g / math.log(g) for g in (1e8, 1e12, 1e15)]
    assert ratios[2] < far[0] < far[1] < far[2] < 2.0


def test_rjs_term_vanishes_for_perfect_main_channel():
    strong = SystemConfig(pairs=(PairParams(1e9, 1.0, 0.5), PairParams(1.0, 1.0, 0.5)))
    assert rjs_integral_oracle(strong, 0, 1, 10.0) < 1e-8


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
        varphi_rjs(cfg, 0, 1, 10.0), rel=1e-15
    )


def test_phi_ojs_symmetric_triple():
    cfg = make_symmetric_config(4, 1.0)
    assert phi_ojs(cfg, 0, (1, 2, 3), 10.0) == pytest.approx(1.2, rel=1e-15)


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
        phi_ojs(base, 0, (1, 2), 5.0) / 2.0, rel=1e-14
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


def test_ojs_four_pair_reference_value():
    cfg = make_symmetric_config(4, 1.0)
    assert intercept_sc_ojs(cfg, 10.0) == pytest.approx(0.11476304684707683, rel=1e-12)


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
        assert analytic._ojs_pair_bracket(ASYMMETRIC, i, gamma) == pytest.approx(
            total, rel=1e-12
        )


def test_ojs_matches_integral_oracle():
    cfg = make_symmetric_config(4, 1.0)
    assert intercept_sc_ojs(cfg, 10.0) == pytest.approx(
        intercept_sc_ojs_oracle(cfg, 10.0), rel=1e-8
    )
    for gamma in (0.5, 50.0, 5e4):
        assert intercept_sc_ojs(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_ojs_oracle(ASYMMETRIC, gamma), rel=1e-8
        )


def test_ojs_alternating_sum_cancellation_stress():
    cfg = make_symmetric_config(8, 1.0)
    closed = intercept_sc_ojs(cfg, 1e6)
    reference = intercept_sc_ojs_oracle(cfg, 1e6)
    assert closed == pytest.approx(reference, rel=1e-8)


def test_ojs_oracle_weak_jamming_limit():
    # every product factor is 1 - exp(0) = 0 at z = 1, so the value stays
    # strictly below the full density mass se/(sd+se); with negligible
    # jamming power the deficit shrinks toward zero
    cfg = make_symmetric_config(4, 1.0)
    deficit = 0.5 - ojs_integral_oracle(cfg, 0, 1e-9)
    assert 0.0 < deficit < 1e-6
    assert 0.5 - ojs_integral_oracle(cfg, 0, 1e-3) > deficit


def test_ojs_refuses_oversized_exact_expansion():
    cfg = make_symmetric_config(OJS_EXACT_MAX_PAIRS + 1, 1.0)
    with pytest.raises(ValueError, match="ojs_integral_oracle"):
        intercept_sc_ojs(cfg, 10.0)


def test_scheme_ordering_across_grid():
    for n in (2, 3, 4, 6):
        for mer in (0.1, 1.0, 10.0):
            cfg = make_symmetric_config(n, mer)
            nonc = intercept_noncoop(cfg)
            for gamma in np.logspace(-1, 6, 15):
                rjs = intercept_sc_rjs(cfg, gamma)
                ojs = intercept_sc_ojs(cfg, gamma)
                tol = 1e-12 * nonc
                assert 0.0 <= ojs <= rjs + tol
                assert rjs <= nonc + tol
                assert nonc <= 1.0


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
        result = scheme_intercept(cfg, scheme, 10.0)
        assert result.value == nonc
        assert result.degraded is True
    assert scheme_intercept(cfg, "nonc", 10.0).degraded is False


def test_scheme_intercept_multi_pair_not_degraded():
    cfg = make_symmetric_config(3, 1.0)
    assert scheme_intercept(cfg, "rjs", 5.0).degraded is False


def test_scheme_intercept_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        scheme_intercept(make_symmetric_config(2, 1.0), "best", 1.0)


def test_oracles_reject_bad_pairs():
    cfg = make_symmetric_config(3, 1.0)
    with pytest.raises(ValueError):
        rjs_integral_oracle(cfg, 1, 1, 10.0)
    with pytest.raises(ValueError):
        ojs_integral_oracle(make_symmetric_config(1, 1.0), 0, 10.0)


def test_quadrature_nonconvergence_raises(monkeypatch):
    def fake_quad(*args, **kwargs):
        return 0.0, 1.0, {}, "subdivision limit reached"

    monkeypatch.setattr(analytic.integrate, "quad", fake_quad)
    with pytest.raises(QuadratureError, match="subdivision limit"):
        rjs_integral_oracle(make_symmetric_config(2, 1.0), 0, 1, 10.0)


def test_assembled_oracles_match_closed_forms():
    for gamma in (0.5, 50.0):
        assert intercept_sc_rjs_oracle(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_rjs(ASYMMETRIC, gamma), rel=1e-8
        )
        assert intercept_sc_ojs_oracle(ASYMMETRIC, gamma) == pytest.approx(
            intercept_sc_ojs(ASYMMETRIC, gamma), rel=1e-8
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
        assert value == pytest.approx(limit, rel=1e-4)
