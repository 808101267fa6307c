"""Closed-form intercept probabilities and their quadrature oracles.

Three schemes are covered.  Under non-cooperation the eavesdropper wins
whenever its squared channel gain beats the main channel's, so the intercept
probability is a duty-cycle-weighted sum of sigma2_se / (sigma2_sd +
sigma2_se) terms, independent of SNR.  Under source cooperation an idle
source jams the eavesdropper with half the power budget, and the intercept
event for active pair i with jammer j becomes

    g_je * gamma + 2  <  2 * g_se / g_sd

over the joint distribution of the squared gains.  Averaging this event over
Rayleigh fading past a jammer set with reciprocal gain sum R (1/sigma2_se_j
for jammer j alone) gives one term shape, computed by _jamming_terms:

    2 * sigma2_se_i * R * exp(phi) * E1(phi) / (sigma2_sd_i * gamma)

with phi = 2*(sigma2_sd_i + sigma2_se_i) * R / (sigma2_sd_i * gamma).
Random jammer selection averages the N-1 singleton terms.  Optimal selection
(strongest jammer-to-eavesdropper channel) expands the event into an
alternating sum over subsets with the RJS terms as singleton layer, one term
per count vector over the candidates' classes of equal gain, times its
multiplicity.  Both weight pair i's value by alpha_i, and refuse an
intermediate that over- or underflows (a subnormal lost precision).

Every closed form has an independent oracle here that integrates the
underlying probability directly by adaptive quadrature, never touching E1.
The oracles are all-positive integrals, so they are immune to the
cancellation the alternating subset sum has to manage at high SNR.  They
integrate over s = ln X, where X is the eavesdropper's excess over the main
channel scaled to a standard log-logistic law, so the integrand's knees sit
at s = 0 and s = ln kappa_j (kappa_j is proportional to gamma) and the integral keeps
its shape at any SNR.  The oracles accept every gamma at which each kappa_j
is positive and finite, and refuse the rest as an SNR range error.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

import numpy as np
from scipy import integrate

from .model import NONCOOP, SC_RJS, SystemConfig, require_scheme, require_snr, require_valid
from .special import e1_scaled

__all__ = [
    "OJS_EXACT_MAX_PAIRS",
    "QuadratureError",
    "InterceptValue",
    "intercept_noncoop",
    "intercept_sc_rjs",
    "intercept_sc_rjs_oracle",
    "intercept_sc_ojs",
    "intercept_sc_ojs_oracle",
    "scheme_intercept",
]

# Cancellation, not cost, bounds the pair count: about 7e-9 relative error at
# N=20, MER 10, gamma=1e6.  Larger systems need intercept_sc_ojs_oracle.
OJS_EXACT_MAX_PAIRS = 20

_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 300


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class InterceptValue(NamedTuple):
    """Intercept probability together with the degraded-mode marker.

    `degraded` is True when a source-cooperation scheme was requested for a
    single-pair system: no candidate jammer exists, so the value falls back
    to the non-cooperation probability.
    """

    value: float
    degraded: bool


def _snr_range_error(gamma: float, what: str) -> ValueError:
    return ValueError(
        f"SNR {gamma:g} is out of range for these channel gains: {what} over- or underflows"
    )


def _jamming_terms(pair, recip, gamma):
    """Jamming terms of pair (sd, se) past jammer sets of reciprocal gain sums recip.

    Elementwise (2*se/(sd*gamma)) * recip * e1_scaled(phi), phi = (2*sd + 2*se)/(sd*gamma) *
    recip; recip = 1/sigma2_se_j gives the per-(i, j) RJS term.  Refuses an over/underflow,
    or an E1 argument it left at 0 or inf, as an SNR range error.
    """
    sd, se = np.array([pair.sigma2_sd, pair.sigma2_se])  # numpy scalars obey errstate, floats not
    try:
        with np.errstate(over="raise", under="raise"):
            phi = (2.0 * sd + 2.0 * se) / (sd * gamma) * recip
            terms = e1_scaled(phi)  # phi's buffer is free from here on
            scale = np.multiply(2.0 * se / (sd * gamma), recip, out=phi)
            return np.multiply(terms, scale, out=terms)
    except (FloatingPointError, ValueError):
        raise _snr_range_error(gamma, "the closed form") from None


def _cooperative(config: SystemConfig, gamma: float, pair_value) -> float:
    """Validate, degrade one pair to non-cooperation, else fsum alpha_i * v_i over all pairs.

    Pairs of equal (sigma2_sd, sigma2_se) have equal v_i, so pair_value(config, i, gamma) runs
    once per distinct pair, i the last of its gains.  Weighting v_i, never its terms, keeps the
    scheme ordering under rounding: it is monotone, so b_i <= m_i gives alpha_i*b_i <= alpha_i*m_i.
    """
    require_valid(config)
    gamma = require_snr(gamma)
    if config.n_pairs == 1:
        return intercept_noncoop(config)
    rows = {(p.sigma2_sd, p.sigma2_se): i for i, p in enumerate(config.pairs)}
    shared = {key: pair_value(config, i, gamma) for key, i in rows.items()}
    return math.fsum(p.alpha * shared[p.sigma2_sd, p.sigma2_se] for p in config.pairs)


def _candidates(config: SystemConfig, i: int) -> list[int]:
    return [j for j in range(config.n_pairs) if j != i]


def intercept_noncoop(config: SystemConfig) -> float:
    """Intercept probability without cooperation; independent of SNR."""
    require_valid(config)
    return math.fsum(
        p.alpha * p.sigma2_se / (p.sigma2_sd + p.sigma2_se) for p in config.pairs
    )


def _rjs_pair_value(config: SystemConfig, i: int, gamma: float) -> float:
    recip = np.array([1.0 / config.pairs[j].sigma2_se for j in _candidates(config, i)])
    terms = _jamming_terms(config.pairs[i], recip, gamma)
    return math.fsum(memoryview(terms)) / (config.n_pairs - 1)


def intercept_sc_rjs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under random jammer selection.

    For a single pair there is no jammer to pick and the value degrades to
    the non-cooperation probability (see scheme_intercept for the flag).
    Pair i's value is the mean of its N-1 singleton jamming terms, one
    e1_scaled call per distinct pair.
    """
    return _cooperative(config, gamma, _rjs_pair_value)


def _ojs_pair_bracket(config: SystemConfig, i: int, gamma: float) -> float:
    """Alternating subset sum for active pair i under optimal selection.

    Candidates of equal 1/sigma2_se form classes, ordered by first appearance
    among all pairs, with counts c_l; count vector (k_1..k_d) gives one term
    for prod_l C(c_l, k_l) subsets of size sum k_l, added for odd sizes and
    subtracted for even: prod_l (c_l + 1) - 1 terms, N - 1 for equal gains,
    the 2^(N-1) - 1 subsets in binary-counter order for distinct ones.  fsum
    over the terms repeated by multiplicity is exactly rounded; at high SNR
    it cancels O(1/gamma) terms to an O(ln(gamma)/gamma) total.
    tests/ojs_subsets.py holds the explicit-subset slow path that checks it.
    """
    classes = Counter(1.0 / p.sigma2_se for p in config.pairs)
    classes[1.0 / config.pairs[i].sigma2_se] -= 1
    recip = np.zeros(math.prod(c + 1 for c in classes.values()))
    weight = np.full(recip.size, -1)  # signed multiplicities; entry 0 is the empty set
    block = 1
    for inv, count in classes.items():
        for k in range(1, count + 1):
            lo = k * block
            recip[lo : lo + block] = recip[lo - block : lo] + inv
            weight[lo : lo + block] = weight[:block] * ((-1) ** k * math.comb(count, k))
        block *= count + 1
    terms = _jamming_terms(config.pairs[i], recip[1:], gamma)
    np.copysign(terms, weight[1:], out=terms)  # exact: every term is positive
    # A memoryview yields plain floats: no numpy scalar per term, no list copy.
    return math.fsum(memoryview(np.repeat(terms, np.abs(weight[1:]))))


def intercept_sc_ojs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under optimal jammer selection.

    As in every source-cooperation evaluation, pairs of equal gains share one value, so a
    call sums (distinct pairs) x (prod_l (c_l + 1) - 1) terms.  Two pairs equal
    intercept_sc_rjs bit for bit; one pair degrades to non-cooperation.  Refuses more
    than OJS_EXACT_MAX_PAIRS pairs; use intercept_sc_ojs_oracle beyond that.
    """
    if config.n_pairs > OJS_EXACT_MAX_PAIRS:
        raise ValueError(
            f"exact subset sum limited to {OJS_EXACT_MAX_PAIRS} pairs; "
            "use intercept_sc_ojs_oracle for larger systems"
        )
    return _cooperative(config, gamma, _ojs_pair_bracket)


def _jammed_oracle(config: SystemConfig, i: int, jammers: Iterable[int], gamma: float) -> float:
    """Quadrature of pair i's intercept probability past every listed jammer.

    Given Z = g_se/g_sd > 1 (probability se/(sd + se)), the excess X = (Z -
    1)*sd/(sd + se) has P(X > x) = 1/(1 + x), so s = ln X is standard
    logistic.  Jammer j then fails to cover the event with probability 1 -
    exp(-exp(s - ln kappa_j)), kappa_j = sd*gamma*se_j/(2*(sd + se)), and the
    product over `jammers` is integrated against the logistic density.  One
    jammer gives the per-(i, j) RJS term, every candidate the OJS bracket.
    Every feature sits at a knee {0, ln kappa_j} whatever gamma is, so the
    knees are the breakpoints; the range stops 50 past the outer ones, where
    the logistic or jamming tails left out are of order e^-50 of the value.
    """
    sd = config.pairs[i].sigma2_sd
    se = config.pairs[i].sigma2_se
    kappas = [sd * gamma * config.pairs[j].sigma2_se / (2.0 * (sd + se)) for j in jammers]
    if not all(0.0 < k < math.inf for k in kappas):
        raise _snr_range_error(gamma, "the jamming scale")
    log_kappas = [math.log(k) for k in kappas]
    knees = sorted({0.0, *log_kappas})

    def integrand(s: float) -> float:
        # logistic density e/(1 + e)^2 with e = exp(-|s|): no overflow at any s
        e = math.exp(-abs(s))
        value = e / (1.0 + e) ** 2
        for log_kappa in log_kappas:
            t = s - log_kappa
            # beyond 700 the factor rounds to 1 and exp(t) nears overflow
            if t <= 700.0:
                value *= -math.expm1(-math.exp(t))
        return value

    result, abserr, info, *rest = integrate.quad(
        integrand,
        knees[0] - 50.0,
        knees[-1] + 50.0,
        epsabs=0.0,
        epsrel=_QUAD_EPSREL,
        limit=_QUAD_LIMIT,
        points=knees,
        full_output=1,
    )
    if rest:
        raise QuadratureError(f"quadrature did not converge: {rest[0]}")
    return se / (sd + se) * result


def intercept_sc_rjs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system RJS intercept probability assembled from quadrature."""
    return _cooperative(config, gamma, lambda cfg, i, g: math.fsum(
        _jammed_oracle(cfg, i, [j], g) for j in _candidates(cfg, i)
    ) / (cfg.n_pairs - 1))


def intercept_sc_ojs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system OJS intercept probability assembled from quadrature."""
    return _cooperative(
        config, gamma, lambda cfg, i, g: _jammed_oracle(cfg, i, _candidates(cfg, i), g)
    )


def scheme_intercept(config: SystemConfig, scheme: str, gamma: float) -> InterceptValue:
    """Evaluate one scheme's closed form, reporting degraded-mode fallback."""
    if require_scheme(scheme) == NONCOOP:
        return InterceptValue(intercept_noncoop(config), degraded=False)
    evaluate = intercept_sc_rjs if scheme == SC_RJS else intercept_sc_ojs
    return InterceptValue(evaluate(config, gamma), degraded=config.n_pairs == 1)
