"""Closed-form intercept probabilities and their quadrature oracles.

Three schemes are covered.  Under non-cooperation the eavesdropper wins
whenever its squared channel gain beats the main channel's, so the intercept
probability is a duty-cycle-weighted sum of sigma2_se / (sigma2_sd +
sigma2_se) terms, independent of SNR.  Under source cooperation an idle
source jams the eavesdropper with half the power budget, and the intercept
event for active pair i with jammer j becomes

    g_je * gamma + 2  <  2 * g_se / g_sd

over the joint distribution of the squared gains.  Averaging this event over
Rayleigh fading yields, per (i, j) pair,

    2 * sigma2_se_i * exp(phi) * E1(phi) / (sigma2_sd_i * sigma2_se_j * gamma)

with phi = 2*(sigma2_sd_i + sigma2_se_i) / (sigma2_sd_i * sigma2_se_j *
gamma).  Random jammer selection averages these terms uniformly over the
candidates; optimal selection (strongest jammer-to-eavesdropper channel)
turns the event into a product over all candidates, whose expansion is an
alternating sum over non-empty candidate subsets of the same term shape.

Every closed form has an independent oracle here that integrates the
underlying probability directly by adaptive quadrature, never touching E1.
The oracles are all-positive integrals, so they are immune to the
cancellation the alternating subset sum has to manage at high SNR.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .model import NONCOOP, SC_OJS, SC_RJS, SystemConfig, require_valid
from .special import e1_scaled

__all__ = [
    "OJS_EXACT_MAX_PAIRS",
    "QuadratureError",
    "InterceptValue",
    "SubsetIterator",
    "intercept_noncoop",
    "varphi_rjs",
    "intercept_sc_rjs",
    "rjs_integral_oracle",
    "intercept_sc_rjs_oracle",
    "phi_ojs",
    "intercept_sc_ojs",
    "ojs_integral_oracle",
    "intercept_sc_ojs_oracle",
    "scheme_intercept",
]

# Above this pair count the exact alternating sum (2^(N-1) - 1 subsets per
# pair) is refused; callers must fall back to ojs_integral_oracle.
OJS_EXACT_MAX_PAIRS = 20

_QUAD_EPSABS = 1e-12
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


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not 0.0 < g < math.inf:
        raise ValueError(f"SNR must be positive and finite, got {gamma}")
    return g


@contextmanager
def _snr_in_range(gamma: float):
    """Report an overflow, or an E1 argument it left at 0 or inf, as an SNR range error."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, ValueError):
        raise ValueError(
            f"SNR {gamma:g} is out of range for these channel gains: "
            "the closed form over- or underflows"
        ) from None


def _check_pair_index(config: SystemConfig, i: int) -> None:
    if not 0 <= i < config.n_pairs:
        raise IndexError(f"pair index {i} out of range for {config.n_pairs} pairs")


def intercept_noncoop(config: SystemConfig) -> float:
    """Intercept probability without cooperation; independent of SNR."""
    require_valid(config)
    return math.fsum(
        p.alpha * p.sigma2_se / (p.sigma2_sd + p.sigma2_se) for p in config.pairs
    )


def varphi_rjs(config: SystemConfig, i: int, j: int, gamma: float) -> float:
    """Exponential-integral argument for active pair i jammed by source j.

    Equals 2/(sigma2_se_j * gamma) + 2*sigma2_se_i/(sigma2_sd_i *
    sigma2_se_j * gamma); scales as 1/gamma.
    """
    gamma = _check_gamma(gamma)
    _check_pair_index(config, i)
    _check_pair_index(config, j)
    if i == j:
        raise ValueError("active pair cannot jam itself")
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    se_j = config.pairs[j].sigma2_se
    return 2.0 / (se_j * gamma) + 2.0 * se_i / (sd_i * se_j * gamma)


def intercept_sc_rjs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under random jammer selection.

    For a single pair there is no jammer to pick and the value degrades to
    the non-cooperation probability (see scheme_intercept for the flag).
    All N(N-1) (i, j) terms share one vectorized e1_scaled call; each term
    repeats varphi_rjs's arithmetic operation for operation.
    """
    require_valid(config)
    gamma = _check_gamma(gamma)
    n = config.n_pairs
    if n == 1:
        return intercept_noncoop(config)
    sd = np.array([p.sigma2_sd for p in config.pairs])
    se = np.array([p.sigma2_se for p in config.pairs])
    alpha = np.array([p.alpha for p in config.pairs])
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    sd_i, se_i, se_j = sd[i], se[i], se[j]
    with _snr_in_range(gamma):
        phi = 2.0 / (se_j * gamma) + 2.0 * se_i / (sd_i * se_j * gamma)
        terms = 2.0 * se_i * e1_scaled(phi) / (sd_i * se_j * gamma)
    return math.fsum(alpha[i] / (n - 1) * terms)


class SubsetIterator:
    """Non-empty subsets of candidate jammer indices, in binary-counter order.

    Subset k (k = 1 .. 2^M - 1 over M candidates) contains candidate b iff
    bit b of k is set, so the order is deterministic and exhaustive.
    """

    def __init__(self, candidates: Sequence[int]):
        self.candidates = tuple(candidates)

    def __len__(self) -> int:
        return (1 << len(self.candidates)) - 1

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        m = len(self.candidates)
        for mask in range(1, 1 << m):
            yield tuple(self.candidates[b] for b in range(m) if (mask >> b) & 1)


def phi_ojs(config: SystemConfig, i: int, subset: Iterable[int], gamma: float) -> float:
    """Exponential-integral argument for a subset of candidate jammers.

    Equals 2*(sigma2_sd_i + sigma2_se_i)/(sigma2_sd_i * gamma) times the sum
    of reciprocal jammer-to-eavesdropper gains over the subset; for a
    singleton subset it coincides with varphi_rjs.
    """
    gamma = _check_gamma(gamma)
    _check_pair_index(config, i)
    members = tuple(subset)
    if not members:
        raise ValueError("jammer subset must be non-empty")
    if len(set(members)) != len(members):
        raise ValueError("jammer subset contains duplicate indices")
    for j in members:
        _check_pair_index(config, j)
        if j == i:
            raise ValueError("jammer subset must exclude the active pair")
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    recip = math.fsum(1.0 / config.pairs[j].sigma2_se for j in members)
    return (2.0 * sd_i + 2.0 * se_i) / (sd_i * gamma) * recip


def _ojs_pair_bracket(config: SystemConfig, i: int, gamma: float) -> float:
    """Alternating subset sum for active pair i under optimal selection.

    Subset k (binary-counter order, as in SubsetIterator) has reciprocal
    gain sum recip[k] and sign +1 for odd size, -1 for even.  The total is
    exactly rounded (fsum), so order-independent: at high SNR the individual
    terms are O(1/gamma) while the total is O(ln(gamma)/gamma), so
    cancellation is real.
    """
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    inv_se = np.array(
        [1.0 / p.sigma2_se for j, p in enumerate(config.pairs) if j != i]
    )
    size = 1 << inv_se.size
    recip = np.zeros(size)
    sign = np.empty(size)
    sign[0] = -1.0
    for b, inv in enumerate(inv_se):
        half = 1 << b
        recip[half : 2 * half] = recip[:half] + inv
        sign[half : 2 * half] = -sign[:half]
    recip = recip[1:]
    with _snr_in_range(gamma):
        phi = (2.0 * sd_i + 2.0 * se_i) / (sd_i * gamma) * recip
        terms = sign[1:] * (2.0 * se_i / (sd_i * gamma)) * recip * e1_scaled(phi)
    # A memoryview yields plain floats: no numpy scalar per term, no list copy.
    return math.fsum(memoryview(terms))


def intercept_sc_ojs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under optimal jammer selection.

    With two pairs the single candidate makes optimal and random selection
    the same scheme, so that case delegates to intercept_sc_rjs; a single
    pair degrades to non-cooperation.  Refuses more than
    OJS_EXACT_MAX_PAIRS pairs (exponential subset count); use
    ojs_integral_oracle beyond that.
    """
    require_valid(config)
    gamma = _check_gamma(gamma)
    n = config.n_pairs
    if n == 1:
        return intercept_noncoop(config)
    if n == 2:
        return intercept_sc_rjs(config, gamma)
    if n > OJS_EXACT_MAX_PAIRS:
        raise ValueError(
            f"exact subset sum limited to {OJS_EXACT_MAX_PAIRS} pairs; "
            "use ojs_integral_oracle for larger systems"
        )
    return math.fsum(
        config.pairs[i].alpha * _ojs_pair_bracket(config, i, gamma) for i in range(n)
    )


def _quad_unit_interval(integrand, gamma: float, scales_z: Iterable[float]) -> float:
    """Integrate over z in [1, inf) via z = 1 + u/(1-u), u in [0, 1).

    `integrand` receives (u, w) with w = 1 - u and must already include the
    dz/du = 1/w^2 Jacobian in stable form.  The integrand is scaled by gamma
    before integration so that the requested absolute tolerance keeps pace
    with the 1/gamma decay of the cooperative-scheme probabilities.

    `scales_z` lists the z values where the integrand changes character
    (jamming-exponential knees, density roll-off).  They are mapped to
    u-breakpoints, since the substitution squeezes large-z features into a
    thin layer at u = 1 that blind subdivision can fail to resolve.
    """
    points = set()
    for z in scales_z:
        # Geometric blanket: products of several knee factors build up over
        # multiple decades below the knee, so a single breakpoint per scale
        # leaves subintervals whose error estimate can be fooled.
        for factor in (1e-4, 1e-3, 1e-2, 1e-1, 0.3, 1.0, 3.0, 10.0, 100.0):
            zf = 1.0 + factor * (z - 1.0)
            u = (zf - 1.0) / zf
            if 1e-14 < u < 1.0 - 1e-14:
                points.add(u)
    result, abserr, info, *rest = integrate.quad(
        lambda u: gamma * integrand(u, 1.0 - u),
        0.0,
        1.0,
        epsabs=_QUAD_EPSABS,
        epsrel=_QUAD_EPSREL,
        limit=_QUAD_LIMIT,
        points=sorted(points) or None,
        full_output=1,
    )
    if rest:
        raise QuadratureError(f"quadrature did not converge: {rest[0]}")
    return result / gamma


def rjs_integral_oracle(config: SystemConfig, i: int, j: int, gamma: float) -> float:
    """Direct quadrature of the per-(i, j) intercept probability term.

    Integrates [1 - exp(-(2z-2)/(sigma2_se_j*gamma))] against the density of
    Z = g_se/g_sd over z in [1, inf); independent of the E1-based closed
    form it validates.
    """
    require_valid(config)
    gamma = _check_gamma(gamma)
    _check_pair_index(config, i)
    _check_pair_index(config, j)
    if i == j:
        raise ValueError("active pair cannot jam itself")
    sd = config.pairs[i].sigma2_sd
    se = config.pairs[i].sigma2_se
    se_j = config.pairs[j].sigma2_se

    def integrand(u: float, w: float) -> float:
        # p_Z(z) * dz/du = sd*se / (sd + se*w)^2 with w = 1/z.
        density = sd * se / (sd + se * w) ** 2
        if w == 0.0:
            return density
        return density * -math.expm1(-2.0 * u / (w * se_j * gamma))

    scales = [1.0 + se_j * gamma / 2.0, 1.0 + se / sd]
    return _quad_unit_interval(integrand, gamma, scales)


def ojs_integral_oracle(config: SystemConfig, i: int, gamma: float) -> float:
    """Direct quadrature of the optimal-selection bracket for pair i.

    The integrand is the all-positive product over every candidate jammer,
    so this reference value is immune to the alternating-sum cancellation of
    the closed form.
    """
    require_valid(config)
    gamma = _check_gamma(gamma)
    _check_pair_index(config, i)
    if config.n_pairs < 2:
        raise ValueError("optimal selection needs at least one candidate jammer")
    sd = config.pairs[i].sigma2_sd
    se = config.pairs[i].sigma2_se
    se_others = [p.sigma2_se for j, p in enumerate(config.pairs) if j != i]

    def integrand(u: float, w: float) -> float:
        density = sd * se / (sd + se * w) ** 2
        if w == 0.0:
            return density
        product = 1.0
        for se_j in se_others:
            product *= -math.expm1(-2.0 * u / (w * se_j * gamma))
        return density * product

    scales = [1.0 + se_j * gamma / 2.0 for se_j in se_others]
    scales.append(1.0 + se / sd)
    return _quad_unit_interval(integrand, gamma, scales)


def intercept_sc_rjs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system RJS intercept probability assembled from quadrature."""
    require_valid(config)
    gamma = _check_gamma(gamma)
    n = config.n_pairs
    if n == 1:
        return intercept_noncoop(config)
    return math.fsum(
        config.pairs[i].alpha / (n - 1) * rjs_integral_oracle(config, i, j, gamma)
        for i in range(n)
        for j in range(n)
        if j != i
    )


def intercept_sc_ojs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system OJS intercept probability assembled from quadrature."""
    require_valid(config)
    gamma = _check_gamma(gamma)
    if config.n_pairs == 1:
        return intercept_noncoop(config)
    return math.fsum(
        config.pairs[i].alpha * ojs_integral_oracle(config, i, gamma)
        for i in range(config.n_pairs)
    )


def scheme_intercept(config: SystemConfig, scheme: str, gamma: float) -> InterceptValue:
    """Evaluate one scheme's closed form, reporting degraded-mode fallback."""
    if scheme == NONCOOP:
        return InterceptValue(intercept_noncoop(config), degraded=False)
    degraded = config.n_pairs == 1
    if scheme == SC_RJS:
        return InterceptValue(intercept_sc_rjs(config, gamma), degraded)
    if scheme == SC_OJS:
        return InterceptValue(intercept_sc_ojs(config, gamma), degraded)
    raise ValueError(f"unknown scheme {scheme!r}")
