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
per non-empty subset of the candidates.  Both weight pair i's value by
alpha_i, and refuse an intermediate that over- or underflows (a subnormal
lost precision).  The true values obey ojs <= rjs <= nonc, and intercepts,
which answers every scheme at one point, keeps that order wherever they answer.

The subset sum costs 2^(N-1) - 1 terms per distinct pair and cancels harder as
N and gamma grow, so intercept_sc_ojs uses it only up to 11 pairs.  Beyond,
each pair's value is the trapezoidal rule on the oracle's all-positive
integral below, at step h(N) = min(0.2, 0.45/ln(N-1)) (derived in
_ojs_trapezoid).  With kappa_j = e^(b_i) * sigma2_se_j, every pair's jamming
product is one function of t = s - b_i less its own factor, so one lattice serves
every pair: O(nodes x classes) once per call plus O(nodes) per distinct pair,
with no cancellation.  Each closed form takes its distinct pairs as the rows of
one call and evaluates them together, one e1_scaled call or one block of
trapezoid rows per chunk of rows, each chunk's arrays at most 64 KiB
(_CHUNK_BYTES); the fixed cost of a numpy call is paid per chunk, not per pair,
and no array grows as N^2.  It was within 9e-16 of a cancellation-free reference
for symmetric N up to 200 and within 1.1e-14 of the oracle on symmetric N up to
1024 and spread N up to 32; its a-posteriori estimate |T_h - T_{h/2}| stayed
under 4e-16 relative for gamma 1e-3..1e9 and under 3.2e-15 out to 1e300.

Every closed form has an independent oracle here that integrates the
underlying probability directly by adaptive quadrature, never touching E1.
The oracles are all-positive integrals, so they are immune to the
cancellation the alternating subset sum has to manage at high SNR.  They
integrate over s = ln X, where X is the eavesdropper's excess over the main
channel scaled to a standard log-logistic law, so the integrand's knees sit
at s = 0 and s = ln kappa_j (kappa_j is proportional to gamma) and the integral keeps
its shape at any SNR.  The oracles accept every gamma at which each kappa_j
is positive and finite, and refuse the rest as an SNR range error.

The closed forms, on both OJS paths, and the oracles give the same bits for any
order of the pairs: the subset sum and the OJS oracle order a pair's candidates
by gain, the trapezoid its classes of equal gain, and every sum over pairs or
terms is an exactly rounded fsum.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .model import NONCOOP, SC_OJS, SC_RJS, SystemConfig, require_scheme, require_snr
from .special import e1_scaled

__all__ = [
    "QuadratureError",
    "InterceptValue",
    "intercept_noncoop",
    "intercept_sc_rjs",
    "intercept_sc_rjs_oracle",
    "intercept_sc_ojs",
    "intercept_sc_ojs_oracle",
    "intercepts",
]

# intercept_sc_ojs answers up to this many pairs by the subset sum, beyond by the trapezoid.
_OJS_SUBSET_MAX_PAIRS = 11
# The closed forms take their distinct pairs in chunks of rows whose float arrays hold at most
# this many bytes each, at least one row, so no array grows as N^2.  Every row is computed
# alone, so the chunking changes memory and speed, never a bit.
_CHUNK_BYTES = 64 << 10
_LN2 = math.log(2.0)

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


def _jamming_terms(sd, se, recip, gamma):
    """Jamming terms of pairs (sd, se), one per row, past jammer sets of reciprocal gain sums recip.

    sd and se are (rows, 1) columns and recip a (rows, sets) block.  Elementwise
    (2*se/(sd*gamma)) * recip * e1_scaled(phi), phi = (2*sd + 2*se)/(sd*gamma) * recip; recip =
    1/sigma2_se_j gives the per-(i, j) RJS term.  Refuses an over/underflow, or an E1 argument it
    left at 0 or inf, as an SNR range error.
    """
    if len(sd) == 1:  # numpy scalars, which obey errstate too, cost a fifth of a column's ops
        sd, se = sd[0, 0], se[0, 0]
    try:
        with np.errstate(over="raise", under="raise"):
            se2, sd_gamma = 2.0 * se, sd * gamma
            phi = (2.0 * sd + se2) / sd_gamma * recip
            terms = e1_scaled(phi)  # phi's buffer is free from here on
            scale = np.multiply(se2 / sd_gamma, recip, out=phi)
            return np.multiply(terms, scale, out=terms)
    except (FloatingPointError, ValueError):
        raise _snr_range_error(gamma, "the closed form") from None


def _chunks(rows, columns: int):
    """rows as (rows, 1) index columns, in slices of at most _CHUNK_BYTES of float columns."""
    rows = np.asarray(rows)[:, None]
    step = max(1, _CHUNK_BYTES // (8 * columns))
    if len(rows) <= step:
        return (rows,)
    return (rows[start : start + step] for start in range(0, len(rows), step))


def _gains(config: SystemConfig):
    """Every pair's sigma2_sd, sigma2_se and 1/sigma2_se, as three arrays in config order.

    The closed forms take these, made once per intercepts call, in place of the config.
    """
    sd, se = np.array([(p.sigma2_sd, p.sigma2_se) for p in config.pairs]).T
    return sd, se, 1.0 / se


def _cooperative(config: SystemConfig, gamma: float, pair_values) -> float:
    """Check gamma, degrade one pair to non-cooperation, else fsum alpha_i * v_i over all pairs.

    Pairs of equal (sigma2_sd, sigma2_se) have equal v_i, so one call pair_values(rows, gamma)
    gets one value per distinct pair, each row i the last pair of its gains, in order of first
    appearance.  Every pair_values here gives the same bits for any order of pair i's
    candidates, so which pair of those gains is i does not matter.
    """
    gamma = require_snr(gamma)
    if config.n_pairs == 1:
        return intercept_noncoop(config)
    rows = {(p.sigma2_sd, p.sigma2_se): i for i, p in enumerate(config.pairs)}
    shared = dict(zip(rows, pair_values(list(rows.values()), gamma)))
    return math.fsum(p.alpha * shared[p.sigma2_sd, p.sigma2_se] for p in config.pairs)


def _candidates(config: SystemConfig, i: int) -> list[int]:
    return [j for j in range(config.n_pairs) if j != i]


def intercept_noncoop(config: SystemConfig) -> float:
    """Intercept probability without cooperation; independent of SNR."""
    return math.fsum(
        p.alpha * p.sigma2_se / (p.sigma2_sd + p.sigma2_se) for p in config.pairs
    )


def _rjs_values(gains, rows, gamma: float) -> list[float]:
    """Each row i's mean of its N-1 singleton jamming terms, its candidates in config order."""
    sd, se, inv = gains
    m = len(inv) - 1
    cols = np.arange(m)
    values = []
    for chunk in _chunks(rows, m):
        recip = inv[cols + (cols >= chunk)]  # row i skips column i
        terms = _jamming_terms(sd[chunk], se[chunk], recip, gamma)
        values += [math.fsum(memoryview(row)) / m for row in terms]
    return values


def intercept_sc_rjs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under random jammer selection.

    For a single pair there is no jammer to pick and the value degrades to the non-cooperation
    probability.  Pair i's value is the mean of its N-1 singleton jamming terms; every distinct
    pair is a row of one (rows x N-1) block, one e1_scaled call per chunk of rows.  The result
    is at most intercept_noncoop (see intercepts).
    """
    return intercepts(config, (SC_RJS,), gamma)[0].value


def _ojs_subset_values(gains, rows, gamma: float) -> list[float]:
    """Each row i's alternating subset sum under optimal selection.

    Row i's candidates are every pair's 1/sigma2_se in ascending order, less one equal to pair
    i's, so the reciprocal sums, and with them the bits, depend on the gains but not on the
    order of the pairs.  Their 2^(N-1) - 1 non-empty subsets run in binary-counter order,
    candidate l as bit l, each one term added for odd sizes and subtracted for even.  fsum
    over a row's terms is exactly rounded; at high SNR it cancels O(1/gamma) terms to an
    O(ln(gamma)/gamma) total.  tests/ojs_subsets.py holds the explicit-subset slow path that
    checks it.
    """
    sd, se, inv = gains
    m = len(inv) - 1
    jammers = np.sort(inv)
    odd = np.bitwise_count(np.arange(1, 1 << m)) & 1  # each non-empty subset's size parity
    sign = np.where(odd, 1.0, -1.0)
    cols = np.arange(m)
    values = []
    for chunk in _chunks(rows, 1 << m):
        own = np.searchsorted(jammers, inv[chunk])  # the first equal to row i's
        candidates = jammers[(cols + (cols >= own)).T[..., None]]  # bit l's as a (rows, 1) column
        recip = np.zeros((len(chunk), 1 << m))  # column 0 is the empty set
        for bit, candidate in enumerate(candidates):
            np.add(recip[:, : 1 << bit], candidate, out=recip[:, 1 << bit : 2 << bit])
        terms = _jamming_terms(sd[chunk], se[chunk], recip[:, 1:], gamma)
        np.copysign(terms, sign, out=terms)  # exact: every term is positive
        # A memoryview yields plain floats: no numpy scalar per term, no list copy.
        values += [math.fsum(memoryview(row)) for row in terms]
    return values


def _log_jamming_factors(t):
    """log(1 - exp(-e^t)) elementwise, to a few ulp at every finite t.

    Split at e^t = ln 2 as in Maechler ("Accurately computing log(1 - exp(-|a|))", 2012):
    log1p(-exp(-x)) above, t + log(-expm1(-x)/x) below, x = e^t.  t is clipped to [-40, 6.5]
    first, so neither exp leaves the normal range (an underflowing exp is also about 15x
    slower): below -40 the ratio rounds to 1 and the value is t exactly, above 6.5 it is
    -exp(-e^6.5), under 1e-288 in size like the true value.
    """
    x = np.exp(np.clip(t, -40.0, 6.5))
    out = np.empty_like(x)
    low = x <= _LN2
    x_low = x[low]
    out[low] = t[low] + np.log(-np.expm1(-x_low) / x_low)
    high = ~low
    out[high] = np.log1p(-np.exp(-x[high]))
    return out


def _ojs_trapezoid_step(n_pairs: int) -> float:
    """The step h(N) = min(0.2, 0.45 / ln(N - 1)) of _ojs_trapezoid."""
    return 0.45 / max(math.log(n_pairs - 1), 2.25)


def _ojs_trapezoid(gains, gamma: float):
    """Every pair's OJS value by the trapezoidal rule on one lattice, as a pair_values.

    Pair i's value is se/(sd + se) * integral of sigma'(s) * prod_j (1 - exp(-e^(s - ln kappa_j)))
    over the real line: sigma' is the logistic density, and candidate j jams at scale kappa_j =
    e^(b_i) * sigma2_se_j, b_i = ln(sd*gamma/(2*(sd + se))) (see _jammed_oracle, which
    integrates the same law).  In t = s - b_i every pair's product is one function G(t) less
    pair i's own factor, log G(t) = sum_l c_l * log(1 - exp(-e^(t - ln g_l))) over the classes
    of equal sigma2_se, gain g_l and c_l pairs each, in sorted order.  So log G is summed once
    per call, one class at a time into one float per node, on the integer multiples of h that
    cover every pair's knees (t = -b_i and ln g_l) +-50; T_{h/2} has every node of T_h.  The
    returned pair_values(rows, gamma) takes its rows as (rows x nodes) blocks: for each
    row i it subtracts pair i's own factor, adds log sigma'(t + b_i), and scales the nodes to
    the row's largest before the row's fsum, so no node that matters over- or underflows.  A
    candidate's kappa_j, or a step toward it, that over- or underflows (subnormal included), or
    a value that is not a normal float, is an SNR range error; kappa_j grows with sigma2_se_j,
    so each pair's smallest and largest candidate gain decide.  The cost is
    O(nodes x classes) once plus O(nodes) per distinct pair, and memory O(nodes) plus one chunk
    of rows (_CHUNK_BYTES per array).

    Step rule.  The strip bound below does not depend on where the lattice sits, so a lattice in
    t, shifted by b_i in s, obeys it as one in s would.  f is analytic in the strip |Im s| < pi/2:
    sigma' has its poles at +-i*pi, and each factor stays within 2 in modulus while cos(Im s) >
    0.  For a < pi/2 and M the largest integral of |f| along a line in the strip, |T_h - I| <=
    2M/(e^(2*pi*a/h) - 1) (Trefethen and Weideman, "The exponentially convergent trapezoidal
    rule", SIAM Review 56, 2014, Thm 5.1).  The bound on the factors only gives M <=
    2^(N-1)*pi/2 against an integral that may be O(1/gamma), which asks for h near
    pi^2/((N-1)*ln 2 + ln(gamma/eps)), about 0.013 at N=1024: too pessimistic to use.  What
    sets the step is how fast f turns on.  The product of m = N - 1 equal factors switches from
    0 to 1 like a Gumbel law in e^(s - ln kappa) - ln m, so its width in s, and the strip
    half-width a over which M stays moderate, shrink about as 1/ln m; h must shrink with them.
    h(N) = min(0.2, 0.45/ln(N - 1)) keeps 2*pi*a/h near ln(1/eps), with constants measured on
    symmetric systems, where one class holds every candidate and the switch is sharpest.
    Against T at half the step, on symmetric MER 0.1..10 and gamma 1e-3..1e9, h = 0.2 was
    2.3e-10 off at N=64 and h = 0.1 2.0e-10 off at N=1024, while the rule's 0.109 and 0.065
    were within 3.4e-16.  On symmetric N=2..1024, MER 0.1..10, the a-posteriori estimate
    |T_h - T_{h/2}| stayed under 4e-16 * T_h for gamma 1e-3..1e9, 2e-15 at 1e+-100 and 3.2e-15
    at 1e300, where rounding b_i alone moves the value that much.
    """
    sd, se, _ = gains
    classes, own, counts = np.unique(se, return_inverse=True, return_counts=True)
    outer = np.sort(se)  # each pair's candidates: every gain but one instance of its own
    try:
        with np.errstate(over="raise", under="raise"):
            scale = sd / (2.0 * (sd + se)) * gamma
            scale * np.where(se == outer[0], outer[1], outer[0])
            scale * np.where(se == outer[-1], outer[-2], outer[-1])
    except FloatingPointError:
        raise _snr_range_error(gamma, "the jamming scale") from None
    shift = np.log(scale)
    log_gains = np.log(classes)
    h = _ojs_trapezoid_step(len(se))
    lo, hi = min(-shift.max(), log_gains[0]) - 50.0, max(-shift.min(), log_gains[-1]) + 50.0
    t = np.arange(math.floor(lo / h), math.ceil(hi / h) + 1) * h
    log_g = sum(c * _log_jamming_factors(t - log_gain) for log_gain, c in zip(log_gains, counts))

    def pair_values(rows, gamma):
        values = []
        for chunk in _chunks(rows, t.size):
            width = np.abs(t + shift[chunk])
            # log f(s) = -|s| + rest(s); rest: the jamming factors and the logistic's O(1) part
            rest = (log_g - _log_jamming_factors(t - log_gains[own[chunk]])
                    - 2.0 * np.log1p(np.exp(-width)))
            # scaled to the peak node; |s_peak| - |s| is exact near the peak (Sterbenz)
            at = np.arange(len(chunk))[:, None], np.argmax(rest - width, axis=1)[:, None]
            width_peak, rest_peak = width[at], rest[at]
            scaled = (width_peak - width) + (rest - rest_peak)
            # nodes under e^-60 of the peak add under 1e-22 in all, but one fsum partial each
            kept = scaled > -60.0
            nodes = np.exp(scaled)
            peaks = zip(width_peak[:, 0].tolist(), rest_peak[:, 0].tolist())
            for i, row, keep, (w, r) in zip(chunk[:, 0], nodes, kept, peaks):
                total = math.fsum(memoryview(row[keep]))
                value = se[i] / (sd[i] + se[i]) * h * total * math.exp(-w) * math.exp(r)
                if not value >= sys.float_info.min:
                    raise _snr_range_error(gamma, "the trapezoidal sum")
                values.append(value)
        return values

    return pair_values


def intercept_sc_ojs(config: SystemConfig, gamma: float) -> float:
    """Intercept probability under optimal jammer selection.

    Up to 11 pairs (_OJS_SUBSET_MAX_PAIRS) each distinct pair's value is the subset sum,
    _ojs_subset_values: (distinct pairs) x (2^(N-1) - 1) E1 terms per call.  Beyond, it comes
    from _ojs_trapezoid, the trapezoidal rule at step h(N) = min(0.2, 0.45/ln(N - 1)) on the
    oracle's all-positive integral, one lattice for every pair, which does not cancel.  On
    either path the result is at most intercept_sc_rjs (see intercepts).  The switch looks only
    at the pair count.  On all-distinct gains 10^U(-3, 3) (6 seeds, gamma 1e4..1e12) the subset
    sum was at most 5.5e-9 off the trapezoid up to 11 pairs, but 2.0e-8 at 12 and 8.3e-8 at 14,
    past the 1e-8 that validate allows.  Per call at gamma = 10 on a shared 2-vCPU host, best of
    three runs, subset sum against trapezoid in ms, both with the RJS sum, symmetric /
    all-distinct gains 10^U(-1, 1) from default_rng(5): N=3 0.07 vs 0.19 / 0.08 vs 0.30, N=4
    0.08 vs 0.19 / 0.13 vs 0.37, N=6 0.10 vs 0.19 / 0.15 vs 0.48, N=8 0.16 vs 0.19 / 0.40 vs
    0.58, N=9 0.23 vs 0.19 / 0.77 vs 0.64, N=10 0.35 vs 0.20 / 1.5 vs 0.66, N=11 0.58 vs 0.19
    / 3.3 vs 0.71; so the two break even between 8 and 9 pairs.  Above the switch an
    all-distinct call takes 0.8-1.4 ms at N=12 to 18, 6 ms at N=64 and 0.39 s at N=1024, three
    quarters of it the RJS sum; symmetric N=1024 takes 1.3 ms.  The trapezoid was within 9e-16
    of the symmetric reference up to N=200 and within 1.1e-14 of intercept_sc_ojs_oracle on
    symmetric N up to 1024 and spread N up to 32 (the oracle refuses all-distinct N of about 290
    or more).  Two pairs equal intercept_sc_rjs bit for bit; one pair degrades to
    non-cooperation.
    """
    return intercepts(config, (SC_OJS,), gamma)[0].value


def intercepts(config: SystemConfig, schemes: Sequence[str], gamma: float) -> list[InterceptValue]:
    """Each scheme's closed form at gamma: one InterceptValue per entry of schemes, in order.

    nonc is computed once, the RJS sum once if rjs or ojs is asked for.  The closed forms keep
    the true order ojs <= rjs <= nonc here: rjs = min(sum, nonc), ojs = min(sum, rjs), or
    min(sum, nonc) where RJS refuses, which a request with rjs raises.  A min binds only where
    two values agree to rounding.  A single pair's rjs and ojs are nonc, flagged degraded.
    """
    schemes = tuple(map(require_scheme, schemes))
    if not schemes:
        raise ValueError("need at least one scheme")
    gamma = require_snr(gamma)
    values = {NONCOOP: intercept_noncoop(config)}
    if SC_RJS in schemes or SC_OJS in schemes:
        gains = _gains(config)
        try:
            rjs = _cooperative(config, gamma, functools.partial(_rjs_values, gains))
            values[SC_RJS] = min(rjs, values[NONCOOP])
        except ValueError:  # rjs refuses where one of its intermediates over- or underflows
            if SC_RJS in schemes:
                raise
            values[SC_RJS] = values[NONCOOP]
    if SC_OJS in schemes:
        pair_values = (functools.partial(_ojs_subset_values, gains)
                       if config.n_pairs <= _OJS_SUBSET_MAX_PAIRS else _ojs_trapezoid(gains, gamma))
        values[SC_OJS] = min(_cooperative(config, gamma, pair_values), values[SC_RJS])
    return [InterceptValue(values[s], config.n_pairs == 1 and s != NONCOOP) for s in schemes]


def _jammed_oracle(config: SystemConfig, i: int, jammers: Iterable[int], gamma: float) -> float:
    """Quadrature of pair i's intercept probability past every listed jammer.

    Given Z = g_se/g_sd > 1 (probability se/(sd + se)), the excess X = (Z -
    1)*sd/(sd + se) has P(X > x) = 1/(1 + x), so s = ln X is standard
    logistic.  Jammer j then fails to cover the event with probability 1 -
    exp(-exp(s - ln kappa_j)), kappa_j = sd/(2*(sd + se))*gamma*se_j, and the
    product over `jammers` is integrated against the logistic density.  One
    jammer gives the per-(i, j) RJS term, every candidate the OJS bracket.
    kappa_j is formed in that order, as _ojs_trapezoid forms it, so no
    intermediate leaves the float range before kappa_j does, and the factors
    are multiplied in ascending kappa_j, so the order of `jammers` does not
    change the bits.
    Every feature sits at a knee {0, ln kappa_j} whatever gamma is, so the
    knees are the breakpoints; the range stops 50 past the outer ones, where
    the logistic or jamming tails left out are of order e^-50 of the value.
    """
    sd = config.pairs[i].sigma2_sd
    se = config.pairs[i].sigma2_se
    kappas = sorted(sd / (2.0 * (sd + se)) * gamma * config.pairs[j].sigma2_se for j in jammers)
    if not all(0.0 < k < math.inf for k in kappas):
        raise _snr_range_error(gamma, "the jamming scale")
    log_kappas = [math.log(k) for k in kappas]
    knees = sorted({0.0, *log_kappas})
    if len(knees) >= _QUAD_LIMIT:  # QUADPACK needs more subintervals than breakpoints
        raise QuadratureError(f"quadrature cannot run: {len(knees)} knees, limit {_QUAD_LIMIT}")

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
    if rest:  # scipy's message runs over several lines; the first says what went wrong
        reason = rest[0].partition("\n")[0]
        raise QuadratureError(f"quadrature did not converge: {reason}")
    return se / (sd + se) * result


def intercept_sc_rjs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system RJS intercept probability assembled from quadrature."""
    return _cooperative(config, gamma, lambda rows, g: [math.fsum(
        _jammed_oracle(config, i, [j], g) for j in _candidates(config, i)
    ) / (config.n_pairs - 1) for i in rows])


def intercept_sc_ojs_oracle(config: SystemConfig, gamma: float) -> float:
    """Whole-system OJS intercept probability assembled from quadrature."""
    return _cooperative(
        config, gamma, lambda rows, g: [_jammed_oracle(config, i, _candidates(config, i), g)
                                        for i in rows]
    )
