"""Cancellation-free reference for the optimal-selection probability of a symmetric system.

In a symmetric system (every pair has main gain sd, eavesdropper gain se and
duty cycle 1/N) each active pair sees m = N - 1 candidate jammers whose
gains to the eavesdropper are i.i.d. exponential.  By Renyi's representation
the strongest of them, in units of its mean, is a sum of independent
exponentials with rates k, k = 1..m (A. Renyi, "On the theory of order
statistics", Acta Math. Acad. Sci. Hungar. 4, 1953).  Averaged against the log-logistic excess of the main channel
(see `secrecy_sim.analytic._jammed_oracle`), this gives

    P_ojs = se/(sd+se) * (1/kappa) * integral_0^inf exp(-u/kappa) prod_{k=1}^{m} k/(k+u) du,
    kappa = sd*gamma*se / (2*(sd+se)).

The integrand is positive and costs O(N) per point, so unlike the
alternating subset sum it loses no precision to cancellation at any N or
SNR.  It is integrated over s = ln u with the knees {ln 1, ..., ln m,
ln kappa} as breakpoints, where its shape changes whatever the SNR is.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# Relative error requested from the quadrature.
EPSREL = 1e-13


def symmetric_ojs(n: int, mer: float, gamma: float) -> float:
    """OJS intercept probability of make_symmetric_config(n, mer) at SNR gamma, n >= 2."""
    sd, se = float(mer), 1.0
    kappa = sd * gamma * se / (2.0 * (sd + se))
    log_kappa = math.log(kappa)
    ks = np.arange(1.0, n)

    def integrand(s: float) -> float:
        # (u/kappa) exp(-u/kappa) prod k/(k+u) with u = e^s, in log form so no
        # factor overflows or underflows on its own
        u = math.exp(s)
        return math.exp(s - log_kappa - u / kappa - float(np.log1p(u / ks).sum()))

    knees = sorted({*np.log(ks).tolist(), log_kappa})
    value, _, _, *rest = integrate.quad(
        integrand,
        knees[0] - 50.0,
        knees[-1] + 50.0,
        epsabs=0.0,
        epsrel=EPSREL,
        limit=500,
        points=knees,
        full_output=1,
    )
    if rest:
        raise RuntimeError(f"reference quadrature did not converge: {rest[0]}")
    return se / (sd + se) * value


def symmetric_ojs_mpmath(mp, n: int, mer: float, gamma: float):
    """The alternating subset sum for the same system in mpmath, collapsed by binomial weights.

    Every subset of k candidates has reciprocal gain sum k, so the C(m, k)
    subsets of size k share one term.  Run it inside mp.workdps(...).
    """
    sd, se, gamma = mp.mpf(mer), mp.mpf(1), mp.mpf(gamma)
    m = n - 1
    total = mp.mpf(0)
    for k in range(1, m + 1):
        phi = 2 * (sd + se) / (sd * gamma) * k
        term = 2 * se / (sd * gamma) * k * mp.exp(phi) * mp.e1(phi)
        total += (-1) ** (k + 1) * mp.binomial(m, k) * term
    return total
