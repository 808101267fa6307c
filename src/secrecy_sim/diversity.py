"""Empirical secrecy-diversity estimation from intercept-probability curves.

The diversity order is the negative high-SNR slope of log intercept
probability versus log SNR.  The random-selection curve carries a
ln(gamma) factor on top of its 1/gamma decay, so its finite-SNR fit is
biased low by roughly 1/ln(gamma).  Under optimal selection with three or
more pairs the alternating subset sum cancels that log factor and the
curve decays as a pure constant/gamma, leaving the fit essentially
unbiased; with exactly two pairs the schemes coincide and share the bias.
Estimates are therefore always reported together with the window they
were fitted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .model import SnrSweep, SystemConfig

__all__ = ["DEFAULT_WINDOW", "DiversityFit", "fit_diversity"]

# High-SNR fit window where the ln(gamma) bias (~1/ln gamma ~ 0.08) is small
# enough to separate diversity one from diversity zero by a wide margin.
DEFAULT_WINDOW = SnrSweep.log_spaced(1e5, 1e6, 9)


@dataclass(frozen=True)
class DiversityFit:
    """Log-log slope fit over an SNR window."""

    slope: float
    window: tuple[float, float]
    points: int
    max_residual: float

    @property
    def diversity(self) -> float:
        """Diversity estimate: the negated fitted slope."""
        return -self.slope


def fit_diversity(scheme: str, config: SystemConfig, window: SnrSweep) -> DiversityFit:
    """Least-squares diversity estimate from the closed form over the SNR window."""
    gammas = window.gamma_values
    if len(gammas) < 2:
        raise ValueError("diversity fit needs at least two SNR points")
    probs = [analytic.scheme_intercept(config, scheme, g).value for g in gammas]
    if any(not (p > 0.0 and math.isfinite(p)) for p in probs):
        raise ValueError("window contains zero or non-finite probabilities")
    x = np.log(np.asarray(gammas))
    y = np.log(np.asarray(probs))
    slope, offset = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + offset))))
    return DiversityFit(
        slope=float(slope),
        window=(gammas[0], gammas[-1]),
        points=len(gammas),
        max_residual=residual,
    )
